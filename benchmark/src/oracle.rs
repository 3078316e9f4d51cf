//! Self-describing record payloads and the model the reads are checked
//! against.
//!
//! A payload names its record, the client thread that wrote it and that
//! thread's write sequence for the record, and carries a checksum over
//! all of its bytes. Every record has one writer (see `owner`), so the
//! last acknowledged sequence per record is the whole model: a read
//! by the writer must return exactly that write, a read by anyone else
//! must return an intact payload of that record no older than what was
//! acknowledged before the read was issued.

use std::sync::atomic::{AtomicU32, Ordering};

/// Bytes of header in front of the generated body.
pub const HEADER: usize = 24;
/// The `thread` field of the set-up's prefill (sequence 0).
pub const PREFILL_THREAD: u16 = u16::MAX;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^ (x >> 29)
}

/// Fills `buf` (a whole number of 8-byte words, at least `HEADER`) with
/// the payload of write `seq` by `thread` to `record`.
pub fn fill(buf: &mut [u8], record: u64, thread: u16, seq: u32) {
    assert!(
        buf.len() >= HEADER && buf.len().is_multiple_of(8),
        "record size"
    );
    let tag = (seq as u64) << 16 | thread as u64;
    buf[0..8].copy_from_slice(&record.to_le_bytes());
    buf[8..16].copy_from_slice(&tag.to_le_bytes());
    let mut x = mix(record ^ tag.rotate_left(40)) | 1;
    let mut sum = mix(!record).wrapping_add(tag);
    for w in buf[HEADER..].chunks_exact_mut(8) {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
        w.copy_from_slice(&x.to_le_bytes());
        sum = (sum ^ x)
            .rotate_left(27)
            .wrapping_mul(0x0000_0100_0000_01B3);
    }
    buf[16..24].copy_from_slice(&sum.to_le_bytes());
}

pub fn payload(len: usize, record: u64, thread: u16, seq: u32) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill(&mut buf, record, thread, seq);
    buf
}

/// Checks that `buf` is an intact payload of `record`; returns its
/// `(thread, seq)`.
pub fn parse(buf: &[u8], record: u64) -> Option<(u16, u32)> {
    if buf.len() < HEADER || !buf.len().is_multiple_of(8) {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(buf[i..i + 8].try_into().expect("8 bytes"));
    let tag = word(8);
    if word(0) != record || tag >> 48 != 0 {
        return None;
    }
    let mut sum = mix(!record).wrapping_add(tag);
    for w in buf[HEADER..].chunks_exact(8) {
        let x = u64::from_le_bytes(w.try_into().expect("8 bytes"));
        sum = (sum ^ x)
            .rotate_left(27)
            .wrapping_mul(0x0000_0100_0000_01B3);
    }
    (sum == word(16)).then_some((tag as u16, (tag >> 16) as u32))
}

/// The only thread that writes `record`: ownership is dealt round-robin
/// in granules of `granule` consecutive records.
pub fn owner(record: u64, granule: u64, threads: u64) -> u16 {
    (record / granule % threads) as u16
}

/// Last acknowledged write sequence per record (0 = the prefill).
#[derive(Debug)]
pub struct Model {
    acked: Vec<AtomicU32>,
    granule: u64,
    threads: u64,
}

impl Model {
    pub fn new(records: u64, granule: u64, threads: usize) -> Self {
        Self {
            acked: (0..records).map(|_| AtomicU32::new(0)).collect(),
            granule,
            threads: threads as u64,
        }
    }

    pub fn records(&self) -> u64 {
        self.acked.len() as u64
    }

    pub fn owner(&self, record: u64) -> u16 {
        owner(record, self.granule, self.threads)
    }

    pub fn acked(&self, record: u64) -> u32 {
        self.acked[record as usize].load(Ordering::Acquire)
    }

    /// Called by the owner once its write of `seq` was acknowledged.
    pub fn ack(&self, record: u64, seq: u32) {
        self.acked[record as usize].store(seq, Ordering::Release);
    }

    fn writer_ok(&self, record: u64, thread: u16, seq: u32) -> bool {
        if seq == 0 {
            thread == PREFILL_THREAD
        } else {
            thread == self.owner(record)
        }
    }

    /// A read that must return exactly write `seq` (by the record's owner,
    /// or with the array quiesced).
    pub fn check_exact(&self, buf: &[u8], record: u64, seq: u32) -> bool {
        matches!(parse(buf, record), Some((t, s)) if s == seq && self.writer_ok(record, t, s))
    }

    /// A read racing the record's owner: intact, and no older than `floor`.
    pub fn check_at_least(&self, buf: &[u8], record: u64, floor: u32) -> bool {
        matches!(parse(buf, record), Some((t, s)) if s >= floor && self.writer_ok(record, t, s))
    }

    /// Checks a whole chunk holding records `first..first + n` against the
    /// acknowledged state; returns how many records do not match.
    pub fn check_chunk(&self, chunk: &[u8], first: u64, record_size: usize) -> u64 {
        if !chunk.len().is_multiple_of(record_size) {
            return (chunk.len() / record_size).max(1) as u64;
        }
        chunk
            .chunks_exact(record_size)
            .zip(first..)
            .filter(|(buf, r)| !self.check_exact(buf, *r, self.acked(*r)))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_and_detects_damage() {
        let p = payload(512, 77, 1, 9);
        assert_eq!(parse(&p, 77), Some((1, 9)));
        assert_eq!(parse(&p, 78), None, "wrong record");
        for at in [0, 9, 17, 24, 300, 511] {
            let mut bad = p.clone();
            bad[at] ^= 0x40;
            assert_eq!(parse(&bad, 77), None, "flip at {at}");
        }
        // Head of one write and tail of another (a torn record).
        let q = payload(512, 77, 1, 10);
        let mut torn = p.clone();
        torn[256..].copy_from_slice(&q[256..]);
        assert_eq!(parse(&torn, 77), None);
        assert_eq!(parse(&vec![0u8; 512], 0), None, "zeroes are not a payload");
    }

    #[test]
    fn model_applies_the_single_writer_rules() {
        let m = Model::new(8, 1, 2);
        let pre = payload(64, 3, PREFILL_THREAD, 0);
        assert!(m.check_exact(&pre, 3, 0));
        assert!(m.check_at_least(&pre, 3, 0));
        let w5 = payload(64, 3, 1, 5);
        assert!(!m.check_exact(&w5, 3, 0));
        m.ack(3, 5);
        assert!(m.check_exact(&w5, 3, m.acked(3)));
        assert!(!m.check_at_least(&pre, 3, 5), "stale read");
        assert!(
            m.check_at_least(&payload(64, 3, 1, 6), 3, 5),
            "newer is fine"
        );
        assert!(
            !m.check_at_least(&payload(64, 3, 0, 6), 3, 5),
            "not the owner"
        );
        let mut chunk = payload(64, 2, PREFILL_THREAD, 0);
        chunk.extend_from_slice(&w5);
        assert_eq!(m.check_chunk(&chunk, 2, 64), 0);
        chunk[100] ^= 1;
        assert_eq!(m.check_chunk(&chunk, 2, 64), 1);
        // Granules of 4 records: 0..4 belong to thread 0, 4..8 to thread 1.
        let m = Model::new(8, 4, 2);
        assert_eq!(
            (0..8).map(|r| m.owner(r)).collect::<Vec<_>>(),
            [0, 0, 0, 0, 1, 1, 1, 1]
        );
    }
}
