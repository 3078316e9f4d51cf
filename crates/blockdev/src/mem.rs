//! RAM-backed device: the original store behavior, now behind the trait.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use crate::{
    check_io_run, check_range_io, BlockDevice, CounterSnapshot, Counters, DeviceError,
    DeviceLatency,
};

/// An in-memory block device. Failing it makes the contents unreachable
/// (the bytes stay where they are, behind the failed flag); healing marks
/// every chunk *blank* instead of zero-filling it: a blank chunk reads as
/// zeroes until it is written, whatever its bytes still hold. Bringing a
/// replacement disk online therefore costs one bit per chunk, not a pass
/// over its bytes, and the rebuild that follows overwrites each chunk once.
///
/// A range read or write ([`BlockDevice::read_range`] /
/// [`BlockDevice::write_range`]) copies only the range. A range written
/// into a blank chunk leaves zeroes around it, as a whole-chunk write of
/// what the blank chunk read would.
///
/// Which call takes which lock: `read_chunk` / `read_chunks` /
/// `read_range` hold the contents `RwLock` shared (concurrent readers
/// proceed in parallel); `write_chunk`, `write_range`, `fail` and `heal`
/// hold it exclusive (`heal` only long enough to set the blank bitmap, a
/// word per 64 chunks); `clone` holds it shared for the copy. `is_failed`,
/// the geometry getters and the counters take no lock at all: the store
/// asks `is_failed` several times per chunk, so it is one atomic load of a
/// flag that `fail`/`heal` flip while they hold the write lock.
#[derive(Debug)]
pub struct MemDevice {
    chunk_size: usize,
    chunks: usize,
    contents: RwLock<Contents>,
    /// Mirrors `Contents::failed`; written only under `contents`' write
    /// lock. `heal` stores with `Release` and `is_failed` loads with
    /// `Acquire`, so whoever sees the device healthy again also sees
    /// everything the healer did first (the store opens its rebuild window
    /// before it heals).
    failed: AtomicBool,
    counters: Counters,
}

/// A device's bytes, which of its chunks are blank, and whether it is
/// failed.
#[derive(Debug, Clone)]
struct Contents {
    bytes: Vec<u8>,
    /// One bit per chunk, set from `heal` until the chunk's next write.
    blank: Vec<u64>,
    /// Set bits in `blank`: at 0 a run is one copy, bitmap unread.
    blanks: usize,
    /// Checked by every read and write under the lock they already hold,
    /// beside the bytes; `MemDevice::failed` mirrors it for `is_failed`.
    failed: bool,
}

impl Contents {
    fn is_blank(&self, chunk: usize) -> bool {
        self.blank[chunk / 64] >> (chunk % 64) & 1 != 0
    }

    /// Copies the run of chunks starting at `first` that fills `buf`,
    /// blank chunks as zeroes.
    fn copy_out(&self, first: usize, chunk_size: usize, buf: &mut [u8]) {
        let start = first * chunk_size;
        if self.blanks == 0 {
            buf.copy_from_slice(&self.bytes[start..start + buf.len()]);
            return;
        }
        for (i, out) in buf.chunks_exact_mut(chunk_size).enumerate() {
            if self.is_blank(first + i) {
                out.fill(0);
            } else {
                let at = start + i * chunk_size;
                out.copy_from_slice(&self.bytes[at..at + chunk_size]);
            }
        }
    }

    /// Copies bytes `range` of chunk `chunk` into the same bytes of `buf`
    /// (a whole chunk's buffer), as zeroes if the chunk is blank.
    fn copy_range_out(&self, chunk: usize, range: Range<usize>, buf: &mut [u8]) {
        let at = chunk * buf.len();
        let out = &mut buf[range.clone()];
        if self.blanks > 0 && self.is_blank(chunk) {
            out.fill(0);
        } else {
            out.copy_from_slice(&self.bytes[at + range.start..at + range.end]);
        }
    }

    /// Overwrites bytes `range` of chunk `chunk` with the same bytes of
    /// `buf` (a whole chunk's buffer); the chunk is no longer blank. A
    /// blank chunk read as zeroes, so the bytes around `range` become
    /// zeroes too, whatever they held before the device failed.
    fn write(&mut self, chunk: usize, range: Range<usize>, buf: &[u8]) {
        let at = chunk * buf.len();
        let stored = &mut self.bytes[at..at + buf.len()];
        stored[range.clone()].copy_from_slice(&buf[range.clone()]);
        if self.blanks == 0 {
            return;
        }
        let bit = 1u64 << (chunk % 64);
        let word = &mut self.blank[chunk / 64];
        if *word & bit != 0 {
            stored[..range.start].fill(0);
            stored[range.end..].fill(0);
            *word &= !bit;
            self.blanks -= 1;
        }
    }

    /// Marks all `chunks` chunks blank.
    fn blank_all(&mut self, chunks: usize) {
        self.blank.fill(!0);
        if let (Some(last), tail @ 1..) = (self.blank.last_mut(), chunks % 64) {
            *last = (1 << tail) - 1;
        }
        self.blanks = chunks;
    }
}

/// Granularity of the construction-time page touch.
const PAGE: usize = 4096;

impl MemDevice {
    /// A healthy zero-filled device of `chunks` chunks of `chunk_size`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn new(chunk_size: usize, chunks: usize) -> Self {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let mut bytes = vec![0u8; chunk_size * chunks];
        // Fault every page in now, on the constructing thread. A zeroed
        // allocation this large is untouched copy-on-write memory; left to
        // the first writers, two client threads filling the array fault it
        // in concurrently, which costs several times the system time of
        // doing it once here. The store is the zero the page already holds,
        // so a new device still reads all zeroes.
        for page in bytes.chunks_mut(PAGE) {
            page[0] = std::hint::black_box(0);
        }
        Self {
            chunk_size,
            chunks,
            contents: RwLock::new(Contents {
                bytes,
                blank: vec![0; chunks.div_ceil(64)],
                blanks: 0,
                failed: false,
            }),
            failed: AtomicBool::new(false),
            counters: Counters::default(),
        }
    }

    /// An array of `n` identical healthy devices.
    pub fn array(chunk_size: usize, chunks: usize, n: usize) -> Vec<Self> {
        (0..n).map(|_| Self::new(chunk_size, chunks)).collect()
    }
}

impl Clone for MemDevice {
    /// Clones contents, blank chunks and failure state; counters start
    /// fresh.
    fn clone(&self) -> Self {
        let contents = self.contents.read().expect("mem lock");
        Self {
            chunk_size: self.chunk_size,
            chunks: self.chunks,
            failed: AtomicBool::new(contents.failed),
            contents: RwLock::new(contents.clone()),
            counters: Counters::default(),
        }
    }
}

impl BlockDevice for MemDevice {
    fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    fn chunks(&self) -> usize {
        self.chunks
    }

    fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.read_range(chunk, 0..self.chunk_size, buf)
    }

    /// Contiguous storage: a run of chunks is one copy and one I/O op (one
    /// copy per chunk while the device has blank chunks).
    fn read_chunks(&self, first: usize, count: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        check_io_run(first, count, self.chunks, buf.len(), self.chunk_size)?;
        let _io = self.counters.begin_io();
        let began = Instant::now();
        let contents = self.contents.read().expect("mem lock");
        if contents.failed {
            return Err(DeviceError::Failed);
        }
        contents.copy_out(first, self.chunk_size, buf);
        self.counters
            .record_read(first, (count * self.chunk_size) as u64, began.elapsed());
        Ok(())
    }

    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.write_range(chunk, 0..self.chunk_size, data)
    }

    /// One copy of the range under the shared lock.
    fn read_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &mut [u8],
    ) -> Result<(), DeviceError> {
        check_range_io(chunk, &range, self.chunks, buf.len(), self.chunk_size)?;
        let _io = self.counters.begin_io();
        let began = Instant::now();
        let contents = self.contents.read().expect("mem lock");
        if contents.failed {
            return Err(DeviceError::Failed);
        }
        let bytes = range.len() as u64;
        contents.copy_range_out(chunk, range, buf);
        self.counters.record_read(chunk, bytes, began.elapsed());
        Ok(())
    }

    /// One copy of the range under the exclusive lock (a blank chunk's
    /// other bytes are zeroed).
    fn write_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &[u8],
    ) -> Result<(), DeviceError> {
        check_range_io(chunk, &range, self.chunks, buf.len(), self.chunk_size)?;
        let _io = self.counters.begin_io();
        let began = Instant::now();
        let mut contents = self.contents.write().expect("mem lock");
        if contents.failed {
            return Err(DeviceError::Failed);
        }
        let bytes = range.len() as u64;
        contents.write(chunk, range, buf);
        self.counters.record_write(chunk, bytes, began.elapsed());
        Ok(())
    }

    fn fail(&self) {
        let mut contents = self.contents.write().expect("mem lock");
        contents.failed = true;
        self.failed.store(true, Ordering::Release);
    }

    fn heal(&self) -> Result<(), DeviceError> {
        let mut contents = self.contents.write().expect("mem lock");
        if contents.failed {
            contents.blank_all(self.chunks);
            contents.failed = false;
            self.failed.store(false, Ordering::Release);
        }
        Ok(())
    }

    fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    fn reset_counters(&self) {
        self.counters.reset();
    }

    fn latency(&self) -> DeviceLatency {
        self.counters.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_counters() {
        let d = MemDevice::new(8, 4);
        d.write_chunk(2, &[7u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        d.read_chunk(2, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8]);
        let c = d.counters();
        assert_eq!((c.reads, c.writes), (1, 1));
        assert_eq!(c.bytes_read, 8);
    }

    #[test]
    fn fail_discards_heal_zeroes() {
        let d = MemDevice::new(4, 2);
        d.write_chunk(0, &[1, 2, 3, 4]).unwrap();
        d.fail();
        assert!(d.is_failed());
        let mut buf = [0u8; 4];
        assert_eq!(d.read_chunk(0, &mut buf), Err(DeviceError::Failed));
        assert_eq!(d.write_chunk(0, &[0u8; 4]), Err(DeviceError::Failed));
        d.heal().unwrap();
        d.read_chunk(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
    }

    #[test]
    fn healed_device_reads_all_zeroes_every_time() {
        let d = MemDevice::new(4, 3);
        let mut buf = [0u8; 4];
        for round in 1..=2u8 {
            for c in 0..3 {
                d.write_chunk(c, &[round * 16 + c as u8; 4]).unwrap();
            }
            d.fail();
            assert!(d.is_failed());
            assert_eq!(d.read_chunk(1, &mut buf), Err(DeviceError::Failed));
            assert_eq!(d.read_chunks(0, 1, &mut buf), Err(DeviceError::Failed));
            assert_eq!(d.write_chunk(1, &[9u8; 4]), Err(DeviceError::Failed));
            d.heal().unwrap();
            assert!(!d.is_failed());
            let mut all = [0xFFu8; 12];
            d.read_chunks(0, 3, &mut all).unwrap();
            assert_eq!(all, [0u8; 12], "round {round}: old bytes never observable");
        }
    }

    #[test]
    fn clone_of_a_failed_device_is_failed_and_heals_to_zeroes() {
        let d = MemDevice::new(4, 2);
        d.write_chunk(1, &[5u8; 4]).unwrap();
        d.fail();
        let c = d.clone();
        assert!(c.is_failed());
        let mut buf = [1u8; 4];
        assert_eq!(c.read_chunk(1, &mut buf), Err(DeviceError::Failed));
        c.heal().unwrap();
        c.read_chunk(1, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
        assert!(
            d.is_failed(),
            "healing the clone leaves the original failed"
        );
    }

    #[test]
    fn heal_on_a_healthy_device_is_a_no_op() {
        let d = MemDevice::new(4, 2);
        d.write_chunk(0, &[3u8; 4]).unwrap();
        d.heal().unwrap();
        let mut buf = [0u8; 4];
        d.read_chunk(0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 4]);
    }

    #[test]
    fn read_chunks_is_one_op() {
        let d = MemDevice::new(4, 8);
        d.write_chunk(2, &[1u8; 4]).unwrap();
        d.write_chunk(3, &[2u8; 4]).unwrap();
        d.write_chunk(4, &[3u8; 4]).unwrap();
        d.reset_counters();
        let mut buf = [0u8; 12];
        d.read_chunks(2, 3, &mut buf).unwrap();
        assert_eq!(&buf[..4], &[1u8; 4]);
        assert_eq!(&buf[4..8], &[2u8; 4]);
        assert_eq!(&buf[8..], &[3u8; 4]);
        let c = d.counters();
        assert_eq!((c.reads, c.bytes_read), (1, 12));
    }

    #[test]
    fn read_chunks_checks_run_bounds() {
        let d = MemDevice::new(4, 8);
        let mut buf = [0u8; 12];
        assert!(matches!(
            d.read_chunks(6, 3, &mut buf),
            Err(DeviceError::OutOfRange { chunk: 8, .. })
        ));
        assert!(matches!(
            d.read_chunks(0, 2, &mut buf),
            Err(DeviceError::WrongBufferSize {
                found: 12,
                expected: 8
            })
        ));
    }

    #[test]
    fn bounds_and_sizes_checked() {
        let d = MemDevice::new(4, 2);
        let mut buf = [0u8; 4];
        assert!(matches!(
            d.read_chunk(2, &mut buf),
            Err(DeviceError::OutOfRange { .. })
        ));
        assert!(matches!(
            d.write_chunk(0, &[0u8; 3]),
            Err(DeviceError::WrongBufferSize {
                found: 3,
                expected: 4
            })
        ));
    }
    #[test]
    fn a_fresh_device_reads_all_zeroes_across_page_boundaries() {
        // 3 pages and a bit: the construction-time page touch must not
        // leave a mark anywhere.
        let d = MemDevice::new(1000, 13);
        let mut all = vec![0xFFu8; 13_000];
        d.read_chunks(0, 13, &mut all).unwrap();
        assert!(all.iter().all(|&b| b == 0));
        assert!(!d.is_failed());
    }

    /// Chunk `c` of a test pattern: every byte `tag + c`.
    fn pattern(tag: u8, c: usize) -> [u8; 4] {
        [tag + c as u8; 4]
    }

    #[test]
    fn a_run_over_blank_and_written_chunks_reads_each_as_it_is() {
        let d = MemDevice::new(4, 70);
        for c in 0..70 {
            d.write_chunk(c, &pattern(1, c)).unwrap();
        }
        d.fail();
        d.heal().unwrap();
        // Rewrite both ends of the first word and a chunk in the second.
        let written = [0, 2, 3, 63, 64, 69];
        for &c in &written {
            d.write_chunk(c, &pattern(100, c)).unwrap();
        }
        d.reset_counters();
        let mut all = vec![0xFFu8; 4 * 70];
        d.read_chunks(0, 70, &mut all).unwrap();
        for (c, got) in all.chunks_exact(4).enumerate() {
            let want = if written.contains(&c) {
                pattern(100, c)
            } else {
                [0; 4]
            };
            assert_eq!(got, want, "chunk {c}");
        }
        // A run from the middle, across the word boundary.
        let mut part = vec![0xFFu8; 4 * 4];
        d.read_chunks(62, 4, &mut part).unwrap();
        assert_eq!(&part[..4], &[0; 4]);
        assert_eq!(&part[4..8], &pattern(100, 63));
        assert_eq!(&part[8..12], &pattern(100, 64));
        assert_eq!(&part[12..], &[0; 4]);
        let c = d.counters();
        assert_eq!((c.reads, c.bytes_read), (2, 4 * 74), "still one op a run");
    }

    #[test]
    fn a_clone_of_a_healed_half_rewritten_device_keeps_its_blanks() {
        let d = MemDevice::new(4, 6);
        for c in 0..6 {
            d.write_chunk(c, &pattern(1, c)).unwrap();
        }
        d.fail();
        d.heal().unwrap();
        for c in 0..3 {
            d.write_chunk(c, &pattern(50, c)).unwrap();
        }
        let clone = d.clone();
        assert!(!clone.is_failed());
        let mut buf = [0u8; 4];
        for c in 0..6 {
            clone.read_chunk(c, &mut buf).unwrap();
            let want = if c < 3 { pattern(50, c) } else { [0; 4] };
            assert_eq!(buf, want, "chunk {c}");
        }
        // The two go their own ways: writing the clone's blanks leaves the
        // original's blank.
        clone.write_chunk(4, &pattern(9, 4)).unwrap();
        d.read_chunk(4, &mut buf).unwrap();
        assert_eq!(buf, [0; 4]);
        clone.read_chunk(4, &mut buf).unwrap();
        assert_eq!(buf, pattern(9, 4));
    }

    #[test]
    fn a_second_failure_blanks_the_chunks_written_since_the_first_heal() {
        let d = MemDevice::new(4, 3);
        d.write_chunk(1, &pattern(1, 1)).unwrap();
        d.fail();
        d.heal().unwrap();
        for c in 0..3 {
            d.write_chunk(c, &pattern(20, c)).unwrap();
        }
        d.fail();
        d.heal().unwrap();
        let mut all = [0xFFu8; 12];
        d.read_chunks(0, 3, &mut all).unwrap();
        assert_eq!(all, [0u8; 12]);
        assert_eq!(d.contents.read().unwrap().blanks, 3);
    }

    #[test]
    fn heal_of_a_never_failed_device_blanks_nothing() {
        let d = MemDevice::new(4, 130);
        for c in 0..130 {
            d.write_chunk(c, &[c as u8; 4]).unwrap();
        }
        d.heal().unwrap();
        let contents = d.contents.read().unwrap();
        assert_eq!(contents.blanks, 0);
        assert!(contents.blank.iter().all(|&w| w == 0));
        drop(contents);
        let mut all = vec![0u8; 4 * 130];
        d.read_chunks(0, 130, &mut all).unwrap();
        for (c, got) in all.chunks_exact(4).enumerate() {
            assert_eq!(got, [c as u8; 4], "chunk {c}");
        }
    }

    /// The point of the bitmap: `fail` + `heal` leave the old bytes in
    /// place (no pass over the device), and still no read can see them. A
    /// memset brought back into `heal` fails the first half.
    #[test]
    fn heal_leaves_the_old_bytes_in_place_and_every_read_sees_zeroes() {
        let d = MemDevice::new(4, 67);
        for c in 0..67 {
            d.write_chunk(c, &pattern(1, c)).unwrap();
        }
        d.fail();
        d.heal().unwrap();
        {
            let contents = d.contents.read().unwrap();
            for (c, old) in contents.bytes.chunks_exact(4).enumerate() {
                assert_eq!(old, pattern(1, c), "chunk {c}'s bytes untouched");
            }
            assert_eq!(contents.blanks, 67);
            assert_eq!(
                contents.blank,
                vec![!0, (1 << 3) - 1],
                "no bit past the end"
            );
        }
        let mut buf = [0xFFu8; 4];
        for c in 0..67 {
            d.read_chunk(c, &mut buf).unwrap();
            assert_eq!(buf, [0; 4], "chunk {c}");
        }
        let mut all = vec![0xFFu8; 4 * 67];
        d.read_chunks(0, 67, &mut all).unwrap();
        assert!(all.iter().all(|&b| b == 0));
    }

    /// `is_failed` is a flag beside the contents, not the contents: after
    /// any interleaving of `fail` and `heal` from 4 threads the two must
    /// agree, and a read that succeeds in the middle of one sees zeroes.
    #[test]
    fn is_failed_agrees_with_reads_under_a_fail_heal_hammer() {
        let d = MemDevice::new(64, 4);
        let phase = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (d, phase) = (&d, &phase);
                s.spawn(move || {
                    let mut buf = [0xFFu8; 64];
                    for round in 0..2_000 {
                        // Racing phase: everyone flips or reads at once.
                        phase.wait();
                        match (t + round) % 3 {
                            0 => d.fail(),
                            1 => d.heal().unwrap(),
                            _ => {}
                        }
                        match d.read_chunk(t, &mut buf) {
                            Ok(()) => assert_eq!(buf, [0u8; 64], "healed = zeroes"),
                            Err(e) => assert_eq!(e, DeviceError::Failed),
                        }
                        // Quiet phase: nobody flips, all four must agree.
                        phase.wait();
                        assert_eq!(d.is_failed(), d.read_chunk(t, &mut buf).is_err());
                    }
                });
            }
        });
        let mut buf = [0xFFu8; 64];
        d.fail();
        assert!(d.is_failed());
        assert_eq!(d.read_chunk(0, &mut buf), Err(DeviceError::Failed));
        d.heal().unwrap();
        assert!(!d.is_failed());
        d.read_chunk(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
    }
}
