//! RAM-backed device: the original store behavior, now behind the trait.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use crate::{
    check_io, check_io_run, BlockDevice, CounterSnapshot, Counters, DeviceError, DeviceLatency,
};

/// An in-memory block device. Failing it makes the contents unreachable;
/// healing zero-fills them in place, so a blank replacement disk reuses
/// memory that is already mapped instead of first-touching a fresh
/// allocation, page fault by page fault, under its own write lock.
///
/// Which call takes which lock: `read_chunk` / `read_chunks` hold the
/// contents `RwLock` shared (concurrent readers proceed in parallel);
/// `write_chunk`, `fail` and `heal` hold it exclusive (`heal` for its whole
/// zero-fill, plus the `dead` mutex); `clone` holds it shared for the copy.
/// `is_failed`, the geometry getters and the counters take no lock at all:
/// the store asks `is_failed` several times per chunk, so it is one atomic
/// load of a flag that `fail`/`heal` flip while they hold the write lock.
#[derive(Debug)]
pub struct MemDevice {
    chunk_size: usize,
    chunks: usize,
    /// `None` while failed.
    data: RwLock<Option<Vec<u8>>>,
    /// Mirrors `data.is_none()`; written only under `data`'s write lock.
    /// `heal` stores with `Release` and `is_failed` loads with `Acquire`, so
    /// whoever sees the device healthy again also sees everything the healer
    /// did first (the store opens its rebuild window before it heals).
    failed: AtomicBool,
    /// What `fail` took out of `data`; only `heal` touches it, to zero it.
    dead: Mutex<Option<Vec<u8>>>,
    counters: Counters,
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
            data: RwLock::new(Some(bytes)),
            failed: AtomicBool::new(false),
            dead: Mutex::default(),
            counters: Counters::default(),
        }
    }

    /// An array of `n` identical healthy devices.
    pub fn array(chunk_size: usize, chunks: usize, n: usize) -> Vec<Self> {
        (0..n).map(|_| Self::new(chunk_size, chunks)).collect()
    }
}

impl Clone for MemDevice {
    /// Clones contents and failure state (never a failed device's dead
    /// bytes); counters start fresh.
    fn clone(&self) -> Self {
        let data = self.data.read().expect("mem lock").clone();
        Self {
            chunk_size: self.chunk_size,
            chunks: self.chunks,
            failed: AtomicBool::new(data.is_none()),
            data: RwLock::new(data),
            dead: Mutex::default(),
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
        check_io(chunk, self.chunks, buf.len(), self.chunk_size)?;
        let _io = self.counters.begin_io();
        let began = Instant::now();
        let guard = self.data.read().expect("mem lock");
        let data = guard.as_ref().ok_or(DeviceError::Failed)?;
        let start = chunk * self.chunk_size;
        buf.copy_from_slice(&data[start..start + self.chunk_size]);
        self.counters
            .record_read(chunk, self.chunk_size as u64, began.elapsed());
        Ok(())
    }

    /// Contiguous storage: a run of chunks is one copy and one I/O op.
    fn read_chunks(&self, first: usize, count: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        check_io_run(first, count, self.chunks, buf.len(), self.chunk_size)?;
        let _io = self.counters.begin_io();
        let began = Instant::now();
        let guard = self.data.read().expect("mem lock");
        let data = guard.as_ref().ok_or(DeviceError::Failed)?;
        let start = first * self.chunk_size;
        buf.copy_from_slice(&data[start..start + count * self.chunk_size]);
        self.counters
            .record_read(first, (count * self.chunk_size) as u64, began.elapsed());
        Ok(())
    }

    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
        check_io(chunk, self.chunks, data.len(), self.chunk_size)?;
        let _io = self.counters.begin_io();
        let began = Instant::now();
        let mut guard = self.data.write().expect("mem lock");
        let store = guard.as_mut().ok_or(DeviceError::Failed)?;
        let start = chunk * self.chunk_size;
        store[start..start + self.chunk_size].copy_from_slice(data);
        self.counters
            .record_write(chunk, self.chunk_size as u64, began.elapsed());
        Ok(())
    }

    fn fail(&self) {
        let mut guard = self.data.write().expect("mem lock");
        if let Some(bytes) = guard.take() {
            self.failed.store(true, Ordering::Release);
            *self.dead.lock().expect("mem lock") = Some(bytes);
        }
    }

    fn heal(&self) -> Result<(), DeviceError> {
        let mut guard = self.data.write().expect("mem lock");
        if guard.is_none() {
            *guard = Some(match self.dead.lock().expect("mem lock").take() {
                Some(mut bytes) => {
                    bytes.fill(0);
                    bytes
                }
                None => vec![0u8; self.chunk_size * self.chunks],
            });
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
