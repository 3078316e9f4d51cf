//! File-backed device: one file per disk, so arrays larger than RAM work.

use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use crate::{
    check_io_run, check_range_io, BlockDevice, CounterSnapshot, Counters, DeviceError,
    DeviceLatency, Timing,
};

/// A block device backed by a single file via `std::fs`.
///
/// The file is created (or truncated) zero-filled at construction. Every
/// transfer is one positioned call (`read_exact_at` / `write_all_at`): the
/// file has no cursor to share, so two clients on one disk do not wait for
/// each other here. A range read or write is one positioned call of the
/// range's bytes.
///
/// Which call takes which lock: `read_chunk`, `read_chunks`, `write_chunk`,
/// the range pair and `flush` hold the *read* side of the file lock for
/// their transfer (or `fdatasync`), so they run side by side; only `heal`
/// takes the write side, while it truncates and re-extends the file, so
/// that no transfer lands in a half-rebuilt one. `is_failed` and `fail`
/// take no lock: the failure state is an atomic flag, stored with
/// `Release` and loaded with `Acquire` so that whoever sees the device
/// healthy again also sees what its healer did before healing it.
#[derive(Debug)]
pub struct FileDevice {
    path: PathBuf,
    chunk_size: usize,
    chunks: usize,
    failed: AtomicBool,
    file: RwLock<File>,
    counters: Counters,
    timing: Timing,
}

fn io_err(e: std::io::Error) -> DeviceError {
    // Keep the kind: the retry layer classifies Interrupted/TimedOut/
    // WouldBlock as transient without parsing the message.
    DeviceError::Io {
        kind: e.kind(),
        message: e.to_string(),
    }
}

impl FileDevice {
    /// Creates (or truncates) `path` as a zero-filled device of `chunks`
    /// chunks of `chunk_size` bytes.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Io`] on filesystem errors;
    /// [`DeviceError::WrongBufferSize`] for `chunk_size == 0`.
    pub fn create(
        path: impl AsRef<Path>,
        chunk_size: usize,
        chunks: usize,
    ) -> Result<Self, DeviceError> {
        if chunk_size == 0 {
            return Err(DeviceError::WrongBufferSize {
                found: 0,
                expected: 1,
            });
        }
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(io_err)?;
        file.set_len((chunk_size * chunks) as u64).map_err(io_err)?;
        Ok(Self {
            path,
            chunk_size,
            chunks,
            failed: AtomicBool::new(false),
            file: RwLock::new(file),
            counters: Counters::default(),
            timing: Timing::default(),
        })
    }

    /// Opens an *existing* device file without truncating it — the
    /// reopen-after-crash path. The file must already be exactly
    /// `chunk_size * chunks` bytes long; a size mismatch means the caller's
    /// geometry is wrong, and silently resizing would fabricate or drop
    /// data.
    ///
    /// # Errors
    ///
    /// [`DeviceError::Io`] on filesystem errors or a size mismatch;
    /// [`DeviceError::WrongBufferSize`] for `chunk_size == 0`.
    pub fn open(
        path: impl AsRef<Path>,
        chunk_size: usize,
        chunks: usize,
    ) -> Result<Self, DeviceError> {
        if chunk_size == 0 {
            return Err(DeviceError::WrongBufferSize {
                found: 0,
                expected: 1,
            });
        }
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(io_err)?;
        let expected = (chunk_size * chunks) as u64;
        let found = file.metadata().map_err(io_err)?.len();
        if found != expected {
            return Err(DeviceError::Io {
                kind: std::io::ErrorKind::InvalidData,
                message: format!(
                    "device file {} is {found} bytes, geometry expects {expected}",
                    path.display()
                ),
            });
        }
        Ok(Self {
            path,
            chunk_size,
            chunks,
            failed: AtomicBool::new(false),
            file: RwLock::new(file),
            counters: Counters::default(),
            timing: Timing::default(),
        })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl BlockDevice for FileDevice {
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

    /// One `read_exact_at` for the whole run: a single I/O op.
    fn read_chunks(&self, first: usize, count: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        check_io_run(first, count, self.chunks, buf.len(), self.chunk_size)?;
        let _io = self.timing.begin();
        if self.is_failed() {
            return Err(DeviceError::Failed);
        }
        let began = Instant::now();
        self.file
            .read()
            .expect("file lock")
            .read_exact_at(buf, (first * self.chunk_size) as u64)
            .map_err(io_err)?;
        self.counters.record_read(first, buf.len() as u64);
        self.timing.read(began.elapsed());
        Ok(())
    }

    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.write_range(chunk, 0..self.chunk_size, data)
    }

    /// One `read_exact_at` of the range's bytes.
    fn read_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &mut [u8],
    ) -> Result<(), DeviceError> {
        check_range_io(chunk, &range, self.chunks, buf.len(), self.chunk_size)?;
        let _io = self.timing.begin();
        if self.is_failed() {
            return Err(DeviceError::Failed);
        }
        let began = Instant::now();
        let at = (chunk * self.chunk_size + range.start) as u64;
        let bytes = range.len() as u64;
        self.file
            .read()
            .expect("file lock")
            .read_exact_at(&mut buf[range], at)
            .map_err(io_err)?;
        self.counters.record_read(chunk, bytes);
        self.timing.read(began.elapsed());
        Ok(())
    }

    /// One `write_all_at` of the range's bytes.
    fn write_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &[u8],
    ) -> Result<(), DeviceError> {
        check_range_io(chunk, &range, self.chunks, buf.len(), self.chunk_size)?;
        let _io = self.timing.begin();
        if self.is_failed() {
            return Err(DeviceError::Failed);
        }
        let began = Instant::now();
        let at = (chunk * self.chunk_size + range.start) as u64;
        let bytes = range.len() as u64;
        self.file
            .read()
            .expect("file lock")
            .write_all_at(&buf[range], at)
            .map_err(io_err)?;
        self.counters.record_write(chunk, bytes);
        self.timing.write(began.elapsed());
        Ok(())
    }

    /// Real durability barrier: `fdatasync` the backing file, so every
    /// accepted write is on stable media before the journal drops its redo
    /// records.
    fn flush(&self) -> Result<(), DeviceError> {
        if self.is_failed() {
            return Err(DeviceError::Failed);
        }
        let file = self.file.read().expect("file lock");
        file.sync_data().map_err(io_err)
    }

    fn fail(&self) {
        self.failed.store(true, Ordering::Release);
    }

    fn heal(&self) -> Result<(), DeviceError> {
        if !self.is_failed() {
            return Ok(());
        }
        // Re-zero by truncating then extending (sparse on most filesystems).
        let file = self.file.write().expect("file lock");
        file.set_len(0).map_err(io_err)?;
        file.set_len((self.chunk_size * self.chunks) as u64)
            .map_err(io_err)?;
        drop(file);
        self.failed.store(false, Ordering::Release);
        Ok(())
    }

    fn counters(&self) -> CounterSnapshot {
        CounterSnapshot {
            max_inflight: self.timing.peak(),
            ..self.counters.snapshot()
        }
    }

    fn reset_counters(&self) {
        self.counters.reset();
        self.timing.reset();
    }

    fn latency(&self) -> DeviceLatency {
        self.timing.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "blockdev-test-{}-{tag}-{n}.img",
            std::process::id()
        ))
    }

    #[test]
    fn roundtrip_on_disk() {
        let path = temp_path("roundtrip");
        let d = FileDevice::create(&path, 16, 8).unwrap();
        d.write_chunk(5, &[0xAB; 16]).unwrap();
        let mut buf = [0u8; 16];
        d.read_chunk(5, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 16]);
        d.read_chunk(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16], "untouched chunks read zero");
        assert_eq!(d.counters().writes, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fail_blocks_io_heal_zeroes() {
        let path = temp_path("fail");
        let d = FileDevice::create(&path, 8, 4).unwrap();
        d.write_chunk(1, &[9u8; 8]).unwrap();
        d.fail();
        let mut buf = [0u8; 8];
        assert_eq!(d.read_chunk(1, &mut buf), Err(DeviceError::Failed));
        d.heal().unwrap();
        d.read_chunk(1, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8], "healed device is zero-filled");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_chunks_is_one_op_on_disk() {
        let path = temp_path("runs");
        let d = FileDevice::create(&path, 16, 8).unwrap();
        d.write_chunk(3, &[0x11; 16]).unwrap();
        d.write_chunk(4, &[0x22; 16]).unwrap();
        d.reset_counters();
        let mut buf = [0u8; 32];
        d.read_chunks(3, 2, &mut buf).unwrap();
        assert_eq!(&buf[..16], &[0x11; 16]);
        assert_eq!(&buf[16..], &[0x22; 16]);
        let c = d.counters();
        assert_eq!((c.reads, c.bytes_read), (1, 32));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_chunk_size_rejected() {
        assert!(FileDevice::create(temp_path("zero"), 0, 4).is_err());
    }

    #[test]
    fn open_preserves_contents_and_checks_geometry() {
        let path = temp_path("reopen");
        {
            let d = FileDevice::create(&path, 16, 8).unwrap();
            d.write_chunk(2, &[0x7F; 16]).unwrap();
            d.flush().unwrap();
        }
        let d = FileDevice::open(&path, 16, 8).unwrap();
        let mut buf = [0u8; 16];
        d.read_chunk(2, &mut buf).unwrap();
        assert_eq!(buf, [0x7F; 16], "open does not truncate");
        assert!(FileDevice::open(&path, 16, 9).is_err(), "size mismatch");
        assert!(FileDevice::open(temp_path("absent"), 16, 8).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_respects_failure() {
        let path = temp_path("flushfail");
        let d = FileDevice::create(&path, 8, 4).unwrap();
        d.flush().unwrap();
        d.fail();
        assert_eq!(d.flush(), Err(DeviceError::Failed));
        std::fs::remove_file(&path).ok();
    }
}
