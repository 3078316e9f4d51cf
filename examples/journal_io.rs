//! The I/O of a journaled wave and nothing else (EXPERIMENTS.md E25): no
//! store, no journal, no parity — only the system calls `serve_durable`
//! makes per wave, replayed from two threads against files in `$TMPDIR`:
//! 42 positioned 4 KiB reads, 100-400 us of spinning where the parity work
//! would be, one log write of a wave's intent record, an `fdatasync` of the
//! log behind a group-commit lock, 28 positioned 4 KiB writes, one 21-byte
//! marker. The record is 113 KiB when every member is logged whole and
//! ~15 KiB when each logs the 512-byte range a record write changed (E31);
//! each size given runs every arrangement. What varies besides is how the
//! log is kept and where its sync sits:
//!
//! * `append`  — opened `append(true)`, `set_len(0)` + sync once past 1 MiB
//!   with nothing outstanding (the journal up to PR 18);
//! * `inplace` — a 4 MiB extent written as zeros once, records written at a
//!   tracked offset, a 16-byte header write + sync instead of the truncate;
//! * `locked` / `free` — whether the group-commit sync holds the log lock
//!   that appends and markers need.
//!
//! ```bash
//! cargo run --release --example journal_io              # 2 000 waves per thread, 113 and 15 KiB
//! cargo run --release --example journal_io -- 200       # quicker
//! cargo run --release --example journal_io -- 2000 64   # one record size, in KiB
//! ```
//!
//! The numbers are the checkout's filesystem's, not a device's.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CHUNK: usize = 4096;
const DISKS: usize = 21;
const DISK_CHUNKS: usize = 1024;
const READS: usize = 42;
const WRITES: usize = 28;
const MARKER: usize = 21;
const RESET_BYTES: u64 = 1 << 20;
const EXTENT: u64 = 4 << 20;
const DATA_START: u64 = 8192;
const THREADS: usize = 2;

struct Log {
    file: File,
    /// Bytes appended (`append`) or the offset of the next record (`inplace`).
    tail: u64,
    outstanding: u64,
}

struct Shared {
    in_place: bool,
    sync_holds_log: bool,
    log: Mutex<Log>,
    /// The same open file, for the sync that does not take `log`.
    sync_handle: File,
    flush: Mutex<()>,
    appended: AtomicU64,
    flushed: AtomicU64,
    next_seq: AtomicU64,
    sync_ns: AtomicU64,
    syncs: AtomicU64,
    rewind_ns: AtomicU64,
    rewinds: AtomicU64,
}

impl Shared {
    fn write_log(&self, log: &mut Log, bytes: &[u8]) {
        if self.in_place {
            log.file.write_all_at(bytes, log.tail).expect("log write");
        } else {
            log.file.write_all(bytes).expect("log append");
        }
        log.tail += bytes.len() as u64;
    }

    fn commit(&self, seq: u64) {
        if self.flushed.load(Ordering::Acquire) >= seq {
            return;
        }
        let _flush = self.flush.lock().expect("flush lock");
        if self.flushed.load(Ordering::Acquire) >= seq {
            return;
        }
        let target = self.appended.load(Ordering::Acquire);
        let began = Instant::now();
        if self.sync_holds_log {
            let log = self.log.lock().expect("log lock");
            log.file.sync_data().expect("log sync");
        } else {
            self.sync_handle.sync_data().expect("log sync");
        }
        self.sync_ns
            .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.flushed.fetch_max(target, Ordering::AcqRel);
    }

    /// Back to an empty log once it has drained past the threshold.
    fn rewind_if_due(&self, log: &mut Log) {
        let start = if self.in_place { DATA_START } else { 0 };
        if log.outstanding != 0 || log.tail - start <= RESET_BYTES {
            return;
        }
        let began = Instant::now();
        if self.in_place {
            log.file.write_all_at(&[0x5a; 16], 0).expect("slot write");
        } else {
            log.file.set_len(0).expect("truncate");
        }
        log.file.sync_data().expect("rewind sync");
        log.tail = start;
        self.rewind_ns
            .fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rewinds.fetch_add(1, Ordering::Relaxed);
    }
}

fn wave(shared: &Shared, disks: &[File], rng: &mut u64, record: &[u8], buf: &mut [u8]) {
    let mut next = |bound: usize| {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        (*rng % bound as u64) as usize
    };
    for _ in 0..READS {
        let at = (next(DISK_CHUNKS) * CHUNK) as u64;
        disks[next(DISKS)]
            .read_exact_at(buf, at)
            .expect("member read");
    }
    // The wave's own work (old-value XORs, parity, the record's encoding
    // and CRC) is a spin of 100-400 us: without it the two threads fall
    // into step, one always mid-wave, and the log never drains.
    let work = Duration::from_micros(100 + next(300) as u64);
    let began = Instant::now();
    while began.elapsed() < work {
        std::hint::spin_loop();
    }
    let seq = {
        let mut log = shared.log.lock().expect("log lock");
        shared.rewind_if_due(&mut log);
        let seq = shared.next_seq.fetch_add(1, Ordering::Relaxed);
        shared.write_log(&mut log, record);
        log.outstanding += 1;
        shared.appended.store(seq, Ordering::Release);
        seq
    };
    shared.commit(seq);
    for _ in 0..WRITES {
        let at = (next(DISK_CHUNKS) * CHUNK) as u64;
        disks[next(DISKS)]
            .write_all_at(buf, at)
            .expect("member write");
    }
    let mut log = shared.log.lock().expect("log lock");
    shared.write_log(&mut log, &record[..MARKER]);
    log.outstanding -= 1;
    shared.rewind_if_due(&mut log);
}

fn run(
    dir: &std::path::Path,
    in_place: bool,
    sync_holds_log: bool,
    waves: usize,
    record_kib: usize,
) -> String {
    let path = dir.join("log");
    std::fs::remove_file(&path).ok();
    let mut options = OpenOptions::new();
    options.read(true).create_new(true);
    let file = if in_place {
        let file = options.write(true).open(&path).expect("log file");
        // Written, not fallocated: the blocks must already hold data.
        for piece in 0..EXTENT / (64 << 10) {
            file.write_all_at(&[0; 64 << 10], piece * (64 << 10))
                .expect("zero fill");
        }
        file.sync_all().expect("extent sync");
        file
    } else {
        options.append(true).open(&path).expect("log file")
    };
    let shared = Shared {
        in_place,
        sync_holds_log,
        sync_handle: file.try_clone().expect("second handle"),
        log: Mutex::new(Log {
            file,
            tail: if in_place { DATA_START } else { 0 },
            outstanding: 0,
        }),
        flush: Mutex::new(()),
        appended: AtomicU64::new(0),
        flushed: AtomicU64::new(0),
        next_seq: AtomicU64::new(1),
        sync_ns: AtomicU64::new(0),
        syncs: AtomicU64::new(0),
        rewind_ns: AtomicU64::new(0),
        rewinds: AtomicU64::new(0),
    };
    let disks: Vec<File> = (0..DISKS)
        .map(|d| {
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(dir.join(format!("disk-{d}")))
                .expect("member file");
            file.set_len((DISK_CHUNKS * CHUNK) as u64).expect("size");
            file
        })
        .collect();

    let began = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (shared, disks) = (&shared, &disks);
            s.spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (t as u64 + 1);
                let record = vec![0xA5u8; record_kib << 10];
                let mut buf = vec![0x3Cu8; CHUNK];
                for _ in 0..waves {
                    wave(shared, disks, &mut rng, &record, &mut buf);
                }
            });
        }
    });
    let elapsed = began.elapsed();
    let mean_us = |ns: &AtomicU64, n: &AtomicU64| {
        let n = n.load(Ordering::Relaxed).max(1);
        Duration::from_nanos(ns.load(Ordering::Relaxed) / n).as_secs_f64() * 1e6
    };
    format!(
        "{:>10} {:<8} {:<7} {:>9.0} {:>13.0} {:>8} {:>11.0} {:>8}",
        record_kib,
        if in_place { "inplace" } else { "append" },
        if sync_holds_log { "locked" } else { "free" },
        (THREADS * waves) as f64 / elapsed.as_secs_f64(),
        mean_us(&shared.sync_ns, &shared.syncs),
        shared.syncs.load(Ordering::Relaxed),
        mean_us(&shared.rewind_ns, &shared.rewinds),
        shared.rewinds.load(Ordering::Relaxed),
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let waves: usize = args
        .next()
        .map(|a| a.parse().expect("waves per thread: a number"))
        .unwrap_or(2000);
    let mut records: Vec<usize> = args
        .map(|a| a.parse().expect("record size in KiB: a number"))
        .collect();
    if records.is_empty() {
        records = vec![113, 15];
    }
    let dir = std::env::temp_dir().join(format!("oi-journal-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    println!(
        "{THREADS} threads x {waves} waves, cores: {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "{:>10} {:<8} {:<7} {:>9} {:>13} {:>8} {:>11} {:>8}",
        "record_kib", "log", "sync", "waves/s", "fdatasync_us", "syncs", "rewind_us", "rewinds"
    );
    for record_kib in records {
        for (in_place, sync_holds_log) in
            [(false, true), (false, false), (true, true), (true, false)]
        {
            println!("{}", run(&dir, in_place, sync_holds_log, waves, record_kib));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
