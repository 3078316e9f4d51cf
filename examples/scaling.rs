//! Does a second client add throughput? T = 1..=nproc threads drive the
//! store and the volume layer over *disjoint* key ranges (so every lock
//! they meet on is one the product made them share), on zero-latency
//! memory devices, with no checker in the way.
//!
//! ```text
//! cargo run --release --example scaling            # ~1 s per row and T
//! ```
//!
//! Per row and thread count: ops/s over all threads, thread CPU time per op
//! (it rises with T when threads fight over cache lines), and on Linux the
//! voluntary context switches per op (a thread that slept on a lock) and
//! the user / system clock ticks the threads burned, next to the ticks that
//! were available (T x wall). Rows with T > 1 end with their ops/s over the
//! same row's at T = 1. Prints numbers; asserts nothing about time.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use oi_raid_repro::prelude::*;

const CHUNK: usize = 4096;
const RECORD: usize = 512;
const RUN: Duration = Duration::from_millis(700);

/// `(voluntary context switches, user ticks, system ticks)` of the calling
/// thread; zeroes where `/proc/thread-self` does not exist.
fn thread_usage() -> (u64, u64, u64) {
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default();
    let switches = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    // Fields 14 and 15, counted after the parenthesised command name.
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    let mut fields = stat.rsplit(')').next().unwrap_or("").split_whitespace();
    let utime = fields.nth(11).and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0);
    (switches, utime, stime)
}

/// What one thread measured: `(ops, busy time, switches, utime, stime)`.
type Tally = (u64, Duration, u64, u64, u64);

/// Runs `op(thread, iteration)` on `threads` threads for [`RUN`] and prints
/// one row. `op` returns how many operations the call was worth.
/// `one_thread` holds each row's ops/s at T = 1: a T = 1 row fills it, a
/// later row prints its ratio to it.
fn row(
    one_thread: &mut HashMap<&'static str, f64>,
    name: &'static str,
    threads: usize,
    op: &(dyn Fn(usize, u64) -> u64 + Sync),
) {
    let start = Barrier::new(threads);
    let began = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let (sw0, ut0, st0) = thread_usage();
                    let t0 = Instant::now();
                    let (mut ops, mut i) = (0, 0);
                    while t0.elapsed() < RUN {
                        ops += op(t, i);
                        i += 1;
                    }
                    let (sw1, ut1, st1) = thread_usage();
                    (ops, t0.elapsed(), sw1 - sw0, ut1 - ut0, st1 - st0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = began.elapsed().as_secs_f64();
    let ops: u64 = tallies.iter().map(|t| t.0).sum();
    let busy: f64 = tallies.iter().map(|t| t.1.as_secs_f64()).sum();
    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
    // USER_HZ is 100 on every Linux this runs on.
    let available = (threads as f64 * wall * 100.0).round();
    let rate = ops as f64 / wall;
    let ratio = match one_thread.get(name) {
        Some(base) if threads > 1 => format!("  {:.2}x T=1", rate / base),
        _ => {
            one_thread.insert(name, rate);
            String::new()
        }
    };
    println!(
        "{name:<18} T={threads}  {rate:>9.0} ops/s  {:>6.2} us thread-time/op  {:>7.4} sleeps/op  user {:>3} sys {:>3} of {available:.0} ticks{ratio}",
        busy * 1e6 / ops as f64,
        sum(|t| t.2) as f64 / ops as f64,
        sum(|t| t.3),
        sum(|t| t.4),
    );
}

fn main() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism = {nproc}; disjoint key ranges per thread; {RUN:?} per cell");
    // The benchmark's serving array: Fano (7,3,1) x 3 = 21 disks, 4 KiB
    // chunks, 256 cycles.
    let cfg = OiRaidConfig::new(fano(), 3, 256).expect("Fano x 3 is a valid array");
    let store = Arc::new(OiRaidStore::new(cfg, CHUNK).expect("store"));
    let mgr = VolumeManager::new(Arc::clone(&store), 4);
    let tenant = mgr.add_tenant("t", TenantClass::default());
    let records = store.capacity_bytes() / RECORD as u64;
    let volume = mgr
        .create_volume(tenant, "v", RECORD, records)
        .expect("volume fits");
    let payload = vec![0xA5u8; RECORD];
    let chunks = store.data_chunks() as u64;
    // Fill the array first: memory that was never written reads from the
    // kernel's one zero page, which flatters every read row.
    let fill = vec![0x3Cu8; CHUNK];
    for base in (0..chunks).step_by(64) {
        let writes: Vec<(u64, &[u8])> = (base..(base + 64).min(chunks))
            .map(|c| (c * CHUNK as u64, fill.as_slice()))
            .collect();
        store.write_bytes_batch(&writes).expect("prefill");
    }

    let mut one_thread = HashMap::new();
    for threads in 1..=nproc {
        // Thread t owns every `threads`-th span of 64 chunks: no two
        // threads ever name the same chunk, record or parity-free byte.
        let span = chunks / 64 / threads as u64;
        let chunk_of = move |t: usize, i: u64| ((i % span) * threads as u64 + t as u64) * 64;
        let mix = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;

        row(&mut one_thread, "read_bytes 512", threads, &|t, i| {
            let mut buf = [0u8; RECORD];
            let off = (chunk_of(t, mix(i)) + i % 64) * CHUNK as u64;
            store.read_bytes(off, &mut buf).expect("read");
            1
        });
        row(&mut one_thread, "write_bytes 512", threads, &|t, i| {
            let off = (chunk_of(t, mix(i)) + i % 64) * CHUNK as u64;
            store.write_bytes(off, &payload).expect("write");
            1
        });
        row(&mut one_thread, "read_data_batch 45", threads, &|t, i| {
            let base = chunk_of(t, mix(i));
            let idxs: Vec<usize> = (0..45).map(|k| (base + (k * 7) % 64) as usize).collect();
            store.read_data_batch(&idxs).expect("batch read");
            45
        });
        row(&mut one_thread, "write_bytes_batch 19", threads, &|t, i| {
            let base = chunk_of(t, mix(i));
            let writes: Vec<(u64, &[u8])> = (0..19)
                .map(|k| ((base + (k * 5) % 64) * CHUNK as u64, payload.as_slice()))
                .collect();
            store.write_bytes_batch(&writes).expect("batch write");
            19
        });
        row(&mut one_thread, "volume.submit 64", threads, &|t, i| {
            let base = chunk_of(t, mix(i)) * (CHUNK / RECORD) as u64;
            let ops: Vec<Op> = (0..64u64)
                .map(|k| {
                    let record = base + (k * 37) % 512;
                    if k % 10 < 3 {
                        Op::Write {
                            volume,
                            record,
                            data: payload.clone(),
                        }
                    } else {
                        Op::Read { volume, record }
                    }
                })
                .collect();
            for r in mgr.submit(ops) {
                r.expect("submitted op");
            }
            64
        });
    }
    assert!(store.check_parity().is_empty(), "parity after the run");
}
