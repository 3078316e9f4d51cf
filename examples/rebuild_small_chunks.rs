//! Where does a rebuild's time go when chunks are small? The serving
//! array (Fano (7,3,1) x 3 = 21 disks) on zero-latency memory devices, one
//! disk failed and rebuilt at a time with the DAG executor and the Outer
//! strategy — what `oibench` does after every serving workload — at 4 KiB
//! chunks (256 cycles, a 9 MiB disk) and at 64 KiB chunks (64 cycles, a
//! 36 MiB disk).
//!
//! ```text
//! cargo run --release --example rebuild_small_chunks              # the E26 table
//! cargo run --release --example rebuild_small_chunks -- 8 3       # smoke: cycles / 32, 3 rebuilds
//! cargo run --release --example rebuild_small_chunks -- 256 21 1  # a one-worker pool
//! ```
//!
//! Every phase is read off the [`RebuildReport`] (medians over the
//! rebuilds after three warm-up ones): `plan`, `heal` and `execute` are the
//! report's three sequential phases (`plan` includes the round's lock
//! sets, which the planner returns with the plan), `lower` (plan to
//! batches and op graph, inside `execute`) a sub-phase; `run` is what is left of
//! `execute` (the scheduler run and closing the round) and `books` what is
//! left of the report's wall time (the rebuild loop's bookkeeping). `ops/chunk`
//! is scheduler ops per rebuilt chunk: one op per batch, which reads,
//! combines and lands its chunks, so 1/16 at 4 KiB and 1 at 64 KiB. Of the
//! stage medians, `read` is one batch op's reads (all its source runs,
//! under the batch's region locks) and `combine` / `writeback` are per
//! chunk. Only the MiB/s column is timed
//! here, around the whole `rebuild()` call. Prints numbers; asserts
//! nothing about time.

use std::time::Instant;

use oi_raid_repro::prelude::*;

const WARM_UP: usize = 3;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Sum of the named stage's samples in microseconds (0 when the stage was
/// not recorded).
fn stage_us(r: &RebuildReport, name: &str) -> f64 {
    r.stage(name).map_or(0.0, |s| s.latency.sum as f64 / 1e3)
}

fn row(chunk: usize, cycles: usize, rebuilds: usize, workers: usize) {
    let cfg = OiRaidConfig::new(fano(), 3, cycles).expect("Fano x 3 is a valid array");
    let store = OiRaidStore::new(cfg, chunk).expect("store");
    store.set_dag_workers(Some(workers));
    // Written memory only: pages never touched read from the kernel's one
    // zero page, which flatters every read.
    for idx in 0..store.data_chunks() {
        store
            .write_data(idx, &vec![(idx % 251) as u8 + 1; chunk])
            .expect("fill");
    }
    let disks = store.array().disks();
    let mut reports = Vec::new();
    let mut mib_per_s = Vec::new();
    for i in 0..WARM_UP + rebuilds {
        let disk = (i * 5 + 4) % disks;
        store.fail_disk(disk).expect("fail");
        let began = Instant::now();
        let report = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Outer)
            .expect("rebuild");
        let took = began.elapsed().as_secs_f64();
        assert_eq!(report.outcome, RebuildOutcome::Complete, "{report}");
        if i >= WARM_UP {
            mib_per_s.push(report.bytes_rebuilt as f64 / (1 << 20) as f64 / took);
            reports.push(report);
        }
    }
    assert!(store.check_parity().is_empty(), "parity after the rebuilds");

    let med = |f: &dyn Fn(&RebuildReport) -> f64| median(reports.iter().map(f).collect());
    let chunks = |r: &RebuildReport| r.chunks_rebuilt as f64;
    let wall_us = |r: &RebuildReport| r.wall.as_secs_f64() * 1e6;
    println!(
        "{:>6} B x {:>4} chunks  {:>7.0} MiB/s | plan {:>6.0}  heal {:>6.0}  \
         lower {:>6.0}  run {:>7.0}  books {:>6.0} us | {:.2} ops/chunk  {:>5.2} worker-us/chunk  \
         util {:.2}  read per batch {:.2} us, combine/writeback per chunk {:.2}/{:.2} us (p50)",
        chunk,
        med(&chunks),
        median(mib_per_s),
        med(&|r| stage_us(r, "plan")),
        med(&|r| stage_us(r, "heal")),
        med(&|r| stage_us(r, "lower")),
        med(&|r| stage_us(r, "execute") - stage_us(r, "lower")),
        med(&|r| wall_us(r) - stage_us(r, "execute")),
        med(&|r| r.sched.executed as f64 / chunks(r)),
        med(&|r| {
            let busy: f64 = r.worker_busy.iter().map(|b| b.as_secs_f64() * 1e6).sum();
            busy / chunks(r)
        }),
        med(&|r| r.worker_utilization()),
        med(&|r| r
            .stage("read")
            .map_or(0.0, |s| s.latency.p50() as f64 / 1e3)),
        med(&|r| r
            .stage("combine")
            .map_or(0.0, |s| s.latency.p50() as f64 / 1e3)),
        med(&|r| r
            .stage("writeback")
            .map_or(0.0, |s| s.latency.p50() as f64 / 1e3)),
    );
}

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let cycles = args.next().and_then(Result::ok).unwrap_or(256).max(4);
    let rebuilds = args.next().and_then(Result::ok).unwrap_or(21).max(1);
    // The pool `oibench` pins, unless told otherwise: one worker per client
    // thread.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = args.next().and_then(Result::ok).unwrap_or(nproc.min(4));
    println!(
        "available_parallelism = {nproc}, workers = {workers}; DAG + Outer, one disk at a \
         time, medians of {rebuilds} rebuilds after {WARM_UP} warm-up"
    );
    row(4096, cycles, rebuilds, workers);
    row(64 << 10, cycles / 4, rebuilds, workers);
}
