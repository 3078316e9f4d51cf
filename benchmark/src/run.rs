//! One run of one workload: set-up, the phases, the end-of-run checks,
//! and the metrics. The untraced pass yields the end-to-end metrics; the
//! traced pass reruns shorter phases with spans on and yields the
//! per-layer metrics.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blockdev::{BlockDevice, FileDevice, FlushPolicy, MemDevice};
use oi_raid::OiRaidStore;

use crate::calib::{self, Kernel};
use crate::metrics::{Outcome, Values};
use crate::probes;
use crate::recover::{self, CycleOut, Io};
use crate::rng::Rng;
use crate::serve::{self, ServeOut};
use crate::span::{self, Kind, NoSync, SpanDevice};
use crate::stats::{median, percentile, samples_beyond, summarize, Summary};
use crate::workload::{self, Device, Env, Generator, MakeDevice, Shape, Spec};
use crate::Args;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops per second assumed before the first window has measured it.
const FIRST_RATE: f64 = 20_000.0;

/// Removes the run's scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Ctx<'a> {
    spec: Spec,
    args: &'a Args,
    threads: usize,
    dir: &'a Path,
    /// Flushes counted by the `SpanDevice`s (stays 0 untraced).
    flushes: &'a AtomicU64,
}

pub fn workload(spec: Spec, args: &Args, traced: bool) -> Result<Outcome, String> {
    let dir = workload::out_dir().join(format!("run-{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _scratch = Scratch(dir.clone());
    let flushes = Arc::new(AtomicU64::new(0));
    let ctx = Ctx {
        spec,
        args,
        threads: workload::client_threads(),
        dir: &dir,
        flushes: &flushes,
    };
    let mem = |_: usize, chunks: usize| Ok(MemDevice::new(spec.chunk, chunks));
    let file = |disk: usize, chunks: usize| {
        FileDevice::create(dir.join(format!("disk-{disk:03}.img")), spec.chunk, chunks)
            .map(NoSync)
            .map_err(|e| format!("device file: {e}"))
    };
    // The untraced pass runs without the span wrapper: it is not part of
    // the program whose end-to-end numbers are reported.
    match (spec.device, traced) {
        (Device::Mem, false) => untraced(&ctx, &mem),
        (Device::File, false) => untraced(&ctx, &file),
        (Device::Mem, true) => self::traced(&ctx, &|d, n| {
            Ok(SpanDevice::new(mem(d, n)?, Arc::clone(&flushes)))
        }),
        (Device::File, true) => self::traced(&ctx, &|d, n| {
            Ok(SpanDevice::new(file(d, n)?, Arc::clone(&flushes)))
        }),
    }
}

/// Disks in the seeded order the recovery cycles visit them, forever.
fn disk_order(seed: u64, disks: usize) -> impl Iterator<Item = usize> {
    Rng::stream(seed, 0xd15c)
        .permutation(disks)
        .into_iter()
        .map(|d| d as usize)
        .cycle()
}

/// Runs recovery cycles for about `budget`, at least `min` of them.
fn cycles<B: BlockDevice>(
    env: &Env<B>,
    kernels: &mut [Kernel],
    by_disk: &[Vec<usize>],
    disks: &mut impl Iterator<Item = usize>,
    budget: Duration,
    min: usize,
) -> Vec<CycleOut> {
    let began = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || began.elapsed() < budget {
        let disk = disks.next().expect("endless");
        out.push(recover::cycle(env, kernels, disk, &by_disk[disk]));
    }
    out
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Checks counted over a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn add(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn add_serve(&mut self, s: &ServeOut) {
        self.add((s.ops, s.failed));
    }

    fn add_cycles(&mut self, cs: &[CycleOut]) {
        for c in cs {
            self.add((c.attempted, c.failed));
        }
    }
}

/// The end-of-run checks. The durable workload then drops the store,
/// reopens it from its files and checks every acknowledged write again.
fn final_checks<B: BlockDevice>(ctx: &Ctx, env: Env<B>, checks: &mut Checks) -> Result<(), String> {
    checks.add(recover::verify_all(&env.store, &env));
    if ctx.spec.device == Device::File {
        let Env {
            check, store, mgr, ..
        } = env;
        drop(mgr);
        drop(store);
        let reopened = OiRaidStore::open_durable_with(
            ctx.spec.config(),
            ctx.spec.chunk,
            ctx.dir,
            FlushPolicy::PerWave,
        )
        .map_err(|e| format!("reopen: {e}"))?;
        checks.add(recover::verify_all(&reopened, &check));
    }
    Ok(())
}

/// Latency percentiles `(name, p)` of the calls of a run's windows (or
/// recovery cycles). A p99 needs a thousand calls to leave ten samples
/// beyond it, and a 0.25 s window seldom holds that many, so consecutive
/// windows are first joined into blocks of at least a thousand calls. Each
/// block gives its own percentile and the metric is the median block, like
/// every other metric is the median window. A run too short for three such
/// blocks is taken as one, and a note names a percentile it cannot support.
fn latency(
    values: &mut Values,
    notes: &mut Vec<String>,
    windows: &[Vec<f64>],
    percentiles: &[(&'static str, f64)],
) {
    let per_window = median(&windows.iter().map(|w| w.len() as f64).collect::<Vec<_>>());
    let wanted = (1000.0 / per_window.max(1.0)).ceil() as usize;
    let join = if wanted * 3 <= windows.len() {
        wanted
    } else {
        windows.len().max(1)
    };
    let mut blocks: Vec<Vec<f64>> = windows.chunks(join).map(|ws| ws.concat()).collect();
    if blocks.len() > 1 && !windows.len().is_multiple_of(join) {
        blocks.pop(); // the short block at the end
    }
    for calls in &mut blocks {
        calls.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    }
    let calls = median(&blocks.iter().map(|b| b.len() as f64).collect::<Vec<_>>()) as usize;
    for &(name, p) in percentiles {
        let per_block: Vec<f64> = blocks.iter().map(|calls| percentile(calls, p)).collect();
        values.insert(name, summarize(&per_block));
        if calls == 0 || samples_beyond(calls, p) < 10 {
            notes.push(format!(
                "{name} is the median of {} blocks; a block holds {calls} calls, so fewer than 10 samples lie beyond it",
                blocks.len()
            ));
        }
    }
}

fn untraced<B: BlockDevice>(ctx: &Ctx, device: MakeDevice<B>) -> Result<Outcome, String> {
    let spec = ctx.spec;
    let total = Duration::from_secs_f64(ctx.args.seconds);
    let mut kernels = Kernel::all(ctx.threads);
    let mut setups = Vec::new();
    let mut speeds = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        // One array at a time: the previous one is gone before the next
        // is built, so `peak_rss_mib` is one array's.
        drop(built.take());
        let before = calib::sample(&mut kernels);
        let env = Env::build(spec, ctx.threads, ctx.dir, device)?;
        let speed = (before + calib::sample(&mut kernels)) / 2.0;
        setups.push(env.setup_s * speed);
        speeds.push(speed);
        built = Some(env);
    }
    let env = built.expect("SETUPS > 0");
    let by_disk = env.chunks_by_disk();
    let mut disks = disk_order(ctx.args.seed, by_disk.len());
    let mut checks = Checks::default();
    let mut values = Values::new();
    let mut notes = Vec::new();

    let (windows, call_us, measured) = if spec.shape == Shape::Recovery {
        let all = cycles(&env, &mut kernels, &by_disk, &mut disks, total, 6);
        checks.add_cycles(&all);
        // The first three cycles warm the allocator and the pool.
        let measured: Vec<CycleOut> = all.into_iter().skip(3).map(CycleOut::normalised).collect();
        (
            measured
                .iter()
                .map(|c| c.single_ops_per_s)
                .collect::<Vec<_>>(),
            measured
                .iter()
                .map(|c| c.single_us.clone())
                .collect::<Vec<_>>(),
            measured,
        )
    } else {
        let mut gens = Generator::all(&spec, env.model.records(), ctx.args.seed, ctx.threads);
        let mut rate = FIRST_RATE;
        let warm = serve::serve(&env, &mut gens, &mut kernels, total.mul_f64(0.1), &mut rate);
        checks.add_serve(&warm);
        let served = serve::serve(&env, &mut gens, &mut kernels, total.mul_f64(0.6), &mut rate);
        checks.add_serve(&served);
        let tail = cycles(
            &env,
            &mut kernels,
            &by_disk,
            &mut disks,
            total.mul_f64(0.3),
            3,
        );
        checks.add_cycles(&tail);
        speeds.extend(&served.speeds);
        let served = served.normalised();
        (
            served.windows,
            served.call_us,
            tail.into_iter().skip(1).map(CycleOut::normalised).collect(),
        )
    };
    speeds.extend(measured.iter().map(|c| c.rebuild_speed));
    values.insert("machine_speed", summarize(&speeds));
    values.insert("setup_s", summarize(&setups));
    values.insert("ops_per_s", summarize(&windows));
    latency(
        &mut values,
        &mut notes,
        &call_us,
        &[("p50_us", 50.0), ("p90_us", 90.0)],
    );
    let rebuilds: Vec<f64> = measured.iter().map(|c| c.rebuild_mib_per_s).collect();
    let degraded: Vec<f64> = measured.iter().map(|c| c.degraded_mib_per_s).collect();
    values.insert("rebuild_mib_per_s", summarize(&rebuilds));
    values.insert("degraded_read_mib_per_s", summarize(&degraded));

    final_checks(ctx, env, &mut checks)?;
    values.insert("peak_rss_mib", Summary::exact(peak_rss_mib()?));
    Ok(Outcome {
        workload: spec.name,
        traced: false,
        attempted: checks.attempted,
        failed: checks.failed,
        values,
        notes,
    })
}

/// Public counters read at the boundaries of a traced phase.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    waves: u64,
    batches: u64,
    batch_ops: u64,
    read_chunks: u64,
    write_chunks: u64,
    appends: u64,
    fsyncs: u64,
    flushes: u64,
    io: Io,
}

impl Counters {
    fn read<B: BlockDevice>(env: &Env<B>, flushes: &AtomicU64) -> Self {
        let telemetry = env.store.telemetry();
        let journal = env.store.journal().map(|j| j.stats());
        Self {
            waves: env.mgr.waves(),
            batches: env.mgr.batches(),
            batch_ops: env.mgr.batch_ops(),
            read_chunks: telemetry.batch_read_chunks(),
            write_chunks: telemetry.batch_write_chunks(),
            appends: journal.map_or(0, |s| s.appends.load(Ordering::Relaxed)),
            fsyncs: journal.map_or(0, |s| s.flushes.load(Ordering::Relaxed)),
            flushes: flushes.load(Ordering::Relaxed),
            io: Io::of(&env.store),
        }
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            waves: self.waves - earlier.waves,
            batches: self.batches - earlier.batches,
            batch_ops: self.batch_ops - earlier.batch_ops,
            read_chunks: self.read_chunks - earlier.read_chunks,
            write_chunks: self.write_chunks - earlier.write_chunks,
            appends: self.appends - earlier.appends,
            fsyncs: self.fsyncs - earlier.fsyncs,
            flushes: self.flushes - earlier.flushes,
            io: self.io.since(earlier.io),
        }
    }
}

/// `a / b`, or 0 where the layer did no work at all.
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn traced<B: BlockDevice>(ctx: &Ctx, device: MakeDevice<B>) -> Result<Outcome, String> {
    let spec = ctx.spec;
    let total = Duration::from_secs_f64(ctx.args.seconds);
    let env = Env::build(spec, ctx.threads, ctx.dir, device)?;
    let mut kernels = Kernel::all(ctx.threads);
    let by_disk = env.chunks_by_disk();
    let mut disks = disk_order(ctx.args.seed, by_disk.len());
    let mut checks = Checks::default();
    let mut v: probes::Layers = probes::Layers::new();
    let mut notes = Vec::new();
    let mut all_spans = Vec::new();

    if spec.shape == Shape::Recovery {
        let plain = cycles(
            &env,
            &mut kernels,
            &by_disk,
            &mut disks,
            total.mul_f64(0.3),
            3,
        );
        checks.add_cycles(&plain);
        span::set_enabled(true);
        let with_spans = cycles(
            &env,
            &mut kernels,
            &by_disk,
            &mut disks,
            total.mul_f64(0.3),
            2,
        );
        span::set_enabled(false);
        checks.add_cycles(&with_spans);
        let spans = span::drain();
        recovery_layers(&mut v, &env, &plain[1..], &with_spans, &spans);
        let speeds: Vec<f64> = plain
            .iter()
            .chain(&with_spans)
            .map(|c| c.rebuild_speed)
            .collect();
        v.insert("bench.machine_speed", median(&speeds));
        let single: Vec<Vec<f64>> = plain[1..].iter().map(|c| c.single_us.clone()).collect();
        tail_latency(&mut v, &mut notes, &single);
        all_spans = spans;

        env.store.set_dag_workers(Some(1));
        let one_worker = cycles(&env, &mut kernels, &by_disk, &mut disks, Duration::ZERO, 2);
        env.store.set_dag_workers(Some(ctx.threads));
        checks.add_cycles(&one_worker);
        let rates: Vec<f64> = one_worker.iter().map(|c| c.rebuild_mib_per_s).collect();
        v.insert("rebuild.mib_per_s_1w", median(&rates));
    } else {
        let mut gens = Generator::all(&spec, env.model.records(), ctx.args.seed, ctx.threads);
        let mut rate = FIRST_RATE;
        let warm = serve::serve(&env, &mut gens, &mut kernels, total.mul_f64(0.1), &mut rate);
        checks.add_serve(&warm);
        let plain = serve::serve(&env, &mut gens, &mut kernels, total.mul_f64(0.2), &mut rate);
        checks.add_serve(&plain);
        let before = Counters::read(&env, ctx.flushes);
        span::set_enabled(true);
        let with_spans = serve::serve(&env, &mut gens, &mut kernels, total.mul_f64(0.2), &mut rate);
        span::set_enabled(false);
        let counted = Counters::read(&env, ctx.flushes).since(before);
        checks.add_serve(&with_spans);
        let spans = span::drain();
        serving_layers(&mut v, &spec, &plain, &with_spans, counted, &spans);
        v.insert(
            "bench.machine_speed",
            median(&[&plain.speeds[..], &with_spans.speeds[..]].concat()),
        );
        tail_latency(&mut v, &mut notes, &plain.call_us);
        all_spans.extend(spans);

        // The recovery tail, traced so its spans are in the trace file;
        // its figures are end-to-end ones and come from the untraced pass.
        span::set_enabled(true);
        let tail = cycles(
            &env,
            &mut kernels,
            &by_disk,
            &mut disks,
            total.mul_f64(0.1),
            2,
        );
        span::set_enabled(false);
        checks.add_cycles(&tail);
        all_spans.extend(span::drain());
    }

    let trace_path = workload::out_dir().join(format!("trace_{}.json", spec.name));
    write_trace(&trace_path, spec.name, &all_spans).map_err(|e| format!("trace file: {e}"))?;
    v.insert("traced.spans", all_spans.len() as f64);
    drop(all_spans);

    v.extend(probes::run(
        &spec,
        env.store.array(),
        ctx.dir,
        ctx.threads,
        ctx.args.seed,
    )?);
    if spec.shape != Shape::Recovery {
        budget(&mut v, &spec, ctx.threads, &mut notes);
    }
    let array = env.store.array();
    v.insert(
        "layout.storage_overhead",
        per(
            (env.store.devices().len() * env.store.devices()[0].chunks()) as f64,
            array.data_chunks() as f64,
        ),
    );
    v.insert(
        "bench.input_hash",
        workload::input_hash(&spec, env.model.records(), ctx.args.seed, ctx.threads) as f64,
    );
    v.insert("bench.threads", ctx.threads as f64);

    final_checks(ctx, env, &mut checks)?;
    v.insert(
        "failed_frac",
        per(checks.failed as f64, checks.attempted as f64),
    );
    Ok(Outcome {
        workload: spec.name,
        traced: true,
        attempted: checks.attempted,
        failed: checks.failed,
        values: v.into_iter().map(|(k, x)| (k, Summary::exact(x))).collect(),
        notes,
    })
}

/// `p99_us` of the traced pass's spans-off phase. It was an end-to-end
/// metric until its run-to-run spread would not stay within any bound the
/// driver allows (README, "Baseline"); `p90_us` took its place there.
fn tail_latency(v: &mut probes::Layers, notes: &mut Vec<String>, windows: &[Vec<f64>]) {
    let mut values = Values::new();
    latency(&mut values, notes, windows, &[("p99_us", 99.0)]);
    v.insert("p99_us", values["p99_us"].median);
}

/// Per-layer metrics of a serving workload from one traced phase.
fn serving_layers(
    v: &mut probes::Layers,
    spec: &Spec,
    plain: &ServeOut,
    traced: &ServeOut,
    c: Counters,
    spans: &[span::Span],
) {
    let ops = traced.ops as f64;
    let (reads, writes) = (traced.reads as f64, traced.writes as f64);
    let record = spec.record as f64;
    v.insert(
        "volume.ops_per_wave",
        per(c.batch_ops as f64, c.waves as f64),
    );
    v.insert(
        "volume.waves_per_submit",
        per(c.waves as f64, c.batches as f64),
    );
    v.insert("volume.read_dedupe_ratio", per(reads, c.read_chunks as f64));
    v.insert(
        "volume.write_coalesce_ratio",
        per(writes, c.write_chunks as f64),
    );
    v.insert("journal.appends_per_op", per(c.appends as f64, ops));
    v.insert("journal.fsyncs_per_op", per(c.fsyncs as f64, ops));
    v.insert("device.reads_per_op", per(c.io.reads as f64, ops));
    v.insert("device.writes_per_op", per(c.io.writes as f64, ops));
    v.insert("device.flushes_per_op", per(c.flushes as f64, ops));
    v.insert(
        "device.bytes_read_per_user_byte",
        per(c.io.bytes_read as f64, ops * record),
    );
    v.insert(
        "device.bytes_written_per_user_byte",
        per(c.io.bytes_written as f64, writes * record),
    );
    let t = span::totals(spans, Kind::CallServe);
    v.insert("software.self_us_per_op", per(t.self_ns as f64 / 1e3, ops));
    v.insert("device.read_us_per_op", per(t.read_ns as f64 / 1e3, ops));
    v.insert("device.write_us_per_op", per(t.write_ns as f64 / 1e3, ops));
    v.insert("device.flush_us_per_op", per(t.flush_ns as f64 / 1e3, ops));
    let (plain_rate, traced_rate) = (median(&plain.windows), median(&traced.windows));
    v.insert("traced.ops_per_s_untraced", plain_rate);
    v.insert("traced.ops_per_s", traced_rate);
    v.insert("traced.ops", ops);
    v.insert(
        "traced.store_read_chunks_per_op",
        per(c.read_chunks as f64, ops),
    );
    v.insert(
        "traced.store_write_chunks_per_op",
        per(c.write_chunks as f64, ops),
    );
    v.insert("traced.write_frac", per(writes, ops));
    v.insert(
        "traced.device_bytes_written_per_op",
        per(c.io.bytes_written as f64, ops),
    );
    // The two phases are minutes apart in machine time; compared at the
    // speed each one's bursts saw, not by the wall clock.
    let scaled = |s: &ServeOut| {
        let rates: Vec<f64> = s
            .windows
            .iter()
            .zip(&s.speeds)
            .map(|(r, s)| r / s)
            .collect();
        median(&rates)
    };
    v.insert(
        "bench.trace_overhead_frac",
        1.0 - per(scaled(traced), scaled(plain)),
    );
    v.insert(
        "bench.generator_us_per_op",
        per(
            (plain.gen_s + traced.gen_s) * 1e6,
            (plain.gen_ops + traced.gen_ops) as f64,
        ),
    );
}

/// Per-layer metrics of the recovery workload: `plain` cycles ran with
/// spans off, `traced` with spans on. An op here is one chunk read while
/// degraded or one chunk rebuilt.
fn recovery_layers<B: BlockDevice>(
    v: &mut probes::Layers,
    env: &Env<B>,
    plain: &[CycleOut],
    traced: &[CycleOut],
    spans: &[span::Span],
) {
    let chunk = env.spec.chunk as f64;
    let sum = |f: &dyn Fn(&CycleOut) -> f64| -> f64 { traced.iter().map(f).sum() };
    let degraded_chunks = sum(&|c| c.single_us.len() as f64 + c.batch_chunks as f64);
    let rebuilt_chunks = sum(&|c| c.report.as_ref().map_or(0.0, |r| r.chunks_rebuilt as f64));
    let ops = degraded_chunks + rebuilt_chunks;
    let io = traced.iter().fold(Io::default(), |io, c| {
        io.plus(c.degraded_io).plus(c.rebuild_io)
    });
    v.insert("device.reads_per_op", per(io.reads as f64, ops));
    v.insert("device.writes_per_op", per(io.writes as f64, ops));
    v.insert(
        "device.bytes_read_per_user_byte",
        per(io.bytes_read as f64, ops * chunk),
    );
    v.insert(
        "device.bytes_written_per_user_byte",
        per(io.bytes_written as f64, rebuilt_chunks * chunk),
    );
    let kinds = [
        Kind::CallDegradedSingle,
        Kind::CallDegradedBatch,
        Kind::CallRebuild,
    ];
    let [single, batch, rebuild] = kinds.map(|k| span::totals(spans, k));
    let all =
        |f: &dyn Fn(&span::Totals) -> u64| (f(&single) + f(&batch) + f(&rebuild)) as f64 / 1e3;
    v.insert("software.self_us_per_op", per(all(&|t| t.self_ns), ops));
    v.insert("device.read_us_per_op", per(all(&|t| t.read_ns), ops));
    v.insert("device.write_us_per_op", per(all(&|t| t.write_ns), ops));
    v.insert("device.flush_us_per_op", per(all(&|t| t.flush_ns), ops));
    v.insert(
        "degraded_read.us_per_chunk",
        per(batch.root_ns as f64 / 1e3, sum(&|c| c.batch_chunks as f64)),
    );
    v.insert(
        "degraded_read.device_reads_per_chunk",
        per(
            sum(&|c| c.degraded_io.bytes_read as f64) / chunk,
            degraded_chunks,
        ),
    );

    let reports: Vec<(&CycleOut, &oi_raid::RebuildReport)> = traced
        .iter()
        .filter_map(|c| c.report.as_ref().map(|r| (c, r)))
        .collect();
    let med = |f: &dyn Fn(&CycleOut, &oi_raid::RebuildReport) -> f64| -> f64 {
        median(&reports.iter().map(|(c, r)| f(c, r)).collect::<Vec<_>>())
    };
    let stage_us = |name: &'static str| {
        med(&|_, r| r.stage(name).map_or(0.0, |s| s.latency.p50() as f64 / 1e3))
    };
    v.insert(
        "rebuild.exec_frac",
        med(&|c, r| per(r.wall.as_secs_f64(), c.rebuild_s)),
    );
    v.insert(
        "rebuild.worker_utilization",
        med(&|_, r| r.worker_utilization()),
    );
    v.insert("rebuild.stage_read_p50_us", stage_us("read"));
    v.insert("rebuild.stage_combine_p50_us", stage_us("combine"));
    v.insert("rebuild.stage_writeback_p50_us", stage_us("writeback"));
    let rebuilt = |r: &oi_raid::RebuildReport| r.chunks_rebuilt as f64;
    v.insert(
        "sched.executed_per_chunk",
        med(&|_, r| per(r.sched.executed as f64, rebuilt(r))),
    );
    v.insert(
        "sched.steals_per_chunk",
        med(&|_, r| per(r.sched.steals as f64, rebuilt(r))),
    );
    // Exact counts from the report's per-device deltas: chunks read per
    // chunk rebuilt, and the busiest surviving disk's share of them.
    let read_chunks = |r: &oi_raid::RebuildReport| -> Vec<f64> {
        r.device_io
            .iter()
            .map(|d| d.bytes_read as f64 / chunk)
            .collect()
    };
    v.insert(
        "layout.rebuild_reads_per_chunk",
        med(&|_, r| per(read_chunks(r).iter().sum(), rebuilt(r))),
    );
    v.insert(
        "layout.rebuild_max_disk_read_share",
        med(&|_, r| {
            let reads = read_chunks(r);
            per(
                reads.iter().copied().fold(0.0, f64::max),
                reads.iter().sum(),
            )
        }),
    );
    let rate = |cs: &[CycleOut]| median(&cs.iter().map(|c| c.single_ops_per_s).collect::<Vec<_>>());
    v.insert("traced.ops_per_s_untraced", rate(plain));
    v.insert("traced.ops_per_s", rate(traced));
    v.insert("traced.ops", ops);
    let scaled = |cs: &[CycleOut]| {
        let rates: Vec<f64> = cs
            .iter()
            .map(|c| c.single_ops_per_s / c.degraded_speed)
            .collect();
        median(&rates)
    };
    v.insert(
        "bench.trace_overhead_frac",
        1.0 - per(scaled(traced), scaled(plain)),
    );
}

/// The `budget.*` shares: each layer's probe unit cost times its measured
/// count per op, over the measured thread time per op.
fn budget(v: &mut probes::Layers, spec: &Spec, threads: usize, notes: &mut Vec<String>) {
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    // With T client threads on T cores nothing idles: an op costs
    // T / ops_per_s of thread time.
    let op_us = per(threads as f64 * 1e6, get("traced.ops_per_s_untraced"));
    let (reads, writes) = (get("device.reads_per_op"), get("device.writes_per_op"));
    let mem_us =
        reads * get("device.mem_read_ns_4k") / 1e3 + writes * get("device.mem_write_ns_4k") / 1e3;
    let device_us = match spec.device {
        Device::Mem => mem_us,
        // A flush is counted but costs nothing on `NoSync`; what a real
        // disk would add is `flushes x device.file_flush_us`.
        Device::File => {
            reads * get("device.file_read_us_4k") + writes * get("device.file_write_us_4k")
        }
    };
    let journal_us = get("journal.appends_per_op") * get("journal.append_us_4x4k")
        + get("journal.fsyncs_per_op") * get("journal.commit_us");
    // Every chunk written was XOR-combined once on its way.
    let gf_us = per(
        get("traced.device_bytes_written_per_op") / (1u64 << 30) as f64 * 1e6,
        get("gf.xor_acc_gib_per_s_4k"),
    );
    let write_frac = get("traced.write_frac");
    let store_gross_us = match spec.shape {
        Shape::Single => {
            (1.0 - write_frac) * get("store.read_single_us")
                + write_frac * get("store.write_single_us")
        }
        _ => {
            get("traced.store_read_chunks_per_op") * get("store.read_batch_us_per_chunk")
                + get("traced.store_write_chunks_per_op") * get("store.write_batch_us_per_chunk")
        }
    };
    // The store probe runs on MemDevice, so it contains the kernels and
    // the memory device; what is left is the store's own code.
    let store_us = (store_gross_us - gf_us - mem_us).max(0.0);
    let volume_us = get("volume.self_us_per_op").max(0.0);
    let shares = [
        ("budget.device_share", device_us),
        ("budget.journal_share", journal_us),
        ("budget.gf_share", gf_us),
        ("budget.volume_share", volume_us),
        ("budget.store_share", store_us),
    ];
    let mut coverage = 0.0;
    for (name, us) in shares {
        v.insert(name, per(us, op_us));
        coverage += per(us, op_us);
    }
    v.insert("budget.coverage_frac", coverage);
    v.insert("traced.thread_us_per_op", op_us);
    if !(0.7..=1.3).contains(&coverage) {
        notes.push(format!(
            "budget.coverage_frac = {coverage:.2} is outside 0.7-1.3: the one-thread unit costs do not add up to the {threads}-thread op time"
        ));
    }
}

/// Writes the trace file: whole request trees, a few of each root kind.
fn write_trace(path: &Path, workload: &str, spans: &[span::Span]) -> std::io::Result<()> {
    let mut keep = std::collections::BTreeSet::new();
    for (kind, limit) in [
        (Kind::CallServe, 64),
        (Kind::CallDegradedSingle, 64),
        (Kind::CallDegradedBatch, 16),
        (Kind::CallRebuild, 2),
    ] {
        keep.extend(
            spans
                .iter()
                .filter(|s| s.kind == kind)
                .take(limit)
                .map(|s| s.id),
        );
    }
    let kept: Vec<span::Span> = spans
        .iter()
        .filter(|s| keep.contains(&s.root))
        .copied()
        .collect();
    span::write_json(path, workload, spans.len(), &kept)
}
