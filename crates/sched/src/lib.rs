//! DAG executor for device-bound pipelines.
//!
//! An [`OpGraph`] holds a set of opaque operations plus their dependency
//! edges; [`run`] executes it on a pool of worker threads. Readiness is
//! tracked with one atomic indegree per op: when an op finishes, it
//! decrements each dependent's indegree, and the decrement that reaches
//! zero — and only that one, by the atomicity of `fetch_sub` — makes the
//! dependent ready. There are no phase barriers anywhere: every op runs
//! the instant its inputs exist and a worker is free.
//!
//! **Ready order is downstream-first, then plan order.** An op made ready
//! by the op a worker just finished is what that worker runs next — it
//! never enters a queue and wakes nobody, so a pipeline's stages follow
//! each other on one thread while their bytes are still in its cache.
//! Everything else waits in one ordered ready set: device-less ops before
//! device-bound ones (reads), and within each class the smallest [`OpId`]
//! first. A caller that adds its reads in the order it wants them consumed
//! gets them read in that order, and the finished-but-unconsumed set stays
//! proportional to the pool, not to the graph.
//!
//! **Parking.** A worker that finds the ready set empty parks on a condvar
//! that shares the set's lock, so a wake-up cannot be lost; a push signals
//! only when a parked worker has no wake-up already on its way, so a busy
//! pool makes no wake-up syscalls at all.
//!
//! **There is no failure edge.** Every op runs once its dependencies have
//! run: a callback handles a fault inside its own op (a rebuild batch
//! leaves the items it cannot serve unwritten), so a run always executes
//! the whole graph. [`OpStatus`] has the one variant `Done` and stays only
//! because the benchmark's scheduler probe names it.
//!
//! **Tracing.** A node remembers the trace its builder was working under
//! and runs under a `SchedOp` child of it: one trace event per executed op
//! of a traced graph, whatever the op does. What the callback records
//! below that is its own business — a rebuild batch records nothing more
//! (its device calls leave no leaves), so a rebuild's trace ends at its
//! batches.
//!
//! Scheduler observability is built in: [`SchedMetrics`] carries live
//! [`Gauge`]/[`Counter`] handles (ready-set depth, in-flight ops, steals)
//! that can be attached to a [`telemetry::Registry`], and every run returns
//! a [`SchedStats`] snapshot, kept per worker and folded when the run ends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use telemetry::{Counter, Gauge, Registry};

/// Identifies one op inside an [`OpGraph`] (dense, starting at 0).
pub type OpId = usize;

/// What an op's callback reports back to the scheduler: it ran, so its
/// dependents may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// The op ran; dependents may run.
    Done,
}

/// A dependency graph of opaque operations, built up-front and executed
/// once by [`run`]. `T` is the caller's per-op payload (an instruction the
/// execution callback interprets).
#[derive(Debug)]
pub struct OpGraph<T> {
    payloads: Vec<T>,
    device: Vec<Option<usize>>,
    dependents: Vec<Vec<OpId>>,
    indeg: Vec<u32>,
    trace: Vec<u64>,
}

impl<T> Default for OpGraph<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OpGraph<T> {
    /// An empty graph.
    pub fn new() -> Self {
        Self {
            payloads: Vec::new(),
            device: Vec::new(),
            dependents: Vec::new(),
            indeg: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Adds an op with no edges yet. `device` says which device's queue
    /// the op would wait in (`Some`: a read; the id goes into its trace
    /// event) or that it waits for none (`None`); ready ops of the second
    /// kind run before the first, each kind in the order it was added.
    ///
    /// The builder thread's ambient trace id is captured into the node, so
    /// when a worker later executes it (on a different thread) the op runs
    /// under the trace of the request that planned it.
    pub fn add_node(&mut self, payload: T, device: Option<usize>) -> OpId {
        self.payloads.push(payload);
        self.device.push(device);
        self.dependents.push(Vec::new());
        self.indeg.push(0);
        self.trace.push(telemetry::current_trace());
        self.payloads.len() - 1
    }

    /// Adds the edge `dep → dependent`: `dependent` cannot start until
    /// `dep` finished. Parallel edges are allowed (each counts one
    /// indegree and one decrement, so the arithmetic stays balanced).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or a self-edge (the caller is building
    /// the graph from a plan it controls; a bad edge is a logic error).
    pub fn add_edge(&mut self, dep: OpId, dependent: OpId) {
        assert!(dep < self.payloads.len() && dependent < self.payloads.len());
        assert_ne!(dep, dependent, "self-edge would deadlock");
        self.dependents[dep].push(dependent);
        self.indeg[dependent] += 1;
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the graph has no ops.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// The payload of `op`.
    pub fn payload(&self, op: OpId) -> &T {
        &self.payloads[op]
    }
}

/// Live scheduler gauges, updated while a [`run`] is in flight. Clone the
/// struct to keep handles; attach them to a registry with
/// [`SchedMetrics::export`]. The gauges read 0 when no run is active.
#[derive(Debug, Clone, Default)]
pub struct SchedMetrics {
    /// Ops currently sitting in the ready set (pushed, not yet popped).
    pub ready_queue_depth: Gauge,
    /// Ops currently executing their callback.
    pub inflight_ops: Gauge,
    /// Ready-set pops of an op that a *different* worker made ready.
    pub steals: Counter,
}

impl SchedMetrics {
    /// Registers the three scheduler series with a metric registry (live
    /// handles — exports track later runs too).
    pub fn export(&self, reg: &Registry) {
        reg.register_gauge(
            "oi_sched_ready_queue_depth",
            "Ops sitting in the scheduler's ready set right now",
            &[],
            self.ready_queue_depth.clone(),
        );
        reg.register_gauge(
            "oi_sched_inflight_ops",
            "Ops currently executing on scheduler workers",
            &[],
            self.inflight_ops.clone(),
        );
        reg.register_counter(
            "oi_sched_steals_total",
            "Ready-set pops of an op another worker made ready",
            &[],
            self.steals.clone(),
        );
    }
}

/// Aggregate statistics of one [`run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Ops whose callback ran.
    pub executed: u64,
    /// Ready-set pops of an op that a *different* worker made ready. An
    /// op its own producer runs next (downstream-first) is never popped,
    /// and the graph's roots are made ready by no worker, so neither
    /// counts.
    pub steals: u64,
    /// Peak number of ops sitting in the ready set at once.
    pub max_ready_depth: u64,
    /// Peak number of callbacks executing concurrently.
    pub max_inflight: u64,
    /// Parked workers that the wait timeout woke to find ops queued and no
    /// wake-up on its way to them — a lost wake-up. 0 unless the parking
    /// protocol is broken.
    pub timeout_rescues: u64,
}

impl SchedStats {
    /// Folds another run's stats into this one: counters add, peaks take
    /// the max. For summing stats across successive [`run`] calls.
    pub fn absorb(&mut self, other: &SchedStats) {
        self.executed += other.executed;
        self.steals += other.steals;
        self.max_ready_depth = self.max_ready_depth.max(other.max_ready_depth);
        self.max_inflight = self.max_inflight.max(other.max_inflight);
        self.timeout_rescues += other.timeout_rescues;
    }
}

/// What one [`run`] did.
#[derive(Debug)]
pub struct ExecReport {
    /// Aggregate counters and peaks.
    pub stats: SchedStats,
    /// Time each worker spent inside op callbacks, in worker order (zero
    /// for workers a graph smaller than the pool never needed).
    pub worker_busy: Vec<Duration>,
}

/// Who made a root op ready: no worker.
const ROOT: usize = usize::MAX;

/// How long a parked worker waits before re-checking on its own.
const PARK: Duration = Duration::from_millis(1);

/// The ready set and the parking books, under one lock.
struct Ready {
    /// `(device-bound, op, worker that made it ready)`, smallest first:
    /// device-less ops before device-bound ones, then smallest op id.
    heap: BinaryHeap<Reverse<(bool, OpId, usize)>>,
    /// Workers parked on (or about to re-check after) [`Shared::wake`].
    sleepers: usize,
    /// Wake-ups sent to parked workers and not yet received.
    signals: usize,
    max_depth: usize,
}

struct Shared<'g, T> {
    graph: &'g OpGraph<T>,
    indeg: Vec<AtomicU32>,
    ready: Mutex<Ready>,
    wake: Condvar,
    /// Ops not yet executed. The run is over when this reaches zero.
    remaining: AtomicUsize,
    metrics: SchedMetrics,
    inflight: AtomicI64,
}

impl<T> Shared<'_, T> {
    fn key(&self, op: OpId) -> (bool, OpId) {
        (self.graph.device[op].is_some(), op)
    }

    fn lock_ready(&self) -> MutexGuard<'_, Ready> {
        self.ready.lock().expect("ready lock")
    }

    /// Queues an op worker `by` made ready, and signals a parked worker
    /// unless every parked worker already has a wake-up on its way.
    fn push(&self, ready: &mut Ready, (bound, op): (bool, OpId), by: usize) {
        ready.heap.push(Reverse((bound, op, by)));
        ready.max_depth = ready.max_depth.max(ready.heap.len());
        self.metrics.ready_queue_depth.add(1);
        if ready.sleepers > ready.signals {
            ready.signals += 1;
            self.wake.notify_one();
        }
    }

    /// Takes the first ready op, parking while there is none; `None` once
    /// every op has run.
    fn pop(&self, w: usize, stats: &mut SchedStats) -> Option<OpId> {
        let mut ready = self.lock_ready();
        loop {
            if let Some(Reverse((_, op, by))) = ready.heap.pop() {
                drop(ready);
                self.metrics.ready_queue_depth.add(-1);
                if by != w && by != ROOT {
                    stats.steals += 1;
                    self.metrics.steals.inc();
                }
                return Some(op);
            }
            if self.remaining.load(Ordering::Acquire) == 0 {
                return None;
            }
            // Pushes and the final wake-all take this lock, so nothing can
            // slip between the emptiness check above and the wait.
            ready.sleepers += 1;
            let (guard, timeout) = self.wake.wait_timeout(ready, PARK).expect("ready lock");
            ready = guard;
            ready.sleepers -= 1;
            if ready.signals > 0 {
                ready.signals -= 1;
            } else if timeout.timed_out() && !ready.heap.is_empty() {
                stats.timeout_rescues += 1;
            }
        }
    }

    /// Decrements every dependent's indegree; the decrement that lands on
    /// zero — exactly one, by `fetch_sub` atomicity — makes it ready.
    /// Returns the first (in ready order) of the ops this made ready, for
    /// worker `w` to run next; the others are queued.
    fn finish(&self, w: usize, op: OpId) -> Option<OpId> {
        let mut next: Option<(bool, OpId)> = None;
        let mut ready: Option<MutexGuard<'_, Ready>> = None;
        for &dep in &self.graph.dependents[op] {
            if self.indeg[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                let key = self.key(dep);
                let Some(kept) = next else {
                    next = Some(key);
                    continue;
                };
                let spill = if key < kept {
                    next = Some(key);
                    kept
                } else {
                    key
                };
                self.push(ready.get_or_insert_with(|| self.lock_ready()), spill, w);
            }
        }
        drop(ready);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last op: wake everyone so parked workers can exit.
            let _ready = self.lock_ready();
            self.wake.notify_all();
        }
        next.map(|(_, op)| op)
    }

    /// One worker's life: run what the last op made ready, else the first
    /// op of the ready set, until every op has run. Returns its
    /// share of the statistics and its time inside callbacks.
    fn work<F>(&self, w: usize, f: &F) -> (SchedStats, Duration)
    where
        F: Fn(usize, OpId, &T) -> OpStatus,
    {
        let mut stats = SchedStats::default();
        let mut busy = Duration::ZERO;
        let mut next = None;
        while let Some(op) = next.take().or_else(|| self.pop(w, &mut stats)) {
            let d = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
            stats.max_inflight = stats.max_inflight.max(d.max(0) as u64);
            self.metrics.inflight_ops.add(1);
            // Re-enter the planning request's trace on this worker thread,
            // with a SchedOp node so what the callback records — device
            // leaves, flight incidents — hangs under this specific DAG node.
            // A callback may keep the node and drop its device leaves
            // (`telemetry::without_leaves`), as a rebuild batch does.
            let parent = self.graph.trace[op];
            let trace_guard = (parent != 0).then(|| {
                let node = telemetry::alloc_trace_id();
                telemetry::trace_event(
                    telemetry::EventKind::SchedOp,
                    node,
                    parent,
                    op as u64,
                    self.graph.device[op].map_or(u64::MAX, |d| d as u64),
                );
                telemetry::enter_trace(node)
            });
            let began = Instant::now();
            let OpStatus::Done = f(w, op, self.graph.payload(op));
            drop(trace_guard);
            busy += began.elapsed();
            self.metrics.inflight_ops.add(-1);
            self.inflight.fetch_sub(1, Ordering::Relaxed);
            stats.executed += 1;
            next = self.finish(w, op);
        }
        (stats, busy)
    }
}

/// Executes `graph` on up to `workers` threads (never more than it has
/// ops), calling `f(worker, op, payload)` for each runnable op in the
/// ready order the module docs describe. Returns once every op has run.
/// `_devices` is the size of the device-id space; the ready order does not
/// depend on it. `metrics` gauges tick live while the run is in flight.
pub fn run<T, F>(
    workers: usize,
    _devices: usize,
    metrics: &SchedMetrics,
    graph: &OpGraph<T>,
    f: F,
) -> ExecReport
where
    T: Sync,
    F: Fn(usize, OpId, &T) -> OpStatus + Sync,
{
    let workers = workers.max(1);
    let mut worker_busy = vec![Duration::ZERO; workers];
    if graph.is_empty() {
        return ExecReport {
            stats: SchedStats::default(),
            worker_busy,
        };
    }
    let mut shared = Shared {
        indeg: graph.indeg.iter().map(|&d| AtomicU32::new(d)).collect(),
        ready: Mutex::new(Ready {
            heap: BinaryHeap::new(),
            sleepers: 0,
            signals: 0,
            max_depth: 0,
        }),
        wake: Condvar::new(),
        remaining: AtomicUsize::new(graph.len()),
        metrics: metrics.clone(),
        inflight: AtomicI64::new(0),
        graph,
    };
    {
        let mut ready = shared.lock_ready();
        for op in (0..graph.len()).filter(|&op| graph.indeg[op] == 0) {
            shared.push(&mut ready, shared.key(op), ROOT);
        }
    }
    let mut stats = SchedStats::default();
    std::thread::scope(|s| {
        let (shared, f) = (&shared, &f);
        let pool: Vec<_> = (0..workers.min(graph.len()))
            .map(|w| s.spawn(move || shared.work(w, f)))
            .collect();
        for (worker, busy) in pool.into_iter().zip(&mut worker_busy) {
            let (local, spent) = worker.join().expect("scheduler worker panicked");
            stats.absorb(&local);
            *busy = spent;
        }
    });
    let ready = shared.ready.get_mut().expect("ready lock");
    debug_assert!(ready.heap.is_empty(), "ready set drained");
    stats.max_ready_depth = ready.max_depth as u64;
    ExecReport { stats, worker_busy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::atomic::AtomicU32 as Count;

    fn statuses(n: usize) -> Vec<AtomicBool> {
        (0..n).map(|_| AtomicBool::new(false)).collect()
    }

    #[test]
    fn empty_graph_is_a_no_op() {
        let g: OpGraph<()> = OpGraph::new();
        let r = run(4, 2, &SchedMetrics::default(), &g, |_, _, _| OpStatus::Done);
        assert_eq!(r.stats, SchedStats::default());
    }

    #[test]
    fn chain_respects_dependency_order() {
        let mut g = OpGraph::new();
        let n = 64;
        for i in 0..n {
            g.add_node(i, Some(i % 3));
            if i > 0 {
                g.add_edge(i - 1, i);
            }
        }
        let done = statuses(n);
        let r = run(8, 3, &SchedMetrics::default(), &g, |_, op, _| {
            if op > 0 {
                assert!(done[op - 1].load(Ordering::Acquire), "dep ran first");
            }
            done[op].store(true, Ordering::Release);
            OpStatus::Done
        });
        assert_eq!(r.stats.executed, n as u64);
        // A strict chain can never have two ops in flight.
        assert_eq!(r.stats.max_inflight, 1);
    }

    #[test]
    fn metrics_tick_live_and_export_cleanly() {
        telemetry::set_enabled(true);
        let m = SchedMetrics::default();
        let reg = Registry::new();
        m.export(&reg);
        let mut g = OpGraph::new();
        for i in 0..40 {
            g.add_node(i, Some(i % 4));
        }
        let r = run(4, 4, &m, &g, |_, _, _| OpStatus::Done);
        assert_eq!(r.stats.executed, 40);
        assert!(r.stats.max_ready_depth > 0);
        // Idle again after the run.
        assert_eq!(m.ready_queue_depth.get(), 0);
        assert_eq!(m.inflight_ops.get(), 0);
        let text = reg.prometheus();
        for name in [
            "oi_sched_ready_queue_depth",
            "oi_sched_steals_total",
            "oi_sched_inflight_ops",
        ] {
            assert!(text.contains(name), "{name} exported");
        }
        telemetry::lint_prometheus(&text).expect("clean exposition");
    }

    /// The single-fire invariant under heavy contention: a layered random
    /// DAG, an oversubscribed pool, and a counter per op. If an indegree
    /// decrement ever double-fired, some op would execute twice (or a
    /// queue would see a duplicate push) and a count would exceed 1.
    #[test]
    fn stress_indegree_decrement_never_double_fires() {
        let iters: usize = if std::env::var("OI_SCHED_STRESS").is_ok() {
            200
        } else {
            40
        };
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for iter in 0..iters {
            let layers = 4 + (next() % 4) as usize;
            let width = 8 + (next() % 24) as usize;
            let mut g = OpGraph::new();
            let mut prev: Vec<OpId> = Vec::new();
            for l in 0..layers {
                let mut cur = Vec::new();
                for i in 0..width {
                    let dev = (l * width + i) % 7;
                    let op = g.add_node((l, i), Some(dev));
                    // Each op depends on 0..=3 random ops of the previous
                    // layer (duplicates allowed: parallel edges must stay
                    // balanced too).
                    if !prev.is_empty() {
                        for _ in 0..(next() % 4) {
                            g.add_edge(prev[(next() as usize) % prev.len()], op);
                        }
                    }
                    cur.push(op);
                }
                prev = cur;
            }
            let fired: Vec<Count> = (0..g.len()).map(|_| Count::new(0)).collect();
            let done = statuses(g.len());
            let deps: Vec<Vec<OpId>> = {
                let mut deps = vec![Vec::new(); g.len()];
                for (op, outs) in g.dependents.iter().enumerate() {
                    for &d in outs {
                        deps[d].push(op);
                    }
                }
                deps
            };
            let r = run(32, 7, &SchedMetrics::default(), &g, |_, op, _| {
                for &d in &deps[op] {
                    assert!(done[d].load(Ordering::Acquire), "iter {iter}: dep order");
                }
                done[op].store(true, Ordering::Release);
                fired[op].fetch_add(1, Ordering::AcqRel);
                OpStatus::Done
            });
            assert_eq!(r.stats.executed, g.len() as u64, "iter {iter}");
            for (op, c) in fired.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Acquire),
                    1,
                    "iter {iter}: op {op} fired more than once"
                );
            }
        }
    }

    /// Ready order: on independent `read, read -> combine -> write`
    /// diamonds added item by item, reads are taken in plan order and a
    /// diamond is carried through by the worker that completed it, so the
    /// reads that have finished but not yet been combined stay bounded by
    /// the pool — not by the graph, as they would if all reads ran first.
    #[test]
    fn ready_order_bounds_finished_but_unconsumed_reads() {
        const FAN_IN: i64 = 2;
        let diamonds = if std::env::var("OI_SCHED_STRESS").is_ok() {
            4000
        } else {
            400
        };
        enum Node {
            Read,
            Combine,
            Write,
        }
        let mut g = OpGraph::new();
        for i in 0..diamonds {
            let reads = [0, 1].map(|r| g.add_node(Node::Read, Some(1 + (2 * i + r) % 6)));
            let combine = g.add_node(Node::Combine, None);
            let write = g.add_node(Node::Write, Some(0));
            for read in reads {
                g.add_edge(read, combine);
            }
            g.add_edge(combine, write);
        }
        for workers in [1, 2, 8] {
            let unconsumed = AtomicI64::new(0);
            let peak = AtomicI64::new(0);
            let r = run(workers, 7, &SchedMetrics::default(), &g, |_, _, node| {
                match node {
                    Node::Read => {
                        let now = unconsumed.fetch_add(1, Ordering::AcqRel) + 1;
                        peak.fetch_max(now, Ordering::AcqRel);
                    }
                    Node::Combine => {
                        unconsumed.fetch_sub(FAN_IN, Ordering::AcqRel);
                    }
                    Node::Write => {}
                }
                OpStatus::Done
            });
            assert_eq!(r.stats.executed, g.len() as u64);
            assert_eq!(unconsumed.load(Ordering::Acquire), 0);
            let bound = if workers == 1 {
                FAN_IN
            } else {
                workers as i64 * (FAN_IN + 1)
            };
            let peak = peak.load(Ordering::Acquire);
            assert!(peak <= bound, "{workers} workers: {peak} > {bound}");
            if workers == 1 {
                // One worker hands nothing over: every op after a root is
                // run downstream-first, and roots are nobody's to steal.
                assert_eq!(r.stats.steals, 0);
                assert_eq!(r.worker_busy.len(), 1);
            }
        }
    }

    /// Parking: random narrow DAGs on a pool wider than they are, with
    /// callbacks that sleep so workers must park and be woken again. Every
    /// op runs exactly once, and no parked worker had to be rescued by the
    /// wait timeout while ops sat in the ready set.
    #[test]
    fn stress_parked_workers_are_woken_by_pushes_not_by_the_timeout() {
        let iters = if std::env::var("OI_SCHED_STRESS").is_ok() {
            1000
        } else {
            60
        };
        let mut seed = 0xD1B54A32D192ED03u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for iter in 0..iters {
            let mut g = OpGraph::new();
            let mut prev: Vec<OpId> = Vec::new();
            for _ in 0..(3 + next() % 4) {
                let width = 1 + (next() % 12) as usize;
                let cur: Vec<OpId> = (0..width)
                    .map(|i| {
                        let device = (next() % 2 == 0).then_some(i % 5);
                        let op = g.add_node(20 + next() % 60, device);
                        if !prev.is_empty() {
                            for _ in 0..(1 + next() % 3) {
                                g.add_edge(prev[(next() as usize) % prev.len()], op);
                            }
                        }
                        op
                    })
                    .collect();
                prev = cur;
            }
            let fired: Vec<Count> = (0..g.len()).map(|_| Count::new(0)).collect();
            let r = run(8, 5, &SchedMetrics::default(), &g, |_, op, micros| {
                fired[op].fetch_add(1, Ordering::AcqRel);
                std::thread::sleep(Duration::from_micros(*micros));
                OpStatus::Done
            });
            assert_eq!(r.stats.executed, g.len() as u64, "iter {iter}");
            assert!(
                fired.iter().all(|c| c.load(Ordering::Acquire) == 1),
                "iter {iter}: an op fired other than once"
            );
            assert_eq!(r.stats.timeout_rescues, 0, "iter {iter}: lost wake-up");
            assert_eq!(r.worker_busy.len(), 8, "iter {iter}");
        }
    }

    /// A graph smaller than the pool spawns one thread per op at most; the
    /// report still has one busy slot per requested worker.
    #[test]
    fn tiny_graph_does_not_spawn_the_whole_pool() {
        let mut g = OpGraph::new();
        for i in 0..3 {
            g.add_node(i, Some(i));
        }
        let seen = Mutex::new(std::collections::BTreeSet::new());
        let r = run(32, 3, &SchedMetrics::default(), &g, |w, _, _| {
            seen.lock().unwrap().insert(w);
            OpStatus::Done
        });
        assert_eq!(r.stats.executed, 3);
        assert_eq!(r.worker_busy.len(), 32);
        assert!(seen.lock().unwrap().iter().all(|&w| w < 3));
    }
}
