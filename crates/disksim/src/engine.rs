//! The discrete-event engine: executes a dependency graph of disk tasks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::disk::{DiskId, DiskSpec};
use crate::stats::DiskStats;
use crate::time::SimTime;
use crate::AccessKind;

/// Identifier of a task within one [`Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(usize);

impl TaskId {
    /// Dense index of the task (creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Default scheduling priority of a task (midpoint of the `u8` range).
pub const DEFAULT_PRIORITY: u8 = 128;

/// Specification of one disk I/O task.
///
/// Built with [`TaskSpec::read`]/[`TaskSpec::write`] plus the chained
/// configurators, then registered via [`Simulation::add_task`].
///
/// ```
/// use disksim::{DiskSpec, Simulation, TaskSpec, SimTime};
///
/// let mut sim = Simulation::new();
/// let d = sim.add_disk(DiskSpec::hdd_7200(1 << 30));
/// let a = sim.add_task(TaskSpec::read(d, 4096).released_at(SimTime::from_millis(5)));
/// let _b = sim.add_task(TaskSpec::write(d, 4096).after(a).tagged(7));
/// ```
#[derive(Debug, Clone)]
pub struct TaskSpec {
    disk: DiskId,
    size: u64,
    kind: AccessKind,
    is_write: bool,
    release: SimTime,
    deps: Vec<TaskId>,
    tag: u64,
    priority: u8,
}

impl TaskSpec {
    /// A read of `size` bytes from `disk` (random access by default).
    pub fn read(disk: DiskId, size: u64) -> Self {
        Self {
            disk,
            size,
            kind: AccessKind::Random,
            is_write: false,
            release: SimTime::ZERO,
            deps: Vec::new(),
            tag: 0,
            priority: DEFAULT_PRIORITY,
        }
    }

    /// A write of `size` bytes to `disk` (random access by default).
    pub fn write(disk: DiskId, size: u64) -> Self {
        Self {
            is_write: true,
            ..Self::read(disk, size)
        }
    }

    /// Marks the access sequential (no positioning charge).
    pub fn sequential(mut self) -> Self {
        self.kind = AccessKind::Sequential;
        self
    }

    /// Sets the earliest start time.
    pub fn released_at(mut self, t: SimTime) -> Self {
        self.release = t;
        self
    }

    /// Adds a dependency: this task starts only after `dep` completes.
    pub fn after(mut self, dep: TaskId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Adds several dependencies.
    pub fn after_all(mut self, deps: impl IntoIterator<Item = TaskId>) -> Self {
        self.deps.extend(deps);
        self
    }

    /// Attaches an opaque tag surfaced in the results (workload generators
    /// use it to classify foreground vs rebuild traffic).
    pub fn tagged(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the scheduling priority (lower value = served first; default
    /// [`DEFAULT_PRIORITY`]). Within a priority level, service is FIFO by
    /// ready time. Background rebuild traffic typically runs at a *higher*
    /// numeric value than foreground I/O so user requests overtake it in
    /// the disk queues.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// The target disk.
    pub fn disk(&self) -> DiskId {
        self.disk
    }

    /// Transfer size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        self.is_write
    }
}

/// Errors from building or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A task references a disk that was never added.
    UnknownDisk(usize),
    /// A task depends on a task id not yet created.
    UnknownTask(usize),
    /// The dependency graph has a cycle (or depends on a never-created id),
    /// so some tasks can never start.
    Deadlock {
        /// Number of tasks that never became ready.
        stuck: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownDisk(d) => write!(f, "task references unknown disk {d}"),
            Self::UnknownTask(t) => write!(f, "dependency on unknown task {t}"),
            Self::Deadlock { stuck } => {
                write!(f, "{stuck} task(s) never became ready (dependency cycle)")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug)]
struct TaskState {
    spec: TaskSpec,
    unmet_deps: usize,
    dependents: Vec<usize>,
    start: Option<SimTime>,
    finish: Option<SimTime>,
}

/// A deterministic discrete-event simulation of a disk array executing a
/// task graph. See the [crate docs](crate) for the model.
#[derive(Debug, Default)]
pub struct Simulation {
    disks: Vec<DiskSpec>,
    tasks: Vec<TaskState>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Disk finished its current task (processed before same-time releases).
    Complete(usize),
    /// A task's release time arrived.
    Release(usize),
}

impl Simulation {
    /// Creates an empty simulation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a disk, returning its id.
    pub fn add_disk(&mut self, spec: DiskSpec) -> DiskId {
        self.disks.push(spec);
        DiskId(self.disks.len() - 1)
    }

    /// Registers a task, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the task references an unknown disk or depends on a task id
    /// that has not been created yet (dependencies must point backwards,
    /// which also guarantees the graph is acyclic).
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        assert!(
            spec.disk.0 < self.disks.len(),
            "task references unknown {}",
            spec.disk
        );
        let id = self.tasks.len();
        for dep in &spec.deps {
            assert!(dep.0 < id, "dependency {} not created yet", dep);
        }
        let unmet = spec.deps.len();
        for dep in spec.deps.clone() {
            self.tasks[dep.0].dependents.push(id);
        }
        self.tasks.push(TaskState {
            spec,
            unmet_deps: unmet,
            dependents: Vec::new(),
            start: None,
            finish: None,
        });
        TaskId(id)
    }

    /// Runs the simulation to completion and returns the results.
    ///
    /// Deterministic: ties are broken by task id. Consumes the simulation.
    pub fn run(mut self) -> RunResult {
        let n_disks = self.disks.len();
        // Per-disk ready queues (priority, then FIFO by arrival) and busy
        // state.
        let mut ready: Vec<BinaryHeap<Reverse<(u8, u64, usize)>>> =
            vec![BinaryHeap::new(); n_disks];
        let mut ready_seq: u64 = 0;
        let mut busy: Vec<Option<usize>> = vec![None; n_disks];
        let mut busy_time = vec![SimTime::ZERO; n_disks];
        let mut served = vec![0u64; n_disks];
        let mut bytes = vec![0u64; n_disks];

        // Event queue ordered by (time, event): at equal times completions
        // process before releases, then by task id — fully deterministic.
        let mut heap: BinaryHeap<Reverse<(SimTime, Event)>> = BinaryHeap::new();

        // Seed: tasks with no deps get Release events at their release time.
        for i in 0..self.tasks.len() {
            if self.tasks[i].unmet_deps == 0 {
                let t = self.tasks[i].spec.release;
                heap.push(Reverse((t, Event::Release(i))));
            }
        }

        let mut now = SimTime::ZERO;
        let mut completed = 0usize;
        while let Some(Reverse((t, event))) = heap.pop() {
            now = t;
            match event {
                Event::Release(task) => {
                    let d = self.tasks[task].spec.disk.0;
                    ready[d].push(Reverse((self.tasks[task].spec.priority, ready_seq, task)));
                    ready_seq += 1;
                    Self::start_next(
                        &mut self.tasks,
                        &self.disks,
                        d,
                        now,
                        &mut ready,
                        &mut busy,
                        &mut busy_time,
                        &mut served,
                        &mut bytes,
                        &mut heap,
                    );
                }
                Event::Complete(task) => {
                    completed += 1;
                    let d = self.tasks[task].spec.disk.0;
                    busy[d] = None;
                    // Wake dependents.
                    let dependents = std::mem::take(&mut self.tasks[task].dependents);
                    for &dep in &dependents {
                        let st = &mut self.tasks[dep];
                        st.unmet_deps -= 1;
                        if st.unmet_deps == 0 {
                            let rel = st.spec.release.max(now);
                            heap.push(Reverse((rel, Event::Release(dep))));
                        }
                    }
                    self.tasks[task].dependents = dependents;
                    Self::start_next(
                        &mut self.tasks,
                        &self.disks,
                        d,
                        now,
                        &mut ready,
                        &mut busy,
                        &mut busy_time,
                        &mut served,
                        &mut bytes,
                        &mut heap,
                    );
                }
            }
        }

        let stuck = self.tasks.len() - completed;
        let disk_stats = (0..n_disks)
            .map(|d| DiskStats {
                disk: DiskId(d),
                busy: busy_time[d],
                requests: served[d],
                bytes: bytes[d],
                utilization: if now == SimTime::ZERO {
                    0.0
                } else {
                    busy_time[d].as_secs_f64() / now.as_secs_f64()
                },
            })
            .collect();
        RunResult {
            makespan: now,
            tasks: self.tasks,
            disk_stats,
            stuck,
        }
    }

    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn start_next(
        tasks: &mut [TaskState],
        disks: &[DiskSpec],
        d: usize,
        now: SimTime,
        ready: &mut [BinaryHeap<Reverse<(u8, u64, usize)>>],
        busy: &mut [Option<usize>],
        busy_time: &mut [SimTime],
        served: &mut [u64],
        bytes: &mut [u64],
        heap: &mut BinaryHeap<Reverse<(SimTime, Event)>>,
    ) {
        if busy[d].is_some() {
            return;
        }
        let Some(Reverse((_, _, task))) = ready[d].pop() else {
            return;
        };
        let st = &mut tasks[task];
        let service = disks[d].service_time(st.spec.size, st.spec.kind);
        st.start = Some(now);
        st.finish = Some(now + service);
        busy[d] = Some(task);
        busy_time[d] += service;
        served[d] += 1;
        bytes[d] += st.spec.size;
        heap.push(Reverse((now + service, Event::Complete(task))));
    }
}

/// Results of a completed simulation run.
#[derive(Debug)]
pub struct RunResult {
    makespan: SimTime,
    tasks: Vec<TaskState>,
    disk_stats: Vec<DiskStats>,
    stuck: usize,
}

impl RunResult {
    /// Completion time of the last task (time zero if there were no tasks).
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Per-disk statistics, indexed by [`DiskId::index`].
    pub fn disk_stats(&self) -> &[DiskStats] {
        &self.disk_stats
    }

    /// Number of tasks that never ran (nonzero only for cyclic graphs, which
    /// [`Simulation::add_task`] prevents; kept as a safety net).
    pub fn stuck_tasks(&self) -> usize {
        self.stuck
    }

    /// Completion time of `task`, if it ran.
    pub fn finish_time(&self, task: TaskId) -> Option<SimTime> {
        self.tasks.get(task.0).and_then(|t| t.finish)
    }

    /// Start time of `task`, if it ran.
    pub fn start_time(&self, task: TaskId) -> Option<SimTime> {
        self.tasks.get(task.0).and_then(|t| t.start)
    }

    /// Latency of `task` (finish − release), if it ran.
    pub fn latency(&self, task: TaskId) -> Option<SimTime> {
        let t = self.tasks.get(task.0)?;
        Some(t.finish? - t.spec.release)
    }

    /// Latencies of every completed task with tag `tag`, in task order.
    pub fn latencies_tagged(&self, tag: u64) -> Vec<SimTime> {
        self.tasks
            .iter()
            .filter(|t| t.spec.tag == tag)
            .filter_map(|t| Some(t.finish? - t.spec.release))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskSpec {
        // 100 B/s, 1 ms positioning, 1000 B capacity: easy mental math.
        DiskSpec::new(1000, 100.0, SimTime::from_millis(1))
    }

    #[test]
    fn single_task_timing() {
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        let t = sim.add_task(TaskSpec::read(d, 100).sequential());
        let r = sim.run();
        assert_eq!(r.finish_time(t), Some(SimTime::from_secs_f64(1.0)));
        assert_eq!(r.makespan(), SimTime::from_secs_f64(1.0));
        assert_eq!(r.disk_stats()[0].requests, 1);
        assert_eq!(r.disk_stats()[0].bytes, 100);
        assert!((r.disk_stats()[0].utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_queueing_on_one_disk() {
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        let a = sim.add_task(TaskSpec::read(d, 100).sequential());
        let b = sim.add_task(TaskSpec::read(d, 100).sequential());
        let r = sim.run();
        assert_eq!(r.finish_time(a), Some(SimTime::from_secs_f64(1.0)));
        assert_eq!(r.finish_time(b), Some(SimTime::from_secs_f64(2.0)));
    }

    #[test]
    fn parallel_disks_overlap() {
        let mut sim = Simulation::new();
        let d0 = sim.add_disk(disk());
        let d1 = sim.add_disk(disk());
        sim.add_task(TaskSpec::read(d0, 100).sequential());
        sim.add_task(TaskSpec::read(d1, 100).sequential());
        let r = sim.run();
        assert_eq!(r.makespan(), SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn dependency_serializes_across_disks() {
        let mut sim = Simulation::new();
        let d0 = sim.add_disk(disk());
        let d1 = sim.add_disk(disk());
        let a = sim.add_task(TaskSpec::read(d0, 100).sequential());
        let b = sim.add_task(TaskSpec::write(d1, 200).sequential().after(a));
        let r = sim.run();
        assert_eq!(r.start_time(b), Some(SimTime::from_secs_f64(1.0)));
        assert_eq!(r.finish_time(b), Some(SimTime::from_secs_f64(3.0)));
    }

    #[test]
    fn release_time_respected() {
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        let t = sim.add_task(
            TaskSpec::read(d, 100)
                .sequential()
                .released_at(SimTime::from_secs_f64(5.0)),
        );
        let r = sim.run();
        assert_eq!(r.start_time(t), Some(SimTime::from_secs_f64(5.0)));
        // Latency is measured from release: exactly the service time.
        assert_eq!(r.latency(t), Some(SimTime::from_secs_f64(1.0)));
    }

    #[test]
    fn random_access_pays_positioning() {
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        let t = sim.add_task(TaskSpec::read(d, 100));
        let r = sim.run();
        assert_eq!(
            r.finish_time(t),
            Some(SimTime::from_secs_f64(1.0) + SimTime::from_millis(1))
        );
    }

    #[test]
    fn tags_filter_latencies() {
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        sim.add_task(TaskSpec::read(d, 100).sequential().tagged(1));
        sim.add_task(TaskSpec::read(d, 100).sequential().tagged(2));
        sim.add_task(TaskSpec::read(d, 100).sequential().tagged(1));
        let r = sim.run();
        assert_eq!(r.latencies_tagged(1).len(), 2);
        assert_eq!(r.latencies_tagged(2).len(), 1);
        assert_eq!(r.latencies_tagged(9).len(), 0);
    }

    #[test]
    #[should_panic(expected = "unknown disk1")]
    fn unknown_disk_rejected() {
        let mut sim = Simulation::new();
        let _d = sim.add_disk(disk());
        sim.add_task(TaskSpec::read(DiskId(1), 10));
    }

    #[test]
    #[should_panic(expected = "not created yet")]
    fn forward_dependency_rejected() {
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        sim.add_task(TaskSpec::read(d, 10).after(TaskId(5)));
    }

    #[test]
    fn empty_simulation_runs() {
        let sim = Simulation::new();
        let r = sim.run();
        assert_eq!(r.makespan(), SimTime::ZERO);
        assert_eq!(r.stuck_tasks(), 0);
    }

    #[test]
    fn deterministic_ordering_by_id_on_ties() {
        // Two tasks released at the same instant on one disk run in id order.
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        let a = sim.add_task(TaskSpec::read(d, 100).sequential());
        let b = sim.add_task(TaskSpec::read(d, 50).sequential());
        let r = sim.run();
        assert!(r.finish_time(a).unwrap() < r.finish_time(b).unwrap());
    }

    #[test]
    fn priority_overtakes_fifo() {
        // Three tasks ready simultaneously: priority decides queue order
        // once the disk frees up.
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        let bg1 = sim.add_task(TaskSpec::read(d, 100).sequential().with_priority(200));
        let bg2 = sim.add_task(TaskSpec::read(d, 100).sequential().with_priority(200));
        let fg = sim.add_task(TaskSpec::read(d, 100).sequential().with_priority(10));
        let r = sim.run();
        // bg1 seizes the idle disk (non-preemptive); among the *queued*
        // tasks the high-priority fg overtakes bg2.
        assert_eq!(r.finish_time(bg1), Some(SimTime::from_secs_f64(1.0)));
        assert_eq!(r.finish_time(fg), Some(SimTime::from_secs_f64(2.0)));
        assert_eq!(r.finish_time(bg2), Some(SimTime::from_secs_f64(3.0)));
    }

    #[test]
    fn priority_is_non_preemptive() {
        // A running background task is not interrupted; the foreground task
        // waits for it but jumps ahead of queued background work.
        let mut sim = Simulation::new();
        let d = sim.add_disk(disk());
        let bg1 = sim.add_task(TaskSpec::read(d, 100).sequential().with_priority(200)); // starts at 0
        let bg2 = sim.add_task(TaskSpec::read(d, 100).sequential().with_priority(200));
        let fg = sim.add_task(
            TaskSpec::read(d, 100)
                .sequential()
                .with_priority(10)
                .released_at(SimTime::from_millis(500)),
        );
        let r = sim.run();
        // bg1 finishes at 1s (not preempted); fg at 2s; bg2 at 3s.
        assert_eq!(r.finish_time(bg1), Some(SimTime::from_secs_f64(1.0)));
        assert_eq!(r.finish_time(fg), Some(SimTime::from_secs_f64(2.0)));
        assert_eq!(r.finish_time(bg2), Some(SimTime::from_secs_f64(3.0)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Random DAG workloads over a few disks: structural invariants
        /// that must hold for any schedule.
        fn build(seed: u64, n_disks: usize, n_tasks: usize) -> (Simulation, Vec<TaskId>) {
            let mut sim = Simulation::new();
            let disks: Vec<DiskId> = (0..n_disks)
                .map(|_| sim.add_disk(DiskSpec::new(1000, 1000.0, SimTime::from_micros(100))))
                .collect();
            let mut s = seed | 1;
            let mut rnd = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) as usize
            };
            let mut ids = Vec::new();
            for i in 0..n_tasks {
                let mut spec = TaskSpec::read(disks[rnd() % n_disks], (rnd() % 5000 + 1) as u64)
                    .released_at(SimTime::from_micros((rnd() % 10_000) as u64))
                    .with_priority((rnd() % 256) as u8);
                // Up to 2 backward dependencies.
                for _ in 0..rnd() % 3 {
                    if i > 0 {
                        spec = spec.after(ids[rnd() % i]);
                    }
                }
                ids.push(sim.add_task(spec));
            }
            (sim, ids)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn schedules_are_causal_and_complete(seed in any::<u64>()) {
                let (sim, ids) = build(seed, 4, 30);
                let deps: Vec<Vec<TaskId>> = ids.iter().map(|_| Vec::new()).collect();
                let _ = deps;
                let (sim2, _) = build(seed, 4, 30);
                let r = sim.run();
                let r2 = sim2.run();
                prop_assert_eq!(r.stuck_tasks(), 0);
                // Determinism: identical construction => identical outcome.
                prop_assert_eq!(r.makespan(), r2.makespan());
                for &t in &ids {
                    let start = r.start_time(t).expect("ran");
                    let finish = r.finish_time(t).expect("ran");
                    prop_assert!(start <= finish);
                    prop_assert!(finish <= r.makespan());
                }
                // Busy time never exceeds the makespan on any disk.
                for d in r.disk_stats() {
                    prop_assert!(d.busy <= r.makespan());
                    prop_assert!(d.utilization <= 1.0 + 1e-9);
                }
            }

            #[test]
            fn dependencies_precede_dependents(seed in any::<u64>()) {
                // Rebuild the same graph, remembering dependencies, and
                // check finish(dep) <= start(task).
                let mut sim = Simulation::new();
                let disks: Vec<DiskId> = (0..3)
                    .map(|_| sim.add_disk(DiskSpec::new(1000, 1000.0, SimTime::ZERO)))
                    .collect();
                let mut s = seed | 1;
                let mut rnd = move || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
                    (s >> 33) as usize
                };
                let mut ids: Vec<TaskId> = Vec::new();
                let mut edges: Vec<(TaskId, TaskId)> = Vec::new();
                for i in 0..25 {
                    let mut spec = TaskSpec::write(disks[rnd() % 3], (rnd() % 2000 + 1) as u64);
                    if i > 0 && rnd() % 2 == 0 {
                        let dep = ids[rnd() % i];
                        spec = spec.after(dep);
                        edges.push((dep, TaskId(i)));
                    }
                    ids.push(sim.add_task(spec));
                }
                let r = sim.run();
                for (dep, task) in edges {
                    prop_assert!(
                        r.finish_time(dep).unwrap() <= r.start_time(task).unwrap(),
                        "dep {dep} must finish before {task} starts"
                    );
                }
            }
        }
    }

    #[test]
    fn fan_in_dependency_waits_for_all() {
        let mut sim = Simulation::new();
        let d0 = sim.add_disk(disk());
        let d1 = sim.add_disk(disk());
        let d2 = sim.add_disk(disk());
        let a = sim.add_task(TaskSpec::read(d0, 100).sequential()); // 1 s
        let b = sim.add_task(TaskSpec::read(d1, 300).sequential()); // 3 s
        let c = sim.add_task(TaskSpec::write(d2, 100).sequential().after_all([a, b]));
        let r = sim.run();
        assert_eq!(r.start_time(c), Some(SimTime::from_secs_f64(3.0)));
    }
}
