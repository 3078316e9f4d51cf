//! Degraded-mode service: both halves of the "keep serving while broken"
//! story. The planning half ([`ReadPlan`]) answers what must be fetched to
//! serve a *read* of one data chunk while disks are down — the
//! user-latency side (degraded reads sit on the critical path of every
//! request that hits a failed disk). The simulation half
//! ([`DegradedScenario`], experiment E8) runs a whole rebuild against
//! foreground traffic on modeled disks and measures the interference.

use disksim::{DiskSpec, SimTime, Simulation, Summary, TaskSpec, Workload};
use layout::{ChunkAddr, LayoutError, RecoveryPlan, WriteTarget};

use crate::array::OiRaid;
use crate::multifail::{self, First};
use crate::online::Region;
use crate::OiRaidConfig;

/// How a degraded read is served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadPlan {
    /// The data disk is healthy: one read.
    Direct(ChunkAddr),
    /// Reconstruct from the inner row: `g − miss` surviving row chunks, all
    /// inside the data chunk's own group.
    InnerDecode {
        /// Chunks to read (surviving row chunks).
        reads: Vec<ChunkAddr>,
    },
    /// Reconstruct from the outer stripe: `k − 1` chunks, one in each other
    /// member group of the block.
    OuterDecode {
        /// Chunks to read (surviving stripe chunks).
        reads: Vec<ChunkAddr>,
    },
}

impl ReadPlan {
    /// Number of chunk reads the plan issues.
    pub fn read_count(&self) -> usize {
        match self {
            ReadPlan::Direct(_) => 1,
            ReadPlan::InnerDecode { reads } | ReadPlan::OuterDecode { reads } => reads.len(),
        }
    }
}

impl OiRaid {
    /// Plans the read of logical data chunk `idx` under the failure pattern
    /// `failed`: direct if its disk is up, else the store's own plan of it
    /// (the backward planner every degraded foreground read takes), which
    /// decodes through the chunk's inner row when that misses only the
    /// chunk, else through its outer stripe.
    ///
    /// Reads served this way touch only healthy chunks of one relation; a
    /// plan through more than one (both levels broken around the chunk) is
    /// reported as [`LayoutError::DataLoss`] here — the analysis model
    /// counts single-level decodes only, though the store serves those
    /// reads through the whole closure.
    ///
    /// # Errors
    ///
    /// [`LayoutError::DiskOutOfRange`] for bad patterns;
    /// [`LayoutError::DataLoss`] when no single-level decode exists.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn read_plan(&self, idx: usize, failed: &[usize]) -> Result<ReadPlan, LayoutError> {
        let disks = self.geometry().disks();
        if let Some(&d) = failed.iter().find(|&&d| d >= disks) {
            return Err(LayoutError::DiskOutOfRange { disk: d, disks });
        }
        let addr = self.locate_data(idx);
        if !failed.contains(&addr.disk) {
            return Ok(ReadPlan::Direct(addr));
        }
        let available = |a: ChunkAddr| !failed.contains(&a.disk);
        let first = First::cheaper(self.geometry());
        let (plan, via) = multifail::plan_closure(self, &[addr], available, first);
        let reads = || plan[0].reads.clone();
        match via[..] {
            [Region::Row(..)] => Ok(ReadPlan::InnerDecode { reads: reads() }),
            [Region::Stripe(..)] => Ok(ReadPlan::OuterDecode { reads: reads() }),
            _ => Err(LayoutError::DataLoss {
                failed: failed.to_vec(),
            }),
        }
    }
}

/// A degraded-mode experiment: one recovery plan executed while a
/// foreground workload runs over the surviving disks.
///
/// # Example
///
/// ```
/// use disksim::{ArrivalProcess, DiskSpec, SimTime, Workload, WorkloadKind};
/// use layout::{Layout, SparePolicy};
/// use oi_raid::{DegradedScenario, OiRaid, OiRaidConfig};
///
/// let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
/// let plan = array.recovery_plan(&[0], SparePolicy::Distributed).unwrap();
/// let scenario = DegradedScenario {
///     spec: DiskSpec::hdd_7200(1 << 30),
///     chunk_bytes: (1 << 30) / 9,
///     workload: Workload::new(
///         WorkloadKind::UniformRandom,
///         ArrivalProcess::Poisson { rate: 50.0 },
///         64 << 10,
///         7,
///     ),
///     workload_duration: SimTime::from_secs_f64(5.0),
///     rebuild_window: 8,
///     low_priority_rebuild: false,
/// };
/// let run = scenario.run(&plan);
/// assert!(run.rebuild_time > SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct DegradedScenario {
    /// The disk model.
    pub spec: DiskSpec,
    /// Bytes per layout chunk (capacity / chunks_per_disk for full-disk
    /// rebuild experiments).
    pub chunk_bytes: u64,
    /// The foreground workload.
    pub workload: Workload,
    /// How long foreground arrivals keep coming.
    pub workload_duration: SimTime,
    /// Maximum rebuild items in flight (0 = unlimited). Real rebuilds pace
    /// themselves so user I/O can interleave; item `i`'s reads wait for item
    /// `i − window`'s write. The rebuild pipeline stays full, so makespan is
    /// barely affected, but foreground requests no longer queue behind the
    /// whole rebuild.
    pub rebuild_window: usize,
    /// Run rebuild I/O at lower scheduling priority than foreground
    /// requests (non-preemptive priority queues per disk). Trades rebuild
    /// time for user latency — the knob every production rebuilder exposes.
    pub low_priority_rebuild: bool,
}

/// Results of a degraded-mode run.
#[derive(Debug)]
pub struct DegradedRun {
    /// Completion time of the rebuild (with the workload competing).
    pub rebuild_time: SimTime,
    /// Foreground latency while rebuilding.
    pub degraded_latency: Summary,
    /// Foreground latency of the identical workload on an idle (healthy)
    /// array — the baseline the degradation is measured against.
    pub idle_latency: Summary,
}

impl DegradedScenario {
    /// Runs the scenario: once with rebuild + workload, once workload-only.
    pub fn run(&self, plan: &RecoveryPlan) -> DegradedRun {
        let (rebuild_time, degraded_latency) = self.run_once(plan, true);
        let (_, idle_latency) = self.run_once(plan, false);
        DegradedRun {
            rebuild_time,
            degraded_latency,
            idle_latency,
        }
    }

    fn run_once(&self, plan: &RecoveryPlan, with_rebuild: bool) -> (SimTime, Summary) {
        let mut sim = Simulation::new();
        let disk_ids: Vec<_> = (0..plan.disks())
            .map(|_| sim.add_disk(self.spec.clone()))
            .collect();
        let spare_ids: Vec<_> = plan
            .failed()
            .iter()
            .map(|_| sim.add_disk(self.spec.clone()))
            .collect();
        let rebuild_priority = if self.low_priority_rebuild {
            disksim::DEFAULT_PRIORITY + 64
        } else {
            disksim::DEFAULT_PRIORITY
        };
        let mut rebuild_writes: Vec<disksim::TaskId> = Vec::new();
        if with_rebuild {
            for (i, item) in plan.items().iter().enumerate() {
                let pace = (self.rebuild_window > 0 && i >= self.rebuild_window)
                    .then(|| rebuild_writes[i - self.rebuild_window]);
                let mut reads: Vec<_> = item
                    .reads
                    .iter()
                    .map(|r| {
                        let mut t = TaskSpec::read(disk_ids[r.disk], self.chunk_bytes)
                            .with_priority(rebuild_priority);
                        if let Some(p) = pace {
                            t = t.after(p);
                        }
                        sim.add_task(t)
                    })
                    .collect();
                for &dep in &item.depends {
                    let dep_write = rebuild_writes[dep];
                    let dep_item = &plan.items()[dep];
                    let dep_target = match dep_item.write {
                        WriteTarget::Spare(i) => spare_ids[i],
                        WriteTarget::Surviving { disk } => disk_ids[disk],
                        WriteTarget::InPlace => disk_ids[dep_item.lost.disk],
                    };
                    reads.push(
                        sim.add_task(
                            TaskSpec::read(dep_target, self.chunk_bytes)
                                .with_priority(rebuild_priority)
                                .after(dep_write),
                        ),
                    );
                }
                let target = match item.write {
                    WriteTarget::Spare(i) => spare_ids[i],
                    WriteTarget::Surviving { disk } => disk_ids[disk],
                    WriteTarget::InPlace => disk_ids[item.lost.disk],
                };
                let mut spec = TaskSpec::write(target, self.chunk_bytes)
                    .with_priority(rebuild_priority)
                    .after_all(reads);
                if let Some(p) = pace {
                    spec = spec.after(p);
                }
                let w = sim.add_task(spec);
                rebuild_writes.push(w);
            }
        }
        // Foreground reads hit the surviving data disks only.
        let survivors: Vec<_> = (0..plan.disks())
            .filter(|d| !plan.failed().contains(d))
            .map(|d| disk_ids[d])
            .collect();
        self.workload
            .generate(&mut sim, &survivors, self.workload_duration);
        let result = sim.run();
        let rebuild_time = rebuild_writes
            .iter()
            .filter_map(|t| result.finish_time(*t))
            .max()
            .unwrap_or(SimTime::ZERO);
        let latency = Summary::from_samples(&result.latencies_tagged(disksim::FOREGROUND_TAG));
        (rebuild_time, latency)
    }
}

/// Convenience: the reference-array scenario used by examples and E8.
pub fn reference_scenario(rate: f64, seed: u64) -> (OiRaid, DegradedScenario) {
    use disksim::{ArrivalProcess, WorkloadKind};
    let array = OiRaid::new(OiRaidConfig::reference()).expect("reference config");
    let capacity: u64 = 500 * 1000 * 1000; // 500 MB toy disks keep sims fast
    let chunk_bytes = capacity / array.config().chunks_per_disk() as u64;
    let scenario = DegradedScenario {
        spec: DiskSpec::hdd_7200(capacity),
        chunk_bytes,
        workload: Workload::new(
            WorkloadKind::UniformRandom,
            ArrivalProcess::Poisson { rate },
            64 << 10,
            seed,
        ),
        workload_duration: SimTime::from_secs_f64(10.0),
        rebuild_window: 8,
        low_priority_rebuild: false,
    };
    (array, scenario)
}

#[cfg(test)]
mod sim_tests {
    use super::*;
    use layout::{Layout, SparePolicy};

    #[test]
    fn rebuild_slows_foreground() {
        let (array, scenario) = reference_scenario(100.0, 3);
        let plan = array.recovery_plan(&[0], SparePolicy::Distributed).unwrap();
        let run = scenario.run(&plan);
        assert!(run.rebuild_time > SimTime::ZERO);
        assert!(run.degraded_latency.count > 0);
        assert!(
            run.degraded_latency.mean >= run.idle_latency.mean,
            "competition cannot make latency better: {} vs {}",
            run.degraded_latency.mean,
            run.idle_latency.mean
        );
    }

    #[test]
    fn low_priority_rebuild_trades_latency_for_time() {
        let (array, mut scenario) = reference_scenario(200.0, 8);
        let plan = array.recovery_plan(&[0], SparePolicy::Distributed).unwrap();
        let fifo = scenario.run(&plan);
        scenario.low_priority_rebuild = true;
        let prio = scenario.run(&plan);
        assert!(
            prio.degraded_latency.p95 <= fifo.degraded_latency.p95,
            "prioritised foreground cannot have worse p95: {} vs {}",
            prio.degraded_latency.p95,
            fifo.degraded_latency.p95
        );
        assert!(prio.rebuild_time >= fifo.rebuild_time);
    }

    #[test]
    fn workload_only_baseline_has_no_rebuild() {
        let (array, scenario) = reference_scenario(50.0, 4);
        let plan = array.recovery_plan(&[5], SparePolicy::Distributed).unwrap();
        let (t, summary) = scenario.run_once(&plan, false);
        assert_eq!(t, SimTime::ZERO);
        assert!(summary.count > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OiRaidConfig;
    use layout::Layout;

    fn reference() -> OiRaid {
        OiRaid::new(OiRaidConfig::reference()).unwrap()
    }

    #[test]
    fn healthy_reads_are_direct() {
        let a = reference();
        for idx in 0..a.data_chunks() {
            match a.read_plan(idx, &[]).unwrap() {
                ReadPlan::Direct(addr) => assert_eq!(addr, a.locate_data(idx)),
                other => panic!("expected direct, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_failure_prefers_inner_decode() {
        let a = reference();
        for idx in 0..a.data_chunks() {
            let addr = a.locate_data(idx);
            let plan = a.read_plan(idx, &[addr.disk]).unwrap();
            match plan {
                ReadPlan::InnerDecode { reads } => {
                    assert_eq!(reads.len(), 2); // g − 1 survivors
                    assert!(reads.iter().all(|r| r.disk != addr.disk));
                }
                other => panic!("idx {idx}: expected inner decode, got {other:?}"),
            }
        }
    }

    #[test]
    fn group_loss_falls_back_to_outer_decode() {
        let a = reference();
        // Fail all of group 0; data chunks there must decode via the outer
        // stripe with k − 1 = 2 remote reads.
        let failed = [0usize, 1, 2];
        for idx in 0..a.data_chunks() {
            let addr = a.locate_data(idx);
            if a.group_of(addr.disk) != 0 {
                continue;
            }
            match a.read_plan(idx, &failed).unwrap() {
                ReadPlan::OuterDecode { reads } => {
                    assert_eq!(reads.len(), 2);
                    assert!(reads.iter().all(|r| a.group_of(r.disk) != 0));
                }
                other => panic!("idx {idx}: expected outer decode, got {other:?}"),
            }
        }
    }

    #[test]
    fn read_counts_are_monotone_in_damage() {
        let a = reference();
        let idx = 10;
        let addr = a.locate_data(idx);
        let healthy = a.read_plan(idx, &[]).unwrap().read_count();
        let one = a.read_plan(idx, &[addr.disk]).unwrap().read_count();
        assert!(healthy <= one);
        assert_eq!(healthy, 1);
    }

    #[test]
    fn double_level_damage_reports_loss() {
        let a = reference();
        // Find a data chunk whose group has 2 failures (inner dead) and
        // whose outer stripe also lost a second chunk. A whole group plus a
        // carefully chosen second group does it; scan for a witness.
        let failed = [0usize, 1, 3, 4];
        // Pattern is unsurvivable overall, so some chunk must report loss.
        assert!(!a.survives(&failed));
        let mut saw_loss = false;
        for idx in 0..a.data_chunks() {
            if a.read_plan(idx, &failed).is_err() {
                saw_loss = true;
                break;
            }
        }
        assert!(saw_loss);
    }

    #[test]
    fn out_of_range_pattern_rejected() {
        let a = reference();
        assert!(matches!(
            a.read_plan(0, &[99]),
            Err(LayoutError::DiskOutOfRange { .. })
        ));
    }
}
