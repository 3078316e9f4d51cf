//! Recovery plans: the read/write schedule that rebuilds failed disks, with
//! load statistics and a bridge into the [`disksim`] discrete-event engine.

use std::fmt;

use disksim::{DiskSpec, RunResult, SimTime, Simulation, TaskSpec};

use crate::traits::ChunkAddr;

/// Where reconstructed chunks are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparePolicy {
    /// One dedicated hot-spare disk per failed disk; the classic RAID
    /// arrangement. The spare's write bandwidth caps rebuild speed.
    Dedicated,
    /// Reconstructed chunks go to reserved spare space distributed over the
    /// surviving disks (round-robin) — the arrangement declustered layouts
    /// assume, which removes the single-writer bottleneck.
    Distributed,
}

/// Write destination of one reconstructed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteTarget {
    /// The `i`-th dedicated spare disk (one per failed disk, in sorted
    /// failure order).
    Spare(usize),
    /// Spare space on surviving disk `disk`.
    Surviving {
        /// The surviving disk receiving the chunk.
        disk: usize,
    },
    /// Back to the lost chunk's own address on its own (healthy or healed)
    /// disk. Used by chunk-granular repair plans — latent-sector rewrites
    /// during a self-healing rebuild or scrub — where the "lost" chunk's
    /// disk is still online and the rewrite remaps the sector.
    InPlace,
}

/// Reconstruction of one lost chunk: sources to read, destination to write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRecovery {
    /// The lost chunk.
    pub lost: ChunkAddr,
    /// Chunks that must be read to reconstruct it (possibly empty for
    /// recomputed parity whose sources were already read by earlier items —
    /// planners may share reads by referencing the same addresses).
    pub reads: Vec<ChunkAddr>,
    /// Indices of *earlier* plan items whose reconstructed output is also an
    /// input (multi-failure cascades: a chunk rebuilt by the outer layer may
    /// feed an inner-layer repair). The simulation reads the dependency's
    /// write target after its write completes.
    pub depends: Vec<usize>,
    /// Where the reconstructed chunk is written.
    pub write: WriteTarget,
}

/// A full rebuild schedule for a failure pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPlan {
    disks: usize,
    failed: Vec<usize>,
    items: Vec<ChunkRecovery>,
}

impl RecoveryPlan {
    /// Assembles a plan. `failed` must be sorted; `items` reference only
    /// surviving disks for reads.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a read references a failed or out-of-range disk.
    pub fn new(disks: usize, failed: Vec<usize>, items: Vec<ChunkRecovery>) -> Self {
        debug_assert!(failed.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(items.iter().all(|it| {
            it.reads
                .iter()
                .all(|r| r.disk < disks && !failed.contains(&r.disk))
        }));
        Self {
            disks,
            failed,
            items,
        }
    }

    /// Number of disks in the (pre-failure) array.
    pub fn disks(&self) -> usize {
        self.disks
    }

    /// The failure pattern this plan repairs (sorted).
    pub fn failed(&self) -> &[usize] {
        &self.failed
    }

    /// Per-chunk recovery items.
    pub fn items(&self) -> &[ChunkRecovery] {
        &self.items
    }

    /// Chunks read from each disk (index = disk id; failed disks read 0).
    pub fn read_load(&self, disks: usize) -> Vec<u64> {
        let mut load = vec![0u64; disks];
        for item in &self.items {
            for r in &item.reads {
                load[r.disk] += 1;
            }
        }
        load
    }

    /// Chunks written to each surviving disk under
    /// [`SparePolicy::Distributed`] (zeros under dedicated policy).
    pub fn write_load(&self, disks: usize) -> Vec<u64> {
        let mut load = vec![0u64; disks];
        for item in &self.items {
            match item.write {
                WriteTarget::Surviving { disk } => load[disk] += 1,
                WriteTarget::InPlace => load[item.lost.disk] += 1,
                WriteTarget::Spare(_) => {}
            }
        }
        load
    }

    /// Total chunks read across all disks.
    pub fn total_reads(&self) -> u64 {
        self.items.iter().map(|i| i.reads.len() as u64).sum()
    }

    /// Number of lost chunks being reconstructed.
    pub fn total_writes(&self) -> u64 {
        self.items.len() as u64
    }

    /// Ratio of the busiest surviving disk's I/O count (reads + distributed
    /// writes) to the average — 1.0 is perfectly balanced. This is the E6
    /// balance metric.
    pub fn balance_ratio(&self) -> f64 {
        let reads = self.read_load(self.disks);
        let writes = self.write_load(self.disks);
        let per_disk: Vec<u64> = (0..self.disks)
            .filter(|d| !self.failed.contains(d))
            .map(|d| reads[d] + writes[d])
            .collect();
        if per_disk.is_empty() {
            return 1.0;
        }
        let max = *per_disk.iter().max().expect("nonempty") as f64;
        let mean = per_disk.iter().sum::<u64>() as f64 / per_disk.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Groups the plan's reads by source disk: the per-disk work queues a
    /// concurrent executor drains, one ready queue per surviving disk.
    ///
    /// Returns `(disk, queue)` pairs for every disk the plan reads from,
    /// ascending by disk id; each queue lists `(item_index, addr)` in plan
    /// order, so a worker draining its queue front-to-back roughly follows
    /// the planner's intended schedule.
    pub fn reads_by_disk(&self) -> Vec<(usize, Vec<(usize, ChunkAddr)>)> {
        let mut queues: Vec<Vec<(usize, ChunkAddr)>> = vec![Vec::new(); self.disks];
        for (idx, item) in self.items.iter().enumerate() {
            for r in &item.reads {
                queues[r.disk].push((idx, *r));
            }
        }
        queues
            .into_iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .collect()
    }

    /// Executes the plan on the discrete-event simulator and returns timing.
    ///
    /// The simulated array has one disk per layout disk (failed ones receive
    /// no I/O) plus one spare disk per failed disk when the plan was built
    /// with [`SparePolicy::Dedicated`]. Each lost chunk becomes `reads.len()`
    /// read tasks plus one dependent write of `chunk_bytes`.
    pub fn simulate(&self, spec: &DiskSpec, chunk_bytes: u64) -> SimulatedRecovery {
        let mut sim = Simulation::new();
        let disk_ids: Vec<_> = (0..self.disks)
            .map(|_| sim.add_disk(spec.clone()))
            .collect();
        let spare_ids: Vec<_> = self
            .failed
            .iter()
            .map(|_| sim.add_disk(spec.clone()))
            .collect();
        let target_of = |item: &ChunkRecovery| match item.write {
            WriteTarget::Spare(i) => spare_ids[i],
            WriteTarget::Surviving { disk } => disk_ids[disk],
            WriteTarget::InPlace => disk_ids[item.lost.disk],
        };
        let mut write_tasks = Vec::with_capacity(self.items.len());
        for item in &self.items {
            let mut reads: Vec<_> = item
                .reads
                .iter()
                .map(|r| sim.add_task(TaskSpec::read(disk_ids[r.disk], chunk_bytes)))
                .collect();
            // Inputs produced by earlier repairs: read them from wherever
            // they were written, after that write completed.
            for &dep in &item.depends {
                let dep_write: disksim::TaskId = write_tasks[dep];
                let dep_target = target_of(&self.items[dep]);
                reads.push(sim.add_task(TaskSpec::read(dep_target, chunk_bytes).after(dep_write)));
            }
            let target = target_of(item);
            let w = sim.add_task(TaskSpec::write(target, chunk_bytes).after_all(reads));
            write_tasks.push(w);
        }
        let result = sim.run();
        SimulatedRecovery {
            rebuild_time: result.makespan(),
            result,
        }
    }
}

impl fmt::Display for RecoveryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery of {:?}: {} chunks, {} reads, balance {:.2}",
            self.failed,
            self.total_writes(),
            self.total_reads(),
            self.balance_ratio()
        )
    }
}

/// Timing results of a simulated rebuild.
#[derive(Debug)]
pub struct SimulatedRecovery {
    /// Wall-clock rebuild completion time.
    pub rebuild_time: SimTime,
    /// The raw simulation result (per-disk stats, etc.).
    pub result: RunResult,
}

/// Round-robin assignment of distributed-spare write targets over surviving
/// disks, skipping the read sources of the item when possible would be
/// over-engineering — the simple rotation already balances writes exactly.
/// Planners call this to fill [`ChunkRecovery::write`].
pub fn assign_writes(
    policy: SparePolicy,
    disks: usize,
    failed: &[usize],
    items: &mut [ChunkRecovery],
) {
    // Chunk-granular repair plans may carry items whose "lost" chunk sits
    // on a healthy disk (a latent sector being re-derived): those are
    // rewritten in place regardless of the spare policy, and they do not
    // consume a rotation slot.
    match policy {
        SparePolicy::Dedicated => {
            for item in items.iter_mut() {
                item.write = match failed.iter().position(|&d| d == item.lost.disk) {
                    Some(spare) => WriteTarget::Spare(spare),
                    None => WriteTarget::InPlace,
                };
            }
        }
        SparePolicy::Distributed => {
            let survivors: Vec<usize> = (0..disks).filter(|d| !failed.contains(d)).collect();
            assert!(!survivors.is_empty(), "no surviving disks to hold spares");
            let mut slot = 0;
            for item in items.iter_mut() {
                if !failed.contains(&item.lost.disk) {
                    item.write = WriteTarget::InPlace;
                    continue;
                }
                item.write = WriteTarget::Surviving {
                    disk: survivors[slot % survivors.len()],
                };
                slot += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(lost: ChunkAddr, reads: Vec<ChunkAddr>) -> ChunkRecovery {
        ChunkRecovery {
            lost,
            reads,
            depends: Vec::new(),
            write: WriteTarget::Spare(0),
        }
    }

    fn toy_plan() -> RecoveryPlan {
        // 3 disks, disk 0 failed, two chunks each read from disks 1 and 2.
        let items = vec![
            item(
                ChunkAddr::new(0, 0),
                vec![ChunkAddr::new(1, 0), ChunkAddr::new(2, 0)],
            ),
            item(
                ChunkAddr::new(0, 1),
                vec![ChunkAddr::new(1, 1), ChunkAddr::new(2, 1)],
            ),
        ];
        RecoveryPlan::new(3, vec![0], items)
    }

    #[test]
    fn load_accounting() {
        let plan = toy_plan();
        assert_eq!(plan.read_load(3), vec![0, 2, 2]);
        assert_eq!(plan.total_reads(), 4);
        assert_eq!(plan.total_writes(), 2);
        assert!((plan.balance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assign_writes_dedicated() {
        let mut items = toy_plan().items().to_vec();
        assign_writes(SparePolicy::Dedicated, 3, &[0], &mut items);
        assert!(items.iter().all(|i| i.write == WriteTarget::Spare(0)));
    }

    #[test]
    fn assign_writes_distributed_round_robin() {
        let mut items = toy_plan().items().to_vec();
        assign_writes(SparePolicy::Distributed, 3, &[0], &mut items);
        assert_eq!(items[0].write, WriteTarget::Surviving { disk: 1 });
        assert_eq!(items[1].write, WriteTarget::Surviving { disk: 2 });
    }

    #[test]
    fn assign_writes_in_place_for_healthy_disk_items() {
        // Item 0's "lost" chunk sits on healthy disk 1 (a latent sector
        // repair); item 1 is a real loss on failed disk 0.
        let mut items = vec![
            item(ChunkAddr::new(1, 5), vec![ChunkAddr::new(2, 0)]),
            item(ChunkAddr::new(0, 0), vec![ChunkAddr::new(2, 1)]),
        ];
        assign_writes(SparePolicy::Distributed, 3, &[0], &mut items);
        assert_eq!(items[0].write, WriteTarget::InPlace);
        assert_eq!(
            items[1].write,
            WriteTarget::Surviving { disk: 1 },
            "in-place items do not consume a rotation slot"
        );
        assign_writes(SparePolicy::Dedicated, 3, &[0], &mut items);
        assert_eq!(items[0].write, WriteTarget::InPlace);
        assert_eq!(items[1].write, WriteTarget::Spare(0));
        let plan = RecoveryPlan::new(3, vec![0], items);
        assert_eq!(
            plan.write_load(3),
            vec![0, 1, 0],
            "in-place write lands on the lost chunk's own disk"
        );
        // The simulator routes the in-place write to the chunk's own disk.
        let spec = DiskSpec::new(1 << 20, 1e6, SimTime::ZERO);
        assert!(plan.simulate(&spec, 1 << 20).rebuild_time > SimTime::ZERO);
    }

    #[test]
    fn simulate_dedicated_spare_bottleneck() {
        // With a dedicated spare, both writes land on one disk: rebuild time
        // is at least 2 write services.
        let plan = toy_plan();
        let spec = DiskSpec::new(1 << 20, 1e6, SimTime::ZERO); // 1 MB/s, no seek
        let sim = plan.simulate(&spec, 1 << 20); // 1 MiB chunks ≈ 1.049 s each
        assert!(sim.rebuild_time.as_secs_f64() > 3.0); // read + 2 writes serialized
    }

    #[test]
    fn simulate_distributed_faster_than_dedicated() {
        let mut items = toy_plan().items().to_vec();
        assign_writes(SparePolicy::Distributed, 3, &[0], &mut items);
        let dist = RecoveryPlan::new(3, vec![0], items);
        let spec = DiskSpec::new(1 << 20, 1e6, SimTime::ZERO);
        let t_dedicated = toy_plan().simulate(&spec, 1 << 20).rebuild_time;
        let t_distributed = dist.simulate(&spec, 1 << 20).rebuild_time;
        assert!(t_distributed <= t_dedicated);
    }

    #[test]
    fn reads_by_disk_queues_cover_the_plan() {
        let plan = toy_plan();
        let queues = plan.reads_by_disk();
        assert_eq!(queues.len(), 2, "two surviving disks are read");
        assert_eq!(queues[0].0, 1);
        assert_eq!(
            queues[0].1,
            vec![(0, ChunkAddr::new(1, 0)), (1, ChunkAddr::new(1, 1))]
        );
        assert_eq!(queues[1].0, 2);
        let total: usize = queues.iter().map(|(_, q)| q.len()).sum();
        assert_eq!(total as u64, plan.total_reads());
    }

    #[test]
    fn display_summary() {
        let s = toy_plan().to_string();
        assert!(s.contains("2 chunks"));
        assert!(s.contains("4 reads"));
    }
}
