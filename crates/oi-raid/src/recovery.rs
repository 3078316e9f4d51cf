//! Recovery strategies: how a rebuild sources its reads, the
//! experiment-critical choice.
//!
//! When one disk fails, OI-RAID can source reconstruction reads several
//! ways, and the choice decides the rebuild bottleneck:
//!
//! * [`RecoveryStrategy::Inner`] — rebuild every lost chunk from its inner
//!   row. Minimal total I/O (`(g−1)` reads per chunk), but only the `g−1`
//!   group survivors work: each reads its whole capacity, like a tiny RAID5.
//! * [`RecoveryStrategy::Outer`] — rebuild payload chunks from their outer
//!   stripes (reads fan out over *all* other groups thanks to the skew) and
//!   recompute inner-parity chunks from their local rows. The group
//!   survivors' share drops to `1/g` of a disk.
//! * [`RecoveryStrategy::OuterAll`] — also reconstruct the inputs of lost
//!   inner-parity chunks from *their* outer stripes, moving even that load
//!   off the group: maximal parallelism, highest total I/O.
//! * [`RecoveryStrategy::Hybrid`] — split the inner-parity rows between the
//!   local and remote methods in the closed-form proportion
//!   `ψ = (rg − (g−1)) / (rg + (g−1))` that equalises group-survivor and
//!   remote-disk load — the bottleneck-optimal mix (ablation A2).
//!
//! [`plan_recovery`] plans any failure pattern, a resume and every
//! re-plan alike: the backward closure search, row first under `Inner` and
//! stripe first otherwise, then a pass that sends the ψ-picked row
//! recomputes remote.

use layout::{ChunkAddr, ChunkRecovery};

use crate::array::OiRaid;
use crate::multifail::{plan_closure, First};
use crate::online::Region;

/// How a rebuild sources its reads: `Inner` is local and slow, `Outer` is
/// the paper's declustered default, `OuterAll` moves even parity-row
/// repairs off the group, and `Hybrid` mixes the last two in the
/// closed-form bottleneck-optimal proportion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// Everything from the local inner rows (RAID50-like locality).
    Inner,
    /// Payload via outer stripes, inner parity via local rows (the paper's
    /// default).
    Outer,
    /// Everything via outer stripes (fully declustered).
    OuterAll,
    /// Load-balanced mix of `Outer` and `OuterAll` for the parity rows.
    Hybrid,
}

impl RecoveryStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [RecoveryStrategy; 4] = [
        RecoveryStrategy::Inner,
        RecoveryStrategy::Outer,
        RecoveryStrategy::OuterAll,
        RecoveryStrategy::Hybrid,
    ];

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStrategy::Inner => "inner",
            RecoveryStrategy::Outer => "outer",
            RecoveryStrategy::OuterAll => "outer-all",
            RecoveryStrategy::Hybrid => "hybrid",
        }
    }
}

/// The fraction numerator/denominator of inner-parity rows that
/// [`RecoveryStrategy::Hybrid`] sends to the remote (outer) method:
/// `ψ = (rg − g + 1)/(rg + g − 1)`, clamped at 0.
pub(crate) fn hybrid_remote_fraction(r: usize, g: usize) -> (usize, usize) {
    ((r * g).saturating_sub(g - 1), r * g + g - 1)
}

/// The relations every item of a plan locks, stored flat: two allocations
/// per plan, not one per item.
pub(crate) struct LockSets {
    regions: Vec<Region>,
    /// Item `idx`'s relations are `regions[start[idx]..start[idx + 1]]`.
    start: Vec<usize>,
}

impl LockSets {
    pub(crate) fn of(&self, idx: usize) -> &[Region] {
        &self.regions[self.start[idx]..self.start[idx + 1]]
    }
}

/// Plans the recovery of `targets` (distinct chunks `available` does not
/// vouch for) under `strategy`; a target no relation chain reaches has no
/// item. Each item locks the relation it decodes through, which holds its
/// lost chunk, every read and every dependency's lost chunk. A remote
/// row-parity recompute reads, for each payload chunk of the row, the
/// other `k − 1` chunks of its outer stripe, which XOR to the payload and
/// so to the parity: it locks the row and those stripes. A writer locks
/// every relation holding a chunk it modifies, so these keep still all
/// that an item reads and lands.
pub(crate) fn plan_recovery(
    array: &OiRaid,
    targets: &[ChunkAddr],
    available: impl Fn(ChunkAddr) -> bool,
    strategy: RecoveryStrategy,
) -> (Vec<ChunkRecovery>, LockSets) {
    let geo = array.geometry();
    let first = match strategy {
        RecoveryStrategy::Inner => First::Row,
        _ => First::Stripe,
    };
    let (mut items, via) = plan_closure(array, targets, &available, first);
    let mut locks = LockSets {
        regions: Vec::with_capacity(via.len()),
        start: Vec::with_capacity(via.len() + 1),
    };
    let (num, den) = hybrid_remote_fraction(geo.r, geo.g);
    let mut rows = 0usize;
    for (it, region) in items.iter_mut().zip(via) {
        locks.start.push(locks.regions.len());
        locks.regions.push(region);
        // A row recompute that reads every payload of its row may go
        // remote: `OuterAll` sends every one, `Hybrid` spreads the ψ
        // fraction evenly (rounded accumulation, so the total is
        // round(ψ · rows)).
        if !geo.is_inner_parity(it.lost) || !it.depends.is_empty() {
            continue;
        }
        rows += 1;
        let remote = match strategy {
            RecoveryStrategy::Inner | RecoveryStrategy::Outer => false,
            RecoveryStrategy::OuterAll => true,
            RecoveryStrategy::Hybrid => {
                (rows * num + den / 2) / den != ((rows - 1) * num + den / 2) / den
            }
        };
        if !remote {
            continue;
        }
        let (mut reads, mut stripes) = (Vec::new(), Vec::new());
        for &payload in &it.reads {
            let p = geo.payload_pos(payload);
            stripes.push(Region::Stripe(p.block, p.stripe));
            let mates = geo.stripe_chunks(p.block, p.stripe).into_iter();
            reads.extend(mates.filter(|&a| a != payload));
        }
        if reads.iter().all(|&a| available(a)) {
            it.reads = reads;
            locks.regions.extend(stripes);
        }
    }
    locks.start.push(locks.regions.len());
    (items, locks)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::config::OiRaidConfig;
    use layout::{Layout, LayoutError, RecoveryPlan, SparePolicy, WriteTarget};

    fn reference() -> OiRaid {
        OiRaid::new(OiRaidConfig::reference()).unwrap()
    }

    fn plan(array: &OiRaid, d: usize, s: RecoveryStrategy) -> RecoveryPlan {
        array
            .recovery_plan_with_strategy(d, SparePolicy::Distributed, s)
            .unwrap()
    }

    #[test]
    fn inner_strategy_loads_only_group() {
        let a = reference();
        let p = plan(&a, 4, RecoveryStrategy::Inner); // group 1 = disks 3..6
        let load = p.read_load(21);
        for (d, &ld) in load.iter().enumerate() {
            let in_group = (3..6).contains(&d) && d != 4;
            assert_eq!(ld > 0, in_group, "disk {d}");
        }
        // Each group survivor reads the failed disk's full chunk count.
        assert_eq!(load[3], 9);
        assert_eq!(load[5], 9);
    }

    #[test]
    fn outer_strategy_loads_match_closed_form() {
        let a = reference();
        let p = plan(&a, 0, RecoveryStrategy::Outer);
        let load = p.read_load(21);
        // Group survivors (disks 1, 2): r·c = 3 chunks each (parity rows).
        assert_eq!(load[1], 3);
        assert_eq!(load[2], 3);
        // Remote disks: total payload reads = P_l(k−1) = 6·2 = 12 over 18
        // disks, near-uniformly.
        let remote_total: u64 = (3..21).map(|d| load[d]).sum();
        assert_eq!(remote_total, 12);
        let remote_max = (3..21).map(|d| load[d]).max().unwrap();
        assert!(remote_max <= 2, "remote loads near-uniform: {load:?}");
    }

    #[test]
    fn outer_all_strategy_empties_group_reads() {
        let a = reference();
        let p = plan(&a, 0, RecoveryStrategy::OuterAll);
        let load = p.read_load(21);
        assert_eq!(load[1], 0);
        assert_eq!(load[2], 0);
        // Total remote reads: payload 12 + parity rows 3·(g−1)(k−1) = 12.
        let remote_total: u64 = (3..21).map(|d| load[d]).sum();
        assert_eq!(remote_total, 24);
    }

    #[test]
    fn hybrid_strategy_beats_both_on_bottleneck() {
        let a = reference();
        let bottleneck = |s: RecoveryStrategy| {
            let p = plan(&a, 0, s);
            let load = p.read_load(21);
            (0..21).map(|d| load[d]).max().unwrap()
        };
        let hybrid = bottleneck(RecoveryStrategy::Hybrid);
        assert!(hybrid <= bottleneck(RecoveryStrategy::Outer));
        assert!(hybrid <= bottleneck(RecoveryStrategy::OuterAll));
        assert!(hybrid < bottleneck(RecoveryStrategy::Inner));
    }

    #[test]
    fn hybrid_fraction_formula() {
        assert_eq!(hybrid_remote_fraction(3, 3), (7, 11));
        assert_eq!(hybrid_remote_fraction(1, 2), (1, 3));
    }

    #[test]
    fn all_strategies_cover_every_lost_chunk() {
        let a = reference();
        for s in RecoveryStrategy::ALL {
            let p = plan(&a, 7, s);
            assert_eq!(p.total_writes(), 9, "{}", s.label());
            // No read touches the failed disk.
            assert_eq!(p.read_load(21)[7], 0, "{}", s.label());
        }
    }

    #[test]
    fn out_of_range_disk_rejected() {
        let a = reference();
        assert!(matches!(
            a.recovery_plan_with_strategy(21, SparePolicy::Dedicated, RecoveryStrategy::Outer),
            Err(LayoutError::DiskOutOfRange { .. })
        ));
    }

    #[test]
    fn outer_reads_avoid_failed_group_for_payload() {
        let a = reference();
        let p = plan(&a, 0, RecoveryStrategy::Outer);
        for item in p.items() {
            if !a.geometry().is_inner_parity(item.lost) {
                for r in &item.reads {
                    assert_ne!(a.group_of(r.disk), 0, "payload read {r} inside group");
                }
            }
        }
    }

    #[test]
    fn chunk_plan_routes_around_missing_sources() {
        let a = reference();
        // One missing chunk: derivable from its row or stripe, never read.
        let victim = ChunkAddr::new(4, 2);
        let missing: BTreeSet<ChunkAddr> = [victim].into_iter().collect();
        let plan = a.chunk_recovery_plan(|c| missing.contains(&c)).unwrap();
        assert_eq!(plan.total_writes(), 1);
        let item = &plan.items()[0];
        assert_eq!(item.lost, victim);
        assert!(!item.reads.is_empty());
        assert!(!item.reads.contains(&victim));
        assert_eq!(item.write, WriteTarget::InPlace);
        assert!(plan.failed().is_empty(), "no whole-disk failures involved");
    }

    #[test]
    fn chunk_plan_cascades_through_both_layers() {
        let a = reference();
        let geo = a.geometry();
        // Knock out a whole inner row plus extra scattered chunks: the
        // row's chunks need the outer layer first, then the inner parity
        // recomputes from repaired payload (depends wiring).
        let mut missing: BTreeSet<ChunkAddr> = geo.row_chunks(0, 0).into_iter().collect();
        missing.insert(ChunkAddr::new(20, 8));
        let plan = a.chunk_recovery_plan(|c| missing.contains(&c)).unwrap();
        assert_eq!(plan.total_writes() as usize, missing.len());
        // No plan read touches a missing chunk.
        for item in plan.items() {
            for r in &item.reads {
                assert!(!missing.contains(r), "read of missing chunk {r}");
            }
            for &dep in &item.depends {
                assert!(dep < plan.items().len());
            }
        }
        assert!(
            plan.items().iter().any(|i| !i.depends.is_empty()),
            "a full-row loss must cascade"
        );
    }

    #[test]
    fn chunk_plan_rejects_undecodable_sets() {
        let a = reference();
        assert!(matches!(
            a.chunk_recovery_plan(|_| true),
            Err(LayoutError::DataLoss { failed }) if failed == (0..21).collect::<Vec<_>>()
        ));
        // 2 + 2 disks across two groups: only disks left holding
        // unrecovered chunks are named.
        match a.chunk_recovery_plan(|c| [0, 1, 3, 4].contains(&c.disk)) {
            Err(LayoutError::DataLoss { failed }) => {
                assert!(!failed.is_empty() && failed.iter().all(|d| [0, 1, 3, 4].contains(d)))
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(a.chunk_recovery_plan(|_| false).unwrap().total_writes(), 0);
    }

    #[test]
    fn default_layout_plan_is_outer() {
        let a = reference();
        let via_trait = a.recovery_plan(&[0], SparePolicy::Distributed).unwrap();
        let via_strategy = plan(&a, 0, RecoveryStrategy::Outer);
        assert_eq!(via_trait.read_load(21), via_strategy.read_load(21));
    }
}
