//! Multi-failure analysis and planning, two ways over one rule.
//!
//! Both layers are RAID5, so a stripe (inner row or outer stripe) is
//! decodable exactly when at most one of its chunks is missing, and the
//! missing chunk is the XOR of the others. [`run_fixpoint`] plans *forward*
//! over the whole array:
//! starting from every missing chunk, it repeatedly repairs every stripe
//! within its tolerance until nothing changes. If all chunks come back, the
//! failure pattern is survivable — this is how the "tolerates at least
//! three disk failures" claim (C4) is *checked* rather than assumed, and how
//! whole-array recovery plans (rebuild, scrub, experiment E9) are produced,
//! including cascades where an outer repair feeds an inner repair.
//! [`plan_closure`] plans *backward* from a few target chunks and touches
//! only their closure: every foreground value the store cannot read comes
//! off it.

use std::collections::HashMap;

use layout::{
    assign_writes, ChunkAddr, ChunkRecovery, LayoutError, RecoveryPlan, SparePolicy, WriteTarget,
};

use crate::array::OiRaid;
use crate::geometry::{Geometry, PayloadPos};
use crate::online::Region;

/// Whether the failure pattern is survivable (duplicate or out-of-range
/// entries are never survivable-relevant: out-of-range returns `false`).
pub(crate) fn survives(array: &OiRaid, failed: &[usize]) -> bool {
    let geo = array.geometry();
    let n = geo.disks();
    if failed.iter().any(|&d| d >= n) {
        return false;
    }
    run_fixpoint(array, |a| failed.contains(&a.disk), None).is_empty()
}

/// Builds a recovery plan for an arbitrary survivable failure pattern.
pub(crate) fn multi_failure_plan(
    array: &OiRaid,
    failed: &[usize],
    policy: SparePolicy,
) -> Result<RecoveryPlan, LayoutError> {
    let geo = array.geometry();
    let n = geo.disks();
    let mut sorted = failed.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(LayoutError::DuplicateFailure { disk: w[0] });
        }
    }
    if let Some(&d) = sorted.last() {
        if d >= n {
            return Err(LayoutError::DiskOutOfRange { disk: d, disks: n });
        }
    }
    let mut items = Vec::new();
    if !run_fixpoint(array, |a| sorted.contains(&a.disk), Some(&mut items)).is_empty() {
        return Err(LayoutError::DataLoss { failed: sorted });
    }
    assign_writes(policy, n, &sorted, &mut items);
    Ok(RecoveryPlan::new(n, sorted, items))
}

/// Runs the decode fixpoint over every chunk `missing` names: whole failed
/// disks, latent sector errors on otherwise-healthy disks, the unrebuilt
/// rest of a resumed rebuild. With `plan` set, records one in-place
/// [`ChunkRecovery`] per repaired chunk (reads reference originally-present
/// chunks; previously repaired inputs become `depends`). Returns the disks
/// that still hold unrecovered chunks, ascending — empty when every chunk
/// came back.
pub(crate) fn run_fixpoint(
    array: &OiRaid,
    missing: impl Fn(ChunkAddr) -> bool,
    mut plan: Option<&mut Vec<ChunkRecovery>>,
) -> Vec<usize> {
    let geo = array.geometry();
    let t = geo.chunks_per_disk;
    let at = |a: &ChunkAddr| a.disk * t + a.offset;
    let mut present: Vec<bool> = (0..geo.disks() * t)
        .map(|i| !missing(ChunkAddr::new(i / t, i % t)))
        .collect();
    let mut left = present.iter().filter(|p| !**p).count();
    // Map repaired chunk -> plan item index, for dependency wiring.
    let mut repaired_item: HashMap<ChunkAddr, usize> = HashMap::new();
    let mut progressed = true;
    while left > 0 && progressed {
        progressed = false;
        // Outer stripes cover payload chunks, inner rows everything
        // (payload + inner parity); each decodes a sole miss.
        let stripes = geo.all_stripes().map(|(b, s)| geo.stripe_chunks(b, s));
        let rows = (0..geo.v).flat_map(|grp| (0..t).map(move |row| geo.row_chunks(grp, row)));
        for chunks in stripes.chain(rows) {
            let mut miss = chunks.iter().filter(|a| !present[at(a)]);
            let (Some(&lost), None) = (miss.next(), miss.next()) else {
                continue;
            };
            progressed = true;
            present[at(&lost)] = true;
            left -= 1;
            let Some(items) = plan.as_deref_mut() else {
                continue;
            };
            let (mut reads, mut depends) = (Vec::new(), Vec::new());
            for &src in chunks.iter().filter(|a| **a != lost) {
                match missing(src) {
                    true => depends.push(repaired_item[&src]),
                    false => reads.push(src),
                }
            }
            repaired_item.insert(lost, items.len());
            let write = WriteTarget::InPlace;
            items.push(ChunkRecovery {
                lost,
                reads,
                depends,
                write,
            });
        }
    }
    let lost = (0..present.len()).filter(|&i| !present[i]);
    let mut lost: Vec<usize> = lost.map(|i| i / t).collect();
    lost.dedup();
    lost
}

/// Plans `targets` backward over the chunks `available` vouches for: their
/// closure, where [`run_fixpoint`] plans the whole array. A target decodes
/// through its inner row if it is the sole miss there, else its outer
/// stripe if it is the sole miss there, else the first of the two whose
/// other misses are plannable, recursively (the row first). Planned chunks
/// are reused; one on the search path is not planned again, which ends the
/// recursion. Items write in place and depend backwards, and each decodes
/// one chunk as the XOR of its reads and its dependencies' outputs.
/// Returns the plan and the relation each item decodes through; a target
/// no relation chain reaches has no item.
pub(crate) fn plan_closure(
    array: &OiRaid,
    targets: &[ChunkAddr],
    available: impl Fn(ChunkAddr) -> bool,
) -> (RecoveryPlan, Vec<Region>) {
    let geo = array.geometry();
    let mut search = Search {
        geo,
        available,
        items: Vec::with_capacity(targets.len()),
        via: Vec::with_capacity(targets.len()),
        path: Vec::new(),
        spare: Vec::new(),
    };
    for &t in targets {
        search.plan(t);
    }
    let plan = RecoveryPlan::new(geo.disks(), Vec::new(), search.items);
    (plan, search.via)
}

/// The parity relations of `addr`: its inner row, then for payload its outer
/// stripe, worked out only if the iterator gets that far.
pub(crate) fn relations_of(geo: &Geometry, addr: ChunkAddr) -> impl Iterator<Item = Region> + '_ {
    let row = Region::Row(geo.group_of(addr.disk), addr.offset);
    let stripe = std::iter::once_with(move || {
        let p = (!geo.is_inner_parity(addr)).then(|| geo.payload_pos(addr))?;
        Some(Region::Stripe(p.block, p.stripe))
    });
    std::iter::once(row).chain(stripe.flatten())
}

/// Where a chunk's value comes from, as far as a search has got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Read,
    Item(usize),
    Miss,
}

/// One [`plan_closure`] search in progress.
struct Search<'a, F> {
    geo: &'a Geometry,
    available: F,
    items: Vec<ChunkRecovery>,
    via: Vec<Region>,
    /// Chunks whose relations' misses are being planned, outermost first.
    path: Vec<ChunkAddr>,
    /// Used relation chunk lists: one allocation per level of recursion.
    spare: Vec<Vec<ChunkAddr>>,
}

impl<F: Fn(ChunkAddr) -> bool> Search<'_, F> {
    fn source(&self, a: ChunkAddr) -> Source {
        if (self.available)(a) {
            return Source::Read;
        }
        match self.items.iter().position(|it| it.lost == a) {
            Some(item) => Source::Item(item),
            None => Source::Miss,
        }
    }

    /// Plans `t` unless its value is known; whether it is now.
    fn plan(&mut self, t: ChunkAddr) -> bool {
        if self.source(t) != Source::Miss {
            return true;
        }
        if self.path.contains(&t) {
            return false;
        }
        let geo = self.geo;
        if relations_of(geo, t).any(|r| self.decode(t, r, false)) {
            return true;
        }
        self.path.push(t);
        let ok = relations_of(geo, t).any(|r| self.decode(t, r, true));
        self.path.pop();
        ok
    }

    /// Plans `t` through `region` as it stands, or — with `recurse` — once
    /// its other misses are planned; a failed attempt plans nothing.
    fn decode(&mut self, t: ChunkAddr, region: Region, recurse: bool) -> bool {
        let geo = self.geo;
        let mut chunks = self.spare.pop().unwrap_or_default();
        chunks.clear();
        match region {
            Region::Row(group, row) => {
                chunks.extend((0..geo.g).map(|j| ChunkAddr::new(geo.disk_id(group, j), row)))
            }
            Region::Stripe(block, stripe) => chunks
                .extend((0..geo.k).map(|pos| geo.stripe_chunk(PayloadPos { block, stripe, pos }))),
        }
        let mark = self.items.len();
        if recurse {
            for &m in chunks.iter().filter(|m| **m != t) {
                self.plan(m);
            }
        }
        let decoded = self.emit(t, region, &chunks);
        if !decoded {
            self.items.truncate(mark);
            self.via.truncate(mark);
        }
        self.spare.push(chunks);
        decoded
    }

    /// Plans `t` through `region` if every other chunk of `chunks` is read
    /// or already planned.
    fn emit(&mut self, t: ChunkAddr, region: Region, chunks: &[ChunkAddr]) -> bool {
        let (mut reads, mut depends) = (Vec::new(), Vec::new());
        for &a in chunks.iter().filter(|a| **a != t) {
            match self.source(a) {
                Source::Read => reads.push(a),
                Source::Item(item) => depends.push(item),
                Source::Miss => return false,
            }
        }
        let write = WriteTarget::InPlace;
        self.items.push(ChunkRecovery {
            lost: t,
            reads,
            depends,
            write,
        });
        self.via.push(region);
        true
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
    fn all_single_and_double_failures_survive() {
        let a = reference();
        for d1 in 0..21 {
            assert!(a.survives(&[d1]), "[{d1}]");
            for d2 in d1 + 1..21 {
                assert!(a.survives(&[d1, d2]), "[{d1},{d2}]");
            }
        }
    }

    #[test]
    fn all_triple_failures_survive_exhaustively() {
        // The headline claim C4: every one of the C(21,3) = 1330 patterns.
        let a = reference();
        for d1 in 0..21 {
            for d2 in d1 + 1..21 {
                for d3 in d2 + 1..21 {
                    assert!(a.survives(&[d1, d2, d3]), "[{d1},{d2},{d3}]");
                }
            }
        }
    }

    #[test]
    fn whole_group_loss_survives() {
        let a = reference();
        assert!(a.survives(&[0, 1, 2]));
        assert!(a.survives(&[0, 1, 2, 10])); // group + 1 elsewhere
    }

    #[test]
    fn some_quadruple_failures_lose_data() {
        // 2+2 in two groups always shares a block (λ = 1) and collides on
        // some stripe for the reference skew.
        let a = reference();
        assert!(!a.survives(&[0, 1, 3, 4]));
    }

    #[test]
    fn fault_tolerance_is_exactly_three() {
        let a = reference();
        assert_eq!(a.fault_tolerance(), 3);
        // ... and not 4 (witness above).
        assert!(!a.survives(&[0, 1, 3, 4]));
    }

    #[test]
    fn out_of_range_never_survives() {
        let a = reference();
        assert!(!a.survives(&[99]));
    }

    #[test]
    fn multi_plan_covers_all_lost_chunks() {
        let a = reference();
        let plan = a.recovery_plan(&[0, 3], SparePolicy::Distributed).unwrap();
        assert_eq!(plan.total_writes(), 18); // 2 disks x 9 chunks
                                             // No reads from failed disks.
        let load = plan.read_load(21);
        assert_eq!(load[0], 0);
        assert_eq!(load[3], 0);
    }

    #[test]
    fn whole_group_plan_uses_dependencies() {
        let a = reference();
        let plan = a
            .recovery_plan(&[0, 1, 2], SparePolicy::Distributed)
            .unwrap();
        assert_eq!(plan.total_writes(), 27);
        // Inner-parity rows of the dead group can only be recomputed from
        // repaired payload: some item must carry dependencies.
        assert!(plan.items().iter().any(|i| !i.depends.is_empty()));
        // Dependencies always point backwards.
        for (idx, item) in plan.items().iter().enumerate() {
            for &dep in &item.depends {
                assert!(dep < idx);
            }
        }
    }

    #[test]
    fn unsurvivable_plan_errors() {
        let a = reference();
        assert!(matches!(
            a.recovery_plan(&[0, 1, 3, 4], SparePolicy::Dedicated),
            Err(LayoutError::DataLoss { .. })
        ));
    }

    #[test]
    fn duplicate_and_range_validation() {
        let a = reference();
        assert!(matches!(
            a.recovery_plan(&[2, 2], SparePolicy::Dedicated),
            Err(LayoutError::DuplicateFailure { disk: 2 })
        ));
        assert!(matches!(
            a.recovery_plan(&[99], SparePolicy::Dedicated),
            Err(LayoutError::DiskOutOfRange { .. })
        ));
    }

    #[test]
    fn triple_failures_survive_on_larger_config() {
        let design = bibd::find_design(13, 4).unwrap();
        let a = OiRaid::new(OiRaidConfig::new(design, 5, 1).unwrap()).unwrap();
        // Spot-check a spread of triples on the 65-disk array.
        for (d1, d2, d3) in [
            (0, 1, 2),
            (0, 5, 10),
            (7, 21, 49),
            (62, 63, 64),
            (0, 32, 64),
        ] {
            assert!(a.survives(&[d1, d2, d3]), "[{d1},{d2},{d3}]");
        }
    }

    /// Every data chunk of an array written, every disk up: the bytes a
    /// plan's walk must come back with.
    fn filled(cfg: OiRaidConfig) -> crate::OiRaidStore {
        let store = crate::OiRaidStore::new(cfg, 16).unwrap();
        for idx in 0..store.data_chunks() {
            let chunk: Vec<u8> = (0..16).map(|j| (idx * 37 + j * 11 + 5) as u8).collect();
            store.write_data(idx, &chunk).unwrap();
        }
        store
    }

    /// [`plan_closure`] against [`run_fixpoint`] over one missing set of
    /// `store`'s array. Each missing chunk, planned on its own, is planned
    /// exactly when the fixpoint recovers it. One plan of them all reads
    /// only available chunks, depends backwards, reads inside the relation
    /// each item decodes through, and walks through `combine` to the stored
    /// bytes of every chunk it plans. Returns how many chunks needed more
    /// than one relation.
    fn planner_matches_fixpoint(
        store: &crate::OiRaidStore,
        missing: &dyn Fn(ChunkAddr) -> bool,
    ) -> Result<usize, proptest::TestCaseError> {
        use blockdev::BlockDevice;
        let (array, geo) = (store.array(), store.array().geometry());
        let available = |a: ChunkAddr| !missing(a);
        let mut fixed = Vec::new();
        run_fixpoint(array, missing, Some(&mut fixed));
        let recovered: Vec<ChunkAddr> = fixed.iter().map(|it| it.lost).collect();
        let targets: Vec<ChunkAddr> = (0..geo.disks())
            .flat_map(|d| (0..geo.chunks_per_disk).map(move |o| ChunkAddr::new(d, o)))
            .filter(|a| missing(*a))
            .collect();
        let mut deep = 0;
        for &t in &targets {
            let (plan, via) = plan_closure(array, &[t], available);
            let planned = plan.items().iter().any(|it| it.lost == t);
            proptest::prop_assert_eq!(planned, recovered.contains(&t), "{}", t);
            deep += usize::from(via.iter().any(|r| *r != via[0]));
        }
        let (plan, via) = plan_closure(array, &targets, available);
        let items = plan.items();
        proptest::prop_assert_eq!(items.len(), recovered.len());
        let stored = |a: ChunkAddr| {
            let mut buf = vec![0u8; 16];
            store.devices()[a.disk]
                .read_chunk(a.offset, &mut buf)
                .unwrap();
            buf
        };
        let pool = crate::bufpool::BufPool::new(16);
        let mut outputs: Vec<Vec<u8>> = Vec::new();
        for (i, (it, region)) in items.iter().zip(&via).enumerate() {
            let relation = match *region {
                Region::Row(group, row) => geo.row_chunks(group, row),
                Region::Stripe(block, stripe) => geo.stripe_chunks(block, stripe),
            };
            proptest::prop_assert!(relation.contains(&it.lost), "{} via {:?}", it.lost, region);
            let mut inputs = Vec::new();
            for &a in &it.reads {
                proptest::prop_assert!(
                    available(a) && relation.contains(&a),
                    "{} reads {}",
                    it.lost,
                    a
                );
                inputs.push(stored(a));
            }
            for &d in &it.depends {
                proptest::prop_assert!(d < i, "item {} depends on {}", i, d);
                proptest::prop_assert!(relation.contains(&items[d].lost));
                inputs.push(outputs[d].clone());
            }
            let value = crate::rebuild::combine(&mut inputs, &pool);
            proptest::prop_assert_eq!(&value, &stored(it.lost), "{}", it.lost);
            outputs.push(value);
        }
        Ok(deep)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        // The backward planner is complete: over every 3-disk pattern of
        // the reference array, each with up to six more chunks missing at
        // random, it plans a chunk exactly when the whole-array fixpoint
        // recovers it, and what it plans decodes to the stored bytes.
        #[test]
        fn the_backward_planner_reaches_what_the_fixpoint_reaches(seed in proptest::any::<u64>()) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as usize
            };
            let store = filled(OiRaidConfig::reference());
            let (n, t) = (store.array().disks(), store.array().chunks_per_disk());
            let patterns: Vec<Vec<usize>> = (0..n)
                .flat_map(|a| (a + 1..n).flat_map(move |b| (b + 1..n).map(move |c| vec![a, b, c])))
                .collect();
            let mut deep = 0;
            for failed in patterns {
                let extra: Vec<ChunkAddr> = (0..next() % 7)
                    .map(|_| ChunkAddr::new(next() % n, next() % t))
                    .collect();
                let missing = |a: ChunkAddr| failed.contains(&a.disk) || extra.contains(&a);
                deep += planner_matches_fixpoint(&store, &missing)?;
            }
            proptest::prop_assert!(deep > 0, "no chunk of {} disks needed a second relation", n);
        }
    }
}
