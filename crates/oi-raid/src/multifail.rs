//! Multi-failure analysis and the store's one recovery planner, over one
//! rule: both layers are RAID5, so a relation (inner row or outer stripe)
//! decodes exactly when at most one of its chunks is missing, as the XOR of
//! the others. [`run_fixpoint`] applies it *forward* over the whole array:
//! a pattern is survivable when every chunk comes back, which is how claim
//! C4 is *checked* rather than assumed. [`plan_closure`] applies it
//! *backward* from the chunks a caller wants: every recovery the store
//! runs — each foreground decode, each rebuild round — is planned there.

use layout::{ChunkAddr, ChunkRecovery, WriteTarget};

use crate::array::OiRaid;
use crate::geometry::{Geometry, PayloadPos};
use crate::online::Region;

/// Runs the decode fixpoint over every chunk `missing` names: whole failed
/// disks, latent sector errors on otherwise-healthy disks. Returns the
/// chunks that stay unrecovered, disk by disk — empty when every chunk
/// came back.
pub(crate) fn run_fixpoint(array: &OiRaid, missing: impl Fn(ChunkAddr) -> bool) -> Vec<ChunkAddr> {
    let geo = array.geometry();
    let t = geo.chunks_per_disk;
    let at = |a: &ChunkAddr| a.disk * t + a.offset;
    let mut present: Vec<bool> = (0..geo.disks() * t)
        .map(|i| !missing(ChunkAddr::new(i / t, i % t)))
        .collect();
    let mut left = present.iter().filter(|p| !**p).count();
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
        }
    }
    let lost = (0..present.len()).filter(|&i| !present[i]);
    lost.map(|i| ChunkAddr::new(i / t, i % t)).collect()
}

/// Which relation of a payload chunk the backward search tries first: its
/// inner row (`g − 1` reads, in its group) or its outer stripe (`k − 1`,
/// spread over other groups). An inner parity has only its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum First {
    Row,
    Stripe,
}

impl First {
    /// The foreground's order: the relation with fewer reads, the row on a
    /// tie.
    pub(crate) fn cheaper(geo: &Geometry) -> Self {
        if geo.k < geo.g {
            First::Stripe
        } else {
            First::Row
        }
    }
}

/// Plans `targets` backward over the chunks `available` vouches for: their
/// closure, where [`run_fixpoint`] sweeps the whole array. A target decodes
/// through one relation if it is the sole miss there, trying its two in
/// `first`'s order, else through the first of them whose other misses are
/// plannable, recursively. Planned chunks are reused; one on the search
/// path is not planned again, which ends the recursion. Items write in
/// place and depend backwards, and each decodes one chunk as the XOR of
/// its reads and its dependencies' outputs. Returns the items and the
/// relation each decodes through; a target no relation chain reaches has
/// no item.
pub(crate) fn plan_closure(
    array: &OiRaid,
    targets: &[ChunkAddr],
    available: impl Fn(ChunkAddr) -> bool,
    first: First,
) -> (Vec<ChunkRecovery>, Vec<Region>) {
    let geo = array.geometry();
    let index = match targets.len() >= SCAN {
        true => vec![Vec::new(); geo.disks()],
        false => Vec::new(),
    };
    let mut search = Search {
        geo,
        available,
        first,
        items: Vec::with_capacity(targets.len()),
        via: Vec::with_capacity(targets.len()),
        index,
        path: Vec::new(),
        spare: Vec::new(),
    };
    for &t in targets {
        search.plan(t);
    }
    (search.items, search.via)
}

/// The outer stripe of `addr`, if it is payload.
pub(crate) fn stripe_of(geo: &Geometry, addr: ChunkAddr) -> Option<Region> {
    let p = (!geo.is_inner_parity(addr)).then(|| geo.payload_pos(addr))?;
    Some(Region::Stripe(p.block, p.stripe))
}

/// Targets from which a search indexes its items by address, not scans
/// them: a foreground plan is a few items, a rebuild round's thousands.
const SCAN: usize = 64;

/// One [`plan_closure`] search in progress.
struct Search<'a, F> {
    geo: &'a Geometry,
    available: F,
    first: First,
    items: Vec<ChunkRecovery>,
    via: Vec<Region>,
    /// Each planned chunk's item, by disk and offset (`u32::MAX` for none;
    /// a disk with none planned has no entries): empty for a plan short
    /// enough to scan.
    index: Vec<Vec<u32>>,
    /// Chunks whose relations' misses are being planned, outermost first.
    path: Vec<ChunkAddr>,
    /// Used relation chunk lists: one allocation per level of recursion.
    spare: Vec<Vec<ChunkAddr>>,
}

impl<F: Fn(ChunkAddr) -> bool> Search<'_, F> {
    /// The item that plans `a`, if one does.
    fn item_of(&self, a: ChunkAddr) -> Option<usize> {
        match self.index.get(a.disk) {
            None => self.items.iter().position(|it| it.lost == a),
            Some(disk) => disk
                .get(a.offset)
                .filter(|&&i| i != u32::MAX)
                .map(|&i| i as usize),
        }
    }

    /// Plans `t` unless its value is known; whether it is now.
    fn plan(&mut self, t: ChunkAddr) -> bool {
        if (self.available)(t) || self.item_of(t).is_some() {
            return true;
        }
        if self.path.contains(&t) {
            return false;
        }
        if self.decode_any(t, false) {
            return true;
        }
        self.path.push(t);
        let ok = self.decode_any(t, true);
        self.path.pop();
        ok
    }

    /// Plans `t` through the first of its relations, in the search's order,
    /// that [`Self::decode`]s it.
    fn decode_any(&mut self, t: ChunkAddr, recurse: bool) -> bool {
        let geo = self.geo;
        let row = || Region::Row(geo.group_of(t.disk), t.offset);
        let stripe = || stripe_of(geo, t);
        match self.first {
            First::Row => {
                self.decode(t, row(), recurse)
                    || stripe().is_some_and(|s| self.decode(t, s, recurse))
            }
            First::Stripe => {
                stripe().is_some_and(|s| self.decode(t, s, recurse))
                    || self.decode(t, row(), recurse)
            }
        }
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
            for it in &self.items[mark..] {
                if let Some(disk) = self.index.get_mut(it.lost.disk) {
                    disk[it.lost.offset] = u32::MAX;
                }
            }
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
            if (self.available)(a) {
                reads.push(a);
            } else if let Some(item) = self.item_of(a) {
                depends.push(item);
            } else {
                return false;
            }
        }
        if let Some(disk) = self.index.get_mut(t.disk) {
            if disk.is_empty() {
                disk.resize(self.geo.chunks_per_disk, u32::MAX);
            }
            disk[t.offset] = self.items.len() as u32;
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
    use layout::{Layout, LayoutError, SparePolicy};

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
    /// `store`'s array, in either relation order. Each missing chunk,
    /// planned on its own, is planned exactly when the fixpoint recovers
    /// it. One plan of them all reads only available chunks, depends
    /// backwards, reads inside the relation each item decodes through, and
    /// walks through `combine` to the stored bytes of every chunk it plans.
    /// Returns how many chunks needed more than one relation.
    fn planner_matches_fixpoint(
        store: &crate::OiRaidStore,
        missing: &dyn Fn(ChunkAddr) -> bool,
    ) -> Result<usize, proptest::TestCaseError> {
        use blockdev::BlockDevice;
        let (array, geo) = (store.array(), store.array().geometry());
        let available = |a: ChunkAddr| !missing(a);
        let unrecovered = run_fixpoint(array, missing);
        let targets: Vec<ChunkAddr> = (0..geo.disks())
            .flat_map(|d| (0..geo.chunks_per_disk).map(move |o| ChunkAddr::new(d, o)))
            .filter(|a| missing(*a))
            .collect();
        let recovered: Vec<ChunkAddr> = targets
            .iter()
            .copied()
            .filter(|a| unrecovered.binary_search(a).is_err())
            .collect();
        let mut deep = 0;
        for first in [First::Row, First::Stripe] {
            for &t in &targets {
                let (plan, via) = plan_closure(array, &[t], available, first);
                let planned = plan.iter().any(|it| it.lost == t);
                proptest::prop_assert_eq!(planned, recovered.contains(&t), "{}", t);
                deep += usize::from(via.iter().any(|r| *r != via[0]));
            }
            let (items, via) = plan_closure(array, &targets, available, first);
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
