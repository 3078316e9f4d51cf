//! The [`OiRaid`] array type: geometry queries, logical data addressing,
//! the update path, and the [`Layout`] implementation.

use layout::{assign_writes, ChunkAddr, Layout, LayoutError, RecoveryPlan, Role, SparePolicy};

use crate::config::OiRaidConfig;
use crate::geometry::{Geometry, PayloadPos};
use crate::multifail::{self, First};
use crate::recovery::{self, RecoveryStrategy};

/// Full classification of one physical chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkInfo {
    /// Inner-layer parity for row `row` of group `group`.
    InnerParity {
        /// The group.
        group: usize,
        /// The row (= chunk offset).
        row: usize,
    },
    /// A user-data chunk of outer stripe `(block, stripe)` at `pos`.
    Data {
        /// Design block index.
        block: usize,
        /// Stripe index within the block.
        stripe: usize,
        /// Position within the block.
        pos: usize,
    },
    /// The outer-parity chunk of outer stripe `(block, stripe)`.
    OuterParity {
        /// Design block index.
        block: usize,
        /// Stripe index within the block.
        stripe: usize,
    },
}

/// An OI-RAID array: `v` groups × `g` disks, BIBD outer layer, in-group
/// inner layer, RAID5 in both (see the [crate docs](crate)).
///
/// Implements [`Layout`], so it slots into the same experiment harness as
/// the baselines in the `layout` crate.
#[derive(Debug, Clone)]
pub struct OiRaid {
    cfg: OiRaidConfig,
    geo: Geometry,
}

impl OiRaid {
    /// Builds the array for `cfg`.
    ///
    /// # Errors
    ///
    /// Currently infallible given a validated config, but returns `Result`
    /// to keep room for geometry checks; the `Err` variant is unused.
    pub fn new(cfg: OiRaidConfig) -> Result<Self, LayoutError> {
        let geo = Geometry::new(&cfg);
        Ok(Self { cfg, geo })
    }

    /// The configuration.
    pub fn config(&self) -> &OiRaidConfig {
        &self.cfg
    }

    pub(crate) fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Number of groups `v`.
    pub fn groups(&self) -> usize {
        self.geo.v
    }

    /// Disks per group `g`.
    pub fn group_size(&self) -> usize {
        self.geo.g
    }

    /// The group a disk belongs to.
    pub fn group_of(&self, disk: usize) -> usize {
        self.geo.group_of(disk)
    }

    /// Classifies a physical chunk.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the geometry.
    pub fn chunk_info(&self, addr: ChunkAddr) -> ChunkInfo {
        assert!(
            addr.disk < self.disks() && addr.offset < self.geo.chunks_per_disk,
            "address {addr} out of range"
        );
        if self.geo.is_inner_parity(addr) {
            return ChunkInfo::InnerParity {
                group: self.geo.group_of(addr.disk),
                row: addr.offset,
            };
        }
        let p = self.geo.payload_pos(addr);
        if p.pos == self.geo.outer_parity_pos(p.stripe) {
            ChunkInfo::OuterParity {
                block: p.block,
                stripe: p.stripe,
            }
        } else {
            ChunkInfo::Data {
                block: p.block,
                stripe: p.stripe,
                pos: p.pos,
            }
        }
    }

    /// Number of user-data chunks the array holds:
    /// `b · stripes_per_block · (k − 1)`.
    pub fn data_chunks(&self) -> usize {
        self.geo.b * self.geo.stripes_per_block * (self.geo.k - 1)
    }

    /// Physical address of logical data chunk `idx` (data chunks are
    /// enumerated stripe-major: block, then stripe, then data position).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= data_chunks()`.
    pub fn locate_data(&self, idx: usize) -> ChunkAddr {
        assert!(idx < self.data_chunks(), "data index {idx} out of range");
        let per_stripe = self.geo.k - 1;
        let stripe_global = idx / per_stripe;
        let data_pos = idx % per_stripe;
        let block = stripe_global / self.geo.stripes_per_block;
        let stripe = stripe_global % self.geo.stripes_per_block;
        let ppos = self.geo.outer_parity_pos(stripe);
        let pos = if data_pos < ppos {
            data_pos
        } else {
            data_pos + 1
        };
        self.geo.stripe_chunk(PayloadPos { block, stripe, pos })
    }

    /// Logical index of the data chunk at `addr`, or `None` if `addr` holds
    /// parity.
    pub fn data_index(&self, addr: ChunkAddr) -> Option<usize> {
        match self.chunk_info(addr) {
            ChunkInfo::Data { block, stripe, pos } => {
                let ppos = self.geo.outer_parity_pos(stripe);
                let data_pos = if pos < ppos { pos } else { pos - 1 };
                Some((block * self.geo.stripes_per_block + stripe) * (self.geo.k - 1) + data_pos)
            }
            _ => None,
        }
    }

    /// The set of chunks written when the data chunk at `addr` is updated,
    /// in this order: the chunk itself, its row's inner parity, its outer
    /// parity, and the outer parity's row parity — 4 writes, the optimum for
    /// a 3-failure-tolerant code (claim C6 / experiment E4).
    ///
    /// # Errors
    ///
    /// [`LayoutError::NotDataChunk`] if `addr` holds parity rather than
    /// user data.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the array geometry.
    pub fn update_set(&self, addr: ChunkAddr) -> Result<Vec<ChunkAddr>, LayoutError> {
        let ChunkInfo::Data { block, stripe, .. } = self.chunk_info(addr) else {
            return Err(LayoutError::NotDataChunk {
                disk: addr.disk,
                offset: addr.offset,
            });
        };
        let my_group = self.geo.group_of(addr.disk);
        let outer = self.geo.stripe_chunk(PayloadPos {
            block,
            stripe,
            pos: self.geo.outer_parity_pos(stripe),
        });
        let outer_group = self.geo.group_of(outer.disk);
        Ok(vec![
            addr,
            self.geo.inner_parity_of_row(my_group, addr.offset),
            outer,
            self.geo.inner_parity_of_row(outer_group, outer.offset),
        ])
    }

    /// Builds a single-failure recovery plan with an explicit strategy
    /// (the default [`Layout::recovery_plan`] uses
    /// [`RecoveryStrategy::Outer`]).
    ///
    /// # Errors
    ///
    /// Same as [`Layout::recovery_plan`]; additionally requires exactly one
    /// failed disk.
    pub fn recovery_plan_with_strategy(
        &self,
        failed_disk: usize,
        policy: SparePolicy,
        strategy: RecoveryStrategy,
    ) -> Result<RecoveryPlan, LayoutError> {
        self.disks_plan(&[failed_disk], policy, strategy)
    }

    /// The plan of whole failed disks under `strategy`, offset by offset
    /// (the disks interleaved at each), writes assigned by `policy`.
    fn disks_plan(
        &self,
        failed: &[usize],
        policy: SparePolicy,
        strategy: RecoveryStrategy,
    ) -> Result<RecoveryPlan, LayoutError> {
        let n = self.geo.disks();
        let mut sorted = failed.to_vec();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(LayoutError::DuplicateFailure { disk: w[0] });
        }
        if let Some(&disk) = sorted.last().filter(|&&d| d >= n) {
            return Err(LayoutError::DiskOutOfRange { disk, disks: n });
        }
        let offsets = 0..self.geo.chunks_per_disk;
        let targets: Vec<ChunkAddr> = offsets
            .flat_map(|o| sorted.iter().map(move |&d| ChunkAddr::new(d, o)))
            .collect();
        let available = |a: ChunkAddr| !sorted.contains(&a.disk);
        let (mut items, _) = recovery::plan_recovery(self, &targets, available, strategy);
        if items.len() < targets.len() {
            return Err(LayoutError::DataLoss { failed: sorted });
        }
        assign_writes(policy, n, &sorted, &mut items);
        Ok(RecoveryPlan::new(n, sorted, items))
    }

    /// The alternate-plan API: a chunk-granular repair plan for the chunks
    /// `missing` names (latent sectors, a disk that died mid-rebuild, the
    /// unrebuilt rest of a resumed rebuild), cross-layer cascades included,
    /// planned as [`RecoveryStrategy::Outer`] plans them. Every other chunk
    /// is assumed readable; every item writes
    /// [`layout::WriteTarget::InPlace`], remapping a latent sector.
    ///
    /// # Errors
    ///
    /// [`LayoutError::DataLoss`], listing the disks that hold unrecovered
    /// chunks, when the missing set is not decodable.
    pub fn chunk_recovery_plan(
        &self,
        missing: impl Fn(ChunkAddr) -> bool,
    ) -> Result<RecoveryPlan, LayoutError> {
        let (n, t) = (self.geo.disks(), self.geo.chunks_per_disk);
        let chunks = (0..t).flat_map(|o| (0..n).map(move |d| ChunkAddr::new(d, o)));
        let targets: Vec<ChunkAddr> = chunks.filter(|&a| missing(a)).collect();
        let (items, _) = multifail::plan_closure(self, &targets, |a| !missing(a), First::Stripe);
        if items.len() < targets.len() {
            let lost = multifail::run_fixpoint(self, missing);
            let mut failed: Vec<usize> = lost.iter().map(|a| a.disk).collect();
            failed.dedup();
            return Err(LayoutError::DataLoss { failed });
        }
        Ok(RecoveryPlan::new(n, Vec::new(), items))
    }
}

impl Layout for OiRaid {
    fn name(&self) -> String {
        format!(
            "OI-RAID(v={},k={},g={})",
            self.geo.v, self.geo.k, self.geo.g
        )
    }

    fn disks(&self) -> usize {
        self.geo.disks()
    }

    fn chunks_per_disk(&self) -> usize {
        self.geo.chunks_per_disk
    }

    fn fault_tolerance(&self) -> usize {
        // Any pattern of 3 failures leaves at most one group with more than
        // one loss; that group repairs through the outer layer while every
        // other group repairs locally (checked by the `multifail` fixpoint
        // tests).
        3
    }

    fn chunk_role(&self, addr: ChunkAddr) -> Role {
        match self.chunk_info(addr) {
            ChunkInfo::InnerParity { .. } => Role::InnerParity,
            ChunkInfo::OuterParity { .. } => Role::Parity,
            ChunkInfo::Data { .. } => Role::Data,
        }
    }

    fn survives(&self, failed: &[usize]) -> bool {
        let in_range = failed.iter().all(|&d| d < self.disks());
        in_range && multifail::run_fixpoint(self, |a| failed.contains(&a.disk)).is_empty()
    }

    fn recovery_plan(
        &self,
        failed: &[usize],
        policy: SparePolicy,
    ) -> Result<RecoveryPlan, LayoutError> {
        self.disks_plan(failed, policy, RecoveryStrategy::Outer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> OiRaid {
        OiRaid::new(OiRaidConfig::reference()).unwrap()
    }

    #[test]
    fn geometry_counts() {
        let a = reference();
        assert_eq!(a.disks(), 21);
        assert_eq!(a.chunks_per_disk(), 9);
        assert_eq!(a.groups(), 7);
        assert_eq!(a.group_size(), 3);
        // 7 blocks x 6 stripes x 2 data chunks.
        assert_eq!(a.data_chunks(), 84);
    }

    #[test]
    fn efficiency_matches_closed_form() {
        let a = reference();
        // (k−1)/k · (g−1)/g = (2/3)(2/3) = 4/9.
        assert!((a.efficiency() - 4.0 / 9.0).abs() < 1e-12);
        assert!((a.storage_overhead() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn role_census() {
        let a = reference();
        let (mut data, mut outer, mut inner) = (0, 0, 0);
        for d in 0..a.disks() {
            for o in 0..a.chunks_per_disk() {
                match a.chunk_role(ChunkAddr::new(d, o)) {
                    Role::Data => data += 1,
                    Role::Parity => outer += 1,
                    Role::InnerParity => inner += 1,
                    Role::Spare => unreachable!(),
                }
            }
        }
        assert_eq!(data, 84);
        assert_eq!(outer, 42); // 7 blocks x 6 stripes x 1 parity
        assert_eq!(inner, 63); // 21 disks x 3 parity rows
    }

    #[test]
    fn data_addressing_roundtrip() {
        let a = reference();
        for idx in 0..a.data_chunks() {
            let addr = a.locate_data(idx);
            assert_eq!(a.chunk_role(addr), Role::Data, "idx {idx} -> {addr}");
            assert_eq!(a.data_index(addr), Some(idx));
        }
    }

    #[test]
    fn data_addresses_are_distinct() {
        let a = reference();
        let mut seen = std::collections::HashSet::new();
        for idx in 0..a.data_chunks() {
            assert!(seen.insert(a.locate_data(idx)), "idx {idx} duplicated");
        }
    }

    #[test]
    fn update_set_has_four_distinct_disks() {
        let a = reference();
        for idx in 0..a.data_chunks() {
            let addr = a.locate_data(idx);
            let set = a.update_set(addr).unwrap();
            assert_eq!(set.len(), 4, "idx {idx}");
            assert_eq!(set[0], addr);
            let mut disks: Vec<usize> = set.iter().map(|c| c.disk).collect();
            disks.sort_unstable();
            disks.dedup();
            assert_eq!(
                disks.len(),
                4,
                "idx {idx}: all four writes on distinct disks"
            );
            // Writes 1 is inner parity, 2 outer parity, 3 inner parity of 2.
            assert_eq!(a.chunk_role(set[1]), Role::InnerParity);
            assert_eq!(a.chunk_role(set[2]), Role::Parity);
            assert_eq!(a.chunk_role(set[3]), Role::InnerParity);
        }
    }

    #[test]
    fn update_set_rejects_parity_with_an_error() {
        let a = reference();
        // Offset 0 on disk 0 is inner parity (member 0, 0 mod 3 == 0).
        assert_eq!(
            a.update_set(ChunkAddr::new(0, 0)),
            Err(LayoutError::NotDataChunk { disk: 0, offset: 0 })
        );
        // Every parity chunk errors; every data chunk succeeds.
        for d in 0..a.disks() {
            for o in 0..a.chunks_per_disk() {
                let addr = ChunkAddr::new(d, o);
                let want_ok = a.chunk_role(addr) == Role::Data;
                assert_eq!(a.update_set(addr).is_ok(), want_ok, "{addr}");
            }
        }
    }

    #[test]
    fn larger_config_consistency() {
        let design = bibd::find_design(13, 4).unwrap();
        let cfg = OiRaidConfig::new(design, 5, 1).unwrap();
        let a = OiRaid::new(cfg).unwrap();
        assert_eq!(a.disks(), 65);
        // Efficiency (3/4)(4/5) = 0.6.
        assert!((a.efficiency() - 0.6).abs() < 1e-12);
        for idx in (0..a.data_chunks()).step_by(7) {
            let addr = a.locate_data(idx);
            assert_eq!(a.data_index(addr), Some(idx));
            assert_eq!(a.update_set(addr).unwrap().len(), 4);
        }
    }
}
