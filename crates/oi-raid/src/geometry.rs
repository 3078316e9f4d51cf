//! The OI-RAID address arithmetic: the bijections between physical chunks
//! `(disk, offset)` and logical positions in inner rows / outer stripes.
//!
//! # Layout recap
//!
//! * Disk `D` is member `j = D mod g` of group `G = D / g`.
//! * Each disk has `T = g·r·c` chunk offsets. Offset row `t` (same offset on
//!   all `g` disks of a group) is one **inner stripe**; its parity chunk sits
//!   on disk `t mod g` of the group.
//! * The remaining *payload* chunks of a disk are split contiguously into
//!   `r` **partitions**, one per design block containing the group, each
//!   `c·(g−1)` chunks deep.
//! * Block `β`'s **outer stripes** are indexed `s ∈ 0..S`, `S = c·g·(g−1)`.
//!   Writing `s = g·a + b`, the stripe's chunk in the group at block
//!   position `pos` lands on member disk
//!   `σ = (b + m[pos]·a + φ(β, pos)) mod g` at partition slot `a`,
//!   where `m` are the skew multipliers and `φ(β, pos) = (β + pos) mod g`
//!   a phase. Outer parity occupies block position `s mod k`.
//!
//! Because `b ↦ σ` is a bijection for every `a`, each member disk holds
//! exactly one chunk per slot — the per-partition payload is perfectly
//! uniform. Because the multiplier *differences* are units mod `g`, the
//! stripes that hit one fixed disk of one group sweep cyclically through
//! the disks of every other member group — the fast-recovery property.

use bibd::Bibd;
use layout::ChunkAddr;

use crate::config::OiRaidConfig;

/// Precomputed address-arithmetic context for one array configuration.
#[derive(Debug, Clone)]
pub(crate) struct Geometry {
    pub v: usize,
    pub b: usize,
    pub r: usize,
    pub k: usize,
    pub g: usize,
    /// Layout cycles (kept for diagnostics; derived sizes are precomputed).
    #[allow(dead_code)]
    pub c: usize,
    /// Chunks per disk: `g·r·c`.
    pub chunks_per_disk: usize,
    /// Outer stripes per block: `c·g·(g−1)`.
    pub stripes_per_block: usize,
    /// Payload chunks per (disk, partition): `c·(g−1)`.
    pub depth: usize,
    multipliers: Vec<usize>,
    design: Bibd,
}

/// Identification of one side of the payload bijection: a chunk's place in
/// its outer stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PayloadPos {
    /// Design block index.
    pub block: usize,
    /// Outer stripe index within the block, `0..stripes_per_block`.
    pub stripe: usize,
    /// Position within the block (which member group), `0..k`.
    pub pos: usize,
}

impl Geometry {
    pub fn new(cfg: &OiRaidConfig) -> Self {
        let design = cfg.design().clone();
        let (v, b, r, k) = (design.v(), design.b(), design.r(), design.k());
        let g = cfg.group_size();
        let c = cfg.cycles();
        Self {
            v,
            b,
            r,
            k,
            g,
            c,
            chunks_per_disk: g * r * c,
            stripes_per_block: c * g * (g - 1),
            depth: c * (g - 1),
            multipliers: cfg.multipliers().to_vec(),
            design,
        }
    }

    /// Total number of disks.
    pub fn disks(&self) -> usize {
        self.v * self.g
    }

    /// Group of a disk.
    pub fn group_of(&self, disk: usize) -> usize {
        disk / self.g
    }

    /// Member index of a disk within its group.
    pub fn member_of(&self, disk: usize) -> usize {
        disk % self.g
    }

    /// Global disk id of member `j` of group `grp`.
    pub fn disk_id(&self, grp: usize, j: usize) -> usize {
        grp * self.g + j
    }

    /// The underlying design (exercised by the geometry tests; public code
    /// reaches the design through `OiRaidConfig::design`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn design(&self) -> &Bibd {
        &self.design
    }

    /// Whether member `j` holds the row's parity chunk (parity rotates: row
    /// `t` puts it on member `t mod g`).
    fn member_is_parity(&self, j: usize, row: usize) -> bool {
        j == row % self.g
    }

    /// Whether `(disk, offset)` is an inner-parity chunk.
    pub fn is_inner_parity(&self, addr: ChunkAddr) -> bool {
        self.member_is_parity(self.member_of(addr.disk), addr.offset)
    }

    /// Address of the inner-parity chunk of row `row` in `group` (the row
    /// index *is* the offset).
    pub fn inner_parity_of_row(&self, group: usize, row: usize) -> ChunkAddr {
        ChunkAddr::new(self.disk_id(group, row % self.g), row)
    }

    /// The `g − 1` payload chunks of row `row` in `group` (everything in the
    /// row except its inner parity), ascending member order.
    pub fn row_payload(&self, group: usize, row: usize) -> Vec<ChunkAddr> {
        (0..self.g)
            .filter(|&j| !self.member_is_parity(j, row))
            .map(|j| ChunkAddr::new(self.disk_id(group, j), row))
            .collect()
    }

    /// All `g` chunks of row `row` in `group` (payload + inner parity).
    pub fn row_chunks(&self, group: usize, row: usize) -> Vec<ChunkAddr> {
        (0..self.g)
            .map(|j| ChunkAddr::new(self.disk_id(group, j), row))
            .collect()
    }

    /// Physical offset of the `q`-th payload chunk of member disk `j`
    /// (payload offsets are the rows where `j` is not a parity member, in
    /// order).
    pub fn payload_offset(&self, j: usize, q: usize) -> usize {
        let x = q % (self.g - 1);
        // The x-th row of the band where member j holds payload skips row j.
        (q / (self.g - 1)) * self.g + x + usize::from(x >= j)
    }

    /// Inverse of [`Geometry::payload_offset`]: the payload index of offset
    /// `o` on member disk `j`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `(j, o)` is an inner-parity slot.
    pub fn payload_index(&self, j: usize, o: usize) -> usize {
        let within = o % self.g;
        debug_assert!(
            !self.member_is_parity(j, within),
            "offset {o} is inner parity on member {j}"
        );
        (o / self.g) * (self.g - 1) + within - usize::from(within > j)
    }

    /// Skew phase for (block, position).
    fn phase(&self, block: usize, pos: usize) -> usize {
        (block + pos) % self.g
    }

    /// Member disk of the group at block position `pos` holding the chunk of
    /// outer stripe `s` of `block`.
    pub fn sigma(&self, block: usize, pos: usize, s: usize) -> usize {
        let a = s / self.g;
        let b = s % self.g;
        (b + self.multipliers[pos] * a + self.phase(block, pos)) % self.g
    }

    /// Physical address of the chunk of outer stripe `(block, s)` at block
    /// position `pos`.
    pub fn stripe_chunk(&self, p: PayloadPos) -> ChunkAddr {
        let grp = self.design.blocks()[p.block][p.pos];
        let j = self.sigma(p.block, p.pos, p.stripe);
        let a = p.stripe / self.g;
        // Which of the group's r partitions belongs to this block?
        let beta_idx = self
            .design
            .blocks_containing(grp)
            .iter()
            .position(|&bi| bi == p.block)
            .expect("block contains the group");
        let q = beta_idx * self.depth + a;
        ChunkAddr::new(self.disk_id(grp, j), self.payload_offset(j, q))
    }

    /// All `k` chunk addresses of outer stripe `(block, s)`, indexed by
    /// block position.
    pub fn stripe_chunks(&self, block: usize, s: usize) -> Vec<ChunkAddr> {
        (0..self.k)
            .map(|pos| {
                self.stripe_chunk(PayloadPos {
                    block,
                    stripe: s,
                    pos,
                })
            })
            .collect()
    }

    /// Block position holding the outer parity of stripe `s` (rotating).
    pub fn outer_parity_pos(&self, s: usize) -> usize {
        s % self.k
    }

    /// Inverse of [`Geometry::stripe_chunk`]: the stripe coordinates of a
    /// payload chunk.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `addr` is an inner-parity chunk.
    pub fn payload_pos(&self, addr: ChunkAddr) -> PayloadPos {
        let grp = self.group_of(addr.disk);
        let j = self.member_of(addr.disk);
        let q = self.payload_index(j, addr.offset);
        let beta_idx = q / self.depth;
        let a = q % self.depth;
        let block = self.design.blocks_containing(grp)[beta_idx];
        let pos = self.design.blocks()[block]
            .iter()
            .position(|&p| p == grp)
            .expect("group is in its own block");
        // Invert sigma: b = j − m·a − phase (mod g).
        let m = self.multipliers[pos];
        let g = self.g;
        let b = (j + g - (m * a + self.phase(block, pos)) % g) % g;
        PayloadPos {
            block,
            stripe: g * a + b,
            pos,
        }
    }

    /// Iterates every outer stripe as `(block, stripe)` pairs.
    pub fn all_stripes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.b).flat_map(move |block| (0..self.stripes_per_block).map(move |s| (block, s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkewMode;

    fn geo(cfg: OiRaidConfig) -> Geometry {
        Geometry::new(&cfg)
    }

    fn reference() -> Geometry {
        geo(OiRaidConfig::reference())
    }

    #[test]
    fn constants_for_reference() {
        let g = reference();
        assert_eq!(g.disks(), 21);
        assert_eq!(g.chunks_per_disk, 9);
        assert_eq!(g.stripes_per_block, 6);
        assert_eq!(g.depth, 2);
    }

    #[test]
    fn payload_offset_roundtrip() {
        let g = reference();
        for j in 0..3 {
            for q in 0..6 {
                let o = g.payload_offset(j, q);
                assert_ne!(o % 3, j, "payload never lands on parity slot");
                assert_eq!(g.payload_index(j, o), q);
            }
        }
    }

    #[test]
    fn sigma_is_bijective_per_slot() {
        let g = reference();
        for block in 0..g.b {
            for pos in 0..g.k {
                for a in 0..g.depth {
                    let mut seen = vec![false; g.g];
                    for b in 0..g.g {
                        let s = g.g * a + b;
                        let j = g.sigma(block, pos, s);
                        assert!(!seen[j], "block {block} pos {pos} slot {a}");
                        seen[j] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn stripe_chunk_roundtrip_reference() {
        let g = reference();
        for block in 0..g.b {
            for s in 0..g.stripes_per_block {
                for pos in 0..g.k {
                    let p = PayloadPos {
                        block,
                        stripe: s,
                        pos,
                    };
                    let addr = g.stripe_chunk(p);
                    assert!(!g.is_inner_parity(addr), "{addr}");
                    assert_eq!(g.payload_pos(addr), p, "addr {addr}");
                }
            }
        }
    }

    #[test]
    fn stripe_chunk_roundtrip_larger_configs() {
        for (v, k, g_size, c) in [
            (7usize, 3usize, 5usize, 2usize),
            (13, 4, 5, 1),
            (9, 3, 5, 3),
        ] {
            let design = bibd::find_design(v, k).unwrap();
            let cfg = OiRaidConfig::new(design, g_size, c).unwrap();
            let geom = geo(cfg);
            for block in 0..geom.b {
                for s in 0..geom.stripes_per_block {
                    for pos in 0..geom.k {
                        let p = PayloadPos {
                            block,
                            stripe: s,
                            pos,
                        };
                        let addr = geom.stripe_chunk(p);
                        assert_eq!(geom.payload_pos(addr), p, "(v={v},k={k},g={g_size},c={c})");
                    }
                }
            }
        }
    }

    #[test]
    fn every_payload_chunk_belongs_to_exactly_one_stripe() {
        let g = reference();
        let mut seen = vec![vec![false; g.chunks_per_disk]; g.disks()];
        for (block, s) in g.all_stripes() {
            for addr in g.stripe_chunks(block, s) {
                assert!(!seen[addr.disk][addr.offset], "chunk {addr} reused");
                seen[addr.disk][addr.offset] = true;
            }
        }
        // Everything not covered must be inner parity.
        for (d, row) in seen.iter().enumerate() {
            for (o, &covered) in row.iter().enumerate() {
                let addr = ChunkAddr::new(d, o);
                assert_eq!(covered, !g.is_inner_parity(addr), "{addr}");
            }
        }
    }

    #[test]
    fn stripes_span_distinct_groups() {
        let g = reference();
        for (block, s) in g.all_stripes() {
            let groups: Vec<usize> = g
                .stripe_chunks(block, s)
                .iter()
                .map(|a| g.group_of(a.disk))
                .collect();
            let mut sorted = groups.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), g.k, "stripe ({block},{s})");
            assert_eq!(sorted, g.design().blocks()[block]);
        }
    }

    #[test]
    fn rotational_skew_spreads_failed_disk_reads() {
        // For a failed disk, the stripes through it must hit every member
        // disk of every other group in its blocks equally (the C2 claim).
        let design = bibd::fano();
        let cfg = OiRaidConfig::new(design, 3, 3).unwrap();
        let g = geo(cfg);
        let failed_disk = 0usize; // group 0, member 0
        let grp = 0;
        for &block in g.design().blocks_containing(grp) {
            let my_pos = g.design().blocks()[block]
                .iter()
                .position(|&p| p == grp)
                .unwrap();
            for pos in 0..g.k {
                if pos == my_pos {
                    continue;
                }
                let mut hits = vec![0usize; g.g];
                for s in 0..g.stripes_per_block {
                    if g.sigma(block, my_pos, s) == g.member_of(failed_disk) {
                        hits[g.sigma(block, pos, s)] += 1;
                    }
                }
                let expect = g.stripes_per_block / (g.g * g.g);
                // Perfectly uniform when g divides depth; allow ±1 otherwise.
                for (j, &h) in hits.iter().enumerate() {
                    assert!(
                        h >= expect.saturating_sub(1) && h <= expect + 2,
                        "block {block} pos {pos} member {j}: {h} (expect ~{expect})"
                    );
                    assert!(h > 0, "skew must touch every member disk");
                }
            }
        }
    }

    #[test]
    fn naive_skew_concentrates_reads() {
        let cfg = OiRaidConfig::with_skew(bibd::fano(), 3, 3, SkewMode::Naive).unwrap();
        let g = geo(cfg);
        let grp = 0;
        let block = g.design().blocks_containing(grp)[0];
        let my_pos = g.design().blocks()[block]
            .iter()
            .position(|&p| p == grp)
            .unwrap();
        let other_pos = (my_pos + 1) % g.k;
        let mut hits = vec![0usize; g.g];
        for s in 0..g.stripes_per_block {
            if g.sigma(block, my_pos, s) == 0 {
                hits[g.sigma(block, other_pos, s)] += 1;
            }
        }
        // All reads land on one member disk of the other group.
        assert_eq!(hits.iter().filter(|&&h| h > 0).count(), 1, "{hits:?}");
    }

    #[test]
    fn row_helpers() {
        let g = reference();
        let parity = g.inner_parity_of_row(2, 4);
        assert_eq!(parity, ChunkAddr::new(2 * 3 + 1, 4)); // 4 mod 3 = 1
        assert!(g.is_inner_parity(parity));
        let payload = g.row_payload(2, 4);
        assert_eq!(payload.len(), 2);
        assert!(payload.iter().all(|a| !g.is_inner_parity(*a)));
        assert_eq!(g.row_chunks(2, 4).len(), 3);
    }
}
