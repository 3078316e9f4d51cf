//! Configuration and validation of OI-RAID arrays.

use bibd::Bibd;
use layout::LayoutError;

/// How outer stripes are skewed over the disks of each group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewMode {
    /// The paper's skewed layout: the stripe→disk map of the group at block
    /// position `pos` uses a per-position multiplier, so the stripes that
    /// hit any one disk of a failed group fan out over *all* disks of every
    /// other member group. Requires a multiplier set whose pairwise
    /// differences are units mod `g` (always available when `g` is prime and
    /// `g >= k`).
    Rotational,
    /// Phase-only rotation without multipliers — the **ablation** baseline:
    /// recovery reads for one failed disk concentrate on a single disk per
    /// remote group (experiment A1 quantifies the damage).
    Naive,
}

/// Parameters of an OI-RAID array.
///
/// # Example
///
/// ```
/// use oi_raid::{OiRaidConfig, SkewMode};
///
/// let cfg = OiRaidConfig::new(bibd::fano(), 3, 4).unwrap();
/// assert_eq!(cfg.disks(), 21);
/// assert_eq!(cfg.skew(), SkewMode::Rotational);
/// ```
#[derive(Debug, Clone)]
pub struct OiRaidConfig {
    design: Bibd,
    group_size: usize,
    cycles: usize,
    skew: SkewMode,
    multipliers: Vec<usize>,
}

impl OiRaidConfig {
    /// Creates a configuration with the default [`SkewMode::Rotational`]
    /// layout. `group_size` is `g` (disks per group) and `cycles` scales the
    /// number of chunks per disk (`g·r·cycles`) — layout properties repeat
    /// per cycle, so small values suffice for analysis and large values add
    /// address-space resolution.
    ///
    /// # Errors
    ///
    /// [`LayoutError::InvalidGeometry`] if the design is not `λ = 1`, if
    /// `group_size < 2` or `cycles == 0`, or (for the rotational skew) if no
    /// valid multiplier set exists for `(g, k)` — e.g. `g < k`, or a highly
    /// composite `g`. Prime `g >= k` always works.
    pub fn new(design: Bibd, group_size: usize, cycles: usize) -> Result<Self, LayoutError> {
        Self::with_skew(design, group_size, cycles, SkewMode::Rotational)
    }

    /// Creates a configuration with an explicit skew mode.
    ///
    /// # Errors
    ///
    /// See [`OiRaidConfig::new`].
    pub fn with_skew(
        design: Bibd,
        group_size: usize,
        cycles: usize,
        skew: SkewMode,
    ) -> Result<Self, LayoutError> {
        if !design.is_steiner() {
            return Err(LayoutError::InvalidGeometry(format!(
                "OI-RAID's outer layer requires a lambda = 1 design, got lambda = {}",
                design.lambda()
            )));
        }
        if group_size < 2 {
            return Err(LayoutError::InvalidGeometry(format!(
                "group size must be at least 2, got {group_size}"
            )));
        }
        if cycles == 0 {
            return Err(LayoutError::InvalidGeometry(
                "cycles must be positive".into(),
            ));
        }
        let multipliers = match skew {
            SkewMode::Rotational => multiplier_set(group_size, design.k()).ok_or_else(|| {
                LayoutError::InvalidGeometry(format!(
                    "no skew multiplier set for g={group_size}, k={}; \
                         use a prime group size >= k (or SkewMode::Naive)",
                    design.k()
                ))
            })?,
            SkewMode::Naive => vec![0; design.k()],
        };
        Ok(Self {
            design,
            group_size,
            cycles,
            skew,
            multipliers,
        })
    }

    /// The paper's running example: Fano-plane `(7, 3, 1)` outer layer with
    /// groups of 3 disks (21 disks total) and a single layout cycle.
    pub fn reference() -> Self {
        Self::new(bibd::fano(), 3, 1).expect("the reference configuration is valid")
    }

    /// The outer-layer block design.
    pub fn design(&self) -> &Bibd {
        &self.design
    }

    /// Disks per group `g`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Layout cycles (chunks per disk = `g·r·cycles`).
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The skew mode.
    pub fn skew(&self) -> SkewMode {
        self.skew
    }

    /// Per-block-position stripe multipliers (all zero for naive skew).
    pub fn multipliers(&self) -> &[usize] {
        &self.multipliers
    }

    /// Total disks `n = v·g`.
    pub fn disks(&self) -> usize {
        self.design.v() * self.group_size
    }

    /// Chunks per disk `g·r·cycles`.
    pub fn chunks_per_disk(&self) -> usize {
        self.group_size * self.design.r() * self.cycles
    }
}

/// Finds `k` values in `0..g` whose pairwise differences are all units
/// mod `g` (greedy search). The stripe maps of two groups at block positions
/// with multipliers `m1, m2` then diverge at rate `m1 − m2` per slot, which
/// is what spreads rebuild reads over whole groups.
fn multiplier_set(g: usize, k: usize) -> Option<Vec<usize>> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for cand in 0..g {
        if chosen.iter().all(|&m| gcd(cand - m, g) == 1)
        // cand > m, so no underflow
        {
            chosen.push(cand);
            if chosen.len() == k {
                return Some(chosen);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_config() {
        let cfg = OiRaidConfig::reference();
        assert_eq!(cfg.disks(), 21);
        assert_eq!(cfg.chunks_per_disk(), 9);
        assert_eq!(cfg.multipliers(), &[0, 1, 2]);
    }

    #[test]
    fn rejects_lambda_greater_than_one() {
        let d = bibd::complete_design(5, 3).unwrap(); // λ = 3
        assert!(OiRaidConfig::new(d, 3, 1).is_err());
    }

    #[test]
    fn rejects_tiny_groups_and_zero_cycles() {
        assert!(OiRaidConfig::new(bibd::fano(), 1, 1).is_err());
        assert!(OiRaidConfig::new(bibd::fano(), 3, 0).is_err());
    }

    #[test]
    fn multiplier_sets_for_prime_groups() {
        assert_eq!(multiplier_set(3, 3), Some(vec![0, 1, 2]));
        assert_eq!(multiplier_set(5, 4), Some(vec![0, 1, 2, 3]));
        assert_eq!(multiplier_set(7, 6), Some(vec![0, 1, 2, 3, 4, 5]));
    }

    #[test]
    fn multiplier_sets_for_composite_groups() {
        // g = 4: differences must be odd, so at most 2 values: {0, 1}.
        assert_eq!(multiplier_set(4, 2), Some(vec![0, 1]));
        assert_eq!(multiplier_set(4, 3), None);
        // g = 9: differences coprime to 9 (not multiples of 3).
        let m = multiplier_set(9, 3).expect("9 admits 3 multipliers");
        for i in 0..m.len() {
            for j in i + 1..m.len() {
                assert!(!(m[j] - m[i]).is_multiple_of(3));
            }
        }
    }

    #[test]
    fn composite_group_size_falls_back_to_naive() {
        // g = 4 with k = 3 has no rotational multipliers...
        let d = bibd::fano();
        assert!(OiRaidConfig::new(d.clone(), 4, 1).is_err());
        // ...but the naive skew accepts it.
        let cfg = OiRaidConfig::with_skew(d, 4, 1, SkewMode::Naive).unwrap();
        assert_eq!(cfg.multipliers(), &[0, 0, 0]);
    }

    #[test]
    fn group_size_can_exceed_k() {
        let cfg = OiRaidConfig::new(bibd::fano(), 5, 2).unwrap();
        assert_eq!(cfg.disks(), 35);
        assert_eq!(cfg.chunks_per_disk(), 5 * 3 * 2);
    }
}
