//! Closed-form performance model of OI-RAID.
//!
//! The paper's evaluation is largely analytical; this module reproduces that
//! style of result (per-disk rebuild load, bottleneck fractions, speedups,
//! storage overhead, update cost) in closed form. Every formula here is
//! cross-checked against the actual planners in this crate's tests, so the
//! model and the implementation cannot drift apart.

use crate::array::OiRaid;
use crate::recovery::{hybrid_remote_fraction, RecoveryStrategy};

/// Closed-form model of one OI-RAID configuration.
///
/// All loads are expressed as *fractions of one disk's capacity*, which is
/// what turns into rebuild time when multiplied by capacity / bandwidth.
///
/// # Example
///
/// ```
/// use oi_raid::{analysis::Model, OiRaid, OiRaidConfig, RecoveryStrategy};
///
/// let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
/// let m = Model::of(&array);
/// // The paper's Outer strategy caps the group survivors at 1/g of a disk:
/// assert!((m.bottleneck_read_fraction(RecoveryStrategy::Outer) - 1.0 / 3.0).abs() < 1e-12);
/// assert!(m.read_speedup_vs_raid5(RecoveryStrategy::Hybrid) > 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    v: usize,
    r: usize,
    k: usize,
    g: usize,
    /// Inner parity count (1 = the paper's RAID5 inner layer).
    p: usize,
}

impl Model {
    /// Extracts the model parameters from an array.
    pub fn of(array: &OiRaid) -> Self {
        let cfg = array.config();
        Self {
            v: cfg.design().v(),
            r: cfg.design().r(),
            k: cfg.design().k(),
            g: cfg.group_size(),
            p: cfg.inner_parities(),
        }
    }

    /// Builds a model directly from `(v, k, g)` of a hypothetical `λ = 1`
    /// design (with `r = (v−1)/(k−1)` by the design identity).
    ///
    /// # Panics
    ///
    /// Panics if `(k−1)` does not divide `(v−1)` (no such design).
    pub fn from_parameters(v: usize, k: usize, g: usize) -> Self {
        Self::from_parameters_with_inner(v, k, g, 1)
    }

    /// Like [`Model::from_parameters`] with an explicit inner parity count.
    ///
    /// # Panics
    ///
    /// Panics if `(k−1)` does not divide `(v−1)` or `p >= g`.
    pub fn from_parameters_with_inner(v: usize, k: usize, g: usize, p: usize) -> Self {
        assert_eq!((v - 1) % (k - 1), 0, "lambda=1 needs (k-1) | (v-1)");
        assert!(p >= 1 && p < g, "inner parities must satisfy 1 <= p < g");
        Self {
            v,
            r: (v - 1) / (k - 1),
            k,
            g,
            p,
        }
    }

    /// Total disks `n = v·g`.
    pub fn disks(&self) -> usize {
        self.v * self.g
    }

    /// Storage efficiency `(k−1)(g−p)/(k·g)`.
    pub fn efficiency(&self) -> f64 {
        ((self.k - 1) * (self.g - self.p)) as f64 / (self.k * self.g) as f64
    }

    /// Storage overhead (redundancy per data byte).
    pub fn storage_overhead(&self) -> f64 {
        let e = self.efficiency();
        (1.0 - e) / e
    }

    /// Chunk writes per user data-chunk write: `1` data + `2p + 1` parity —
    /// optimal for `(2p + 1)`-failure tolerance (claim C6; 4 writes for the
    /// paper's `p = 1`).
    pub fn update_writes(&self) -> usize {
        2 * self.p + 2
    }

    /// Guaranteed failure tolerance `2p + 1`.
    pub fn fault_tolerance(&self) -> usize {
        2 * self.p + 1
    }

    /// Read load on each surviving disk of the failed disk's *own group*,
    /// as a fraction of disk capacity.
    /// For `p > 1` this is the *busiest* survivor (per-survivor parity-row
    /// duty is slightly non-uniform under dual parity).
    pub fn group_survivor_read_fraction(&self, s: RecoveryStrategy) -> f64 {
        let g = self.g as f64;
        let p = self.p as f64;
        match s {
            RecoveryStrategy::Inner => 1.0,
            RecoveryStrategy::Outer => p / g,
            RecoveryStrategy::OuterAll => 0.0,
            RecoveryStrategy::Hybrid => (1.0 - self.psi()) * p / g,
        }
    }

    /// Read load on each disk *outside* the failed disk's group, as a
    /// fraction of disk capacity.
    pub fn remote_read_fraction(&self, s: RecoveryStrategy) -> f64 {
        let (g, r, p) = (self.g as f64, self.r as f64, self.p as f64);
        let base = (g - p) / (g * g * r);
        match s {
            RecoveryStrategy::Inner => 0.0,
            RecoveryStrategy::Outer => base,
            RecoveryStrategy::OuterAll => (1.0 + p) * base,
            RecoveryStrategy::Hybrid => (1.0 + self.psi() * p) * base,
        }
    }

    /// The rebuild *read* bottleneck: the largest per-disk read fraction.
    pub fn bottleneck_read_fraction(&self, s: RecoveryStrategy) -> f64 {
        self.group_survivor_read_fraction(s)
            .max(self.remote_read_fraction(s))
    }

    /// Hybrid split `ψ = (p·rg − (g−p)) / (p·(rg + g − p))`.
    pub fn psi(&self) -> f64 {
        let (num, den) = hybrid_remote_fraction(self.r, self.g, self.p);
        num as f64 / den as f64
    }

    /// Read-bound rebuild speedup over an `n`-disk flat RAID5, whose every
    /// survivor reads its full capacity (bottleneck fraction 1).
    pub fn read_speedup_vs_raid5(&self, s: RecoveryStrategy) -> f64 {
        1.0 / self.bottleneck_read_fraction(s)
    }

    /// The declustering ratio of a parity-declustered layout over the same
    /// `n` disks with stripe width `k` — the strongest 1-fault baseline.
    pub fn pd_read_fraction(&self) -> f64 {
        (self.k - 1) as f64 / (self.disks() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OiRaidConfig;
    use layout::{Layout, SparePolicy};

    fn reference_model() -> (OiRaid, Model) {
        let a = OiRaid::new(OiRaidConfig::reference()).unwrap();
        let m = Model::of(&a);
        (a, m)
    }

    #[test]
    fn closed_forms_for_reference() {
        let (_, m) = reference_model();
        assert_eq!(m.disks(), 21);
        assert!((m.efficiency() - 4.0 / 9.0).abs() < 1e-12);
        assert_eq!(m.update_writes(), 4);
        assert!((m.psi() - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn model_matches_actual_plans() {
        let (a, m) = reference_model();
        let t = a.chunks_per_disk() as f64;
        for s in RecoveryStrategy::ALL {
            let plan = a
                .recovery_plan_with_strategy(0, SparePolicy::Distributed, s)
                .unwrap();
            let load = plan.read_load(21);
            // The hybrid split is quantized to whole parity rows, so allow a
            // one-chunk deviation there; the other strategies are exact.
            let tol = match s {
                RecoveryStrategy::Hybrid => 1.0 / t + 1e-9,
                _ => 1e-9,
            };
            // Group survivors: disks 1, 2.
            let group_frac = load[1].max(load[2]) as f64 / t;
            assert!(
                (group_frac - m.group_survivor_read_fraction(s)).abs() < tol,
                "{}: group {} vs model {}",
                s.label(),
                group_frac,
                m.group_survivor_read_fraction(s)
            );
            // Remote average matches the model (loads are integers, so
            // compare the mean).
            let remote_sum: u64 = (3..21).map(|d| load[d]).sum();
            let remote_frac = remote_sum as f64 / 18.0 / t;
            assert!(
                (remote_frac - m.remote_read_fraction(s)).abs() < tol,
                "{}: remote {} vs model {}",
                s.label(),
                remote_frac,
                m.remote_read_fraction(s)
            );
        }
    }

    #[test]
    fn hybrid_equalises_loads() {
        // For configurations where ψ ∈ (0, 1), group and remote fractions
        // must come out equal.
        for (v, k, g) in [(7usize, 3usize, 3usize), (13, 4, 5), (31, 6, 7)] {
            let m = Model::from_parameters(v, k, g);
            let gf = m.group_survivor_read_fraction(RecoveryStrategy::Hybrid);
            let rf = m.remote_read_fraction(RecoveryStrategy::Hybrid);
            assert!((gf - rf).abs() < 1e-12, "(v={v},k={k},g={g}): {gf} vs {rf}");
        }
    }

    #[test]
    fn speedups_grow_with_array_size() {
        let small = Model::from_parameters(7, 3, 3);
        let large = Model::from_parameters(31, 6, 7);
        assert!(
            large.read_speedup_vs_raid5(RecoveryStrategy::Hybrid)
                > small.read_speedup_vs_raid5(RecoveryStrategy::Hybrid)
        );
    }

    #[test]
    fn strategy_ordering_of_bottlenecks() {
        let (_, m) = reference_model();
        let b = |s| m.bottleneck_read_fraction(s);
        assert!(b(RecoveryStrategy::Hybrid) <= b(RecoveryStrategy::Outer));
        assert!(b(RecoveryStrategy::Hybrid) <= b(RecoveryStrategy::OuterAll));
        assert!(b(RecoveryStrategy::Outer) < b(RecoveryStrategy::Inner));
    }

    #[test]
    #[should_panic(expected = "lambda=1")]
    fn invalid_parameters_rejected() {
        let _ = Model::from_parameters(8, 3, 3);
    }

    #[test]
    fn dual_parity_model_tracks_the_planner() {
        let cfg = OiRaidConfig::new(bibd::fano(), 5, 1)
            .unwrap()
            .with_inner_parities(2)
            .unwrap();
        let a = OiRaid::new(cfg).unwrap();
        let m = Model::of(&a);
        assert_eq!(m.fault_tolerance(), 5);
        assert_eq!(m.update_writes(), 6);
        assert!((m.efficiency() - a.efficiency()).abs() < 1e-12);
        let t = a.chunks_per_disk() as f64;
        // Outer strategy: busiest group survivor and mean remote load match
        // the closed forms (one-chunk tolerance for the non-uniform duty).
        let plan = a
            .recovery_plan_with_strategy(0, SparePolicy::Distributed, RecoveryStrategy::Outer)
            .unwrap();
        let load = plan.read_load(a.disks());
        let group_max = (1..5).map(|d| load[d]).max().unwrap() as f64 / t;
        assert!(
            (group_max - m.group_survivor_read_fraction(RecoveryStrategy::Outer)).abs()
                <= 1.0 / t + 1e-9,
            "group {} vs model {}",
            group_max,
            m.group_survivor_read_fraction(RecoveryStrategy::Outer)
        );
        let remote_sum: u64 = (5..a.disks()).map(|d| load[d]).sum();
        let remote_frac = remote_sum as f64 / (a.disks() - 5) as f64 / t;
        assert!(
            (remote_frac - m.remote_read_fraction(RecoveryStrategy::Outer)).abs() < 1e-9,
            "remote {} vs model {}",
            remote_frac,
            m.remote_read_fraction(RecoveryStrategy::Outer)
        );
    }
}
