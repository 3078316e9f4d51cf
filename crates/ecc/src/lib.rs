//! Erasure codes for the OI-RAID reproduction.
//!
//! OI-RAID is a *two-layer* code: an inner code within each disk group and an
//! outer code across groups, with RAID5 in both layers as the paper's worked
//! example. This crate provides those codes — and the comparison codes the
//! evaluation needs — behind one trait:
//!
//! * [`XorParity`] — single-parity RAID5, the paper's layer code.
//! * [`Raid6`] — P+Q dual parity over GF(2^8), the one double-erasure code
//!   (the generalized inner layer and the store's parity-delta weights).
//! * [`Lrc`] — Local Reconstruction Codes (Azure), the modern
//!   repair-locality comparator: single failures rebuild from a small local
//!   group instead of the whole stripe.
//! * [`ReedSolomon`] — systematic RS(k, m) for any `k + m ≤ 256`, the
//!   "flat MDS" comparator (RS with m = 3 tolerates 3 failures like OI-RAID).
//! * [`Replication`] — n-way mirroring, the classical 3-failure-tolerance
//!   deployment OI-RAID's storage-overhead claim is judged against.
//!
//! All codes operate on equal-length byte buffers ("units"), reconstruct
//! erased units in place, and report their **update cost** (how many units
//! must be written when one data unit changes) — the metric behind the
//! paper's "optimal data update complexity" claim (experiment E4).
//!
//! # Example
//!
//! ```
//! use ecc::{ErasureCode, XorParity};
//!
//! let code = XorParity::new(4).unwrap();
//! let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 8]).collect();
//! let parity = code.encode(&data).unwrap();
//!
//! // Lose one data unit and reconstruct it.
//! let mut units: Vec<Option<Vec<u8>>> =
//!     data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
//! units[2] = None;
//! code.reconstruct(&mut units).unwrap();
//! assert_eq!(units[2].as_deref(), Some(&data[2][..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
mod lrc;
mod raid6;
mod replicate;
mod rs;
mod xor;

pub use code::{CodeError, ErasureCode, UpdateCost};
pub use lrc::Lrc;
pub use raid6::Raid6;
pub use replicate::Replication;
pub use rs::ReedSolomon;
pub use xor::XorParity;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Shared conformance check: every code must round-trip all erasure
    /// patterns up to its declared fault tolerance.
    fn conformance(code: &dyn ErasureCode, len: usize) {
        let k = code.data_units();
        let n = code.total_units();
        let t = code.fault_tolerance();
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|j| (i * 31 + j * 7 + 3) as u8).collect())
            .collect();
        let parity = code.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        // All erasure patterns of size 1..=t (n is small in tests).
        let mut pattern = Vec::new();
        erasure_patterns(n, t, 0, &mut pattern, &mut |erased: &[usize]| {
            let mut units: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            for &e in erased {
                units[e] = None;
            }
            code.reconstruct(&mut units)
                .unwrap_or_else(|err| panic!("{}: pattern {erased:?}: {err}", code.name()));
            for (i, u) in units.iter().enumerate() {
                assert_eq!(
                    u.as_deref(),
                    Some(&full[i][..]),
                    "{}: unit {i}",
                    code.name()
                );
            }
        });
    }

    fn erasure_patterns(
        n: usize,
        t: usize,
        start: usize,
        cur: &mut Vec<usize>,
        f: &mut impl FnMut(&[usize]),
    ) {
        if !cur.is_empty() {
            f(cur);
        }
        if cur.len() == t {
            return;
        }
        for i in start..n {
            cur.push(i);
            erasure_patterns(n, t, i + 1, cur, f);
            cur.pop();
        }
    }

    #[test]
    fn all_codes_conform() {
        conformance(&XorParity::new(4).unwrap(), 16);
        conformance(&Raid6::new(5).unwrap(), 16);
        conformance(&ReedSolomon::new(4, 3).unwrap(), 16);
        conformance(&ReedSolomon::new(6, 2).unwrap(), 16);
        conformance(&Replication::new(3).unwrap(), 16);
        conformance(&Lrc::new(4, 2, 2).unwrap(), 16);
    }

    #[test]
    fn raid6_tolerates_two_and_writes_three_per_update() {
        let pq = Raid6::new(6).unwrap();
        assert_eq!(pq.fault_tolerance(), 2);
        assert_eq!(pq.update_cost().total_writes(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn raid6_survives_double_erasures_at_random_lengths(
            seed in any::<u64>(),
            len in 1usize..40,
            e1 in any::<usize>(),
            e2 in any::<usize>(),
        ) {
            let code = Raid6::new(6).unwrap();
            let n = code.total_units();
            let data: Vec<Vec<u8>> = (0..code.data_units())
                .map(|i| {
                    (0..len)
                        .map(|j| {
                            (seed
                                .wrapping_mul(0x9e3779b97f4a7c15)
                                .wrapping_add((i * 131 + j * 17) as u64)
                                >> 23) as u8
                        })
                        .collect()
                })
                .collect();
            let parity = code.encode(&data).unwrap();
            let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
            let mut units: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            units[e1 % n] = None;
            units[e2 % n] = None;
            code.reconstruct(&mut units).unwrap();
            for (i, u) in units.iter().enumerate() {
                prop_assert_eq!(u.as_deref(), Some(&full[i][..]), "unit {}", i);
            }
        }
    }

    #[test]
    fn update_costs_match_e4_table() {
        // The E4 update-complexity table.
        assert_eq!(XorParity::new(4).unwrap().update_cost().total_writes(), 2);
        assert_eq!(Raid6::new(4).unwrap().update_cost().total_writes(), 3);
        assert_eq!(
            ReedSolomon::new(4, 3).unwrap().update_cost().total_writes(),
            4
        );
        assert_eq!(Replication::new(3).unwrap().update_cost().total_writes(), 3);
    }
}
