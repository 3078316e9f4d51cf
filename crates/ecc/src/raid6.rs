//! RAID6 dual parity (P+Q) over GF(2^8).

use gf::kernels::xor_acc;
use gf::Gf256;

use crate::code::{validate_data, validate_units, CodeError, ErasureCode};

/// RAID6: `k` data units with P (XOR) and Q (weighted GF(2^8) sum) parity,
/// tolerating any two erasures.
///
/// Q uses the standard generator weights `Q = Σ g^i · D_i` with `g = 2`, the
/// same scheme as the Linux md driver.
///
/// # Example
///
/// ```
/// use ecc::{ErasureCode, Raid6};
///
/// let code = Raid6::new(4).unwrap();
/// assert_eq!(code.total_units(), 6);
/// assert_eq!(code.fault_tolerance(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raid6 {
    k: usize,
}

impl Raid6 {
    /// Creates a `k + 2` RAID6 code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameters`] if `k == 0` or `k > 254`
    /// (the generator powers must be distinct nonzero field elements).
    pub fn new(k: usize) -> Result<Self, CodeError> {
        if k == 0 || k > 254 {
            return Err(CodeError::InvalidParameters { k, m: 2 });
        }
        Ok(Self { k })
    }

    fn weight(i: usize) -> u8 {
        Gf256::get().pow(2, i as u64)
    }
}

impl ErasureCode for Raid6 {
    fn data_units(&self) -> usize {
        self.k
    }

    fn parity_units(&self) -> usize {
        2
    }

    fn fault_tolerance(&self) -> usize {
        2
    }

    fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodeError> {
        let len = validate_data(data, self.k)?;
        let f = Gf256::get();
        let mut p = vec![0u8; len];
        let mut q = vec![0u8; len];
        for (i, unit) in data.iter().enumerate() {
            xor_acc(&mut p, unit);
            f.mul_acc_slice(Self::weight(i), unit, &mut q);
        }
        Ok(vec![p, q])
    }

    fn reconstruct(&self, units: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        let len = validate_units(units, self.k + 2)?;
        let f = Gf256::get();
        let erased: Vec<usize> = units
            .iter()
            .enumerate()
            .filter_map(|(i, u)| u.is_none().then_some(i))
            .collect();
        let pi = self.k; // index of P
        let qi = self.k + 1; // index of Q
        match erased.as_slice() {
            [] => Ok(()),
            // One data unit: use P like RAID5 (or Q if P is also... P present).
            &[d] if d < self.k => {
                if units[pi].is_some() {
                    let mut acc = units[pi].clone().unwrap();
                    for (i, u) in units[..self.k].iter().enumerate() {
                        if i != d {
                            xor_acc(&mut acc, u.as_ref().unwrap());
                        }
                    }
                    units[d] = Some(acc);
                } else {
                    unreachable!("single erasure at {d} implies P present");
                }
                Ok(())
            }
            // Only parity lost: recompute from data.
            &[x] if x == pi || x == qi => {
                let data: Vec<Vec<u8>> =
                    units[..self.k].iter().map(|u| u.clone().unwrap()).collect();
                let parity = self.encode(&data)?;
                units[x] = Some(parity[x - self.k].clone());
                Ok(())
            }
            &[a, b] => {
                match (a < self.k, b < self.k, b) {
                    // Two data units lost: solve the 2x2 system with P and Q.
                    (true, true, _) => {
                        // Syndromes from the survivors.
                        let mut sp = units[pi].clone().unwrap();
                        let mut sq = units[qi].clone().unwrap();
                        for (i, u) in units[..self.k].iter().enumerate() {
                            if let Some(u) = u {
                                xor_acc(&mut sp, u);
                                f.mul_acc_slice(Self::weight(i), u, &mut sq);
                            }
                        }
                        // sp = Da ^ Db; sq = g^a Da ^ g^b Db.
                        let ga = Self::weight(a);
                        let gb = Self::weight(b);
                        let denom = ga ^ gb; // nonzero since a != b
                        let inv = f.inv(denom).expect("distinct powers differ");
                        // Da = (sq ^ gb*sp) / (ga ^ gb)
                        let mut da = vec![0u8; len];
                        f.mul_acc_slice(gb, &sp, &mut da);
                        xor_acc(&mut da, &sq);
                        let mut da_scaled = vec![0u8; len];
                        f.mul_slice(inv, &da, &mut da_scaled);
                        let mut db = sp;
                        xor_acc(&mut db, &da_scaled);
                        units[a] = Some(da_scaled);
                        units[b] = Some(db);
                        Ok(())
                    }
                    // One data unit + P lost: recover data via Q, then P.
                    (true, false, x) if x == pi => {
                        let mut sq = units[qi].clone().unwrap();
                        for (i, u) in units[..self.k].iter().enumerate() {
                            if let Some(u) = u {
                                f.mul_acc_slice(Self::weight(i), u, &mut sq);
                            }
                        }
                        let inv = f.inv(Self::weight(a)).expect("weights are nonzero");
                        let mut da = vec![0u8; len];
                        f.mul_slice(inv, &sq, &mut da);
                        units[a] = Some(da);
                        let data: Vec<Vec<u8>> =
                            units[..self.k].iter().map(|u| u.clone().unwrap()).collect();
                        units[pi] = Some(self.encode(&data)?[0].clone());
                        Ok(())
                    }
                    // One data unit + Q lost: recover data via P, then Q.
                    (true, false, x) if x == qi => {
                        let mut acc = units[pi].clone().unwrap();
                        for u in units[..self.k].iter().flatten() {
                            xor_acc(&mut acc, u);
                        }
                        units[a] = Some(acc);
                        let data: Vec<Vec<u8>> =
                            units[..self.k].iter().map(|u| u.clone().unwrap()).collect();
                        units[qi] = Some(self.encode(&data)?[1].clone());
                        Ok(())
                    }
                    // P and Q both lost: recompute from data.
                    (false, false, _) => {
                        let data: Vec<Vec<u8>> =
                            units[..self.k].iter().map(|u| u.clone().unwrap()).collect();
                        let parity = self.encode(&data)?;
                        units[pi] = Some(parity[0].clone());
                        units[qi] = Some(parity[1].clone());
                        Ok(())
                    }
                    _ => unreachable!("erased indices are sorted"),
                }
            }
            e => Err(CodeError::TooManyErasures {
                erased: e.len(),
                tolerance: 2,
            }),
        }
    }

    fn name(&self) -> String {
        format!("RAID6({}+2)", self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_data(k: usize, len: usize, seed: u64) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|j| {
                        (seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add((i * 977 + j * 131) as u64)
                            >> 24) as u8
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn parameter_validation() {
        assert!(Raid6::new(0).is_err());
        assert!(Raid6::new(255).is_err());
        assert!(Raid6::new(254).is_ok());
    }

    #[test]
    fn p_is_xor_of_data() {
        let code = Raid6::new(3).unwrap();
        let data = sample_data(3, 8, 42);
        let parity = code.encode(&data).unwrap();
        for j in 0..8 {
            assert_eq!(parity[0][j], data[0][j] ^ data[1][j] ^ data[2][j]);
        }
    }

    #[test]
    fn exhaustive_double_erasures_small() {
        let code = Raid6::new(4).unwrap();
        let data = sample_data(4, 16, 7);
        let parity = code.encode(&data).unwrap();
        let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
        for a in 0..6 {
            for b in a + 1..6 {
                let mut units: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                units[a] = None;
                units[b] = None;
                code.reconstruct(&mut units)
                    .unwrap_or_else(|e| panic!("pattern ({a},{b}): {e}"));
                for (i, u) in units.iter().enumerate() {
                    assert_eq!(
                        u.as_deref(),
                        Some(&full[i][..]),
                        "pattern ({a},{b}) unit {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn triple_erasure_rejected() {
        let code = Raid6::new(4).unwrap();
        let data = sample_data(4, 4, 1);
        let parity = code.encode(&data).unwrap();
        let mut units: Vec<Option<Vec<u8>>> = data.into_iter().chain(parity).map(Some).collect();
        units[0] = None;
        units[1] = None;
        units[2] = None;
        assert!(matches!(
            code.reconstruct(&mut units),
            Err(CodeError::TooManyErasures { erased: 3, .. })
        ));
    }

    proptest! {
        #[test]
        fn roundtrip_random_double_erasures(
            k in 2usize..12,
            len in 1usize..40,
            seed in any::<u64>(),
            e1 in any::<usize>(),
            e2 in any::<usize>(),
        ) {
            let code = Raid6::new(k).unwrap();
            let n = k + 2;
            let a = e1 % n;
            let b = e2 % n;
            let data = sample_data(k, len, seed);
            let parity = code.encode(&data).unwrap();
            let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
            let mut units: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
            units[a] = None;
            units[b] = None;
            code.reconstruct(&mut units).unwrap();
            for (i, u) in units.iter().enumerate() {
                prop_assert_eq!(u.as_deref(), Some(&full[i][..]));
            }
        }
    }
}
