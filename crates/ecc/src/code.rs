//! The [`ErasureCode`] trait, its error type, and update-cost accounting.

use std::fmt;

/// Errors raised by erasure-code operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The code parameters are not representable (e.g. `k + m > 256` for
    /// GF(2^8)-based codes, or a zero count).
    InvalidParameters {
        /// Data units requested.
        k: usize,
        /// Parity units requested.
        m: usize,
    },
    /// The number of units passed does not match the code geometry.
    WrongUnitCount {
        /// Units found.
        found: usize,
        /// Units expected.
        expected: usize,
    },
    /// Units have differing lengths.
    UnequalUnitLength,
    /// More units are erased than the code can reconstruct.
    TooManyErasures {
        /// Number of erased units.
        erased: usize,
        /// Fault tolerance of the code.
        tolerance: usize,
    },
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParameters { k, m } => {
                write!(f, "invalid code parameters k={k}, m={m}")
            }
            Self::WrongUnitCount { found, expected } => {
                write!(f, "got {found} units, expected {expected}")
            }
            Self::UnequalUnitLength => write!(f, "units have differing lengths"),
            Self::TooManyErasures { erased, tolerance } => {
                write!(f, "{erased} erasures exceed fault tolerance {tolerance}")
            }
        }
    }
}

impl std::error::Error for CodeError {}

/// The write amplification of a single data-unit update: how many units must
/// be written in total (the data unit itself plus every parity unit that
/// depends on it).
///
/// For an MDS code tolerating `t` erasures the minimum is `t` parity writes,
/// so `total_writes() == t + 1` is *update-optimal* — the property the
/// OI-RAID abstract claims and experiment E4 tabulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateCost {
    data_writes: usize,
    parity_writes: usize,
}

impl UpdateCost {
    /// Creates an update cost of `data_writes` data-unit writes and
    /// `parity_writes` parity-unit writes.
    pub fn new(data_writes: usize, parity_writes: usize) -> Self {
        Self {
            data_writes,
            parity_writes,
        }
    }

    /// Writes landing on data units (1 for coded schemes, `n` for mirrors).
    pub fn data_writes(&self) -> usize {
        self.data_writes
    }

    /// Writes landing on parity units.
    pub fn parity_writes(&self) -> usize {
        self.parity_writes
    }

    /// Total units written per user write.
    pub fn total_writes(&self) -> usize {
        self.data_writes + self.parity_writes
    }

    /// Whether this cost is optimal for a code of fault tolerance `t`
    /// (1 data write + exactly `t` parity writes).
    pub fn is_optimal_for_tolerance(&self, t: usize) -> bool {
        self.data_writes == 1 && self.parity_writes == t
    }
}

impl fmt::Display for UpdateCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} writes ({} data + {} parity)",
            self.total_writes(),
            self.data_writes,
            self.parity_writes
        )
    }
}

/// A systematic erasure code over equal-length byte units.
///
/// Units are indexed `0..total_units()`: data units first
/// (`0..data_units()`), parity units after. [`ErasureCode::reconstruct`]
/// fills in `None` entries in place from the survivors.
///
/// The trait is object-safe; layouts hold `Box<dyn ErasureCode>`.
pub trait ErasureCode: fmt::Debug + Send + Sync {
    /// Number of data units `k`.
    fn data_units(&self) -> usize;

    /// Number of parity units `m`.
    fn parity_units(&self) -> usize;

    /// Total units `k + m`.
    fn total_units(&self) -> usize {
        self.data_units() + self.parity_units()
    }

    /// Number of arbitrary unit erasures the code always survives.
    fn fault_tolerance(&self) -> usize;

    /// Computes the parity units for `data` (length `k`, equal-length
    /// buffers).
    ///
    /// # Errors
    ///
    /// [`CodeError::WrongUnitCount`] or [`CodeError::UnequalUnitLength`] on
    /// malformed input.
    fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodeError>;

    /// Reconstructs every `None` unit in place.
    ///
    /// # Errors
    ///
    /// [`CodeError::TooManyErasures`] if the erasure pattern is not
    /// decodable, plus the malformed-input errors of [`ErasureCode::encode`].
    fn reconstruct(&self, units: &mut [Option<Vec<u8>>]) -> Result<(), CodeError>;

    /// Indices of parity units that must be rewritten when data unit
    /// `data_index` changes. For MDS codes this is all of them.
    ///
    /// # Panics
    ///
    /// Panics if `data_index >= data_units()`.
    fn parity_dependencies(&self, data_index: usize) -> Vec<usize> {
        assert!(data_index < self.data_units());
        (self.data_units()..self.total_units()).collect()
    }

    /// The write amplification of a single data-unit update.
    fn update_cost(&self) -> UpdateCost {
        UpdateCost::new(1, self.parity_units())
    }

    /// Storage efficiency: fraction of raw capacity holding user data.
    fn efficiency(&self) -> f64 {
        self.data_units() as f64 / self.total_units() as f64
    }

    /// Human-readable code name, e.g. `RAID5(4+1)`.
    fn name(&self) -> String;
}

/// Validates unit shape shared by the implementations: `units.len()` must be
/// `expected` and all present buffers equal length; returns that length.
pub(crate) fn validate_units(
    units: &[Option<Vec<u8>>],
    expected: usize,
) -> Result<usize, CodeError> {
    if units.len() != expected {
        return Err(CodeError::WrongUnitCount {
            found: units.len(),
            expected,
        });
    }
    let mut len = None;
    for u in units.iter().flatten() {
        match len {
            None => len = Some(u.len()),
            Some(l) if l != u.len() => return Err(CodeError::UnequalUnitLength),
            _ => {}
        }
    }
    len.ok_or(CodeError::TooManyErasures {
        erased: expected,
        tolerance: 0,
    })
}

/// Validates a dense data slice for `encode`.
pub(crate) fn validate_data(data: &[Vec<u8>], expected: usize) -> Result<usize, CodeError> {
    if data.len() != expected {
        return Err(CodeError::WrongUnitCount {
            found: data.len(),
            expected,
        });
    }
    let len = data.first().map(|d| d.len()).unwrap_or(0);
    if data.iter().any(|d| d.len() != len) {
        return Err(CodeError::UnequalUnitLength);
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_cost_accessors() {
        let c = UpdateCost::new(1, 3);
        assert_eq!(c.total_writes(), 4);
        assert!(c.is_optimal_for_tolerance(3));
        assert!(!c.is_optimal_for_tolerance(2));
        assert_eq!(c.to_string(), "4 writes (1 data + 3 parity)");
    }

    #[test]
    fn validate_units_catches_shape_errors() {
        let units = vec![Some(vec![0u8; 4]), Some(vec![0u8; 5])];
        assert_eq!(
            validate_units(&units, 2).unwrap_err(),
            CodeError::UnequalUnitLength
        );
        assert!(matches!(
            validate_units(&units, 3).unwrap_err(),
            CodeError::WrongUnitCount { .. }
        ));
        let all_gone: Vec<Option<Vec<u8>>> = vec![None, None];
        assert!(matches!(
            validate_units(&all_gone, 2).unwrap_err(),
            CodeError::TooManyErasures { .. }
        ));
    }

    #[test]
    fn error_display() {
        let e = CodeError::TooManyErasures {
            erased: 3,
            tolerance: 1,
        };
        assert_eq!(e.to_string(), "3 erasures exceed fault tolerance 1");
    }
}
