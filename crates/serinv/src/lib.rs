//! # serinv — structured sparse solvers for BTA matrices
//!
//! Rust re-implementation of the structured solver layer that the DALIA paper
//! builds on (the Serinv library plus the paper's own distributed triangular
//! solve):
//!
//! * [`bta`] — block-dense storage of block-tridiagonal-with-arrowhead (BTA)
//!   matrices and their Cholesky factors,
//! * [`sequential`] — `pobtaf` / `pobtas` / `pobtasi` reference kernels
//!   (factorization, triangular solve, selected inversion),
//! * [`partition`] — time-domain partitioning with load balancing,
//! * [`distributed`] — `d_pobtaf` / `d_pobtas` / `d_pobtasi`, the
//!   nested-dissection partitioned variants executed in parallel over
//!   partitions (the in-process analogue of the paper's multi-GPU scheme),
//! * [`streaming`] — `pobtaf_extend` / `pobtaf_retire`, incremental
//!   trailing-block refactorization for sliding temporal windows,
//! * [`testing`] — deterministic SPD test matrices.

pub mod bta;
pub mod distributed;
pub mod partition;
pub mod sequential;
pub mod streaming;
pub mod testing;

pub use bta::{BtaCholesky, BtaMatrix};
pub use distributed::{
    d_pobtaf, d_pobtaf_scheduled, d_pobtas, d_pobtas_scheduled, d_pobtasi, d_pobtasi_scheduled,
    pobtaf_parallel, DistBtaCholesky, InteriorSchedule, PartitionFactor,
};
pub use partition::Partitioning;
pub use sequential::{
    pobtaf, pobtaf_with, pobtas, pobtas_lt, pobtas_with, pobtasi, pobtasi_with, BtaSelectedInverse,
};
pub use streaming::{
    pobtaf_extend, pobtaf_extend_scheduled, pobtaf_retire, pobtaf_retire_scheduled, StreamPacks,
};

/// Errors produced by the structured solvers.
#[derive(Clone, Debug, PartialEq)]
pub enum SerinvError {
    /// A diagonal block (or the reduced system / arrow tip) failed to
    /// factorize: the matrix is not positive definite.
    Factorization {
        /// Index of the offending block column (`n` refers to the arrow tip).
        block: usize,
        /// The underlying dense kernel error.
        source: dalia_la::LaError,
    },
    /// A log-determinant was requested from a factor whose diagonal holds a
    /// zero, negative or non-finite entry — the factorization did not produce
    /// a valid Cholesky factor (typically NaN model inputs that pass through
    /// `potrf`'s pivot check, since every comparison with NaN is false).
    IndefiniteLogdet {
        /// Index of the offending block (`n` refers to the arrow tip).
        block: usize,
        /// Row index of the offending diagonal entry within the block.
        index: usize,
        /// The offending factor diagonal value.
        value: f64,
    },
}

impl std::fmt::Display for SerinvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerinvError::Factorization { block, source } => {
                write!(f, "BTA factorization failed at block column {block}: {source}")
            }
            SerinvError::IndefiniteLogdet { block, index, value } => write!(
                f,
                "BTA factor is not a valid Cholesky factor: diagonal entry {index} of block \
                 {block} is {value} (expected a strictly positive finite pivot)"
            ),
        }
    }
}

impl std::error::Error for SerinvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SerinvError::Factorization {
            block: 3,
            source: dalia_la::LaError::NotPositiveDefinite { pivot: 1, value: -2.0 },
        };
        assert!(e.to_string().contains("block column 3"));
    }
}
