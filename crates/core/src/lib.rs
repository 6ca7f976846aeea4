//! # dalia-core — the DALIA INLA engine
//!
//! The paper's primary contribution: integrated nested Laplace approximations
//! for multivariate spatio-temporal Gaussian processes on top of the
//! structured BTA solver stack, with the three nested parallelization
//! strategies and the R-INLA / INLA_DIST baseline configurations.
//!
//! * [`settings`] — solver backends and framework presets (Table I),
//! * [`solver`] — the [`solver::LatentSolver`] backend trait with two
//!   stateful implementations (BTA at any partition count, general sparse
//!   Cholesky) whose workspaces are amortized across evaluations,
//! * [`objective`] — the objective `f_obj(θ)` of Eq. 8 and the inner Newton
//!   loop [`objective::conditional_mode`] locating the latent conditional
//!   mode under non-Gaussian likelihoods,
//! * [`optimizer`] — parallel central-difference gradients (Eq. 10, S1) and
//!   BFGS, plus the finite-difference Hessian at the mode,
//! * [`posterior`] — hyperparameter marginals, latent marginals via selected
//!   inversion, fixed-effect summaries, response correlations and prediction,
//! * [`engine`] — the end-to-end [`engine::InlaSession`], built via
//!   [`engine::InlaEngine::builder`],
//! * [`snapshot`] — the immutable, `Arc`-shareable
//!   [`snapshot::PosteriorSnapshot`] extracted from a completed fit, the
//!   read-only artifact the `dalia-serve` crate serves concurrent predictive
//!   queries from.

pub mod engine;
pub mod objective;
pub mod optimizer;
pub mod posterior;
pub mod settings;
pub mod snapshot;
pub mod solver;

pub use engine::{InlaEngine, InlaResult, InlaSession, InlaSessionBuilder, StreamingWindow};
pub use objective::{
    conditional_mode, evaluate_fobj_with, evaluate_fobj_with_inner, FobjResult, InnerModeResult,
    InnerSettings,
};
pub use optimizer::{evaluate_gradient, maximize_fobj, negative_hessian, OptimizationResult};
pub use posterior::{
    fixed_effect_summaries, latent_marginals, normal_quantile, predict, response_correlations,
    FixedEffectSummary, HyperMarginals, LatentMarginals, Prediction,
};
pub use settings::{feature_table, InlaSettings, SolverBackend};
pub use snapshot::{PosteriorSnapshot, SnapshotFactor, VarianceMode};
pub use solver::{LatentSolver, PhaseTimers, SparseCholeskySolver};

/// Errors produced by the INLA engine.
#[derive(Clone, Debug)]
pub enum CoreError {
    /// The structured solver failed (matrix not positive definite).
    Solver(serinv::SerinvError),
    /// The general sparse solver failed.
    SparseSolver(dalia_sparse::SparseError),
    /// A model-building error (bad observations, locations outside the mesh).
    Model(dalia_model::ModelError),
    /// The objective evaluated to a non-finite value.
    NonFiniteObjective,
    /// The Hessian at the mode could not be inverted.
    HessianNotPositiveDefinite,
    /// The engine settings failed validation (see [`InlaSettings::validate`]).
    InvalidSettings(String),
    /// A streaming window update was rejected before touching the solver
    /// (wrong observation time indices, non-Gaussian likelihood, window
    /// shrunk to nothing — see [`engine::StreamingWindow`]).
    InvalidWindowUpdate(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Solver(e) => write!(f, "structured solver error: {e}"),
            CoreError::SparseSolver(e) => write!(f, "sparse solver error: {e}"),
            CoreError::Model(e) => write!(f, "model error: {e}"),
            CoreError::NonFiniteObjective => write!(f, "objective evaluated to a non-finite value"),
            CoreError::HessianNotPositiveDefinite => {
                write!(f, "negative Hessian at the mode is not positive definite")
            }
            CoreError::InvalidSettings(reason) => write!(f, "invalid engine settings: {reason}"),
            CoreError::InvalidWindowUpdate(reason) => {
                write!(f, "invalid streaming window update: {reason}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<serinv::SerinvError> for CoreError {
    fn from(e: serinv::SerinvError) -> Self {
        CoreError::Solver(e)
    }
}

impl From<dalia_sparse::SparseError> for CoreError {
    fn from(e: dalia_sparse::SparseError) -> Self {
        CoreError::SparseSolver(e)
    }
}

impl From<dalia_model::ModelError> for CoreError {
    fn from(e: dalia_model::ModelError) -> Self {
        CoreError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_from() {
        let e: CoreError = serinv::SerinvError::Factorization {
            block: 0,
            source: dalia_la::LaError::NotPositiveDefinite { pivot: 0, value: -1.0 },
        }
        .into();
        assert!(e.to_string().contains("structured solver"));
        assert!(CoreError::NonFiniteObjective.to_string().contains("non-finite"));
    }
}
