//! # dalia — accelerated spatio-temporal Bayesian modeling for multivariate GPs
//!
//! Umbrella crate of the DALIA-RS workspace: it re-exports the public API of
//! every sub-crate so that downstream users (and the examples in `examples/`)
//! can depend on a single crate.
//!
//! The workspace reproduces the system described in *"Accelerated
//! Spatio-Temporal Bayesian Modeling for Multivariate Gaussian Processes"*
//! (SC 2025): integrated nested Laplace approximations (INLA) for multivariate
//! spatio-temporal Gaussian processes built on a block-tridiagonal-arrowhead
//! (BTA) structured solver with a three-layer nested parallelization scheme.
//!
//! ```
//! use dalia::prelude::*;
//!
//! // Build a tiny univariate spatio-temporal model and evaluate the INLA
//! // objective twice through a stateful session (the second evaluation
//! // reuses the solver workspaces built by the first).
//! let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
//! let obs = vec![Observation {
//!     var: 0,
//!     t: 0,
//!     loc: Point::new(0.4, 0.6),
//!     covariates: vec![1.0],
//!     value: 0.3,
//! }];
//! let model = std::sync::Arc::new(CoregionalModel::new(&mesh, 2, 1.0, 1, 1, obs).unwrap());
//! let theta0 = ModelHyper::default_for(1, 0.5, 2.0).to_theta();
//! let session = InlaEngine::builder(&model)
//!     .prior(ThetaPrior::weakly_informative(&theta0, 3.0))
//!     .settings(InlaSettings::dalia(1))
//!     .build()
//!     .unwrap();
//! assert!(session.objective(&theta0).unwrap().is_finite());
//! assert!(session.objective(&theta0).unwrap().is_finite());
//! ```

/// The user guide (`docs/guide.md`), included so that every Rust snippet in
/// it is compiled and executed as a doctest by `cargo test` — the guide
/// cannot drift from the API without CI noticing.
#[cfg(doctest)]
#[doc = include_str!("../docs/guide.md")]
pub struct GuideDoctests;

pub use dalia_core as core;
pub use dalia_data as data;
pub use dalia_pool as pool;
pub use dalia_hpc as hpc;
pub use dalia_la as la;
pub use dalia_mesh as mesh;
pub use dalia_model as model;
pub use dalia_serve as serve;
pub use dalia_sparse as sparse;
pub use dalia_spde as spde;
pub use serinv;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use dalia_core::{
        conditional_mode, normal_quantile, predict, response_correlations, InlaEngine,
        InlaResult, InlaSession, InlaSessionBuilder, InlaSettings, InnerModeResult,
        InnerSettings, LatentSolver, PhaseTimers, PosteriorSnapshot, SolverBackend,
        StreamingWindow, VarianceMode,
    };
    pub use dalia_data::{
        generate_count_dataset, generate_exceedance_dataset, generate_pollution_dataset,
        generate_univariate_dataset, observation_grid, DatasetConfig, StreamingSource,
    };
    pub use dalia_hpc::{dalia_iteration_time, gh200, rinla_iteration_time, ModelDims as PerfModelDims};
    pub use dalia_la::{Matrix, PackBuffer};
    pub use dalia_mesh::{Domain, Point, TriangleMesh};
    pub use dalia_model::{
        CoregionalModel, Likelihood, ModelHyper, Observation, PredictionTarget, ThetaPrior,
    };
    pub use dalia_serve::{InlaService, ServeConfig, Served};
    pub use dalia_sparse::{CooMatrix, CsrMatrix, Permutation, SparseCholesky};
    pub use dalia_spde::{SpatialSpde, SpatioTemporalSpde, StHyper};
    pub use serinv::{d_pobtaf, d_pobtas, d_pobtasi, pobtaf, pobtas, pobtasi, BtaMatrix, Partitioning};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let m = Matrix::identity(2);
        assert_eq!(m.trace(), 2.0);
        let d = Domain::unit_square();
        assert!(d.contains(&Point::new(0.5, 0.5)));
    }
}
