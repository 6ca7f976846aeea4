//! Engine configuration: the solver backend, the optimizer and inner-loop
//! tolerances, and the framework presets (DALIA / INLA_DIST-like /
//! R-INLA-like) compared in the paper's Table I and evaluation section. The
//! worker count is the pool's (`DALIA_NUM_THREADS`), not a setting.

use crate::CoreError;

/// Which linear solver handles the factorization / solve / selected-inversion
/// bottleneck operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SolverBackend {
    /// Structured BTA solver (sequential when `partitions == 1`, otherwise the
    /// distributed nested-dissection variant with the given time-domain
    /// partition count and load-balancing factor). This is the DALIA /
    /// INLA_DIST path.
    Bta {
        /// Number of time-domain partitions (the S3 degree).
        partitions: usize,
        /// Load-balancing factor for the boundary partitions.
        load_balance: f64,
    },
    /// General simplicial sparse Cholesky (the PARDISO-like path used by the
    /// R-INLA baseline). Does not exploit the BTA structure.
    SparseGeneral,
}

/// Engine settings.
#[derive(Clone, Debug)]
pub struct InlaSettings {
    /// Human-readable framework name (shown in reports).
    pub name: String,
    /// Solver backend for the bottleneck operations.
    pub backend: SolverBackend,
    /// Maximum number of BFGS iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the gradient norm.
    pub grad_tol: f64,
    /// Finite-difference step for gradients and Hessians.
    pub fd_step: f64,
    /// Convergence tolerance of the inner Newton loop (‖Δx‖∞ on the latent
    /// mode update). Irrelevant for the Gaussian likelihood, which converges
    /// in one step.
    pub inner_tol: f64,
    /// Maximum inner Newton iterations per objective evaluation.
    pub inner_max_iter: usize,
}

impl InlaSettings {
    /// DALIA preset: structured solver with `partitions` time-domain
    /// partitions (S3) under the parallel gradient fan-out (S1).
    pub fn dalia(partitions: usize) -> Self {
        Self {
            name: format!("DALIA (S3={partitions})"),
            backend: SolverBackend::Bta { partitions, load_balance: 1.6 },
            max_iter: 50,
            grad_tol: 1e-3,
            fd_step: 1e-3,
            inner_tol: 1e-8,
            inner_max_iter: 50,
        }
    }

    /// INLA_DIST-like preset: sequential BTA solver, S1 only.
    pub fn inladist_like() -> Self {
        Self {
            name: "INLA_DIST-like".to_string(),
            backend: SolverBackend::Bta { partitions: 1, load_balance: 1.0 },
            max_iter: 50,
            grad_tol: 1e-3,
            fd_step: 1e-3,
            inner_tol: 1e-8,
            inner_max_iter: 50,
        }
    }

    /// R-INLA-like preset: general sparse solver, shared-memory nested
    /// parallelism over function evaluations only.
    pub fn rinla_like() -> Self {
        Self {
            name: "R-INLA-like".to_string(),
            backend: SolverBackend::SparseGeneral,
            max_iter: 50,
            grad_tol: 1e-3,
            fd_step: 1e-3,
            inner_tol: 1e-8,
            inner_max_iter: 50,
        }
    }

    /// Number of BTA partitions used by the backend (1 for the sparse path).
    pub fn partitions(&self) -> usize {
        match self.backend {
            SolverBackend::Bta { partitions, .. } => partitions,
            SolverBackend::SparseGeneral => 1,
        }
    }

    /// Validate the configuration, rejecting nonsense values instead of
    /// silently rewriting them. Called by
    /// [`InlaSessionBuilder::build`](crate::engine::InlaSessionBuilder::build).
    pub fn validate(&self) -> Result<(), CoreError> {
        if let SolverBackend::Bta { partitions, load_balance } = self.backend {
            if partitions == 0 {
                return Err(CoreError::InvalidSettings(
                    "backend partitions must be >= 1".to_string(),
                ));
            }
            if !load_balance.is_finite() || load_balance < 1.0 {
                return Err(CoreError::InvalidSettings(format!(
                    "load_balance must be finite and >= 1 (got {load_balance})"
                )));
            }
        }
        if !(self.fd_step > 0.0) || !self.fd_step.is_finite() {
            return Err(CoreError::InvalidSettings(format!(
                "fd_step must be a positive finite number (got {})",
                self.fd_step
            )));
        }
        if !(self.grad_tol > 0.0) || !self.grad_tol.is_finite() {
            return Err(CoreError::InvalidSettings(format!(
                "grad_tol must be a positive finite number (got {})",
                self.grad_tol
            )));
        }
        if !(self.inner_tol > 0.0) || !self.inner_tol.is_finite() {
            return Err(CoreError::InvalidSettings(format!(
                "inner_tol must be a positive finite number (got {})",
                self.inner_tol
            )));
        }
        if self.inner_max_iter == 0 {
            return Err(CoreError::InvalidSettings(
                "inner_max_iter must be >= 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// Qualitative feature matrix of the three frameworks (the paper's Table I).
pub fn feature_table() -> Vec<[String; 5]> {
    let rows = [
        ["Framework", "Modeling", "Parallelism", "Solver", "Scaling"],
        ["R-INLA", "Extensive (SM)", "Shared memory", "PARDISO-like sparse (SM)", "Single node"],
        ["INLA_DIST", "Spatio-temporal", "DM over evaluations", "BTA solver (SM)", "O(10) GPUs"],
        [
            "DALIA",
            "Spatio-temporal + coregional",
            "DM: S1 + S2 + S3 (nested)",
            "BTA solver (DM) + distributed triangular solve",
            "O(100) GPUs",
        ],
    ];
    rows.iter().map(|r| r.map(|s| s.to_string())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_reflect_table1() {
        let dalia = InlaSettings::dalia(4);
        assert_eq!(dalia.partitions(), 4);

        let inladist = InlaSettings::inladist_like();
        assert_eq!(inladist.partitions(), 1);
        assert!(matches!(inladist.backend, SolverBackend::Bta { .. }));

        let rinla = InlaSettings::rinla_like();
        assert!(matches!(rinla.backend, SolverBackend::SparseGeneral));
    }

    #[test]
    fn validate_accepts_presets_and_rejects_nonsense() {
        assert!(InlaSettings::dalia(1).validate().is_ok());
        assert!(InlaSettings::dalia(8).validate().is_ok());
        assert!(InlaSettings::inladist_like().validate().is_ok());
        assert!(InlaSettings::rinla_like().validate().is_ok());

        let mut s = InlaSettings::dalia(0);
        assert!(matches!(s.validate(), Err(CoreError::InvalidSettings(_))));
        s = InlaSettings::dalia(2);
        s.backend = SolverBackend::Bta { partitions: 2, load_balance: f64::NAN };
        assert!(s.validate().is_err());
        s.backend = SolverBackend::Bta { partitions: 2, load_balance: 0.5 };
        assert!(s.validate().is_err());
        s = InlaSettings::dalia(1);
        s.fd_step = 0.0;
        assert!(s.validate().is_err());
        s.fd_step = -1e-3;
        assert!(s.validate().is_err());
        s.fd_step = f64::NAN;
        assert!(s.validate().is_err());
        s = InlaSettings::rinla_like();
        s.grad_tol = 0.0;
        assert!(s.validate().is_err());
        s = InlaSettings::dalia(1);
        s.inner_tol = 0.0;
        assert!(s.validate().is_err());
        s.inner_tol = f64::INFINITY;
        assert!(s.validate().is_err());
        s = InlaSettings::dalia(1);
        s.inner_max_iter = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn feature_table_has_three_frameworks() {
        let t = feature_table();
        assert_eq!(t.len(), 4);
        assert_eq!(t[3][0], "DALIA");
    }
}
