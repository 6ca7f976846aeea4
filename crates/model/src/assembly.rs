//! The multivariate (coregional) spatio-temporal latent Gaussian model and the
//! assembly of its prior and conditional precision matrices.
//!
//! The model follows Sec. II and Sec. IV-B of the paper:
//!
//! * `nv` latent spatio-temporal processes, each an SPDE-based GMRF with unit
//!   marginal variance and its own spatial/temporal range,
//! * a linear model of coregionalization `y = Λ A x + ε` with lower-triangular
//!   Λ carrying the scales σ_i and couplings λ_j,
//! * `nr` fixed effects per process with a vague Gaussian prior,
//! * Gaussian observation noise with per-variable precision τ_i.
//!
//! The joint precision (Eq. 11) is assembled directly in the *permuted*
//! time-major ordering (Fig. 2c), either into the block-dense BTA workspace of
//! the structured solver (the DALIA path) or into a general CSR matrix (the
//! R-INLA baseline path).

use crate::hyper::ModelHyper;
use crate::likelihood::Likelihood;
use crate::observations::{
    build_design, fixed_column, project_point, Observation, PredictionTarget, Projection,
};
use crate::ModelError;
use dalia_mesh::TriangleMesh;
use dalia_sparse::{coregional_permutation, ops, CooMatrix, CsrMatrix};
use dalia_spde::SpatioTemporalSpde;
use serinv::BtaMatrix;

/// Dimensions of the latent field and its BTA representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelDims {
    /// Number of response variables.
    pub nv: usize,
    /// Spatial mesh size.
    pub ns: usize,
    /// Number of time steps.
    pub nt: usize,
    /// Number of fixed effects per process.
    pub nr: usize,
}

impl ModelDims {
    /// Diagonal block size `b = nv·ns`.
    pub fn block_size(&self) -> usize {
        self.nv * self.ns
    }

    /// Arrow tip size `a = nv·nr`.
    pub fn arrow_size(&self) -> usize {
        self.nv * self.nr
    }

    /// Total latent dimension `N = nv(ns·nt + nr)`.
    pub fn latent_dim(&self) -> usize {
        self.nv * (self.ns * self.nt + self.nr)
    }
}

/// The coregional spatio-temporal latent Gaussian model.
pub struct CoregionalModel {
    /// Shared spatio-temporal SPDE operators (same mesh and time grid for all
    /// processes, as in the paper).
    pub spde: SpatioTemporalSpde,
    /// Model dimensions.
    pub dims: ModelDims,
    /// Prior precision of the fixed effects (vague).
    pub fixed_prior_prec: f64,
    /// The observations.
    pub observations: Vec<Observation>,
    /// Observed values, in observation order.
    pub y: Vec<f64>,
    /// The spatial mesh (kept for prediction-time projections).
    pub mesh: TriangleMesh,
    projections: Vec<Projection>,
    vars: Vec<usize>,
    times: Vec<usize>,
    covariates: Vec<Vec<f64>>,
    likelihood: Likelihood,
    obs_scale: Vec<f64>,
}

impl CoregionalModel {
    /// Build a model on `mesh` with `nt` time steps of length `dt`, `nv`
    /// response variables and `nr` fixed effects per process.
    pub fn new(
        mesh: &TriangleMesh,
        nt: usize,
        dt: f64,
        nv: usize,
        nr: usize,
        observations: Vec<Observation>,
    ) -> Result<Self, ModelError> {
        assert!(nv >= 1, "need at least one response variable");
        let spde = SpatioTemporalSpde::new(mesh, nt, dt);
        let dims = ModelDims { nv, ns: spde.ns, nt, nr };
        let mut projections = Vec::with_capacity(observations.len());
        let mut vars = Vec::with_capacity(observations.len());
        let mut times = Vec::with_capacity(observations.len());
        let mut covariates = Vec::with_capacity(observations.len());
        let mut y = Vec::with_capacity(observations.len());
        for (i, obs) in observations.iter().enumerate() {
            if obs.var >= nv {
                return Err(ModelError::InvalidObservation { index: i, reason: "response-variable index out of range".into() });
            }
            if obs.t >= nt {
                return Err(ModelError::InvalidObservation { index: i, reason: "time index out of range".into() });
            }
            if obs.covariates.len() != nr {
                return Err(ModelError::InvalidObservation { index: i, reason: "covariate length mismatch".into() });
            }
            projections.push(project_point(mesh, &obs.loc)?);
            vars.push(obs.var);
            times.push(obs.t);
            covariates.push(obs.covariates.clone());
            y.push(obs.value);
        }
        let n_obs = y.len();
        Ok(Self {
            spde,
            dims,
            fixed_prior_prec: 1e-3,
            observations,
            y,
            mesh: mesh.clone(),
            projections,
            vars,
            times,
            covariates,
            likelihood: Likelihood::Gaussian,
            obs_scale: vec![1.0; n_obs],
        })
    }

    /// Switch the observation likelihood family, validating every observed
    /// value against the family's support (counts nonnegative for Poisson,
    /// `0 ≤ y ≤ trials` for binomial data). Gaussian remains the default of
    /// [`CoregionalModel::new`].
    pub fn with_likelihood(mut self, likelihood: Likelihood) -> Result<Self, ModelError> {
        for (i, (&y, &s)) in self.y.iter().zip(&self.obs_scale).enumerate() {
            likelihood.validate_value(y, s).map_err(|reason| {
                ModelError::InvalidObservation { index: i, reason }
            })?;
        }
        self.likelihood = likelihood;
        Ok(self)
    }

    /// Attach per-observation scales — the Poisson exposure `E_i` or binomial
    /// trial count `n_i` (unused by the Gaussian family). Must be positive and
    /// match the observation count; the observed values are re-validated
    /// against the current likelihood under the new scales.
    pub fn with_observation_scales(mut self, scales: Vec<f64>) -> Result<Self, ModelError> {
        if scales.len() != self.y.len() {
            return Err(ModelError::InvalidObservation {
                index: scales.len().min(self.y.len()),
                reason: format!(
                    "scale count {} does not match observation count {}",
                    scales.len(),
                    self.y.len()
                ),
            });
        }
        for (i, &s) in scales.iter().enumerate() {
            if !s.is_finite() || s <= 0.0 {
                return Err(ModelError::InvalidObservation {
                    index: i,
                    reason: format!("observation scale {s} must be positive and finite"),
                });
            }
        }
        self.obs_scale = scales;
        for (i, (&y, &s)) in self.y.iter().zip(&self.obs_scale).enumerate() {
            self.likelihood.validate_value(y, s).map_err(|reason| {
                ModelError::InvalidObservation { index: i, reason }
            })?;
        }
        Ok(self)
    }

    /// The observation likelihood family.
    pub fn likelihood(&self) -> Likelihood {
        self.likelihood
    }

    /// Per-observation scales (exposure / trials; all `1.0` by default).
    pub fn observation_scales(&self) -> &[f64] {
        &self.obs_scale
    }

    /// Number of observations.
    pub fn n_obs(&self) -> usize {
        self.y.len()
    }

    /// The joint design matrix `Λ·A` in permuted ordering for the given
    /// hyperparameters.
    pub fn joint_design(&self, hyper: &ModelHyper) -> CsrMatrix {
        build_design(
            hyper,
            &self.projections,
            &self.vars,
            &self.times,
            &self.covariates,
            self.dims.nv,
            self.dims.ns,
            self.dims.nt,
            self.dims.nr,
        )
    }

    /// Design matrix for arbitrary prediction targets (posterior prediction /
    /// downscaling). Equivalent to [`prediction_plan`](Self::prediction_plan)
    /// followed by [`PredictionPlan::design`]; callers that evaluate the same
    /// targets more than once (mean and variance passes of a serving query,
    /// several hyperparameter values) should build the plan once instead.
    pub fn prediction_design(
        &self,
        hyper: &ModelHyper,
        targets: &[PredictionTarget],
    ) -> Result<CsrMatrix, ModelError> {
        Ok(self.prediction_plan(targets)?.design(hyper))
    }

    /// Resolve prediction targets against the mesh once, producing a reusable
    /// [`PredictionPlan`].
    ///
    /// The mesh walk (point location + P1 barycentric weights) is the
    /// hyperparameter-independent part of prediction-design assembly; a plan
    /// performs it once per target set and then stamps out design matrices for
    /// any `θ`. The plan also validates the targets' variable/time indices and
    /// covariate lengths up front, with the same diagnostics the constructor
    /// applies to observations, instead of silently assembling an
    /// inconsistent design.
    pub fn prediction_plan(
        &self,
        targets: &[PredictionTarget],
    ) -> Result<PredictionPlan, ModelError> {
        let d = self.dims;
        let mut projections = Vec::with_capacity(targets.len());
        let mut vars = Vec::with_capacity(targets.len());
        let mut times = Vec::with_capacity(targets.len());
        let mut covariates = Vec::with_capacity(targets.len());
        for (i, t) in targets.iter().enumerate() {
            if t.var >= d.nv {
                return Err(ModelError::InvalidObservation {
                    index: i,
                    reason: "prediction target response-variable index out of range".into(),
                });
            }
            if t.t >= d.nt {
                return Err(ModelError::InvalidObservation {
                    index: i,
                    reason: "prediction target time index out of range".into(),
                });
            }
            if t.covariates.len() != d.nr {
                return Err(ModelError::InvalidObservation {
                    index: i,
                    reason: "prediction target covariate length mismatch".into(),
                });
            }
            projections.push(project_point(&self.mesh, &t.loc)?);
            vars.push(t.var);
            times.push(t.t);
            covariates.push(t.covariates.clone());
        }
        Ok(PredictionPlan { dims: d, projections, vars, times, covariates })
    }

    /// Observation noise precisions per observation row (the diagonal of `D`
    /// under the Gaussian likelihood).
    pub fn noise_diag(&self, hyper: &ModelHyper) -> Vec<f64> {
        self.vars.iter().map(|&v| hyper.noise_prec[v]).collect()
    }

    /// Working weights `w_i(η) = −∂²ℓ_i/∂η²` at the linear predictor `eta`
    /// (one entry per observation). For the Gaussian family this is
    /// `noise_diag` independently of `eta`; for Poisson/Bernoulli it is the
    /// diagonal perturbation the inner Newton loop re-assembles `Q_c` from.
    pub fn working_weights(&self, hyper: &ModelHyper, eta: &[f64]) -> Vec<f64> {
        match self.likelihood {
            Likelihood::Gaussian => self.noise_diag(hyper),
            lik => eta
                .iter()
                .zip(&self.obs_scale)
                .map(|(&e, &s)| lik.working_weight(e, s, 0.0))
                .collect(),
        }
    }

    /// Working weights at `η = 0` — the weights `extend_qp_to_qc` seeds the
    /// first conditional factorization with. Gaussian: `τ_v` per observation
    /// (bitwise [`noise_diag`](Self::noise_diag)); Poisson: the exposures
    /// `E_i`; binomial: `n_i/4`.
    pub fn initial_working_weights(&self, hyper: &ModelHyper) -> Vec<f64> {
        match self.likelihood {
            Likelihood::Gaussian => self.noise_diag(hyper),
            lik => self.obs_scale.iter().map(|&s| lik.working_weight(0.0, s, 0.0)).collect(),
        }
    }

    /// Per-observation scores `g_i(η) = ∂ℓ_i/∂η` at the linear predictor
    /// `eta`.
    pub fn likelihood_scores(&self, hyper: &ModelHyper, eta: &[f64]) -> Vec<f64> {
        match self.likelihood {
            Likelihood::Gaussian => {
                let d_diag = self.noise_diag(hyper);
                self.y
                    .iter()
                    .zip(eta)
                    .zip(&d_diag)
                    .map(|((y, e), tau)| tau * (y - e))
                    .collect()
            }
            lik => self
                .y
                .iter()
                .zip(eta)
                .zip(&self.obs_scale)
                .map(|((&y, &e), &s)| lik.score(y, e, s, 0.0))
                .collect(),
        }
    }

    /// Assemble the joint prior precision `Q_p` (Eq. 11) as a BTA matrix in
    /// the permuted time-major ordering.
    pub fn assemble_qp_bta(&self, hyper: &ModelHyper) -> BtaMatrix {
        let d = &self.dims;
        let mut bta = BtaMatrix::zeros(d.nt, d.block_size(), d.arrow_size());
        self.assemble_qp_bta_into(hyper, &mut bta);
        bta
    }

    /// Assemble `Q_p` into pre-allocated BTA block storage (zeroed and
    /// re-filled in place). `bta` must have the model's block structure
    /// `(nt, nv·ns, nv·nr)`. Stateful solver sessions use this to amortize the
    /// block allocation across the many θ evaluations of an INLA run.
    pub fn assemble_qp_bta_into(&self, hyper: &ModelHyper, bta: &mut BtaMatrix) {
        let d = &self.dims;
        let (b, a) = (d.block_size(), d.arrow_size());
        assert_eq!(
            (bta.n, bta.b, bta.a),
            (d.nt, b, a),
            "assemble_qp_bta_into: workspace block structure mismatch"
        );
        bta.set_zero();
        let coefs = hyper.coregional_coefficients();

        for i in 0..d.nv {
            let gamma = hyper.internal(i);
            let q1 = self.spde.spatial.q1(gamma.gamma_s);
            let q2 = self.spde.spatial.q2(gamma.gamma_s);
            let q3 = self.spde.spatial.q3(gamma.gamma_s);
            let ge2 = gamma.gamma_e * gamma.gamma_e;
            let gt = gamma.gamma_t;
            let temporal = &self.spde.temporal;

            for t in 0..d.nt {
                // Diagonal block coefficients of process i at time (t, t).
                let c2 = ge2 * gt * gt * temporal.m2.get(t, t);
                let c1 = ge2 * 2.0 * gt * temporal.m1.get(t, t);
                let c0 = ge2 * temporal.m0.get(t, t);
                for k in 0..d.nv {
                    for l in 0..d.nv {
                        let w = coefs[i][(k, l)];
                        if w == 0.0 {
                            continue;
                        }
                        q1.add_dense_block_into(0, 0, w * c2, &mut bta.diag[t], k * d.ns, l * d.ns);
                        q2.add_dense_block_into(0, 0, w * c1, &mut bta.diag[t], k * d.ns, l * d.ns);
                        q3.add_dense_block_into(0, 0, w * c0, &mut bta.diag[t], k * d.ns, l * d.ns);
                    }
                }
                if t + 1 < d.nt {
                    // Sub-diagonal block at (t+1, t).
                    let s2 = ge2 * gt * gt * temporal.m2.get(t + 1, t);
                    let s1 = ge2 * 2.0 * gt * temporal.m1.get(t + 1, t);
                    let s0 = ge2 * temporal.m0.get(t + 1, t);
                    if s2 != 0.0 || s1 != 0.0 || s0 != 0.0 {
                        for k in 0..d.nv {
                            for l in 0..d.nv {
                                let w = coefs[i][(k, l)];
                                if w == 0.0 {
                                    continue;
                                }
                                q1.add_dense_block_into(0, 0, w * s2, &mut bta.sub[t], k * d.ns, l * d.ns);
                                q2.add_dense_block_into(0, 0, w * s1, &mut bta.sub[t], k * d.ns, l * d.ns);
                                q3.add_dense_block_into(0, 0, w * s0, &mut bta.sub[t], k * d.ns, l * d.ns);
                            }
                        }
                    }
                }
            }

            // Fixed-effect prior: ε·I per process, mixed by the coregional
            // coefficients.
            for k in 0..d.nv {
                for l in 0..d.nv {
                    let w = coefs[i][(k, l)];
                    if w == 0.0 {
                        continue;
                    }
                    for r in 0..d.nr {
                        bta.tip[(k * d.nr + r, l * d.nr + r)] += w * self.fixed_prior_prec;
                    }
                }
            }
        }
    }

    /// Assemble the conditional precision `Q_c = Q_p + Aᵀ D A` (Eq. 4) as a
    /// BTA matrix, together with the joint design matrix used.
    pub fn assemble_qc_bta(&self, hyper: &ModelHyper) -> (BtaMatrix, CsrMatrix) {
        let d = &self.dims;
        let mut bta = BtaMatrix::zeros(d.nt, d.block_size(), d.arrow_size());
        let design = self.assemble_qc_bta_into(hyper, &mut bta);
        (bta, design)
    }

    /// Assemble `Q_c` into pre-allocated BTA block storage, returning the
    /// joint design matrix used. See [`Self::assemble_qp_bta_into`] for the
    /// workspace contract.
    pub fn assemble_qc_bta_into(&self, hyper: &ModelHyper, bta: &mut BtaMatrix) -> CsrMatrix {
        self.assemble_qp_bta_into(hyper, bta);
        self.extend_qp_to_qc(hyper, bta, &mut CsrMatrix::zeros(0, 0))
    }

    /// Turn a workspace currently holding `Q_p` values into `Q_c` by adding
    /// the observation information `Aᵀ W A`, returning the joint design
    /// matrix. Lets callers that need *both* matrices assemble `Q_p` once,
    /// copy it, and extend the copy. `W` is the Gaussian noise-precision
    /// diagonal, or for non-Gaussian families the working weights at `η = 0`
    /// (the inner Newton loop's starting point; the loop re-assembles the
    /// perturbation from updated weights as it iterates). `Aᵀ W A` is built
    /// in `congruence`, whose storage a caller extending once per θ keeps.
    pub fn extend_qp_to_qc(
        &self,
        hyper: &ModelHyper,
        bta: &mut BtaMatrix,
        congruence: &mut CsrMatrix,
    ) -> CsrMatrix {
        let design = self.joint_design(hyper);
        let d_diag = self.initial_working_weights(hyper);
        ops::congruence_diag_into(&design, &d_diag, congruence);
        self.add_congruence_to_bta(congruence, bta);
        design
    }

    /// Map a congruence matrix `AᵀDA` (in permuted ordering) onto the BTA
    /// pattern: the observation structure only populates diagonal blocks,
    /// arrow blocks and the tip (Sec. IV-F's sparse→block-dense mapping).
    pub fn add_congruence_to_bta(&self, congruence: &CsrMatrix, bta: &mut BtaMatrix) {
        let d = &self.dims;
        let b = d.block_size();
        let a = d.arrow_size();
        let a0 = d.nt * b;
        for t in 0..d.nt {
            congruence.add_dense_block_into(t * b, t * b, 1.0, &mut bta.diag[t], 0, 0);
            if a > 0 {
                congruence.add_dense_block_into(a0, t * b, 1.0, &mut bta.arrow[t], 0, 0);
            }
        }
        if a > 0 {
            congruence.add_dense_block_into(a0, a0, 1.0, &mut bta.tip, 0, 0);
        }
    }

    /// Assemble the joint prior precision as a general CSR matrix.
    ///
    /// With `permuted = true` the time-major (BTA-patterned) ordering is used;
    /// with `permuted = false` the natural by-process ordering of Eq. 11 is
    /// returned (the ordering a general-purpose solver would be handed).
    pub fn assemble_qp_csr(&self, hyper: &ModelHyper, permuted: bool) -> CsrMatrix {
        let d = &self.dims;
        let per_process = d.ns * d.nt + d.nr;
        let total = d.nv * per_process;
        let coefs = hyper.coregional_coefficients();
        let mut coo = CooMatrix::new(total, total);
        for i in 0..d.nv {
            let gamma = hyper.internal(i);
            let q_st = self.spde.precision_internal(&gamma);
            for k in 0..d.nv {
                for l in 0..d.nv {
                    let w = coefs[i][(k, l)];
                    if w == 0.0 {
                        continue;
                    }
                    for r in 0..q_st.nrows() {
                        for (c, v) in q_st.row_iter(r) {
                            coo.push(k * per_process + r, l * per_process + c, w * v);
                        }
                    }
                    for r in 0..d.nr {
                        coo.push(
                            k * per_process + d.ns * d.nt + r,
                            l * per_process + d.ns * d.nt + r,
                            w * self.fixed_prior_prec,
                        );
                    }
                }
            }
        }
        let q = coo.to_csr();
        if permuted {
            let perm = coregional_permutation(d.nv, d.ns, d.nt, d.nr);
            perm.apply_sym(&q)
        } else {
            q
        }
    }

    /// Assemble the conditional precision as a general CSR matrix (baseline
    /// path). The design matrix is built in permuted ordering and un-permuted
    /// when `permuted = false`.
    pub fn assemble_qc_csr(&self, hyper: &ModelHyper, permuted: bool) -> CsrMatrix {
        let qp = self.assemble_qp_csr(hyper, permuted);
        let design_perm = self.joint_design(hyper);
        let d_diag = self.initial_working_weights(hyper);
        let design = if permuted {
            design_perm
        } else {
            let perm = coregional_permutation(self.dims.nv, self.dims.ns, self.dims.nt, self.dims.nr);
            // Columns of the permuted design correspond to permuted latent
            // indices; map them back to the natural ordering.
            perm.inverse().apply_cols(&design_perm)
        };
        let congruence = ops::congruence_diag(&design, &d_diag);
        ops::add(1.0, &qp, 1.0, &congruence)
    }

    /// Information vector `Aᵀ D y` (the right-hand side of the *Gaussian*
    /// conditional mean equation `Q_c μ = Aᵀ D y`), in permuted ordering. For
    /// non-Gaussian families the inner Newton loop builds the analogous
    /// working right-hand side `Aᵀ(W η + g)` per iteration instead.
    pub fn information_vector(&self, hyper: &ModelHyper, design: &CsrMatrix) -> Vec<f64> {
        let d_diag = self.noise_diag(hyper);
        let weighted: Vec<f64> = self.y.iter().zip(&d_diag).map(|(y, d)| y * d).collect();
        design.spmv_t(&weighted)
    }

    /// Log-likelihood `log ℓ(y | θ, x)` at the latent configuration `x`
    /// (permuted ordering), under the model's likelihood family.
    pub fn log_likelihood(&self, hyper: &ModelHyper, design: &CsrMatrix, x: &[f64]) -> f64 {
        let fitted = design.spmv(x);
        self.log_likelihood_at_eta(hyper, &fitted)
    }

    /// Log-likelihood `Σ_i ℓ_i(η_i)` at an already-computed linear predictor
    /// `eta` (what the inner loop's line search evaluates without repeating
    /// the design product).
    pub fn log_likelihood_at_eta(&self, hyper: &ModelHyper, eta: &[f64]) -> f64 {
        match self.likelihood {
            Likelihood::Gaussian => {
                let d_diag = self.noise_diag(hyper);
                let ln2pi = (2.0 * std::f64::consts::PI).ln();
                let mut ll = 0.0;
                for ((y, f), tau) in self.y.iter().zip(eta).zip(&d_diag) {
                    let r = y - f;
                    ll += 0.5 * (tau.ln() - ln2pi) - 0.5 * tau * r * r;
                }
                ll
            }
            lik => self
                .y
                .iter()
                .zip(eta)
                .zip(&self.obs_scale)
                .map(|((&y, &e), &s)| lik.log_density(y, e, s, 0.0))
                .sum(),
        }
    }

    /// Index of the fixed-effect coefficient `r` of process `l` in the
    /// permuted latent vector.
    pub fn fixed_effect_index(&self, l: usize, r: usize) -> usize {
        fixed_column(self.dims.nv, self.dims.ns, self.dims.nt, self.dims.nr, l, r)
    }
}

/// Mesh-resolved prediction targets, ready to stamp out design matrices.
///
/// Produced by [`CoregionalModel::prediction_plan`]. The plan owns the
/// targets' barycentric projections, variable/time indices, and covariates —
/// everything about prediction design that does *not* depend on the
/// hyperparameters — so the mesh walk is paid once per target set no matter
/// how many designs are built from it. It holds no reference to the model, so
/// snapshots can carry a plan independently of the fit-time session.
#[derive(Clone, Debug)]
pub struct PredictionPlan {
    dims: ModelDims,
    projections: Vec<Projection>,
    vars: Vec<usize>,
    times: Vec<usize>,
    covariates: Vec<Vec<f64>>,
}

impl PredictionPlan {
    /// Number of planned targets (rows of any design built from this plan).
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the plan contains no targets.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// The model dimensions the plan was resolved against.
    pub fn dims(&self) -> ModelDims {
        self.dims
    }

    /// Build the prediction design matrix `Λ·A_pred` for hyperparameters
    /// `hyper`. Bitwise identical to
    /// [`CoregionalModel::prediction_design`] on the same targets.
    pub fn design(&self, hyper: &ModelHyper) -> CsrMatrix {
        build_design(
            hyper,
            &self.projections,
            &self.vars,
            &self.times,
            &self.covariates,
            self.dims.nv,
            self.dims.ns,
            self.dims.nt,
            self.dims.nr,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalia_la::chol;
    use dalia_mesh::{Domain, Point};
    use dalia_sparse::SparseCholesky;

    fn small_observations(nv: usize, nt: usize, nr: usize) -> Vec<Observation> {
        let mut obs = Vec::new();
        let locs = [(0.2, 0.3), (0.7, 0.6), (0.4, 0.8), (0.85, 0.2)];
        for v in 0..nv {
            for t in 0..nt {
                for (i, &(x, y)) in locs.iter().enumerate() {
                    obs.push(Observation {
                        var: v,
                        t,
                        loc: Point::new(x, y),
                        covariates: vec![1.0; nr],
                        value: 0.5 * v as f64 + 0.1 * t as f64 + 0.05 * i as f64,
                    });
                }
            }
        }
        obs
    }

    fn small_model(nv: usize) -> (CoregionalModel, ModelHyper) {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let nt = 3;
        let nr = 1;
        let model = CoregionalModel::new(&mesh, nt, 1.0, nv, nr, small_observations(nv, nt, nr)).unwrap();
        let mut hyper = ModelHyper::default_for(nv, 0.7, 2.0);
        if nv == 3 {
            hyper.lambdas = vec![0.5, -0.3, 0.2];
            hyper.sigmas = vec![1.0, 1.3, 0.8];
        }
        (model, hyper)
    }

    #[test]
    fn dims_are_consistent() {
        let (model, _) = small_model(3);
        let d = model.dims;
        assert_eq!(d.block_size(), 3 * 9);
        assert_eq!(d.arrow_size(), 3);
        assert_eq!(d.latent_dim(), 3 * (9 * 3 + 1));
    }

    #[test]
    fn qp_bta_matches_csr_assembly() {
        // The block-dense BTA assembly and the sparse+permutation assembly are
        // two independent code paths for the same matrix (Eq. 11 + Fig. 2c).
        for nv in [1usize, 2, 3] {
            let (model, hyper) = small_model(nv);
            let bta = model.assemble_qp_bta(&hyper);
            let csr = model.assemble_qp_csr(&hyper, true);
            let diff = bta.to_dense().max_abs_diff(&csr.to_dense());
            assert!(diff < 1e-9, "nv={nv}: BTA vs CSR prior mismatch {diff}");
        }
    }

    #[test]
    fn in_place_assembly_matches_allocating_assembly() {
        let (model, hyper) = small_model(2);
        let d = model.dims;
        let mut work = BtaMatrix::zeros(d.nt, d.block_size(), d.arrow_size());
        // Pollute the workspace with values from a different θ, then re-fill.
        let mut other = ModelHyper::default_for(2, 0.4, 1.5);
        other.lambdas = vec![0.9];
        model.assemble_qp_bta_into(&other, &mut work);
        model.assemble_qp_bta_into(&hyper, &mut work);
        let fresh = model.assemble_qp_bta(&hyper);
        assert_eq!(work.to_dense().max_abs_diff(&fresh.to_dense()), 0.0);

        let design_reused = model.assemble_qc_bta_into(&hyper, &mut work);
        let (qc_fresh, design_fresh) = model.assemble_qc_bta(&hyper);
        assert_eq!(work.to_dense().max_abs_diff(&qc_fresh.to_dense()), 0.0);
        assert_eq!(design_reused.max_abs_diff(&design_fresh), 0.0);

        // extend_qp_to_qc on a copied Q_p gives the same Q_c.
        let mut copied = BtaMatrix::zeros(d.nt, d.block_size(), d.arrow_size());
        model.assemble_qp_bta_into(&hyper, &mut copied);
        model.extend_qp_to_qc(&hyper, &mut copied, &mut CsrMatrix::zeros(0, 0));
        assert_eq!(copied.to_dense().max_abs_diff(&qc_fresh.to_dense()), 0.0);
    }

    #[test]
    fn prediction_plan_matches_direct_design_bitwise() {
        let (model, hyper) = small_model(2);
        let targets: Vec<PredictionTarget> = (0..6)
            .map(|i| PredictionTarget {
                var: i % 2,
                t: i % 3,
                loc: Point::new(0.15 + 0.1 * i as f64, 0.9 - 0.1 * i as f64),
                covariates: vec![1.0],
            })
            .collect();
        let plan = model.prediction_plan(&targets).unwrap();
        assert_eq!(plan.len(), targets.len());
        assert!(!plan.is_empty());
        assert_eq!(plan.dims(), model.dims);
        // The plan stamps out designs for several θ; each must be bitwise
        // identical to the direct per-call path.
        let mut other = ModelHyper::default_for(2, 0.4, 1.5);
        other.lambdas = vec![0.9];
        for h in [&hyper, &other] {
            assert_eq!(plan.design(h), model.prediction_design(h, &targets).unwrap());
        }
    }

    #[test]
    fn prediction_plan_rejects_invalid_targets() {
        let (model, _) = small_model(2);
        let good = PredictionTarget {
            var: 0,
            t: 0,
            loc: Point::new(0.5, 0.5),
            covariates: vec![1.0],
        };
        let bad_var = PredictionTarget { var: 2, ..good.clone() };
        let bad_t = PredictionTarget { t: 3, ..good.clone() };
        let bad_cov = PredictionTarget { covariates: vec![], ..good.clone() };
        for (i, bad) in [bad_var, bad_t, bad_cov].into_iter().enumerate() {
            let err = model.prediction_plan(&[good.clone(), bad]).unwrap_err();
            match err {
                ModelError::InvalidObservation { index, .. } => {
                    assert_eq!(index, 1, "case {i}: wrong offending index")
                }
                other => panic!("case {i}: expected InvalidObservation, got {other:?}"),
            }
        }
        let outside = PredictionTarget { loc: Point::new(5.0, 5.0), ..good };
        assert!(matches!(
            model.prediction_plan(&[outside]).unwrap_err(),
            ModelError::LocationOutsideDomain { .. }
        ));
    }

    #[test]
    fn qc_bta_matches_csr_assembly() {
        for nv in [1usize, 3] {
            let (model, hyper) = small_model(nv);
            let (bta, _) = model.assemble_qc_bta(&hyper);
            let csr = model.assemble_qc_csr(&hyper, true);
            let diff = bta.to_dense().max_abs_diff(&csr.to_dense());
            assert!(diff < 1e-9, "nv={nv}: BTA vs CSR conditional mismatch {diff}");
        }
    }

    #[test]
    fn permuted_and_natural_orderings_have_same_logdet() {
        let (model, hyper) = small_model(2);
        let qp_perm = model.assemble_qp_csr(&hyper, true);
        let qp_nat = model.assemble_qp_csr(&hyper, false);
        let ld_p = SparseCholesky::factor(&qp_perm).unwrap().logdet();
        let ld_n = SparseCholesky::factor(&qp_nat).unwrap().logdet();
        assert!((ld_p - ld_n).abs() < 1e-7 * (1.0 + ld_p.abs()));
    }

    #[test]
    fn conditional_precision_is_spd() {
        let (model, hyper) = small_model(3);
        let (bta, _) = model.assemble_qc_bta(&hyper);
        assert!(chol::cholesky(&bta.to_dense()).is_ok());
    }

    #[test]
    fn congruence_only_touches_bta_pattern() {
        // Verify the claim behind `add_congruence_to_bta`: observations never
        // couple different time steps.
        let (model, hyper) = small_model(2);
        let design = model.joint_design(&hyper);
        let d_diag = model.noise_diag(&hyper);
        let w = ops::congruence_diag(&design, &d_diag);
        let b = model.dims.block_size();
        let nt = model.dims.nt;
        for r in 0..nt * b {
            for (c, v) in w.row_iter(r) {
                if c < nt * b && v != 0.0 {
                    assert_eq!(r / b, c / b, "observation coupled time blocks {r} and {c}");
                }
            }
        }
    }

    #[test]
    fn information_vector_matches_dense() {
        let (model, hyper) = small_model(2);
        let design = model.joint_design(&hyper);
        let info = model.information_vector(&hyper, &design);
        // Dense reference: Aᵀ D y.
        let a = design.to_dense();
        let d = dalia_la::Matrix::from_diag(&model.noise_diag(&hyper));
        let ref_info = dalia_la::blas::matvec_t(&a, &dalia_la::blas::matvec(&d, &model.y));
        for (x, y) in info.iter().zip(&ref_info) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn log_likelihood_peaks_at_generating_field() {
        let (model, hyper) = small_model(1);
        let design = model.joint_design(&hyper);
        // Solve the least-squares-like problem: x = 0 gives lower likelihood
        // than the conditional mean.
        let (qc, _) = model.assemble_qc_bta(&hyper);
        let info = model.information_vector(&hyper, &design);
        let mu = chol::spd_solve_vec(&qc.to_dense(), &info).unwrap();
        let ll_mu = model.log_likelihood(&hyper, &design, &mu);
        let ll_zero = model.log_likelihood(&hyper, &design, &vec![0.0; mu.len()]);
        assert!(ll_mu > ll_zero);
    }

    #[test]
    fn invalid_observations_are_rejected() {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let bad_var = vec![Observation {
            var: 5,
            t: 0,
            loc: Point::new(0.5, 0.5),
            covariates: vec![1.0],
            value: 0.0,
        }];
        assert!(CoregionalModel::new(&mesh, 2, 1.0, 2, 1, bad_var).is_err());

        let bad_time = vec![Observation {
            var: 0,
            t: 9,
            loc: Point::new(0.5, 0.5),
            covariates: vec![1.0],
            value: 0.0,
        }];
        assert!(CoregionalModel::new(&mesh, 2, 1.0, 2, 1, bad_time).is_err());

        let outside = vec![Observation {
            var: 0,
            t: 0,
            loc: Point::new(5.0, 5.0),
            covariates: vec![1.0],
            value: 0.0,
        }];
        assert!(CoregionalModel::new(&mesh, 2, 1.0, 2, 1, outside).is_err());
    }

    #[test]
    fn fixed_effect_index_points_at_arrow() {
        let (model, _) = small_model(2);
        let idx = model.fixed_effect_index(1, 0);
        assert_eq!(idx, 2 * 9 * 3 + 1);
        assert!(idx < model.dims.latent_dim());
    }
}
