//! Immutable posterior snapshots: the read-only serving artifact extracted
//! from a completed fit.
//!
//! Everything a predictive query needs — the Cholesky factor of the
//! conditional precision `Q_c(θ*)`, the conditional mean, the kept part of
//! the selected inverse `Σ = Q_c⁻¹` ([`SelectedInverse`]), the marginal
//! standard deviations, the hyperparameter posterior, and the model's
//! prediction-design machinery — is frozen into a [`PosteriorSnapshot`],
//! which is `Send + Sync` and takes `&self` everywhere. Wrap one in an `Arc`
//! and any number of threads can answer predictions, latent-marginal lookups
//! and posterior draws concurrently without touching the fit-time
//! [`InlaSession`](crate::engine::InlaSession) again. The `dalia-serve` crate
//! builds its concurrent front-end on exactly this type.
//!
//! Exact predictive variances `aᵀ Σ a` read the kept entries of `Σ`
//! directly: a prediction row touches the three vertices of one mesh
//! triangle in one time slice of the latent field, plus the fixed effects,
//! so every entry it needs lies in a diagonal block (at a node pair that
//! shares a triangle), an arrow block or the tip of the BTA selected inverse,
//! and a target costs O(nnz(a)²) flops with no solve.
//!
//! Snapshots are produced by
//! [`InlaSession::snapshot`](crate::engine::InlaSession::snapshot) (cloning
//! the result's summaries),
//! [`InlaResult::into_snapshot`](crate::engine::InlaResult::into_snapshot)
//! (consuming them) or
//! [`StreamingWindow::snapshot`](crate::engine::StreamingWindow::snapshot)
//! (sharing one kept `Σ` among the snapshots of an unchanged window).

use crate::posterior::{FixedEffectSummary, HyperMarginals, LatentMarginals, Prediction};
use crate::CoreError;
use dalia_la::Matrix;
use dalia_model::{CoregionalModel, ModelHyper, PredictionPlan, PredictionTarget};
use dalia_mesh::TriangleMesh;
use dalia_sparse::{CooMatrix, CsrMatrix, SparseCholesky};
use rand::{rngs::StdRng, Rng, SeedableRng};
use serinv::{pobtas, pobtas_lt, BtaCholesky, BtaMatrix, BtaSelectedInverse};
use std::sync::Arc;

/// An owned, backend-independent Cholesky factor of the conditional precision
/// `Q_c`, extracted by [`LatentSolver::snapshot_factor`](crate::solver::LatentSolver::snapshot_factor).
///
/// Both variants answer solves through `&self`, so one factor can serve any
/// number of concurrent readers.
#[derive(Clone)]
pub enum SnapshotFactor {
    /// Block-tridiagonal-arrowhead factor (the structured DALIA path). The
    /// distributed backend also lands here: its partitioned factor is
    /// re-factored into this portable monolithic form at snapshot time.
    Bta(BtaCholesky),
    /// General sparse factor (the R-INLA-like baseline path).
    Sparse(SparseCholesky),
}

impl SnapshotFactor {
    /// Latent dimension `N` of the factored system.
    pub fn dim(&self) -> usize {
        match self {
            SnapshotFactor::Bta(f) => f.blocks.dim(),
            SnapshotFactor::Sparse(f) => f.factor_l().nrows(),
        }
    }

    /// `log |Q_c|`.
    ///
    /// BTA factors entering a snapshot had their diagonals validated at
    /// factorization time (see [`serinv::SerinvError::IndefiniteLogdet`]), so
    /// the structured check cannot fire here.
    pub fn logdet(&self) -> f64 {
        match self {
            SnapshotFactor::Bta(f) => {
                f.logdet().expect("factor diagonal validated at factorization")
            }
            SnapshotFactor::Sparse(f) => f.logdet(),
        }
    }

    /// Blocked multi-RHS solve `Q_c X = B`, overwriting `rhs` (one right-hand
    /// side per column) with the solution.
    pub fn solve_many(&self, rhs: &mut Matrix) {
        if rhs.ncols() == 0 {
            return;
        }
        match self {
            SnapshotFactor::Bta(f) => pobtas(f, rhs),
            SnapshotFactor::Sparse(f) => {
                for j in 0..rhs.ncols() {
                    let col = rhs.col_mut(j);
                    f.forward_solve_in_place(col);
                    f.backward_solve_in_place(col);
                }
            }
        }
    }

    /// Backward-only solve `Lᵀ X = B` against the transposed factor,
    /// overwriting `rhs`. Since `Q_c = L Lᵀ`, applying this to i.i.d.
    /// standard-normal columns produces draws with covariance `Q_c⁻¹` — the
    /// factor-backed sampling path of [`PosteriorSnapshot::sample`].
    pub fn half_solve_t(&self, rhs: &mut Matrix) {
        if rhs.ncols() == 0 {
            return;
        }
        match self {
            SnapshotFactor::Bta(f) => pobtas_lt(f, rhs),
            SnapshotFactor::Sparse(f) => {
                for j in 0..rhs.ncols() {
                    f.backward_solve_in_place(rhs.col_mut(j));
                }
            }
        }
    }
}

/// The part of the selected inverse `Σ = Q_c⁻¹` a solver hands out, extracted
/// by [`LatentSolver::selected_inverse`](crate::solver::LatentSolver::selected_inverse).
///
/// Cloning is cheap for the BTA variant (its entries sit behind an `Arc`), so
/// the snapshots a [`StreamingWindow`](crate::engine::StreamingWindow) takes
/// with no update in between share one `Σ`.
#[derive(Clone, Debug)]
pub enum SelectedInverse {
    /// Every entry of the BTA selected inverse an exact predictive variance
    /// reads (see [`BtaSigma`]). The rest of the `pobtasi` output — the
    /// sub-diagonal blocks, since no prediction row spans two time slices,
    /// and the `Σ_tt` entries of nodes that share no triangle — is dropped.
    Bta(Arc<BtaSigma>),
    /// `diag(Σ)` only (the sparse baseline, whose exact variances solve
    /// against the factor instead).
    Diagonal(Vec<f64>),
}

impl SelectedInverse {
    /// `diag(Σ)`: the latent marginal variances, in latent order.
    pub fn diagonal(&self) -> Vec<f64> {
        match self {
            SelectedInverse::Bta(s) => s.diagonal(),
            SelectedInverse::Diagonal(d) => d.clone(),
        }
    }
}

/// The `ns × ns` pattern of mesh nodes that share a triangle, each node
/// paired with itself included (values unused). A prediction row's field
/// entries sit at the three vertices of one triangle, so these are the only
/// node pairs of a time slice's `Σ_tt` it reads.
pub(crate) fn triangle_pairs(mesh: &TriangleMesh) -> CsrMatrix {
    let ns = mesh.n_nodes();
    let mut coo = CooMatrix::with_capacity(ns, ns, 9 * mesh.n_triangles());
    for tri in &mesh.triangles {
        for &i in &tri.v {
            for &j in &tri.v {
                coo.push(i, j, 1.0);
            }
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// The entries of a BTA selected inverse that predictions read: in each
/// time slice's `Σ_tt`, the node pairs that share a mesh triangle, for
/// every pair of latent processes; every arrow block `Σ_Tt`; and the tip
/// `Σ_TT`.
///
/// A snapshot outlives many window advances, so it keeps only these: on a
/// 2-D mesh a node shares a triangle with about six others, so the kept
/// `Σ_tt` entries are a small fraction of the dense blocks, and they sit in
/// one allocation rather than in scattered blocks.
#[derive(Debug)]
pub struct BtaSigma {
    /// Time slices `n`, block size `b = nv·ns` (`ns` mesh nodes) and arrow
    /// size `a`.
    n: usize,
    b: usize,
    a: usize,
    /// `triangle_pairs` of the mesh (`ns × ns`), shared by every `Σ` of one
    /// solver.
    pairs: Arc<CsrMatrix>,
    /// Per slice, per process pair `l ≥ l'` (in the order
    /// `l·(l+1)/2 + l'`), per stored pattern entry `(i, j)`:
    /// `Σ_tt[(l·ns + i, l'·ns + j)]`. Then each `Σ_Tt` (`a × b`,
    /// column-major), then `Σ_TT` (`a × a`, column-major).
    data: Vec<f64>,
}

impl BtaSigma {
    /// Keep the entries predictions read from a `pobtasi` / `d_pobtasi`
    /// result over a mesh with node-pair pattern `pairs`; the rest is freed
    /// with it.
    pub(crate) fn keep(sel: BtaSelectedInverse, pairs: Arc<CsrMatrix>) -> Self {
        let BtaMatrix { n, b, a, diag, arrow, tip, .. } = sel.blocks;
        let ns = pairs.nrows();
        let nv = b / ns;
        let (ptr, idx) = (pairs.row_ptr(), pairs.col_idx());
        let mut data = Vec::with_capacity(n * nv * (nv + 1) / 2 * idx.len() + n * a * b + a * a);
        for d in &diag {
            for l in 0..nv {
                for lp in 0..=l {
                    for i in 0..ns {
                        for &j in &idx[ptr[i]..ptr[i + 1]] {
                            let (r, c) = (l * ns + i, lp * ns + j);
                            data.push(d[(r.max(c), r.min(c))]);
                        }
                    }
                }
            }
        }
        for c in arrow.iter().chain([&tip]) {
            data.extend_from_slice(c.as_slice());
        }
        Self { n, b, a, pairs, data }
    }

    /// Offset of slice `t`'s `Σ_tt` entries in `data`.
    fn slice_start(&self, t: usize) -> usize {
        let nv = self.b / self.pairs.nrows();
        t * nv * (nv + 1) / 2 * self.pairs.nnz()
    }

    /// Offset of `Σ_tt[(l·ns + i, l'·ns + j)]`, for `l ≥ l'`, relative to the
    /// slice start, where `k` is the position of `(i, j)` in `pairs`.
    fn entry(&self, l: usize, lp: usize, k: usize) -> usize {
        (l * (l + 1) / 2 + lp) * self.pairs.nnz() + k
    }

    /// Position of `(i, j)` in `pairs`.
    fn pair_position(&self, i: usize, j: usize) -> usize {
        let (ptr, idx) = (self.pairs.row_ptr(), self.pairs.col_idx());
        ptr[i]
            + idx[ptr[i]..ptr[i + 1]]
                .binary_search(&j)
                .expect("prediction row reads Σ_tt at two nodes that share no triangle")
    }

    /// Column `s` of `Σ_Tt`.
    fn arrow_col(&self, t: usize, s: usize) -> &[f64] {
        let start = self.data.len() - self.a * self.a - (self.n * self.b - t * self.b - s) * self.a;
        &self.data[start..start + self.a]
    }

    /// Column `g` of `Σ_TT`.
    fn tip_col(&self, g: usize) -> &[f64] {
        let start = self.data.len() - self.a * (self.a - g);
        &self.data[start..start + self.a]
    }

    /// `diag(Σ)` — the same entries, in the same order, as
    /// [`BtaSelectedInverse::diagonal`].
    fn diagonal(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n * self.b + self.a);
        for t in 0..self.n {
            let slice = self.slice_start(t);
            for x in 0..self.b {
                let (l, i) = (x / self.pairs.nrows(), x % self.pairs.nrows());
                out.push(self.data[slice + self.entry(l, l, self.pair_position(i, i))]);
            }
        }
        out.extend((0..self.a).map(|g| self.tip_col(g)[g]));
        out
    }

    /// `aᵀ Σ a` for one prediction-design row `a`, given by its sorted column
    /// indices and values. The row's latent-field entries must all lie in one
    /// time slice `t`, at the vertices of one triangle (as every row
    /// `build_design` stamps out does), so
    /// `aᵀ Σ a = a_tᵀ Σ_tt a_t + 2·a_fᵀ Σ_ft a_t + a_fᵀ Σ_ff a_f` with `a_f`
    /// the fixed-effect entries. Allocation-free; the sums run in a fixed
    /// order.
    fn quadratic_form(&self, cols: &[usize], vals: &[f64]) -> f64 {
        let (b, ns) = (self.b, self.pairs.nrows());
        let a0 = self.n * b;
        let split = cols.partition_point(|&c| c < a0);
        let (field, fixed) = cols.split_at(split);
        let (w_field, w_fixed) = vals.split_at(split);
        let (mut tt, mut ft, mut ff) = (0.0, 0.0, 0.0);
        if let Some(&c0) = field.first() {
            let t = c0 / b;
            let off = t * b;
            debug_assert!(field.iter().all(|&c| c / b == t), "design row spans two time slices");
            // The row's mesh nodes (one triangle's vertices) and the
            // position of each pair of them in `pairs`.
            let mut nodes = [0; 3];
            let mut nn = 0;
            for &c in field {
                let i = (c - off) % ns;
                if !nodes[..nn].contains(&i) {
                    nodes[nn] = i;
                    nn += 1;
                }
            }
            let mut pos = [[0; 3]; 3];
            for p in 0..nn {
                for q in 0..nn {
                    pos[p][q] = self.pair_position(nodes[p], nodes[q]);
                }
            }
            // Process and node slot of a block-local index.
            let nodes = &nodes[..nn];
            let slot = |x: usize| {
                (x / ns, nodes.iter().position(|&i| i == x % ns).expect("node collected above"))
            };
            // Σ_tt is symmetric: each entry pairs with itself and, twice,
            // with the entries before it, whose processes are no later
            // (the columns are sorted).
            let s_tt = &self.data[self.slice_start(t)..];
            for (e, (&ci, &wi)) in field.iter().zip(w_field).enumerate() {
                let (l, p) = slot(ci - off);
                let s: f64 = field[..e]
                    .iter()
                    .zip(w_field)
                    .map(|(&cj, &wj)| {
                        let (lp, q) = slot(cj - off);
                        s_tt[self.entry(l, lp, pos[p][q])] * wj
                    })
                    .sum();
                tt += wi * (wi * s_tt[self.entry(l, l, pos[p][p])] + 2.0 * s);
                let s_ft = self.arrow_col(t, ci - off);
                let s: f64 = fixed.iter().zip(w_fixed).map(|(&cf, &wf)| s_ft[cf - a0] * wf).sum();
                ft += wi * s;
            }
        }
        for (&cg, &wg) in fixed.iter().zip(w_fixed) {
            let s_ff = self.tip_col(cg - a0);
            let s: f64 = fixed.iter().zip(w_fixed).map(|(&cf, &wf)| s_ff[cf - a0] * wf).sum();
            ff += wg * s;
        }
        tt + 2.0 * ft + ff
    }
}

/// How a predictive query computes its standard deviations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarianceMode {
    /// `Var(aᵀx) ≈ Σ_j a_j² Var(x_j)`: the selected-inverse diagonal
    /// approximation — no solve, cross-covariances outside the diagonal are
    /// dropped (historically the only mode, see
    /// [`predict`](crate::posterior::predict)).
    Diagonal,
    /// `Var(aᵀx) = aᵀ Q_c⁻¹ a`, exact up to factorization accuracy. BTA
    /// snapshots read it from the kept selected inverse
    /// ([`SelectedInverse::Bta`]) in O(nnz(a)²) flops per target; the sparse
    /// baseline solves `Q_c Z = Aᵀ` against its factor.
    Exact,
}

/// Immutable, `Arc`-shareable posterior artifact of a completed INLA fit.
///
/// All methods take `&self`; the type is `Send + Sync` (asserted by test).
/// See the [module docs](self) for the lifecycle.
pub struct PosteriorSnapshot {
    model: Arc<CoregionalModel>,
    hyper_mode: ModelHyper,
    factor: SnapshotFactor,
    sigma: SelectedInverse,
    latent: LatentMarginals,
    hyper: HyperMarginals,
    fixed_effects: Vec<FixedEffectSummary>,
    backend_name: &'static str,
}

impl PosteriorSnapshot {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        model: Arc<CoregionalModel>,
        hyper_mode: ModelHyper,
        latent: LatentMarginals,
        hyper: HyperMarginals,
        fixed_effects: Vec<FixedEffectSummary>,
        factor: SnapshotFactor,
        sigma: SelectedInverse,
        backend_name: &'static str,
    ) -> Self {
        debug_assert_eq!(factor.dim(), latent.mean.len());
        Self { model, hyper_mode, factor, sigma, latent, hyper, fixed_effects, backend_name }
    }

    /// The model the snapshot was fitted on.
    pub fn model(&self) -> &CoregionalModel {
        &self.model
    }

    /// The hyperparameters at the posterior mode, in structured form.
    pub fn hyper_mode(&self) -> &ModelHyper {
        &self.hyper_mode
    }

    /// Latent marginals (conditional mean + selected-inverse sd) at the mode.
    pub fn latent(&self) -> &LatentMarginals {
        &self.latent
    }

    /// Gaussian approximation of the hyperparameter posterior.
    pub fn hyper(&self) -> &HyperMarginals {
        &self.hyper
    }

    /// Fixed-effect posterior summaries.
    pub fn fixed_effects(&self) -> &[FixedEffectSummary] {
        &self.fixed_effects
    }

    /// The frozen conditional factor.
    pub fn factor(&self) -> &SnapshotFactor {
        &self.factor
    }

    /// The kept selected inverse `Σ = Q_c⁻¹` that exact variances read.
    pub fn selected_inverse(&self) -> &SelectedInverse {
        &self.sigma
    }

    /// Name of the solver backend the snapshot was extracted from.
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Latent dimension `N`.
    pub fn latent_dim(&self) -> usize {
        self.latent.mean.len()
    }

    /// `log |Q_c(θ*)|` of the frozen factor.
    pub fn logdet_qc(&self) -> f64 {
        self.factor.logdet()
    }

    /// `(mean, sd)` of latent component `i`.
    pub fn latent_marginal(&self, i: usize) -> (f64, f64) {
        (self.latent.mean[i], self.latent.sd[i])
    }

    /// Blocked multi-RHS solve `Q_c X = B` against the frozen factor.
    pub fn solve_many(&self, rhs: &mut Matrix) {
        self.factor.solve_many(rhs);
    }

    /// Resolve prediction targets against the mesh once, for reuse across
    /// repeated [`predict_planned`](Self::predict_planned) calls.
    pub fn plan(&self, targets: &[PredictionTarget]) -> Result<PredictionPlan, CoreError> {
        self.model.prediction_plan(targets).map_err(CoreError::Model)
    }

    /// Predict at `targets` with the diagonal variance approximation
    /// (bitwise identical to [`predict`](crate::posterior::predict) on the
    /// snapshot's marginals).
    pub fn predict(&self, targets: &[PredictionTarget]) -> Result<Prediction, CoreError> {
        Ok(self.predict_planned(&self.plan(targets)?, VarianceMode::Diagonal))
    }

    /// Predict at `targets` with exact variances `aᵀ Q_c⁻¹ a` (see
    /// [`VarianceMode::Exact`]).
    pub fn predict_exact(&self, targets: &[PredictionTarget]) -> Result<Prediction, CoreError> {
        Ok(self.predict_planned(&self.plan(targets)?, VarianceMode::Exact))
    }

    /// Predict for an already-resolved [`PredictionPlan`] in the requested
    /// variance mode. This is the hot serving entry point: the mesh walk was
    /// paid at plan time, and the whole plan becomes one design application.
    /// In [`VarianceMode::Exact`] a BTA snapshot then evaluates each row's
    /// quadratic form against the kept `Σ` entries, allocating nothing beyond
    /// the design and the outputs; the sparse baseline runs one blocked
    /// multi-RHS solve over all targets.
    pub fn predict_planned(&self, plan: &PredictionPlan, mode: VarianceMode) -> Prediction {
        let design = plan.design(&self.hyper_mode);
        let mean = design.spmv(&self.latent.mean);
        let k = design.nrows();
        let sd = match (mode, &self.sigma) {
            (VarianceMode::Diagonal, _) => (0..k)
                .map(|r| {
                    let v: f64 = design
                        .row_iter(r)
                        .map(|(c, w)| w * w * self.latent.sd[c] * self.latent.sd[c])
                        .sum();
                    v.sqrt()
                })
                .collect(),
            (VarianceMode::Exact, SelectedInverse::Bta(sigma)) => {
                let (ptr, cols, vals) = (design.row_ptr(), design.col_idx(), design.values());
                (0..k)
                    .map(|r| {
                        let span = ptr[r]..ptr[r + 1];
                        sigma.quadratic_form(&cols[span.clone()], &vals[span]).max(0.0).sqrt()
                    })
                    .collect()
            }
            (VarianceMode::Exact, SelectedInverse::Diagonal(_)) => {
                // Z = Q_c⁻¹ Aᵀ in one blocked solve, then Var_j = a_jᵀ z_j.
                let n = self.latent_dim();
                let mut rhs = Matrix::zeros(n, k);
                for r in 0..k {
                    for (c, w) in design.row_iter(r) {
                        rhs[(c, r)] = w;
                    }
                }
                self.factor.solve_many(&mut rhs);
                (0..k)
                    .map(|r| {
                        let z = rhs.col(r);
                        let v: f64 = design.row_iter(r).map(|(c, w)| w * z[c]).sum();
                        v.max(0.0).sqrt()
                    })
                    .collect()
            }
        };
        Prediction { mean, sd }
    }

    /// Predict at `targets` on the **response scale** with the diagonal
    /// variance approximation — see
    /// [`predict_response_planned`](Self::predict_response_planned).
    pub fn predict_response(&self, targets: &[PredictionTarget]) -> Result<Prediction, CoreError> {
        Ok(self.predict_response_planned(&self.plan(targets)?, VarianceMode::Diagonal))
    }

    /// Predict for an already-resolved plan on the **response scale**: the
    /// latent prediction `η ± sd` pushed through the likelihood's inverse
    /// link at unit scale (rate per unit exposure for Poisson, success
    /// probability for Bernoulli, identity for Gaussian), with the delta
    /// method `sd_resp = |h′(η)| · sd_η` for the standard deviations.
    pub fn predict_response_planned(&self, plan: &PredictionPlan, mode: VarianceMode) -> Prediction {
        let linear = self.predict_planned(plan, mode);
        let lik = self.model.likelihood();
        let mean = linear.mean.iter().map(|&e| lik.mean_response(e, 1.0)).collect();
        let sd = linear
            .mean
            .iter()
            .zip(&linear.sd)
            .map(|(&e, &s)| lik.mean_response_deriv(e, 1.0).abs() * s)
            .collect();
        Prediction { mean, sd }
    }

    /// Draw `n_draws` joint samples from the Gaussian approximation
    /// `x | y, θ* ~ N(μ_c, Q_c⁻¹)`, one draw per column.
    ///
    /// Factor-backed: i.i.d. standard normals (Box–Muller over the seeded
    /// deterministic generator) are pushed through `Lᵀ x = z`, giving
    /// covariance `L⁻ᵀ L⁻¹ = Q_c⁻¹`, then shifted by the conditional mean.
    /// Deterministic per `(snapshot, n_draws, seed)`.
    pub fn sample(&self, n_draws: usize, seed: u64) -> Matrix {
        let n = self.latent_dim();
        let mut draws = Matrix::zeros(n, n_draws);
        let mut rng = StdRng::seed_from_u64(seed);
        for j in 0..n_draws {
            let col = draws.col_mut(j);
            for x in col.iter_mut() {
                *x = standard_normal(&mut rng);
            }
        }
        self.factor.half_solve_t(&mut draws);
        for j in 0..n_draws {
            let col = draws.col_mut(j);
            for (x, m) in col.iter_mut().zip(&self.latent.mean) {
                *x += m;
            }
        }
        draws
    }
}

/// One standard-normal variate via Box–Muller.
fn standard_normal(rng: &mut StdRng) -> f64 {
    normal_from_uniforms(rng.random(), rng.random())
}

/// Box–Muller transform of two uniforms. The log argument is `1 - u1`, which
/// for a `[0, 1)` uniform lies in `(0, 1]` — but any generator (or caller)
/// that can yield `u1 == 1.0` exactly would produce `ln(0) = -∞` and an
/// infinite draw, so the argument is clamped into `(0, 1]` at the smallest
/// positive double, turning the degenerate input into an extreme but finite
/// tail draw (|z| ≈ 37.6) instead of poisoning the sample with ±∞.
fn normal_from_uniforms(u1: f64, u2: f64) -> f64 {
    let log_arg = (1.0 - u1).clamp(f64::MIN_POSITIVE, 1.0);
    (-2.0 * log_arg.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InlaEngine;
    use crate::posterior::predict;
    use crate::settings::{InlaSettings, SolverBackend};
    use dalia_mesh::{Domain, Point, TriangleMesh};
    use dalia_model::Observation;

    fn toy_model() -> (std::sync::Arc<CoregionalModel>, Vec<f64>) {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let nt = 3;
        let mut obs = Vec::new();
        let locs = [(0.2, 0.3), (0.7, 0.6), (0.5, 0.9), (0.9, 0.2), (0.1, 0.8)];
        for t in 0..nt {
            for (i, &(x, y)) in locs.iter().enumerate() {
                obs.push(Observation {
                    var: 0,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0],
                    value: 0.2 * i as f64 - 0.1 * t as f64,
                });
            }
        }
        let model = std::sync::Arc::new(CoregionalModel::new(&mesh, nt, 1.0, 1, 1, obs).unwrap());
        let theta0 = ModelHyper::default_for(1, 0.7, 2.0).to_theta();
        (model, theta0)
    }

    fn snapshot_for(
        model: &std::sync::Arc<CoregionalModel>,
        theta0: &[f64],
        settings: InlaSettings,
    ) -> PosteriorSnapshot {
        let session = InlaEngine::builder(model).settings(settings).max_iter(2).build().unwrap();
        let result = session.run(theta0).unwrap();
        result.into_snapshot(&session).unwrap()
    }

    fn backends() -> Vec<InlaSettings> {
        let mut dist = InlaSettings::dalia(2);
        dist.max_iter = 2;
        vec![InlaSettings::dalia(1), dist, InlaSettings::rinla_like()]
    }

    #[test]
    fn degenerate_uniform_yields_finite_normal_draw() {
        // Regression: `u1 == 1.0` used to reach `ln(0) = -∞` and emit an
        // infinite posterior draw. The clamped transform turns it into the
        // most extreme finite tail draw the doubles support instead.
        let z = normal_from_uniforms(1.0, 0.0);
        assert!(z.is_finite(), "degenerate u1 produced {z}");
        assert!(z > 37.0 && z < 38.5, "expected the documented ≈37.6 tail, got {z}");
        // The other boundary and an interior point stay well-behaved too.
        assert_eq!(normal_from_uniforms(0.0, 0.25), 0.0);
        let mid = normal_from_uniforms(0.5, 0.3);
        assert!(mid.is_finite() && mid.abs() < 38.5);
        // And no (u1, u2) pair on a coarse sweep of the closed square can
        // produce a non-finite draw.
        for i in 0..=20 {
            for j in 0..=20 {
                let z = normal_from_uniforms(i as f64 / 20.0, j as f64 / 20.0);
                assert!(z.is_finite(), "({i}, {j}) -> {z}");
            }
        }
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn require_send_sync<T: Send + Sync>() {}
        require_send_sync::<PosteriorSnapshot>();
        require_send_sync::<SnapshotFactor>();
    }

    #[test]
    fn snapshot_solve_matches_session_solve_mean() {
        let (model, theta0) = toy_model();
        for settings in backends() {
            let mut solver = settings.backend.build(&model);
            let hyper = ModelHyper::from_theta(1, &theta0);
            solver.factorize_conditional(&hyper).unwrap();
            let info = model.information_vector(&hyper, solver.design());
            let mean = solver.solve_mean(&info);

            let factor = solver.snapshot_factor().unwrap();
            let mut rhs = Matrix::col_vector(&info);
            factor.solve_many(&mut rhs);
            let name = solver.backend_name();
            for (a, b) in mean.iter().zip(rhs.col(0)) {
                assert!((a - b).abs() < 1e-10, "{name}: snapshot solve drift {a} vs {b}");
            }
            assert_eq!(factor.dim(), model.dims.latent_dim());
            assert!((factor.logdet() - solver.logdet_qc()).abs() < 1e-8);
        }
    }

    #[test]
    fn distributed_snapshot_factor_is_bitwise_sequential() {
        // The distributed backend re-factors its assembled Q_c sequentially at
        // snapshot time, so its portable factor must be bitwise identical to
        // the sequential backend's (same assembly, same kernel).
        let (model, theta0) = toy_model();
        let hyper = ModelHyper::from_theta(1, &theta0);
        let mut seq = SolverBackend::Bta { partitions: 1, load_balance: 1.0 }.build(&model);
        let mut dist = SolverBackend::Bta { partitions: 3, load_balance: 1.0 }.build(&model);
        seq.factorize_conditional(&hyper).unwrap();
        dist.factorize_conditional(&hyper).unwrap();
        let fs = seq.snapshot_factor().unwrap();
        let fd = dist.snapshot_factor().unwrap();
        assert_eq!(fs.logdet().to_bits(), fd.logdet().to_bits());
    }

    #[test]
    fn snapshot_predict_matches_posterior_predict_bitwise() {
        let (model, theta0) = toy_model();
        let snap = snapshot_for(&model, &theta0, InlaSettings::dalia(1));
        let targets: Vec<PredictionTarget> = (0..7)
            .map(|i| PredictionTarget {
                var: 0,
                t: i % 3,
                loc: Point::new(0.1 + 0.1 * i as f64, 0.85 - 0.08 * i as f64),
                covariates: vec![1.0],
            })
            .collect();
        let via_snap = snap.predict(&targets).unwrap();
        let direct = predict(&model, snap.hyper_mode(), snap.latent(), &targets).unwrap();
        for (a, b) in via_snap.mean.iter().zip(&direct.mean) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in via_snap.sd.iter().zip(&direct.sd) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn exact_variances_dominate_where_diagonal_underestimates() {
        // Both modes agree on the mean; exact sd differs from the diagonal
        // approximation (which drops off-diagonal covariance) but stays
        // finite and positive for in-domain targets.
        let (model, theta0) = toy_model();
        for settings in backends() {
            let snap = snapshot_for(&model, &theta0, settings);
            let targets = vec![
                PredictionTarget {
                    var: 0,
                    t: 1,
                    loc: Point::new(0.45, 0.55),
                    covariates: vec![1.0],
                },
                PredictionTarget { var: 0, t: 2, loc: Point::new(0.8, 0.3), covariates: vec![0.0] },
            ];
            let diag = snap.predict(&targets).unwrap();
            let exact = snap.predict_exact(&targets).unwrap();
            let name = snap.backend_name();
            for (a, b) in diag.mean.iter().zip(&exact.mean) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name}: mean must not depend on mode");
            }
            for s in &exact.sd {
                assert!(s.is_finite() && *s > 0.0, "{name}: bad exact sd {s}");
            }
        }
    }

    #[test]
    fn backends_agree_on_exact_variances() {
        let (model, theta0) = toy_model();
        let targets = vec![PredictionTarget {
            var: 0,
            t: 0,
            loc: Point::new(0.33, 0.66),
            covariates: vec![1.0],
        }];
        let mut reference: Option<f64> = None;
        for settings in backends() {
            let snap = snapshot_for(&model, &theta0, settings);
            let sd = snap.predict_exact(&targets).unwrap().sd[0];
            match reference {
                None => reference = Some(sd),
                Some(r) => assert!(
                    (sd - r).abs() < 1e-7 * (1.0 + r),
                    "{}: exact sd {sd} vs reference {r}",
                    snap.backend_name()
                ),
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_and_centered() {
        let (model, theta0) = toy_model();
        let snap = snapshot_for(&model, &theta0, InlaSettings::dalia(1));
        let a = snap.sample(4, 42);
        let b = snap.sample(4, 42);
        assert_eq!(a.max_abs_diff(&b), 0.0, "same seed must give identical draws");
        let c = snap.sample(4, 43);
        assert!(a.max_abs_diff(&c) > 0.0, "different seeds must differ");

        // Empirical mean over many draws approaches the conditional mean; the
        // tolerance is generous (this is a smoke test, not a statistics one).
        let n_draws = 400;
        let draws = snap.sample(n_draws, 7);
        let idx = model.fixed_effect_index(0, 0);
        let emp: f64 =
            (0..n_draws).map(|j| draws.col(j)[idx]).sum::<f64>() / n_draws as f64;
        let (mu, sd) = snap.latent_marginal(idx);
        assert!(
            (emp - mu).abs() < 5.0 * sd / (n_draws as f64).sqrt() + 1e-3,
            "empirical mean {emp} too far from conditional mean {mu} (sd {sd})"
        );
    }

    #[test]
    fn session_snapshot_and_into_snapshot_agree() {
        let (model, theta0) = toy_model();
        let session =
            InlaEngine::builder(&model).settings(InlaSettings::dalia(1)).max_iter(2).build().unwrap();
        let result = session.run(&theta0).unwrap();
        let borrowed = session.snapshot(&result).unwrap();
        let consumed = result.into_snapshot(&session).unwrap();
        assert_eq!(borrowed.logdet_qc().to_bits(), consumed.logdet_qc().to_bits());
        assert_eq!(borrowed.latent().mean, consumed.latent().mean);
        assert_eq!(borrowed.backend_name(), consumed.backend_name());
    }

    #[test]
    fn snapshot_rejects_out_of_domain_targets() {
        let (model, theta0) = toy_model();
        let snap = snapshot_for(&model, &theta0, InlaSettings::dalia(1));
        let bad = vec![PredictionTarget {
            var: 0,
            t: 0,
            loc: Point::new(7.0, 7.0),
            covariates: vec![1.0],
        }];
        assert!(matches!(snap.predict(&bad), Err(CoreError::Model(_))));
    }
}
