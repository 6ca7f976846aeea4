//! Posterior summaries: hyperparameter marginals from the Hessian at the mode
//! (Sec. III.3), latent marginals from the conditional mean and the selected
//! inverse of `Q_c` (Sec. III.4), and posterior prediction / downscaling.

use crate::solver::LatentSolver;
use crate::CoreError;
use dalia_la::{chol, eigen, Matrix};
use dalia_model::{CoregionalModel, ModelHyper, PredictionTarget};

/// Inverse standard-normal CDF `Φ⁻¹(p)` (Acklam's rational approximation,
/// absolute error below `1.2e-9` across `(0, 1)`).
///
/// This is the single source of normal quantiles for every credible interval
/// in the crate — `normal_quantile(0.975) ≈ 1.95996` replaces the hard-coded
/// `1.96` the summaries used historically.
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile: p={p} outside (0, 1)");
    // Acklam's coefficients for the central and tail rational approximants.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p > 1.0 - P_LOW {
        -normal_quantile(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// The ± multiplier of a central Gaussian credible interval at `level`
/// (e.g. `credible_z(0.95) ≈ 1.96`).
///
/// The level is clamped into the open interval `(0, 1)` before the quantile
/// is evaluated, so the boundary levels stay finite instead of silently
/// producing ±inf/NaN interval bounds: `level = 0.0` collapses to a
/// zero-width interval at the center, `level = 1.0` saturates at the widest
/// interval the quantile approximation supports (`z ≈ 8.2`).
///
/// # Panics
///
/// Panics on a non-finite level (NaN survives the clamp and is rejected by
/// [`normal_quantile`]'s domain check).
fn credible_z(level: f64) -> f64 {
    // Largest representable level strictly below 1: the matching quantile
    // argument 0.5 * (1 + level) still rounds to a double < 1.0.
    let level = level.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON);
    normal_quantile(0.5 * (1.0 + level))
}

/// Gaussian approximation of the hyperparameter posterior.
#[derive(Clone, Debug)]
pub struct HyperMarginals {
    /// Posterior mode θ*.
    pub mode: Vec<f64>,
    /// Posterior covariance (inverse of the negative Hessian at the mode).
    pub covariance: Matrix,
    /// Marginal standard deviations.
    pub sd: Vec<f64>,
    /// Number of covariance diagonal entries that were negative (numerically
    /// indefinite inverse) and clamped to zero when forming `sd`. Zero for a
    /// healthy fit; a nonzero count is the signal the old silent
    /// `max(0.0)` swallowed.
    pub clamped: usize,
}

impl HyperMarginals {
    /// Build from the mode and the negative Hessian of `f_obj`.
    pub fn from_hessian(mode: Vec<f64>, neg_hessian: &Matrix) -> Result<Self, CoreError> {
        let dim = mode.len();
        // Regularize if needed: the finite-difference Hessian can have small
        // negative eigenvalues away from the exact mode.
        let mut h = neg_hessian.clone();
        h.symmetrize();
        let min_eig = eigen::min_eigenvalue(&h);
        if min_eig <= 1e-10 {
            let shift = 1e-6 + min_eig.abs();
            for i in 0..dim {
                h[(i, i)] += shift;
            }
        }
        let covariance = chol::spd_inverse(&h).map_err(|_| CoreError::HessianNotPositiveDefinite)?;
        let clamped = (0..dim).filter(|&i| covariance[(i, i)] < 0.0).count();
        let sd = (0..dim).map(|i| covariance[(i, i)].max(0.0).sqrt()).collect();
        Ok(Self { mode, covariance, sd, clamped })
    }

    /// `(lower, upper)` central credible interval of component `i` at the 95%
    /// level — [`credible_interval_at`](Self::credible_interval_at) with
    /// `level = 0.95`.
    pub fn credible_interval(&self, i: usize) -> (f64, f64) {
        self.credible_interval_at(i, 0.95)
    }

    /// `(lower, upper)` central credible interval of component `i` at `level`
    /// (e.g. `0.95`, `0.99`) under the Gaussian approximation.
    pub fn credible_interval_at(&self, i: usize, level: f64) -> (f64, f64) {
        let z = credible_z(level);
        (self.mode[i] - z * self.sd[i], self.mode[i] + z * self.sd[i])
    }
}

/// Marginal posterior summaries of the latent field.
#[derive(Clone, Debug)]
pub struct LatentMarginals {
    /// Posterior means (permuted latent ordering).
    pub mean: Vec<f64>,
    /// Posterior standard deviations (permuted latent ordering).
    pub sd: Vec<f64>,
    /// Number of selected-inverse variances that were negative (numerical
    /// noise around zero, or a failing factorization) and clamped to zero
    /// when forming `sd`. Zero for a healthy fit; previously these were
    /// swallowed silently by `v.max(0.0)`.
    pub clamped: usize,
}

impl LatentMarginals {
    /// Pair `mean` with the standard deviations of `variances`, clamping
    /// (and counting) negative variances to zero.
    pub(crate) fn from_variances(mean: Vec<f64>, variances: &[f64]) -> Self {
        let clamped = variances.iter().filter(|v| **v < 0.0).count();
        let sd = variances.iter().map(|v| v.max(0.0).sqrt()).collect();
        LatentMarginals { mean, sd, clamped }
    }
}

/// Factorize `Q_c` at the hyperparameter mode `hyper` and the conditional
/// mode `mean`, so the solver's factor and selected inverse describe the
/// Gaussian approximation there. Only `Q_c` is factorized, not `Q_p`.
pub(crate) fn factorize_at_mode(
    solver: &mut dyn LatentSolver,
    hyper: &ModelHyper,
    mean: &[f64],
) -> Result<(), CoreError> {
    solver.factorize_conditional(hyper)?;
    // Non-Gaussian families: re-weight Q_c at the mode's working weights, not
    // the η = 0 seed weights.
    if !solver.model().likelihood().is_quadratic() {
        let eta = solver.design().spmv(mean);
        let w = solver.model().working_weights(hyper, &eta);
        solver.refactorize_conditional(&w)?;
    }
    Ok(())
}

/// Compute the latent marginals at the hyperparameter mode: the conditional
/// mean is provided by the final objective evaluation, the variances come from
/// the selected inversion of `Q_c` through the solver backend (which reuses
/// whatever factorization workspaces it has already built).
pub fn latent_marginals(
    solver: &mut dyn LatentSolver,
    hyper: &ModelHyper,
    mean: Vec<f64>,
) -> Result<LatentMarginals, CoreError> {
    factorize_at_mode(solver, hyper, &mean)?;
    Ok(LatentMarginals::from_variances(mean, &solver.selected_inverse().diagonal()))
}

/// Posterior summary of one fixed effect.
#[derive(Clone, Debug)]
pub struct FixedEffectSummary {
    /// Latent process index.
    pub process: usize,
    /// Fixed-effect index within the process.
    pub effect: usize,
    /// Posterior mean.
    pub mean: f64,
    /// Posterior standard deviation.
    pub sd: f64,
    /// 2.5% quantile.
    pub q025: f64,
    /// 97.5% quantile.
    pub q975: f64,
}

/// Extract the fixed-effect summaries from the latent marginals.
pub fn fixed_effect_summaries(
    model: &CoregionalModel,
    marginals: &LatentMarginals,
) -> Vec<FixedEffectSummary> {
    let z = credible_z(0.95);
    let mut out = Vec::new();
    for l in 0..model.dims.nv {
        for r in 0..model.dims.nr {
            let idx = model.fixed_effect_index(l, r);
            let mean = marginals.mean[idx];
            let sd = marginals.sd[idx];
            out.push(FixedEffectSummary {
                process: l,
                effect: r,
                mean,
                sd,
                q025: mean - z * sd,
                q975: mean + z * sd,
            });
        }
    }
    out
}

/// Posterior correlations between the response variables implied by the
/// coregionalization matrix at the hyperparameter mode (the quantities the
/// paper reports for the air-pollution application: 0.97 between PM2.5 and
/// PM10, ≈ −0.6 with O3).
pub fn response_correlations(hyper: &ModelHyper) -> Matrix {
    let lambda = hyper.lambda_matrix();
    let cov = dalia_la::blas::matmul(&lambda, &lambda.transpose());
    let nv = hyper.nv();
    Matrix::from_fn(nv, nv, |i, j| cov[(i, j)] / (cov[(i, i)] * cov[(j, j)]).sqrt())
}

/// Posterior predictive summary at arbitrary space-time targets
/// (used for the spatial downscaling of Fig. 8).
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Predictive means, one per target.
    pub mean: Vec<f64>,
    /// Predictive standard deviations of the latent contribution, one per
    /// target. How they are formed depends on the
    /// [`VarianceMode`](crate::snapshot::VarianceMode):
    /// [`predict`] and `VarianceMode::Diagonal` sum `a_j² Var(x_j)` over the
    /// selected-inverse diagonal, dropping every cross-covariance, so they are
    /// approximate; `VarianceMode::Exact` gives `sqrt(aᵀ Q_c⁻¹ a)` with every
    /// cross-covariance between the target's latent entries included, exact
    /// up to factorization accuracy (negative round-off clamps to zero).
    pub sd: Vec<f64>,
}

impl Prediction {
    /// `(lower, upper)` central predictive interval of target `i` at `level`
    /// (e.g. `0.95`), using the same normal-quantile helper as the
    /// hyperparameter and fixed-effect summaries.
    pub fn credible_interval_at(&self, i: usize, level: f64) -> (f64, f64) {
        let z = credible_z(level);
        (self.mean[i] - z * self.sd[i], self.mean[i] + z * self.sd[i])
    }
}

/// Predict the latent response surface at `targets` given the latent
/// marginals, with the diagonal variance approximation (see
/// [`Prediction::sd`]). For exact predictive variances from the kept
/// selected inverse, use
/// [`PosteriorSnapshot::predict_exact`](crate::snapshot::PosteriorSnapshot::predict_exact).
pub fn predict(
    model: &CoregionalModel,
    hyper: &ModelHyper,
    marginals: &LatentMarginals,
    targets: &[PredictionTarget],
) -> Result<Prediction, CoreError> {
    let design = model.prediction_design(hyper, targets).map_err(CoreError::Model)?;
    let mean = design.spmv(&marginals.mean);
    // Variance approximation: Var(aᵀx) ≈ Σ_j a_j² Var(x_j) (diagonal part).
    let mut sd = Vec::with_capacity(targets.len());
    for r in 0..design.nrows() {
        let mut v = 0.0;
        for (c, w) in design.row_iter(r) {
            v += w * w * marginals.sd[c] * marginals.sd[c];
        }
        sd.push(v.sqrt());
    }
    Ok(Prediction { mean, sd })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::{InlaSettings, SolverBackend};
    use dalia_la::blas;
    use dalia_mesh::{Domain, Point, TriangleMesh};
    use dalia_model::{ModelHyper, Observation};
    use serinv::{pobtaf, pobtasi};

    fn toy_model() -> (std::sync::Arc<CoregionalModel>, ModelHyper) {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let nt = 2;
        let mut obs = Vec::new();
        for t in 0..nt {
            for &(x, y, v) in &[(0.2, 0.3, 0.5), (0.7, 0.6, -0.2), (0.5, 0.9, 0.1)] {
                obs.push(Observation {
                    var: 0,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0],
                    value: v,
                });
            }
        }
        let model = std::sync::Arc::new(CoregionalModel::new(&mesh, nt, 1.0, 1, 1, obs).unwrap());
        let hyper = ModelHyper::default_for(1, 0.7, 2.0);
        (model, hyper)
    }

    #[test]
    fn hyper_marginals_from_spd_hessian() {
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let m = HyperMarginals::from_hessian(vec![0.5, -0.2], &h).unwrap();
        assert_eq!(m.sd.len(), 2);
        assert!(m.sd[0] > 0.0);
        assert_eq!(m.clamped, 0, "SPD Hessian must not clamp any variance");
        let (lo, hi) = m.credible_interval(0);
        assert!(lo < 0.5 && hi > 0.5);
    }

    #[test]
    fn normal_quantile_matches_known_values() {
        assert!(normal_quantile(0.5).abs() < 1e-12);
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-5);
        assert!((normal_quantile(0.995) - 2.575829).abs() < 1e-5);
        assert!((normal_quantile(0.999) - 3.090232).abs() < 1e-5);
        assert!((normal_quantile(1e-6) + 4.753424).abs() < 1e-4);
        // Antisymmetry across the median, and monotonicity.
        for &p in &[0.001, 0.01, 0.1, 0.3, 0.49] {
            assert!((normal_quantile(p) + normal_quantile(1.0 - p)).abs() < 1e-9, "p={p}");
        }
        let mut last = f64::NEG_INFINITY;
        for i in 1..100 {
            let q = normal_quantile(i as f64 / 100.0);
            assert!(q > last);
            last = q;
        }
    }

    #[test]
    fn credible_intervals_widen_with_level() {
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let m = HyperMarginals::from_hessian(vec![0.5, -0.2], &h).unwrap();
        let (l95, u95) = m.credible_interval_at(0, 0.95);
        let (l99, u99) = m.credible_interval_at(0, 0.99);
        assert!(l99 < l95 && u95 < u99, "99% interval must contain the 95% one");
        assert_eq!(m.credible_interval(0), m.credible_interval_at(0, 0.95));
        // The default level reproduces the classic 1.96 multiplier (to the
        // approximation's accuracy — the old code hard-coded the rounding).
        let z = (u95 - m.mode[0]) / m.sd[0];
        assert!((z - 1.96).abs() < 1e-3, "default z {z}");
    }

    #[test]
    fn boundary_credible_levels_stay_finite() {
        // Regression: levels 0.0 and 1.0 used to reach `(-2 p.ln()).sqrt()`
        // unguarded and return ±inf/NaN interval bounds. They now clamp into
        // the open interval: 0.0 collapses onto the mode, 1.0 saturates at
        // the approximation's widest finite interval.
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let m = HyperMarginals::from_hessian(vec![0.5, -0.2], &h).unwrap();
        let (l0, u0) = m.credible_interval_at(0, 0.0);
        assert!(l0.is_finite() && u0.is_finite());
        assert!((u0 - l0).abs() < 1e-12, "level 0 must collapse to the mode");
        assert!((l0 - m.mode[0]).abs() < 1e-12);
        let (l1, u1) = m.credible_interval_at(0, 1.0);
        assert!(l1.is_finite() && u1.is_finite(), "level 1 produced ({l1}, {u1})");
        let (l99, u99) = m.credible_interval_at(0, 0.99);
        assert!(l1 < l99 && u99 < u1, "saturated interval must contain the 99% one");
        // The saturated multiplier is the documented ≈8.2 ceiling.
        let z = (u1 - m.mode[0]) / m.sd[0];
        assert!(z > 8.0 && z < 8.5, "saturated z {z}");
    }

    #[test]
    fn hyper_marginals_regularizes_indefinite_hessian() {
        let h = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // indefinite
        let m = HyperMarginals::from_hessian(vec![0.0, 0.0], &h).unwrap();
        assert!(m.sd.iter().all(|s| s.is_finite() && *s > 0.0));
    }

    fn marginals_for(
        model: &std::sync::Arc<CoregionalModel>,
        hyper: &ModelHyper,
        settings: &InlaSettings,
    ) -> LatentMarginals {
        let mut solver = settings.backend.build(model);
        latent_marginals(solver.as_mut(), hyper, vec![0.0; model.dims.latent_dim()]).unwrap()
    }

    #[test]
    fn latent_marginals_bta_and_sparse_agree() {
        let (model, hyper) = toy_model();
        let bta = marginals_for(&model, &hyper, &InlaSettings::dalia(1));
        let sparse = marginals_for(&model, &hyper, &InlaSettings::rinla_like());
        for (a, b) in bta.sd.iter().zip(&sparse.sd) {
            assert!((a - b).abs() < 1e-7, "sd mismatch {a} vs {b}");
        }
        // Distributed solver agrees too.
        let dist = marginals_for(&model, &hyper, &InlaSettings::dalia(2));
        for (a, b) in bta.sd.iter().zip(&dist.sd) {
            assert!((a - b).abs() < 1e-7);
        }
        // A healthy SPD conditional precision clamps nothing, on any backend.
        for m in [&bta, &sparse, &dist] {
            debug_assert_eq!(m.clamped, 0);
            assert_eq!(m.clamped, 0, "selected inverse clamped {} variances", m.clamped);
        }
    }

    #[test]
    fn diagonal_variance_approximation_vs_dense_truth() {
        // Pin down the semantics of `predict`'s diagonal variance
        // approximation: compare against the brute-force dense truth
        // Var = diag(A Q_c⁻¹ Aᵀ), and show that the factor-backed solve
        // (a blocked multi-RHS solve, see `SnapshotFactor::solve_many` — the
        // oracle `tests/exact_variance.rs` holds `VarianceMode::Exact`'s
        // selected-inverse reads to) reproduces the truth while the diagonal
        // shortcut carries a real, documented gap — the gap the serving
        // layer's `VarianceMode::Exact` closes.
        let (model, hyper) = toy_model();
        let mut solver = SolverBackend::Bta { partitions: 1, load_balance: 1.0 }.build(&model);
        let marg = latent_marginals(solver.as_mut(), &hyper, vec![0.0; model.dims.latent_dim()])
            .unwrap();

        let targets: Vec<PredictionTarget> = (0..8)
            .map(|i| PredictionTarget {
                var: 0,
                t: i % 2,
                loc: Point::new(0.1 + 0.09 * i as f64, 0.2 + 0.08 * i as f64),
                covariates: vec![1.0],
            })
            .collect();
        let pred = predict(&model, &hyper, &marg, &targets).unwrap();

        // Brute-force dense truth.
        let (qc, _) = model.assemble_qc_bta(&hyper);
        let sigma = chol::spd_inverse(&qc.to_dense()).unwrap();
        let a = model.prediction_design(&hyper, &targets).unwrap().to_dense();
        let asat = blas::matmul(&blas::matmul(&a, &sigma), &a.transpose());
        let truth: Vec<f64> = (0..targets.len()).map(|j| asat[(j, j)].sqrt()).collect();

        // The solve oracle: Z = Q_c⁻¹ Aᵀ through the frozen factor.
        let factor = solver.snapshot_factor().unwrap();
        let n = model.dims.latent_dim();
        let mut rhs = Matrix::from_fn(n, targets.len(), |i, j| a[(j, i)]);
        factor.solve_many(&mut rhs);
        for j in 0..targets.len() {
            let v: f64 = (0..n).map(|i| a[(j, i)] * rhs.col(j)[i]).sum();
            let exact_sd = v.max(0.0).sqrt();
            assert!(
                (exact_sd - truth[j]).abs() < 1e-8 * (1.0 + truth[j]),
                "target {j}: exact-mode sd {exact_sd} vs dense truth {}",
                truth[j]
            );
        }

        // The diagonal approximation is in the right ballpark but NOT exact:
        // it drops every off-diagonal covariance a prediction functional
        // mixes in. Document the gap instead of hiding it.
        let mut max_rel_gap: f64 = 0.0;
        for j in 0..targets.len() {
            let rel = (pred.sd[j] - truth[j]).abs() / truth[j];
            // Same order of magnitude (on this toy model it overestimates by
            // up to ~2.5×, because the dropped cross-covariances of a smooth
            // field are what cancel neighboring nodes' variance contributions).
            assert!(rel < 5.0, "target {j}: diagonal sd {} vs truth {}", pred.sd[j], truth[j]);
            max_rel_gap = max_rel_gap.max(rel);
        }
        assert!(
            max_rel_gap > 1e-3,
            "diagonal approximation unexpectedly matched the dense truth \
             (max relative gap {max_rel_gap:.2e}); if cross-covariances are \
             now included, retire this documented gap"
        );
    }

    #[test]
    fn observed_locations_have_reduced_uncertainty() {
        let (model, hyper) = toy_model();
        let marg = marginals_for(&model, &hyper, &InlaSettings::dalia(1));
        // The prior marginal sd (without data) is larger on average.
        let qp = model.assemble_qp_bta(&hyper);
        let fp = pobtaf(&qp).unwrap();
        let prior_sd: Vec<f64> = pobtasi(&fp).diagonal().iter().map(|v| v.sqrt()).collect();
        let ns = model.dims.ns;
        let avg_post: f64 = marg.sd[..ns].iter().sum::<f64>() / ns as f64;
        let avg_prior: f64 = prior_sd[..ns].iter().sum::<f64>() / ns as f64;
        assert!(avg_post < avg_prior, "data did not reduce uncertainty ({avg_post} vs {avg_prior})");
    }

    #[test]
    fn fixed_effect_summaries_cover_all_processes() {
        let (model, hyper) = toy_model();
        let mut solver = SolverBackend::Bta { partitions: 1, load_balance: 1.0 }.build(&model);
        let marg =
            latent_marginals(solver.as_mut(), &hyper, vec![0.1; model.dims.latent_dim()]).unwrap();
        let fx = fixed_effect_summaries(&model, &marg);
        assert_eq!(fx.len(), model.dims.nv * model.dims.nr);
        assert!(fx[0].q025 < fx[0].mean && fx[0].mean < fx[0].q975);
    }

    #[test]
    fn response_correlations_match_lambda() {
        let hyper = ModelHyper {
            range_s: vec![1.0; 3],
            range_t: vec![1.0; 3],
            sigmas: vec![1.0, 1.0, 1.0],
            lambdas: vec![0.95, -0.5, -0.3],
            noise_prec: vec![1.0; 3],
        };
        let corr = response_correlations(&hyper);
        assert!((corr[(0, 0)] - 1.0).abs() < 1e-12);
        assert!(corr[(1, 0)] > 0.6, "strong positive coupling expected");
        assert!(corr[(2, 0)] < 0.0, "negative coupling expected");
        assert!(corr.max_abs_diff(&corr.transpose()) < 1e-12);
    }

    #[test]
    fn prediction_at_observed_location_tracks_mean_field() {
        let (model, hyper) = toy_model();
        let mean: Vec<f64> = (0..model.dims.latent_dim()).map(|i| 0.01 * i as f64).collect();
        let marg = LatentMarginals { sd: vec![0.1; mean.len()], mean, clamped: 0 };
        let targets = vec![PredictionTarget {
            var: 0,
            t: 1,
            loc: Point::new(0.5, 0.5),
            covariates: vec![0.0],
        }];
        let pred = predict(&model, &hyper, &marg, &targets).unwrap();
        assert_eq!(pred.mean.len(), 1);
        assert!(pred.sd[0] > 0.0);
        assert!(pred.mean[0].is_finite());
    }
}
