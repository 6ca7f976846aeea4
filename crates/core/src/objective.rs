//! The INLA objective function `f_obj(θ)` (Eq. 8 of the paper) and the inner
//! Newton loop that locates the conditional mode of the latent field.
//!
//! ```text
//! f_obj(θ) = log p(θ) + log ℓ(y | θ, x*) + log p(x* | θ) − log p_G(x* | θ, y)
//!          = log p(θ) + log ℓ(y | θ, x*)
//!            + ½ log|Q_p| − ½ x*ᵀ Q_p x* − ½ log|Q_c(x*)|
//! ```
//!
//! where `x*` maximizes the conditional log-posterior
//! `ψ(x) = −½ xᵀ Q_p x + Σ_i ℓ_i(η_i)`, `η = A x`. For the Gaussian
//! likelihood ψ is quadratic, the Laplace approximation is exact, and a single
//! Newton step `Q_c x* = Aᵀ D y` lands on the mode — one evaluation costs one
//! structured factorization of `Q_c`, `log|Q_p|` and one triangular solve.
//! The paper counts two full-size factorizations (`Q_p`, `Q_c`); the BTA
//! backend takes `log|Q_p|` from the `nv` per-process prior precisions
//! instead, at about a ninth of the joint factor's flops for `nv = 3` (see
//! `docs/performance.md`). Non-Gaussian families
//! ([`conditional_mode`]) iterate the same step with working weights
//! `W(η) = −diag(ℓ″)` and working right-hand side `Aᵀ(Wη + g)`; only the
//! diagonal perturbation `AᵀWA` of `Q_c` changes between iterations, so each
//! one reuses the assembled `Q_p` and warm factor storage through
//! [`LatentSolver::refactorize_conditional`]. All operations go through the
//! [`LatentSolver`] trait, so the evaluation is backend-agnostic and benefits
//! from whatever workspaces the solver amortizes across calls.

use crate::settings::InlaSettings;
use crate::solver::{LatentSolver, PhaseTimers};
use crate::CoreError;
use dalia_model::{ModelHyper, ThetaPrior};
use std::time::Instant;

/// Configuration of the inner Newton loop, extracted from
/// [`InlaSettings`] (or built directly for standalone
/// [`conditional_mode`] calls).
#[derive(Clone, Copy, Debug)]
pub struct InnerSettings {
    /// Convergence tolerance on `‖Δx‖∞` of the (damped) Newton update.
    pub tol: f64,
    /// Maximum Newton iterations per objective evaluation.
    pub max_iter: usize,
}

impl Default for InnerSettings {
    fn default() -> Self {
        Self { tol: 1e-8, max_iter: 50 }
    }
}

impl From<&InlaSettings> for InnerSettings {
    fn from(s: &InlaSettings) -> Self {
        Self { tol: s.inner_tol, max_iter: s.inner_max_iter }
    }
}

/// Outcome of one inner-Newton mode search ([`conditional_mode`]).
#[derive(Clone, Debug)]
pub struct InnerModeResult {
    /// The conditional mode `x*` (permuted ordering).
    pub mode: Vec<f64>,
    /// Newton iterations performed (1 for the Gaussian likelihood).
    pub iterations: usize,
    /// Whether `‖Δx‖∞ ≤ tol` was reached within `max_iter` iterations.
    pub converged: bool,
    /// Conditional log-posterior ψ after the start and each accepted step
    /// (non-decreasing up to an O(ε) relative line-search slack; empty for
    /// the Gaussian one-step path).
    pub psi_trace: Vec<f64>,
    /// Out-of-solver assembly work (right-hand sides, weights, line-search
    /// evaluations) in seconds, to be folded into the assembly phase.
    pub assembly_seconds: f64,
}

/// Everything produced by one objective-function evaluation.
#[derive(Clone, Debug)]
pub struct FobjResult {
    /// The objective value `f_obj(θ)`.
    pub value: f64,
    /// Conditional mode `x*` of the latent field (the conditional mean for
    /// the Gaussian likelihood), permuted ordering.
    pub mean: Vec<f64>,
    /// `log |Q_p|`.
    pub logdet_qp: f64,
    /// `log |Q_c|` at the mode's working weights.
    pub logdet_qc: f64,
    /// Log-likelihood at the mode.
    pub loglik: f64,
    /// Log prior density of θ.
    pub logprior: f64,
    /// Inner Newton iterations spent locating the mode (1 for Gaussian).
    pub inner_iterations: usize,
    /// Whether the inner loop met its tolerance (always true for Gaussian).
    pub inner_converged: bool,
    /// Phase timings of this evaluation (assembly, factorization, solve).
    pub timers: PhaseTimers,
}

impl FobjResult {
    /// Wall-clock seconds spent in the structured/sparse solver.
    pub fn solver_seconds(&self) -> f64 {
        self.timers.solver_seconds()
    }

    /// Wall-clock seconds spent assembling matrices.
    pub fn assembly_seconds(&self) -> f64 {
        self.timers.assembly_seconds
    }
}

/// Conditional log-posterior `ψ(x) = −½ xᵀ Q_p x + Σ_i ℓ_i(η_i)` at an
/// already-computed linear predictor (the line-search merit function; the
/// additive `log p(θ)` and normalization constants drop out of comparisons).
fn psi_at(solver: &dyn LatentSolver, hyper: &ModelHyper, x: &[f64], eta: &[f64]) -> f64 {
    -0.5 * solver.quadratic_form_qp(x) + solver.model().log_likelihood_at_eta(hyper, eta)
}

/// Locate the conditional mode `x* = argmax ψ(x)` by damped Newton iteration.
///
/// The solver must already be factorized at `hyper` (so `Q_p` is assembled and
/// `Q_c` holds the η = 0 working weights). Each iteration solves
/// `Q_c(w) x⁺ = Aᵀ(Wη + g)`, backtracks along `x⁺ − x` until ψ does not
/// decrease, then moves the conditional factorization to the new weights via
/// [`LatentSolver::refactorize_conditional`] — only the diagonal perturbation
/// `AᵀWA` is re-assembled; `Q_p`, the design product pattern and the factor
/// storage are all reused. On return the solver's conditional factorization is
/// at the mode's working weights, so `logdet_qc`, selected inversion and
/// snapshots all refer to the Gaussian approximation at `x*`.
///
/// For the quadratic (Gaussian) ψ the first Newton target is the exact mode,
/// so the loop accepts it and stops after one iteration without a line search
/// or refactorization; with `x0 = None` the first right-hand side is bitwise
/// the historical information vector `Aᵀ D y`, keeping the Gaussian hot path
/// unchanged.
pub fn conditional_mode(
    solver: &mut dyn LatentSolver,
    hyper: &ModelHyper,
    x0: Option<&[f64]>,
    inner: InnerSettings,
) -> Result<InnerModeResult, CoreError> {
    let quadratic = solver.model().likelihood().is_quadratic();
    let n_latent = solver.design().ncols();
    let n_obs = solver.design().nrows();
    let mut assembly = 0.0f64;

    let mut x: Vec<f64>;
    let mut eta: Vec<f64>;
    let mut at_zero_start;
    match x0 {
        Some(v) => {
            assert_eq!(v.len(), n_latent, "conditional_mode: x0 dimension mismatch");
            x = v.to_vec();
            at_zero_start = false;
            let t = Instant::now();
            eta = solver.design().spmv(&x);
            let warm_w =
                (!quadratic).then(|| solver.model().working_weights(hyper, &eta));
            assembly += t.elapsed().as_secs_f64();
            // factorize() left Q_c at the η = 0 weights; a warm start needs
            // the factorization moved to w(η(x0)) before the first solve.
            if let Some(w) = warm_w {
                solver.refactorize_conditional(&w)?;
            }
        }
        None => {
            x = vec![0.0; n_latent];
            eta = vec![0.0; n_obs];
            at_zero_start = true;
        }
    }

    let mut psi_trace: Vec<f64> = Vec::new();
    let mut psi_x = 0.0;
    if !quadratic {
        let t = Instant::now();
        psi_x = psi_at(solver, hyper, &x, &eta);
        assembly += t.elapsed().as_secs_f64();
        psi_trace.push(psi_x);
    }

    let mut iterations = 0usize;
    let mut converged = false;

    while iterations < inner.max_iter {
        iterations += 1;

        // Working right-hand side Aᵀ(Wη + g). At x = 0 the weighted term
        // vanishes and g reduces to the Gaussian D·y bitwise, reproducing
        // the historical information vector exactly.
        let t = Instant::now();
        let rhs = {
            let model = solver.model();
            let g = model.likelihood_scores(hyper, &eta);
            if at_zero_start {
                solver.design().spmv_t(&g)
            } else {
                let w = model.working_weights(hyper, &eta);
                let work: Vec<f64> = eta
                    .iter()
                    .zip(&w)
                    .zip(&g)
                    .map(|((&e, &wi), &gi)| wi * e + gi)
                    .collect();
                solver.design().spmv_t(&work)
            }
        };
        assembly += t.elapsed().as_secs_f64();
        let target = solver.solve_mean(&rhs);
        at_zero_start = false;

        if quadratic {
            // ψ is quadratic: the Newton target IS the mode. No line search,
            // no reweighting (W is constant for Gaussian).
            x = target;
            converged = true;
            break;
        }

        let t = Instant::now();
        let delta: Vec<f64> = target.iter().zip(&x).map(|(&ti, &xi)| ti - xi).collect();
        let step_inf = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        if step_inf <= inner.tol {
            // Full step already under tolerance: take it and stop.
            x = target;
            eta = solver.design().spmv(&x);
            psi_trace.push(psi_at(solver, hyper, &x, &eta));
            assembly += t.elapsed().as_secs_f64();
            converged = true;
            break;
        }

        // Backtracking line search on ψ along the Newton direction: halve the
        // step until the conditional log-posterior is finite and no worse.
        // The comparison carries an O(ε) relative slack: near the mode the
        // ψ-increase of a full Newton step sinks below the rounding noise of
        // evaluating ψ itself, and a strict comparison would damp the step on
        // noise — stalling convergence at a backend-dependent mode estimate.
        // Convergence is only ever declared on the FULL Newton step norm (the
        // `step_inf <= tol` branch above), never on a damped step.
        let psi_slack = 1e-13 * (1.0 + psi_x.abs());
        let mut accepted = false;
        let mut s = 1.0f64;
        for _ in 0..30 {
            let cand: Vec<f64> =
                x.iter().zip(&delta).map(|(&xi, &di)| xi + s * di).collect();
            let cand_eta = solver.design().spmv(&cand);
            let psi_c = psi_at(solver, hyper, &cand, &cand_eta);
            if psi_c.is_finite() && psi_c >= psi_x - psi_slack {
                x = cand;
                eta = cand_eta;
                psi_x = psi_c;
                psi_trace.push(psi_c);
                accepted = true;
                break;
            }
            s *= 0.5;
        }
        assembly += t.elapsed().as_secs_f64();
        if !accepted {
            // No admissible step: ψ is locally flat to working precision, so
            // the current x is the best available mode estimate.
            break;
        }

        // Move the conditional factorization to the new working weights for
        // the next Newton solve. Only the diagonal perturbation AᵀWA changes.
        let t = Instant::now();
        let w = solver.model().working_weights(hyper, &eta);
        assembly += t.elapsed().as_secs_f64();
        solver.refactorize_conditional(&w)?;
    }

    if !quadratic {
        // Contract: leave the factorization at the mode's weights so the
        // caller's logdet_qc / selected inversion / snapshot describe the
        // Gaussian approximation at x*.
        let t = Instant::now();
        let w = solver.model().working_weights(hyper, &eta);
        assembly += t.elapsed().as_secs_f64();
        solver.refactorize_conditional(&w)?;
    }

    Ok(InnerModeResult { mode: x, iterations, converged, psi_trace, assembly_seconds: assembly })
}

/// Evaluate `f_obj` at `theta` through a stateful solver backend, locating the
/// conditional mode with the inner Newton loop configured by `inner`.
///
/// The solver's workspaces are re-filled in place, so repeated calls on one
/// solver skip per-evaluation allocation and symbolic-analysis costs. The
/// solver's phase timers are reset at entry; the accumulated phase times of
/// this evaluation are returned in [`FobjResult::timers`].
pub fn evaluate_fobj_with_inner(
    solver: &mut dyn LatentSolver,
    prior: &ThetaPrior,
    theta: &[f64],
    inner: InnerSettings,
) -> Result<FobjResult, CoreError> {
    let hyper = ModelHyper::from_theta(solver.model().dims.nv, theta);
    // A θ far out on the log scale under- or overflows a range, σ or τ (σ = 0
    // makes Λ singular): reject it as a failed evaluation before assembly.
    let positive = |v: &f64| v.is_finite() && *v > 0.0;
    let in_domain = hyper.range_s.iter().all(positive)
        && hyper.range_t.iter().all(positive)
        && hyper.sigmas.iter().all(positive)
        && hyper.noise_prec.iter().all(positive)
        && hyper.lambdas.iter().all(|l| l.is_finite());
    if !in_domain {
        return Err(CoreError::NonFiniteObjective);
    }
    let logprior = prior.log_density(theta);

    solver.reset_timers();
    solver.factorize(&hyper)?;
    let inner_result = conditional_mode(solver, &hyper, None, inner)?;
    let mean = inner_result.mode;
    let logdet_qp = solver.logdet_qp();
    let logdet_qc = solver.logdet_qc();
    let quad = solver.quadratic_form_qp(&mean);
    let loglik = solver.model().log_likelihood(&hyper, solver.design(), &mean);

    let value = logprior + loglik + 0.5 * logdet_qp - 0.5 * quad - 0.5 * logdet_qc;
    if !value.is_finite() {
        return Err(CoreError::NonFiniteObjective);
    }
    // Mode-search work performed outside the solver (right-hand sides,
    // weights, line search) is assembly work; fold it into the assembly phase
    // so totals match the pre-redesign accounting.
    let mut timers = solver.timers();
    timers.assembly_seconds += inner_result.assembly_seconds;
    Ok(FobjResult {
        value,
        mean,
        logdet_qp,
        logdet_qc,
        loglik,
        logprior,
        inner_iterations: inner_result.iterations,
        inner_converged: inner_result.converged,
        timers,
    })
}

/// Evaluate `f_obj` at `theta` with the default inner-loop settings.
///
/// Equivalent to [`evaluate_fobj_with_inner`] with [`InnerSettings::default`];
/// for the Gaussian likelihood the inner loop reduces to the single
/// information-vector solve, bit-for-bit.
pub fn evaluate_fobj_with(
    solver: &mut dyn LatentSolver,
    prior: &ThetaPrior,
    theta: &[f64],
) -> Result<FobjResult, CoreError> {
    evaluate_fobj_with_inner(solver, prior, theta, InnerSettings::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InlaEngine;
    use crate::settings::InlaSettings;
    use dalia_mesh::{Domain, Point, TriangleMesh};
    use dalia_model::{CoregionalModel, Observation};

    fn toy_model(nv: usize) -> (std::sync::Arc<CoregionalModel>, ThetaPrior, Vec<f64>) {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let nt = 3;
        let nr = 1;
        let mut obs = Vec::new();
        for v in 0..nv {
            for t in 0..nt {
                for &(x, y) in &[(0.25, 0.25), (0.75, 0.5), (0.4, 0.85)] {
                    obs.push(Observation {
                        var: v,
                        t,
                        loc: Point::new(x, y),
                        covariates: vec![1.0],
                        value: 0.3 * (v as f64) + 0.2 * (t as f64) + 0.1 * x,
                    });
                }
            }
        }
        let model = std::sync::Arc::new(CoregionalModel::new(&mesh, nt, 1.0, nv, nr, obs).unwrap());
        let hyper = ModelHyper::default_for(nv, 0.7, 2.0);
        let theta = hyper.to_theta();
        let prior = ThetaPrior::weakly_informative(&theta, 2.0);
        (model, prior, theta)
    }

    fn evaluate(
        model: &std::sync::Arc<CoregionalModel>,
        prior: &ThetaPrior,
        theta: &[f64],
        settings: InlaSettings,
    ) -> FobjResult {
        let session = InlaEngine::builder(model)
            .prior(prior.clone())
            .settings(settings)
            .build()
            .unwrap();
        session.evaluate(theta).unwrap()
    }

    #[test]
    fn bta_and_sparse_backends_agree() {
        for nv in [1usize, 2] {
            let (model, prior, theta) = toy_model(nv);
            let bta = evaluate(&model, &prior, &theta, InlaSettings::dalia(1));
            let sparse = evaluate(&model, &prior, &theta, InlaSettings::rinla_like());
            assert!(
                (bta.value - sparse.value).abs() < 1e-6 * (1.0 + bta.value.abs()),
                "nv={nv}: {} vs {}",
                bta.value,
                sparse.value
            );
            assert!((bta.logdet_qc - sparse.logdet_qc).abs() < 1e-6 * (1.0 + bta.logdet_qc.abs()));
            for (a, b) in bta.mean.iter().zip(&sparse.mean) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn fresh_solver_evaluation_matches_session_evaluation() {
        // A one-shot solver from the backend factory and a session's pooled
        // solver run the same evaluation, to the last bit.
        for settings in [InlaSettings::dalia(1), InlaSettings::dalia(3)] {
            let (model, prior, theta) = toy_model(2);
            let mut solver = settings.backend.build(&model);
            let fresh = evaluate_fobj_with(solver.as_mut(), &prior, &theta).unwrap();
            let via_session = evaluate(&model, &prior, &theta, settings);
            assert_eq!(fresh.value.to_bits(), via_session.value.to_bits());
            assert_eq!(fresh.logdet_qc.to_bits(), via_session.logdet_qc.to_bits());
        }
    }

    #[test]
    fn distributed_solver_gives_same_objective() {
        let (model, prior, theta) = toy_model(2);
        let seq = evaluate(&model, &prior, &theta, InlaSettings::dalia(1));
        let dist = evaluate(&model, &prior, &theta, InlaSettings::dalia(3));
        assert!((seq.value - dist.value).abs() < 1e-7 * (1.0 + seq.value.abs()));
    }

    #[test]
    fn objective_components_have_expected_signs() {
        let (model, prior, theta) = toy_model(1);
        let r = evaluate(&model, &prior, &theta, InlaSettings::dalia(1));
        // Conditional precision adds the likelihood information, so its
        // log-determinant is larger than the prior one.
        assert!(r.logdet_qc > r.logdet_qp);
        assert!(r.loglik.is_finite());
        assert!(r.value.is_finite());
        assert!(r.solver_seconds() > 0.0);
        assert!(r.assembly_seconds() > 0.0);
    }

    #[test]
    fn degenerate_theta_is_an_error_not_a_panic() {
        // θ = [log ρ_s, log ρ_t, log σ, log τ]: σ = exp(−800) underflows to 0
        // (a singular Λ), exp(800) overflows to ∞, and a NaN stays NaN.
        let (model, prior, theta) = toy_model(1);
        let session = InlaEngine::builder(&model).prior(prior).build().unwrap();
        for log_sigma in [-800.0, 800.0, f64::NAN] {
            let mut bad = theta.clone();
            bad[2] = log_sigma;
            assert!(
                matches!(session.evaluate(&bad), Err(CoreError::NonFiniteObjective)),
                "log σ = {log_sigma} evaluated"
            );
        }
        assert!(session.evaluate(&theta).is_ok());
    }

    #[test]
    fn objective_changes_with_theta() {
        let (model, prior, theta) = toy_model(1);
        let r0 = evaluate(&model, &prior, &theta, InlaSettings::dalia(1));
        let mut theta2 = theta.clone();
        theta2[0] += 0.5;
        let r1 = evaluate(&model, &prior, &theta2, InlaSettings::dalia(1));
        assert!((r0.value - r1.value).abs() > 1e-8);
    }
}
