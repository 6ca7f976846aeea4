//! Hyperparameter optimization: central-difference gradients evaluated in
//! parallel (strategy S1) and a BFGS quasi-Newton loop (Sec. III.2).
//!
//! All objective evaluations go through an [`InlaSession`], whose pooled
//! stateful solvers amortize assembly workspaces and symbolic analysis across
//! every evaluation of a BFGS run.
//!
//! A BFGS iteration costs what it reads: each backtracking line-search trial
//! is one objective evaluation, and only the accepted point gets the `2·dim(θ)`
//! ±h evaluations of its central-difference gradient — one S1 fan-out per
//! iteration, reusing the accepted trial as the central point. The last
//! budgeted iteration skips even that fan-out, since no later iteration reads
//! its gradient.
//!
//! The S1 fan-out (`par_iter` over the evaluation points) executes on the
//! work-stealing pool (`dalia-pool`): lanes have non-uniform costs — ±h
//! shifts hit different factorization difficulty — so idle workers steal
//! queued lanes instead of waiting on a fixed chunk. Lane placement never
//! changes results: the `session_reuse` suite pins parallel and sequential
//! gradients to be bitwise-identical.

use crate::engine::InlaSession;
use crate::objective::FobjResult;
use crate::solver::PhaseTimers;
use crate::CoreError;
use dalia_la::{blas, Matrix};
use rayon::prelude::*;

/// Result of one gradient evaluation.
#[derive(Clone, Debug)]
pub struct GradientResult {
    /// Objective value at the central point.
    pub value: f64,
    /// Central-difference gradient of `f_obj`.
    pub gradient: Vec<f64>,
    /// The central-point evaluation (kept for the conditional mean).
    pub central: FobjResult,
    /// Number of objective evaluations performed (`2·dim(θ) + 1`).
    pub n_evaluations: usize,
    /// Phase timings accumulated over all evaluations.
    pub timers: PhaseTimers,
}

impl GradientResult {
    /// Total solver seconds accumulated over all evaluations.
    pub fn solver_seconds(&self) -> f64 {
        self.timers.solver_seconds()
    }
}

/// Evaluate the objective at every point in parallel on the current pool
/// (the S1 layer, one pooled solver per concurrent lane), and return in point
/// order what `keep` takes from each evaluation — so a caller that reads only
/// values holds no latent means.
fn evaluate_all<T: Send>(
    session: &InlaSession,
    points: &[Vec<f64>],
    keep: impl Fn(FobjResult) -> T + Sync,
) -> Vec<Result<T, CoreError>> {
    points.par_iter().map(|p| session.evaluate(p).map(&keep)).collect()
}

/// Evaluate `f_obj` and its central-difference gradient (Eq. 10). The
/// `2·dim(θ) + 1` evaluations run in parallel — this is the S1 layer of the
/// paper, with one pooled solver per concurrent lane.
pub fn evaluate_gradient(session: &InlaSession, theta: &[f64]) -> Result<GradientResult, CoreError> {
    central_difference(session, theta, None)
}

/// The central-difference gradient at `theta`. `central` is an evaluation
/// already made at `theta`; without one, the central point joins the ±h
/// points in the same fan-out.
fn central_difference(
    session: &InlaSession,
    theta: &[f64],
    central: Option<FobjResult>,
) -> Result<GradientResult, CoreError> {
    let dim = theta.len();
    let h = session.settings().fd_step;
    // Build the list of evaluation points: central if needed, then ±h per
    // component.
    let mut points: Vec<Vec<f64>> = Vec::with_capacity(2 * dim + 1);
    if central.is_none() {
        points.push(theta.to_vec());
    }
    for i in 0..dim {
        let mut plus = theta.to_vec();
        plus[i] += h;
        points.push(plus);
        let mut minus = theta.to_vec();
        minus[i] -= h;
        points.push(minus);
    }

    let mut iter = evaluate_all(session, &points, |r| r).into_iter();
    let central = match central {
        Some(c) => c,
        None => iter.next().unwrap()?,
    };
    let mut gradient = vec![0.0; dim];
    let mut timers = central.timers;
    let mut collected: Vec<FobjResult> = Vec::with_capacity(2 * dim);
    for r in iter {
        let r = r?;
        timers.merge(&r.timers);
        collected.push(r);
    }
    for i in 0..dim {
        let plus = &collected[2 * i];
        let minus = &collected[2 * i + 1];
        gradient[i] = (plus.value - minus.value) / (2.0 * h);
    }
    Ok(GradientResult {
        value: central.value,
        gradient,
        central,
        n_evaluations: 2 * dim + 1,
        timers,
    })
}

/// One BFGS iteration record.
#[derive(Clone, Debug)]
pub struct IterationRecord {
    /// Iteration index.
    pub iter: usize,
    /// Objective value.
    pub value: f64,
    /// Gradient norm.
    pub grad_norm: f64,
    /// Step length accepted by the line search.
    pub step: f64,
    /// Wall-clock seconds of this iteration.
    pub seconds: f64,
    /// Solver seconds of this iteration's evaluations: every successful
    /// line-search trial, plus the accepted point's ±h gradient points when
    /// they were evaluated (0 for an iteration that converged on entry).
    pub solver_seconds: f64,
}

/// Result of the BFGS optimization of `-f_obj`.
#[derive(Clone, Debug)]
pub struct OptimizationResult {
    /// The hyperparameter mode θ*.
    pub theta: Vec<f64>,
    /// Objective value at the mode.
    pub value: f64,
    /// The final central evaluation (conditional mean at the mode).
    pub central: FobjResult,
    /// Per-iteration records.
    pub trace: Vec<IterationRecord>,
    /// Whether the gradient tolerance was reached.
    pub converged: bool,
}

/// A point the line search accepted.
struct Accepted {
    theta: Vec<f64>,
    central: FobjResult,
    /// Its gradient; `None` on the last budgeted iteration, which no later
    /// iteration reads.
    gradient: Option<Vec<f64>>,
}

/// Backtracking line search from `theta` (value `f`) along `direction`: steps
/// `1, ½, …, 2⁻¹¹`, each one objective evaluation, until one improves on `f`
/// and — when `with_gradient` is set — the ±h points of its gradient all
/// evaluate. An `Err` at a trial or at its ±h points rejects the trial.
/// Returns the accepted point and step (step 0 when none was accepted), with
/// the phase timings of every successful evaluation made.
fn line_search(
    session: &InlaSession,
    theta: &[f64],
    f: f64,
    direction: &[f64],
    with_gradient: bool,
) -> (Option<Accepted>, f64, PhaseTimers) {
    let mut timers = PhaseTimers::default();
    let mut step = 1.0;
    for _ in 0..12 {
        let candidate: Vec<f64> =
            theta.iter().zip(direction).map(|(t, d)| t + step * d).collect();
        match session.evaluate(&candidate) {
            Ok(trial) if trial.value > f + 1e-10 => {
                let trial_timers = trial.timers;
                let point = if with_gradient {
                    central_difference(session, &candidate, Some(trial))
                        .map(|g| (g.central, Some(g.gradient), g.timers))
                } else {
                    Ok((trial, None, trial_timers))
                };
                match point {
                    Ok((central, gradient, point_timers)) => {
                        timers.merge(&point_timers);
                        let accepted = Accepted { theta: candidate, central, gradient };
                        return (Some(accepted), step, timers);
                    }
                    Err(_) => timers.merge(&trial_timers),
                }
            }
            Ok(trial) => timers.merge(&trial.timers),
            Err(_) => {}
        }
        step *= 0.5;
    }
    (None, 0.0, timers)
}

/// Maximize `f_obj(θ)` with BFGS + backtracking line search.
pub fn maximize_fobj(session: &InlaSession, theta0: &[f64]) -> Result<OptimizationResult, CoreError> {
    let settings = session.settings();
    let dim = theta0.len();
    let mut theta = theta0.to_vec();
    let mut h_inv = Matrix::identity(dim);
    let mut trace = Vec::new();

    let start = evaluate_gradient(session, &theta)?;
    let mut central = start.central;
    let mut gradient = start.gradient;
    let mut converged = false;

    for iter in 0..settings.max_iter {
        let t0 = std::time::Instant::now();
        let grad_norm = blas::nrm2(&gradient);
        if grad_norm < settings.grad_tol {
            converged = true;
            trace.push(IterationRecord {
                iter,
                value: central.value,
                grad_norm,
                step: 0.0,
                seconds: t0.elapsed().as_secs_f64(),
                solver_seconds: 0.0,
            });
            break;
        }

        // Ascent direction d = H⁻¹ ∇f (we are maximizing).
        let direction = blas::matvec(&h_inv, &gradient);
        let last = iter + 1 == settings.max_iter;
        let (accepted, step, timers) =
            line_search(session, &theta, central.value, &direction, !last);

        let Some(next) = accepted else {
            // No improving step: treat the current point as (locally) optimal.
            converged = grad_norm < 10.0 * settings.grad_tol;
            trace.push(IterationRecord {
                iter,
                value: central.value,
                grad_norm,
                step: 0.0,
                seconds: t0.elapsed().as_secs_f64(),
                solver_seconds: timers.solver_seconds(),
            });
            break;
        };

        if let Some(new_gradient) = next.gradient {
            // BFGS inverse-Hessian update (on the maximization problem, using
            // the negative gradients so the usual minimization formulas apply).
            let s: Vec<f64> = next.theta.iter().zip(&theta).map(|(a, b)| a - b).collect();
            let yk: Vec<f64> =
                new_gradient.iter().zip(&gradient).map(|(a, b)| -(a - b)).collect();
            let sy = blas::dot(&s, &yk);
            if sy > 1e-12 {
                let rho = 1.0 / sy;
                // H ← (I − ρ s yᵀ) H (I − ρ y sᵀ) + ρ s sᵀ.
                let mut i_rho_sy = Matrix::identity(dim);
                for r in 0..dim {
                    for c in 0..dim {
                        i_rho_sy[(r, c)] -= rho * s[r] * yk[c];
                    }
                }
                let left = blas::matmul(&i_rho_sy, &h_inv);
                let mut h_new = blas::matmul(&left, &i_rho_sy.transpose());
                for r in 0..dim {
                    for c in 0..dim {
                        h_new[(r, c)] += rho * s[r] * s[c];
                    }
                }
                h_inv = h_new;
            }
            gradient = new_gradient;
        }

        trace.push(IterationRecord {
            iter,
            value: next.central.value,
            grad_norm,
            step,
            seconds: t0.elapsed().as_secs_f64(),
            solver_seconds: timers.solver_seconds(),
        });
        theta = next.theta;
        central = next.central;
    }

    Ok(OptimizationResult { theta, value: central.value, central, trace, converged })
}

/// Negative Hessian of `f_obj` at `theta` via second-order central differences
/// (used for the Gaussian approximation of the hyperparameter posterior).
///
/// All `1 + 2·dim + dim·(dim−1)` points — θ, θ ± h eᵢ and θ ± h (eᵢ + eⱼ) for
/// i < j — are evaluated in one S1 fan-out.
pub fn negative_hessian(session: &InlaSession, theta: &[f64]) -> Result<Matrix, CoreError> {
    let dim = theta.len();
    let h = session.settings().fd_step.max(1e-4) * 5.0;
    let shifted = |shifts: &[(usize, f64)]| {
        let mut p = theta.to_vec();
        for &(i, d) in shifts {
            p[i] += d;
        }
        p
    };
    let mut points = vec![theta.to_vec()];
    for i in 0..dim {
        points.push(shifted(&[(i, h)]));
        points.push(shifted(&[(i, -h)]));
    }
    for i in 0..dim {
        for j in (i + 1)..dim {
            points.push(shifted(&[(i, h), (j, h)]));
            points.push(shifted(&[(i, -h), (j, -h)]));
        }
    }
    let f = evaluate_all(session, &points, |r| r.value)
        .into_iter()
        .collect::<Result<Vec<f64>, CoreError>>()?;

    let f0 = f[0];
    let f_plus = |i: usize| f[1 + 2 * i];
    let f_minus = |i: usize| f[2 + 2 * i];
    let mut hess = Matrix::zeros(dim, dim);
    for i in 0..dim {
        hess[(i, i)] = -((f_plus(i) - 2.0 * f0 + f_minus(i)) / (h * h));
    }
    let mut pair = 1 + 2 * dim;
    for i in 0..dim {
        for j in (i + 1)..dim {
            let (fpp, fmm) = (f[pair], f[pair + 1]);
            pair += 2;
            let val = (fpp - f_plus(i) - f_plus(j) + 2.0 * f0 - f_minus(i) - f_minus(j) + fmm)
                / (2.0 * h * h);
            hess[(i, j)] = -val;
            hess[(j, i)] = -val;
        }
    }
    Ok(hess)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InlaEngine;
    use crate::settings::InlaSettings;
    use dalia_mesh::{Domain, Point, TriangleMesh};
    use dalia_model::{CoregionalModel, ModelHyper, Observation, ThetaPrior};

    fn toy() -> (std::sync::Arc<CoregionalModel>, ThetaPrior, Vec<f64>) {
        let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
        let nt = 2;
        let mut obs = Vec::new();
        for t in 0..nt {
            for &(x, y, v) in &[(0.2, 0.3, 0.5), (0.7, 0.6, -0.2), (0.5, 0.9, 0.1), (0.9, 0.2, 0.3)] {
                obs.push(Observation {
                    var: 0,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0],
                    value: v + 0.1 * t as f64,
                });
            }
        }
        let model = std::sync::Arc::new(CoregionalModel::new(&mesh, nt, 1.0, 1, 1, obs).unwrap());
        let theta = ModelHyper::default_for(1, 0.7, 2.0).to_theta();
        let prior = ThetaPrior::weakly_informative(&theta, 1.5);
        (model, prior, theta)
    }

    fn session(
        model: &std::sync::Arc<CoregionalModel>,
        prior: &ThetaPrior,
        settings: InlaSettings,
    ) -> InlaSession {
        InlaEngine::builder(model).prior(prior.clone()).settings(settings).build().unwrap()
    }

    #[test]
    fn gradient_matches_serial_and_parallel() {
        let (model, prior, theta) = toy();
        let s_par = session(&model, &prior, InlaSettings::dalia(1));
        let s_seq = session(&model, &prior, InlaSettings::dalia(1));
        let g_par = evaluate_gradient(&s_par, &theta).unwrap();
        let g_seq =
            dalia_pool::ThreadPool::new(1).install(|| evaluate_gradient(&s_seq, &theta)).unwrap();
        assert_eq!(g_par.n_evaluations, 2 * theta.len() + 1);
        for (a, b) in g_par.gradient.iter().zip(&g_seq.gradient) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn gradient_is_consistent_with_objective_differences() {
        let (model, prior, theta) = toy();
        let s = session(&model, &prior, InlaSettings::dalia(1));
        let g = evaluate_gradient(&s, &theta).unwrap();
        // Compare component 0 against a wider finite difference.
        let h = 0.01;
        let mut plus = theta.clone();
        plus[0] += h;
        let mut minus = theta.clone();
        minus[0] -= h;
        let fp = s.objective(&plus).unwrap();
        let fm = s.objective(&minus).unwrap();
        let wide = (fp - fm) / (2.0 * h);
        assert!(
            (g.gradient[0] - wide).abs() < 0.05 * (1.0 + wide.abs()),
            "gradient {} vs wide difference {wide}",
            g.gradient[0]
        );
    }

    #[test]
    fn bfgs_improves_objective() {
        let (model, prior, theta) = toy();
        // Start away from the prior center.
        let mut start = theta.clone();
        start[0] -= 0.8;
        start[3] += 0.8;
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 5;
        let s = session(&model, &prior, settings);
        let f_start = s.objective(&start).unwrap();
        let result = maximize_fobj(&s, &start).unwrap();
        assert!(result.value >= f_start, "BFGS decreased the objective");
        assert!(!result.trace.is_empty());
    }

    #[test]
    fn iteration_records_count_every_evaluation_of_the_iteration() {
        let (model, prior, theta) = toy();
        let mut start = theta.clone();
        start[0] -= 0.8;
        start[3] += 0.8;
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 3;
        let s = session(&model, &prior, settings);
        let result = s.run(&start).unwrap();
        assert!(!result.trace.is_empty());
        for rec in &result.trace {
            assert!(rec.solver_seconds > 0.0, "iteration {} reports no solver time", rec.iter);
        }
        // The run's total also holds the start gradient, the Hessian and the
        // latent marginals.
        let sum: f64 = result.trace.iter().map(|r| r.solver_seconds).sum();
        let total = result.timers.solver_seconds();
        assert!(sum <= total, "records sum to {sum} s, the run to {total} s");
    }

    #[test]
    fn hessian_is_one_schedule_independent_fan_out() {
        let (model, prior, theta) = toy();
        let h = InlaSettings::dalia(1).fd_step.max(1e-4) * 5.0;
        let mut hessians = Vec::new();
        let single = dalia_pool::ThreadPool::new(1);
        for parallel in [true, false] {
            let s = session(&model, &prior, InlaSettings::dalia(1));
            let hess = if parallel {
                negative_hessian(&s, &theta)
            } else {
                single.install(|| negative_hessian(&s, &theta))
            }
            .unwrap();

            // Second-order central differences, one objective call at a time.
            let f = |shift: &[(usize, f64)]| {
                let mut p = theta.clone();
                for &(i, d) in shift {
                    p[i] += d;
                }
                s.objective(&p).unwrap()
            };
            let f0 = f(&[]);
            let dim = theta.len();
            for i in 0..dim {
                let (fp, fm) = (f(&[(i, h)]), f(&[(i, -h)]));
                let want = -((fp - 2.0 * f0 + fm) / (h * h));
                assert_eq!(hess[(i, i)].to_bits(), want.to_bits(), "H[{i},{i}]");
                for j in (i + 1)..dim {
                    let (fpj, fmj) = (f(&[(j, h)]), f(&[(j, -h)]));
                    let (fpp, fmm) = (f(&[(i, h), (j, h)]), f(&[(i, -h), (j, -h)]));
                    let want = -((fpp - fp - fpj + 2.0 * f0 - fm - fmj + fmm) / (2.0 * h * h));
                    assert_eq!(hess[(i, j)].to_bits(), want.to_bits(), "H[{i},{j}]");
                    assert_eq!(hess[(j, i)].to_bits(), want.to_bits(), "H[{j},{i}]");
                }
            }
            hessians.push(hess);
        }
        let (par, seq) = (&hessians[0], &hessians[1]);
        for i in 0..par.nrows() {
            for j in 0..par.ncols() {
                assert_eq!(par[(i, j)].to_bits(), seq[(i, j)].to_bits(), "H[{i},{j}]");
            }
        }
    }

    #[test]
    fn negative_hessian_is_symmetric_and_spd_near_mode() {
        let (model, prior, theta) = toy();
        let mut settings = InlaSettings::dalia(1);
        settings.max_iter = 8;
        let s = session(&model, &prior, settings);
        let result = maximize_fobj(&s, &theta).unwrap();
        let hess = negative_hessian(&s, &result.theta).unwrap();
        // Symmetric by construction; near the mode it should be (close to)
        // positive definite: all diagonal entries positive.
        for i in 0..hess.nrows() {
            assert!(hess[(i, i)] > 0.0, "H[{i},{i}] = {}", hess[(i, i)]);
        }
    }
}
