//! Trajectory wall for the BFGS optimizer.
//!
//! `maximize_fobj` evaluates one objective per line-search trial and the ±h
//! gradient points only at the accepted point (and not at all on the last
//! budgeted iteration). The replica below is the straightforward form of the
//! same algorithm: a full central-difference gradient at every trial, with
//! the same acceptance test, step schedule and BFGS update. Both must walk
//! the same trajectory to the last bit — every accepted step, value and
//! gradient norm — at every iteration budget, partition count and S1 mode.

use dalia::core::{evaluate_gradient, maximize_fobj, negative_hessian, HyperMarginals};
use dalia::la::blas;
use dalia::prelude::*;
use std::sync::Arc;

fn toy_model() -> (Arc<CoregionalModel>, ThetaPrior, Vec<f64>) {
    let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
    let nt = 3;
    let mut obs = Vec::new();
    for t in 0..nt {
        for &(x, y) in &[(0.25, 0.25), (0.75, 0.5), (0.4, 0.85)] {
            obs.push(Observation {
                var: 0,
                t,
                loc: Point::new(x, y),
                covariates: vec![1.0],
                value: 0.2 * (t as f64) + 0.1 * x,
            });
        }
    }
    let model = Arc::new(CoregionalModel::new(&mesh, nt, 1.0, 1, 1, obs).unwrap());
    let theta = ModelHyper::default_for(1, 0.7, 2.0).to_theta();
    let prior = ThetaPrior::weakly_informative(&theta, 2.0);
    // Start away from the prior centre so the line search backtracks.
    let mut start = theta;
    start[0] -= 0.8;
    start[3] += 0.8;
    (model, prior, start)
}

fn session(
    model: &Arc<CoregionalModel>,
    prior: &ThetaPrior,
    p: usize,
    iters: usize,
) -> InlaSession {
    let mut settings = InlaSettings::dalia(p);
    settings.max_iter = iters;
    InlaEngine::builder(model).prior(prior.clone()).settings(settings).build().unwrap()
}

struct Trajectory {
    theta: Vec<f64>,
    value: f64,
    mean: Vec<f64>,
    converged: bool,
    /// `(value, grad_norm, step)` per iteration.
    trace: Vec<(f64, f64, f64)>,
}

/// BFGS with a full gradient evaluation at every line-search trial.
fn replica(session: &InlaSession, theta0: &[f64]) -> Trajectory {
    let settings = session.settings();
    let dim = theta0.len();
    let mut theta = theta0.to_vec();
    let mut h_inv = Matrix::identity(dim);
    let mut trace = Vec::new();
    let mut grad_res = evaluate_gradient(session, &theta).unwrap();
    let mut converged = false;

    for _ in 0..settings.max_iter {
        let grad_norm = blas::nrm2(&grad_res.gradient);
        if grad_norm < settings.grad_tol {
            converged = true;
            trace.push((grad_res.value, grad_norm, 0.0));
            break;
        }
        let direction = blas::matvec(&h_inv, &grad_res.gradient);
        let mut step = 1.0;
        let mut accepted = None;
        for _ in 0..12 {
            let candidate: Vec<f64> =
                theta.iter().zip(&direction).map(|(t, d)| t + step * d).collect();
            match evaluate_gradient(session, &candidate) {
                Ok(res) if res.value > grad_res.value + 1e-10 => {
                    accepted = Some((candidate, res));
                    break;
                }
                _ => step *= 0.5,
            }
        }
        let Some((new_theta, new_grad)) = accepted else {
            converged = grad_norm < 10.0 * settings.grad_tol;
            trace.push((grad_res.value, grad_norm, 0.0));
            break;
        };

        let s: Vec<f64> = new_theta.iter().zip(&theta).map(|(a, b)| a - b).collect();
        let yk: Vec<f64> =
            new_grad.gradient.iter().zip(&grad_res.gradient).map(|(a, b)| -(a - b)).collect();
        let sy = blas::dot(&s, &yk);
        if sy > 1e-12 {
            let rho = 1.0 / sy;
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
        trace.push((new_grad.value, grad_norm, step));
        theta = new_theta;
        grad_res = new_grad;
    }

    Trajectory { theta, value: grad_res.value, mean: grad_res.central.mean, converged, trace }
}

fn assert_bits_eq(a: &[f64], b: &[f64], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}[{i}]: {x} vs {y}");
    }
}

fn check_trajectory(max_iter: usize) {
    let (model, prior, start) = toy_model();
    let single = dalia_pool::ThreadPool::new(1);
    for p in [1, 2] {
        for par in [true, false] {
            let tag = format!("max_iter={max_iter} P={p} parallel={par}");
            let run = || {
                let want = replica(&session(&model, &prior, p, max_iter), &start);
                let got = maximize_fobj(&session(&model, &prior, p, max_iter), &start).unwrap();
                (want, got)
            };
            let (want, got) = if par { run() } else { single.install(run) };

            assert_bits_eq(&got.theta, &want.theta, &format!("{tag} theta"));
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "{tag} value");
            assert_bits_eq(&got.central.mean, &want.mean, &format!("{tag} central.mean"));
            assert_eq!(got.converged, want.converged, "{tag} converged");
            assert_eq!(got.trace.len(), want.trace.len(), "{tag} trace length");
            for (k, (rec, want)) in got.trace.iter().zip(&want.trace).enumerate() {
                let got = (rec.value.to_bits(), rec.grad_norm.to_bits(), rec.step.to_bits());
                let want = (want.0.to_bits(), want.1.to_bits(), want.2.to_bits());
                assert_eq!(got, want, "{tag} trace[{k}] (value, grad_norm, step) bits");
            }
        }
    }
}

#[test]
fn one_iteration_matches_the_full_gradient_replica() {
    check_trajectory(1);
}

#[test]
fn three_iterations_match_the_full_gradient_replica() {
    check_trajectory(3);
}

#[test]
fn eight_iterations_match_the_full_gradient_replica() {
    check_trajectory(8);
}

#[test]
fn backtracking_fixture_halves_the_step() {
    // The wall only means something if the line search actually backtracks
    // on this fixture: some accepted step must be shorter than 1.
    let (model, prior, start) = toy_model();
    let got = maximize_fobj(&session(&model, &prior, 1, 8), &start).unwrap();
    assert!(got.trace.iter().any(|r| r.step > 0.0 && r.step < 1.0), "steps {:?}", got.trace);
}

#[test]
fn run_matches_the_replica_pipeline() {
    let (model, prior, start) = toy_model();
    for p in [1, 2] {
        let s = session(&model, &prior, p, 3);
        let want = replica(&s, &start);
        let hess = negative_hessian(&s, &want.theta).unwrap();
        let hyper = HyperMarginals::from_hessian(want.theta.clone(), &hess).unwrap();
        let mode = ModelHyper::from_theta(model.dims.nv, &want.theta);
        let latent = s.latent_marginals(&mode, want.mean.clone()).unwrap();

        let got = session(&model, &prior, p, 3).run(&start).unwrap();
        assert_bits_eq(&got.hyper.mode, &hyper.mode, &format!("P={p} hyper.mode"));
        assert_bits_eq(&got.hyper.sd, &hyper.sd, &format!("P={p} hyper.sd"));
        assert_bits_eq(&got.latent.sd, &latent.sd, &format!("P={p} latent.sd"));
    }
}
