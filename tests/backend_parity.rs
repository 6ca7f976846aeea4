//! Backend parity through the `LatentSolver` trait: every solver backend run
//! on the same small coregional model must agree on *all* the quantities an
//! INLA evaluation consumes — `log|Q_p|`, `log|Q_c|`, the conditional mean and
//! the selected-inverse marginal variances — to within 1e-8, not just on the
//! scalar objective value.
//!
//! The non-Gaussian cases extend the wall through the inner Newton loop:
//! Poisson and Bernoulli fits must agree across all three backends to 1e-10
//! on the objective, the full gradient and the latent marginals, at 1 and 4
//! worker threads (the `DALIA_NUM_THREADS` CI matrix exercises the global
//! pool on top of the explicit pools pinned here).

use dalia::prelude::*;
use std::sync::Arc;

struct BackendResult {
    name: &'static str,
    logdet_qp: f64,
    logdet_qc: f64,
    mean: Vec<f64>,
    variances: Vec<f64>,
}

fn run_backend(
    model: &Arc<CoregionalModel>,
    hyper: &ModelHyper,
    name: &'static str,
    backend: SolverBackend,
) -> BackendResult {
    let mut solver = backend.build(model);
    solver.factorize(hyper).expect("factorization must succeed");
    let info = model.information_vector(hyper, solver.design());
    let mean = solver.solve_mean(&info);
    let variances = solver.selected_inverse().diagonal();
    BackendResult {
        name,
        logdet_qp: solver.logdet_qp(),
        logdet_qc: solver.logdet_qc(),
        mean,
        variances,
    }
}

fn parity_case(nv: usize, nt: usize, partitions: usize) {
    let domain = Domain::unit_square();
    let mesh = TriangleMesh::structured(domain, 4, 4);
    let mut obs = Vec::new();
    for v in 0..nv {
        for t in 0..nt {
            for &(x, y) in &[(0.2, 0.3), (0.7, 0.6), (0.45, 0.85), (0.85, 0.2)] {
                obs.push(Observation {
                    var: v,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0],
                    value: 0.4 * (v as f64) - 0.15 * (t as f64) + 0.3 * x * y,
                });
            }
        }
    }
    let model = Arc::new(CoregionalModel::new(&mesh, nt, 1.0, nv, 1, obs).unwrap());
    let mut hyper = ModelHyper::default_for(nv, 0.6, 2.0);
    if nv > 1 {
        for l in hyper.lambdas.iter_mut() {
            *l = 0.4;
        }
    }

    let results = [
        run_backend(&model, &hyper, "bta-sequential", SolverBackend::Bta {
            partitions: 1,
            load_balance: 1.0,
        }),
        run_backend(&model, &hyper, "bta-distributed", SolverBackend::Bta {
            partitions,
            load_balance: 1.3,
        }),
        run_backend(&model, &hyper, "sparse-general", SolverBackend::SparseGeneral),
    ];

    let reference = &results[0];
    for other in &results[1..] {
        let tag = format!("nv={nv} nt={nt}: {} vs {}", reference.name, other.name);
        assert!(
            (reference.logdet_qp - other.logdet_qp).abs()
                < 1e-8 * (1.0 + reference.logdet_qp.abs()),
            "{tag}: logdet_qp {} vs {}",
            reference.logdet_qp,
            other.logdet_qp
        );
        assert!(
            (reference.logdet_qc - other.logdet_qc).abs()
                < 1e-8 * (1.0 + reference.logdet_qc.abs()),
            "{tag}: logdet_qc {} vs {}",
            reference.logdet_qc,
            other.logdet_qc
        );
        assert_eq!(reference.mean.len(), other.mean.len());
        for (i, (a, b)) in reference.mean.iter().zip(&other.mean).enumerate() {
            assert!((a - b).abs() < 1e-8, "{tag}: mean[{i}] {a} vs {b}");
        }
        assert_eq!(reference.variances.len(), other.variances.len());
        for (i, (a, b)) in reference.variances.iter().zip(&other.variances).enumerate() {
            assert!((a - b).abs() < 1e-8, "{tag}: variance[{i}] {a} vs {b}");
        }
    }
}

/// Deterministic small count/exceedance fixture for `lik`.
fn nongaussian_model(lik: Likelihood) -> (Arc<CoregionalModel>, ThetaPrior, Vec<f64>) {
    let domain = Domain::unit_square();
    let mesh = TriangleMesh::structured(domain, 4, 4);
    let nt = 3;
    let locs = [(0.2, 0.3), (0.7, 0.6), (0.45, 0.85), (0.85, 0.2), (0.3, 0.7)];
    let mut obs = Vec::new();
    let mut scales = Vec::new();
    for t in 0..nt {
        for (i, &(x, y)) in locs.iter().enumerate() {
            let (value, scale) = match lik {
                // Counts 0..6 with exposures 1.5..3.5.
                Likelihood::Poisson => (((i * 3 + t * 2) % 7) as f64, 1.5 + 0.5 * i as f64),
                // Successes 0..3 out of 6 trials.
                Likelihood::Bernoulli => (((i + t) % 4) as f64, 6.0),
                Likelihood::Gaussian => unreachable!("fixture is for non-Gaussian cases"),
            };
            obs.push(Observation {
                var: 0,
                t,
                loc: Point::new(x, y),
                covariates: vec![1.0],
                value,
            });
            scales.push(scale);
        }
    }
    // Scales first: `with_likelihood` validates observation values against
    // the current scales (Bernoulli counts must fit inside `trials`).
    let model = Arc::new(
        CoregionalModel::new(&mesh, nt, 1.0, 1, 1, obs)
            .unwrap()
            .with_observation_scales(scales)
            .unwrap()
            .with_likelihood(lik)
            .unwrap(),
    );
    let theta = ModelHyper::default_for(1, 0.6, 2.0).to_theta();
    let prior = ThetaPrior::weakly_informative(&theta, 2.0);
    (model, prior, theta)
}

fn assert_close(tag: &str, a: f64, b: f64) {
    assert!(
        (a - b).abs() <= 1e-10 * (1.0 + a.abs()),
        "{tag}: {a:.17e} vs {b:.17e} (|Δ| = {:.3e})",
        (a - b).abs()
    );
}

fn nongaussian_parity_case(lik: Likelihood, threads: usize) {
    let (model, prior, theta) = nongaussian_model(lik);
    let hyper = ModelHyper::from_theta(1, &theta);

    let pool = dalia::pool::ThreadPool::new(threads);
    pool.install(|| {
        let mut results = Vec::new();
        for (name, backend) in [
            ("bta-sequential", SolverBackend::Bta { partitions: 1, load_balance: 1.0 }),
            ("bta-distributed", SolverBackend::Bta { partitions: 3, load_balance: 1.3 }),
            ("sparse-general", SolverBackend::SparseGeneral),
        ] {
            let mut settings = InlaSettings::dalia(1);
            settings.backend = backend;
            // Drive the mode to near machine precision so cross-backend
            // parity reflects the algorithm, not the stopping tolerance.
            settings.inner_tol = 1e-12;
            let session = InlaEngine::builder(&model)
                .prior(prior.clone())
                .settings(settings)
                .build()
                .unwrap();
            let r = session.evaluate(&theta).unwrap();
            assert!(r.inner_converged, "{name}: inner Newton loop did not converge");
            assert!(
                r.inner_iterations >= 2,
                "{name}: a non-quadratic ψ cannot converge in one step"
            );
            let grad = dalia::core::evaluate_gradient(&session, &theta).unwrap();
            let marg = session.latent_marginals(&hyper, r.mean.clone()).unwrap();
            results.push((name, r.value, grad.gradient, marg.mean, marg.sd));
        }

        let (ref_name, ref_fobj, ref_grad, ref_mean, ref_sd) = &results[0];
        for (name, fobj, grad, mean, sd) in &results[1..] {
            let tag = format!("{lik:?} threads={threads}: {ref_name} vs {name}");
            assert_close(&format!("{tag} fobj"), *ref_fobj, *fobj);
            assert_eq!(ref_grad.len(), grad.len());
            for (i, (a, b)) in ref_grad.iter().zip(grad).enumerate() {
                assert_close(&format!("{tag} grad[{i}]"), *a, *b);
            }
            for (i, (a, b)) in ref_mean.iter().zip(mean).enumerate() {
                assert_close(&format!("{tag} mode[{i}]"), *a, *b);
            }
            for (i, (a, b)) in ref_sd.iter().zip(sd).enumerate() {
                assert_close(&format!("{tag} sd[{i}]"), *a, *b);
            }
        }
    });
}

#[test]
fn poisson_backends_agree_single_threaded() {
    nongaussian_parity_case(Likelihood::Poisson, 1);
}

#[test]
fn poisson_backends_agree_four_threads() {
    nongaussian_parity_case(Likelihood::Poisson, 4);
}

#[test]
fn bernoulli_backends_agree_single_threaded() {
    nongaussian_parity_case(Likelihood::Bernoulli, 1);
}

#[test]
fn bernoulli_backends_agree_four_threads() {
    nongaussian_parity_case(Likelihood::Bernoulli, 4);
}

#[test]
fn univariate_backends_agree_on_all_solver_quantities() {
    parity_case(1, 4, 2);
}

#[test]
fn bivariate_backends_agree_on_all_solver_quantities() {
    parity_case(2, 3, 3);
}

#[test]
fn trivariate_backends_agree_on_all_solver_quantities() {
    parity_case(3, 4, 4);
}
