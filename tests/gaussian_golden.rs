//! Golden regression wall for the Gaussian path across the inner-Newton-loop
//! refactor.
//!
//! The values below were captured from the pre-refactor engine (information
//! vector + single solve) on this fixture and are pinned at 1e-9 relative
//! tolerance — loose enough to absorb last-ulp differences across FMA/AVX
//! dispatch on different hosts, tight enough that any algorithmic drift in
//! the Gaussian path fails loudly. Two sharper checks complement the pinned
//! constants on the current host:
//!
//! * the Gaussian likelihood must terminate the inner loop in **exactly one
//!   Newton step** (ψ is quadratic, the step is exact), and
//! * `session.evaluate` must be **bitwise identical** to a hand-rolled
//!   replica of the legacy computation through the public solver API.

// The golden constants are transcribed at full f64 round-trip precision.
#![allow(clippy::excessive_precision)]

use dalia::prelude::*;
use std::sync::Arc;

fn toy_model(nv: usize) -> (Arc<CoregionalModel>, ThetaPrior, Vec<f64>) {
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
    let model = Arc::new(CoregionalModel::new(&mesh, nt, 1.0, nv, nr, obs).unwrap());
    let hyper = ModelHyper::default_for(nv, 0.7, 2.0);
    let theta = hyper.to_theta();
    let prior = ThetaPrior::weakly_informative(&theta, 2.0);
    (model, prior, theta)
}

fn backends() -> Vec<(&'static str, InlaSettings)> {
    vec![
        ("bta-sequential", InlaSettings::dalia(1)),
        ("bta-distributed", InlaSettings::dalia(2)),
        ("sparse-general", InlaSettings::rinla_like()),
    ]
}

struct Golden {
    fobj: f64,
    logdet_qp: f64,
    logdet_qc: f64,
    loglik: f64,
    grad: &'static [f64],
}

fn golden(nv: usize, backend: &str) -> Golden {
    match (nv, backend) {
        (1, "bta-sequential") => Golden {
            fobj: -1.88066397936992082e1,
            logdet_qp: -1.98997628546707332e1,
            logdet_qc: 8.88239295186325606e0,
            loglik: 2.08825340709503804e0,
            grad: &[
                -2.08364089027845978e0,
                -3.13923807794935783e-1,
                -1.57639842766279514e1,
                5.00597906469835152e-1,
            ],
        },
        (1, "bta-distributed") => Golden {
            fobj: -1.88066397936992189e1,
            logdet_qp: -1.98997628546707332e1,
            logdet_qc: 8.88239295186328093e0,
            loglik: 2.08825340709503804e0,
            grad: &[
                -2.08364089028201249e0,
                -3.13923807796712140e-1,
                -1.57639842766243987e1,
                5.00597906466282438e-1,
            ],
        },
        (1, "sparse-general") => Golden {
            fobj: -1.88066397936992153e1,
            logdet_qp: -1.98997628546707332e1,
            logdet_qc: 8.88239295186327027e0,
            loglik: 2.08825340709503804e0,
            grad: &[
                -2.08364089028201249e0,
                -3.13923807796712140e-1,
                -1.57639842766243987e1,
                5.00597906462729725e-1,
            ],
        },
        (2, "bta-sequential") => Golden {
            fobj: -3.92254850114626663e1,
            logdet_qp: -3.97995257093414594e1,
            logdet_qc: 1.77647859037265086e1,
            loglik: 4.17650672069754947e0,
            grad: &[
                -2.08364089028023614e0,
                -3.13923807794935783e-1,
                -2.08364079501066612e0,
                -3.13923837598650834e-1,
                -1.57639842766243987e1,
                -1.57635058081311286e1,
                2.22039000707496825e-1,
                5.00597906469835152e-1,
                5.00597812976621981e-1,
            ],
        },
        (2, "bta-distributed") => Golden {
            fobj: -3.92254850114626947e1,
            logdet_qp: -3.97995257093414665e1,
            logdet_qc: 1.77647859037265619e1,
            loglik: 4.17650672069755036e0,
            grad: &[
                -2.08364089028378885e0,
                -3.13923807798488497e-1,
                -2.08364079501421884e0,
                -3.13923837587992693e-1,
                -1.57639842766243987e1,
                -1.57635058081240231e1,
                2.22039000711049539e-1,
                5.00597906466282438e-1,
                5.00597812973069267e-1,
            ],
        },
        (2, "sparse-general") => Golden {
            fobj: -3.92254850114626805e1,
            logdet_qp: -3.97995257093414523e1,
            logdet_qc: 1.77647859037265405e1,
            loglik: 4.17650672069754947e0,
            grad: &[
                -2.08364089028378885e0,
                -3.13923807794935783e-1,
                -2.08364079501421884e0,
                -3.13923837595098121e-1,
                -1.57639842766279514e1,
                -1.57635058081311286e1,
                2.22039000711049539e-1,
                5.00597906462729725e-1,
                5.00597812969516553e-1,
            ],
        },
        _ => unreachable!("no golden for nv={nv} backend={backend}"),
    }
}

fn assert_rel(tag: &str, got: f64, want: f64) {
    let tol = 1e-9 * (1.0 + want.abs());
    assert!(
        (got - want).abs() <= tol,
        "{tag}: {got:.17e} drifted from golden {want:.17e} (|Δ| = {:.3e})",
        (got - want).abs()
    );
}

#[test]
fn gaussian_objective_and_gradient_match_pre_refactor_goldens() {
    for nv in [1usize, 2] {
        let (model, prior, theta) = toy_model(nv);
        for (name, settings) in backends() {
            let session = InlaEngine::builder(&model)
                .prior(prior.clone())
                .settings(settings)
                .build()
                .unwrap();
            let g = golden(nv, name);
            let r = session.evaluate(&theta).unwrap();
            let tag = format!("nv={nv} {name}");
            assert_rel(&format!("{tag} fobj"), r.value, g.fobj);
            assert_rel(&format!("{tag} logdet_qp"), r.logdet_qp, g.logdet_qp);
            assert_rel(&format!("{tag} logdet_qc"), r.logdet_qc, g.logdet_qc);
            assert_rel(&format!("{tag} loglik"), r.loglik, g.loglik);

            // The goldens were captured with sequential gradient lanes.
            let grad = dalia_pool::ThreadPool::new(1)
                .install(|| dalia::core::evaluate_gradient(&session, &theta))
                .unwrap();
            assert_eq!(grad.gradient.len(), g.grad.len());
            for (i, (got, want)) in grad.gradient.iter().zip(g.grad).enumerate() {
                assert_rel(&format!("{tag} grad[{i}]"), *got, *want);
            }
        }
    }
}

#[test]
fn gaussian_inner_loop_converges_in_exactly_one_newton_step() {
    for nv in [1usize, 2] {
        let (model, prior, theta) = toy_model(nv);
        for (name, settings) in backends() {
            let session = InlaEngine::builder(&model)
                .prior(prior.clone())
                .settings(settings)
                .build()
                .unwrap();
            let r = session.evaluate(&theta).unwrap();
            assert_eq!(
                r.inner_iterations, 1,
                "nv={nv} {name}: quadratic ψ must converge in one Newton step"
            );
            assert!(r.inner_converged, "nv={nv} {name}: inner loop must report convergence");
        }
    }
}

#[test]
fn gaussian_evaluation_is_bitwise_the_legacy_information_vector_solve() {
    // Hand-rolled replica of the pre-refactor evaluation (factorize, build
    // A^T D y, one solve, same value expression) through the public solver
    // API. On the same host the new inner-loop path must reproduce it
    // bit-for-bit — the zero-start working rhs τ(y − 0) IS the information
    // vector τ·y.
    for nv in [1usize, 2] {
        let (model, prior, theta) = toy_model(nv);
        for (name, settings) in backends() {
            let hyper = ModelHyper::from_theta(nv, &theta);
            let logprior = prior.log_density(&theta);
            let mut solver = settings.backend.build(&model);
            solver.factorize(&hyper).unwrap();
            let info = model.information_vector(&hyper, solver.design());
            let mean = solver.solve_mean(&info);
            let logdet_qp = solver.logdet_qp();
            let logdet_qc = solver.logdet_qc();
            let quad = solver.quadratic_form_qp(&mean);
            let loglik = model.log_likelihood(&hyper, solver.design(), &mean);
            let legacy = logprior + loglik + 0.5 * logdet_qp - 0.5 * quad - 0.5 * logdet_qc;

            let session = InlaEngine::builder(&model)
                .prior(prior.clone())
                .settings(settings)
                .build()
                .unwrap();
            let r = session.evaluate(&theta).unwrap();
            assert_eq!(
                r.value.to_bits(),
                legacy.to_bits(),
                "nv={nv} {name}: inner-loop Gaussian path drifted from the legacy computation"
            );
            for (i, (a, b)) in r.mean.iter().zip(&mean).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "nv={nv} {name}: mean[{i}] not bitwise"
                );
            }
        }
    }
}
