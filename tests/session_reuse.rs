//! Workspace-reuse correctness: calling `factorize` repeatedly with different
//! θ on one stateful solver must give *bitwise-identical* results to fresh
//! solvers, for every backend. This guards against stale-workspace bugs
//! (un-zeroed BTA blocks, a symbolic cache applied to the wrong pattern,
//! leftover factor values) that tolerance-based comparisons would let slip.

use dalia::prelude::*;
use std::sync::Arc;
use proptest::collection::vec;
use proptest::prelude::*;

fn toy_model(nv: usize) -> (Arc<CoregionalModel>, Vec<f64>) {
    let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
    let nt = 3;
    let mut obs = Vec::new();
    for v in 0..nv {
        for t in 0..nt {
            for &(x, y) in &[(0.25, 0.3), (0.7, 0.55), (0.45, 0.85)] {
                obs.push(Observation {
                    var: v,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0],
                    value: 0.2 * (v as f64) + 0.15 * (t as f64) + 0.1 * x,
                });
            }
        }
    }
    let model = Arc::new(CoregionalModel::new(&mesh, nt, 1.0, nv, 1, obs).unwrap());
    let theta0 = ModelHyper::default_for(nv, 0.6, 2.0).to_theta();
    (model, theta0)
}

fn backends() -> Vec<SolverBackend> {
    vec![
        SolverBackend::Bta { partitions: 1, load_balance: 1.0 },
        SolverBackend::Bta { partitions: 3, load_balance: 1.3 },
        SolverBackend::SparseGeneral,
    ]
}

fn shifted(theta0: &[f64], delta: &[f64]) -> Vec<f64> {
    theta0.iter().zip(delta).map(|(t, d)| t + d).collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], tag: &str) {
    assert_eq!(a.len(), b.len(), "{tag}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: drift at index {i}: {x} vs {y}");
    }
}

/// Solver level: factorize(θ₁) then factorize(θ₂) on one solver equals a
/// fresh solver's factorize(θ₂), bit for bit.
fn check_stateful_refactorization(d1: &[f64], d2: &[f64]) {
    let (model, theta0) = toy_model(1);
    let theta_a = shifted(&theta0, d1);
    let theta_b = shifted(&theta0, d2);
    let hyper_a = ModelHyper::from_theta(1, &theta_a);
    let hyper_b = ModelHyper::from_theta(1, &theta_b);

    for backend in backends() {
        let mut reused = backend.build(&model);
        reused.factorize(&hyper_a).unwrap();
        reused.factorize(&hyper_b).unwrap();
        let mut fresh = backend.build(&model);
        fresh.factorize(&hyper_b).unwrap();

        let tag = reused.backend_name();
        assert_eq!(reused.logdet_qp().to_bits(), fresh.logdet_qp().to_bits(), "{tag}: logdet_qp");
        assert_eq!(reused.logdet_qc().to_bits(), fresh.logdet_qc().to_bits(), "{tag}: logdet_qc");
        let info = model.information_vector(&hyper_b, fresh.design());
        assert_bits_eq(&reused.solve_mean(&info), &fresh.solve_mean(&info), tag);
        assert_bits_eq(&reused.selected_inverse().diagonal(), &fresh.selected_inverse().diagonal(), tag);
    }
}

/// Session level: evaluating θ₁ then θ₂ on one session equals a fresh
/// session's evaluation of θ₂, bit for bit (the pooled solver is reused
/// across `evaluate` calls).
fn check_session_evaluation_reuse(d1: &[f64], d2: &[f64]) {
    let (model, theta0) = toy_model(2);
    let theta_a = shifted(&theta0, d1);
    let theta_b = shifted(&theta0, d2);
    let prior = ThetaPrior::weakly_informative(&theta0, 3.0);

    for backend in backends() {
        let mut settings = InlaSettings::dalia(1);
        settings.backend = backend;
        let reused = InlaEngine::builder(&model)
            .prior(prior.clone())
            .settings(settings.clone())
            .build()
            .unwrap();
        let fresh =
            InlaEngine::builder(&model).prior(prior.clone()).settings(settings).build().unwrap();
        let (via_reused, via_fresh) = dalia_pool::ThreadPool::new(1).install(|| {
            let _ = reused.evaluate(&theta_a).unwrap();
            (reused.evaluate(&theta_b).unwrap(), fresh.evaluate(&theta_b).unwrap())
        });

        assert_eq!(via_reused.value.to_bits(), via_fresh.value.to_bits());
        assert_eq!(via_reused.logdet_qp.to_bits(), via_fresh.logdet_qp.to_bits());
        assert_eq!(via_reused.logdet_qc.to_bits(), via_fresh.logdet_qc.to_bits());
        assert_eq!(via_reused.loglik.to_bits(), via_fresh.loglik.to_bits());
        assert_bits_eq(&via_reused.mean, &via_fresh.mean, "session mean");
    }
}

/// S1 parity: the gradient fan-out evaluated in parallel on the
/// work-stealing pool must give *bitwise-identical* results to the
/// single-threaded evaluation of the same session configuration, for every
/// backend. This pins the determinism guarantee of the execution model: work
/// stealing may move lanes between workers, but every lane computes the same
/// bits, and the parallel `gemm` trailing updates are split so that each
/// output element sees the exact same operation sequence.
fn check_parallel_vs_sequential_session(d: &[f64]) {
    let (model, theta0) = toy_model(1);
    let theta = shifted(&theta0, d);
    let prior = ThetaPrior::weakly_informative(&theta0, 3.0);

    for backend in backends() {
        let mut settings = InlaSettings::dalia(1);
        settings.backend = backend;

        let par_session = InlaEngine::builder(&model)
            .prior(prior.clone())
            .settings(settings.clone())
            .build()
            .unwrap();
        let seq_session =
            InlaEngine::builder(&model).prior(prior.clone()).settings(settings).build().unwrap();

        let g_par = dalia_core::evaluate_gradient(&par_session, &theta).unwrap();
        let g_seq = dalia_pool::ThreadPool::new(1)
            .install(|| dalia_core::evaluate_gradient(&seq_session, &theta))
            .unwrap();

        let tag = format!("parallel-vs-sequential [{backend:?}]");
        assert_eq!(g_par.value.to_bits(), g_seq.value.to_bits(), "{tag}: objective value");
        assert_bits_eq(&g_par.gradient, &g_seq.gradient, &tag);
        assert_eq!(
            g_par.central.logdet_qp.to_bits(),
            g_seq.central.logdet_qp.to_bits(),
            "{tag}: logdet_qp"
        );
        assert_eq!(
            g_par.central.logdet_qc.to_bits(),
            g_seq.central.logdet_qc.to_bits(),
            "{tag}: logdet_qc"
        );
        assert_bits_eq(&g_par.central.mean, &g_seq.central.mean, &tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn stateful_refactorization_is_bitwise_identical(
        d1 in vec(-0.4f64..0.4, 4),
        d2 in vec(-0.4f64..0.4, 4),
    ) {
        check_stateful_refactorization(&d1, &d2);
    }

    #[test]
    fn session_evaluation_reuse_is_bitwise_identical(
        d1 in vec(-0.4f64..0.4, 9),
        d2 in vec(-0.4f64..0.4, 9),
    ) {
        check_session_evaluation_reuse(&d1, &d2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_gradient_is_bitwise_identical_to_sequential(
        d in vec(-0.3f64..0.3, 4),
    ) {
        check_parallel_vs_sequential_session(&d);
    }
}

/// One step of a streaming update program.
#[derive(Clone, Copy, Debug)]
enum Step {
    Append(usize),
    Retire(usize),
    Snapshot,
}

/// Streaming level: a fitted window advanced by any program of appends,
/// retires and snapshots serves, at its next snapshot, exactly what a cold
/// conditional factorization of the final window gives at the same pinned θ,
/// bit for bit — mean, marginal sds, the kept `Σ` diagonal and the
/// conditional log-determinant — at P = 1 and 3 and at 1 and 4 threads. The
/// window defers its updates to the next snapshot, which advances the factor
/// incrementally (`pobtaf_extend` after appends only, a full in-place
/// refactor once the head moved); both must replay exactly the cold kernel
/// sequence, regardless of how the pool schedules it.
#[test]
fn streaming_updates_are_bitwise_identical_to_a_cold_window() {
    let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
    // Observations of absolute slices `range`, indexed relative to `start`.
    // Locations and covariates move with the slice, so every slice assembles
    // its own blocks and a factor column reused from the wrong slice shows.
    let window_obs = |range: std::ops::Range<usize>, start: usize| -> Vec<Observation> {
        let mut obs = Vec::new();
        for t in range {
            let shift = 0.04 * (t % 5) as f64;
            for &(x, y) in &[(0.25, 0.3), (0.7, 0.55), (0.45, 0.85)] {
                obs.push(Observation {
                    var: 0,
                    t: t - start,
                    loc: Point::new(x + shift, y - shift),
                    covariates: vec![1.0 + shift],
                    value: 0.15 * (t as f64) + 0.1 * x - 0.05 * y,
                });
            }
        }
        obs
    };
    let nt_old = 4;
    let old = Arc::new(
        CoregionalModel::new(&mesh, nt_old, 1.0, 1, 1, window_obs(0..nt_old, 0)).unwrap(),
    );
    let theta0 = ModelHyper::default_for(1, 0.6, 2.0).to_theta();
    let programs: [&[Step]; 5] = [
        &[Step::Append(2)],
        &[Step::Append(1), Step::Retire(1)],
        &[Step::Retire(1), Step::Append(2)],
        &[Step::Append(1), Step::Append(2)],
        &[Step::Append(1), Step::Snapshot, Step::Append(1), Step::Snapshot, Step::Retire(2)],
    ];

    for backend in [
        SolverBackend::Bta { partitions: 1, load_balance: 1.0 },
        SolverBackend::Bta { partitions: 3, load_balance: 1.3 },
    ] {
        // Fit the old window once, then pin the window at θ₀: two BFGS
        // steps on this smooth data collapse σ, and a prior precision that
        // large would drown the observations each slice contributes.
        let mut settings = InlaSettings::dalia(1);
        settings.backend = backend;
        settings.max_iter = 2;
        let session = InlaEngine::builder(&old)
            .prior(ThetaPrior::weakly_informative(&theta0, 3.0))
            .settings(settings)
            .build()
            .unwrap();
        let mut result = session.run(&theta0).unwrap();
        let hyper_mode = ModelHyper::from_theta(1, &theta0);
        result.hyper_mode = hyper_mode.clone();

        for program in programs {
            // The final window covers absolute slices start..end.
            let (mut start, mut end) = (0, nt_old);
            for step in program {
                match *step {
                    Step::Append(k) => end += k,
                    Step::Retire(k) => start += k,
                    Step::Snapshot => {}
                }
            }
            // Cold reference: a conditional factorization of the final
            // window at the pinned θ (sequential BTA — the streaming
            // window's factor is monolithic on every BTA backend).
            let last = Arc::new(
                CoregionalModel::new(&mesh, end - start, 1.0, 1, 1, window_obs(start..end, start))
                    .unwrap(),
            );
            let mut cold = SolverBackend::Bta { partitions: 1, load_balance: 1.0 }.build(&last);
            cold.factorize_conditional(&hyper_mode).unwrap();
            let info = last.information_vector(&hyper_mode, cold.design());
            let ref_mean = cold.solve_mean(&info);
            let ref_vars = cold.selected_inverse().diagonal();
            let ref_sd: Vec<f64> = ref_vars.iter().map(|v| v.max(0.0).sqrt()).collect();
            let ref_logdet = cold.logdet_qc();

            for threads in [1usize, 4] {
                let snap = dalia::pool::ThreadPool::new(threads).install(|| {
                    let mut w = session.streaming_window(&result).unwrap();
                    let (mut start, mut end) = (0, nt_old);
                    for step in program {
                        match *step {
                            Step::Append(k) => {
                                w.append_slices(k, window_obs(end..end + k, start)).unwrap();
                                end += k;
                            }
                            Step::Retire(k) => {
                                w.retire_slices(k).unwrap();
                                start += k;
                            }
                            Step::Snapshot => {
                                w.snapshot().unwrap();
                            }
                        }
                    }
                    assert_eq!(w.nt(), end - start);
                    w.snapshot().unwrap()
                });
                let tag = format!("{program:?} [{backend:?}, {threads} threads]");
                assert_bits_eq(&snap.latent().mean, &ref_mean, &tag);
                assert_bits_eq(&snap.latent().sd, &ref_sd, &tag);
                assert_bits_eq(&snap.selected_inverse().diagonal(), &ref_vars, &tag);
                assert_eq!(snap.logdet_qc().to_bits(), ref_logdet.to_bits(), "{tag}: logdet_qc");
            }
        }
    }
}
