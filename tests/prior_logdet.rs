//! Dense-oracle wall for the prior log-determinant.
//!
//! The BTA backend never factorizes the joint prior precision: it computes
//! `log|Q_p| = Σ_i log|Q_i| + nv·nr·ln ε − 2·(ns·nt + nr)·Σ_j ln σ_j` from the
//! `nv` per-process precisions (Eq. 11 with `M = Λ⁻¹`). This wall pins that
//! identity against plain dense Cholesky of the assembled joint `Q_p`, and
//! against the general sparse backend, which still factorizes the joint
//! matrix. The hyperparameters are chosen so every term of the identity is
//! live: non-unit σ (the default σ = 1 zeroes the σ term), non-zero λ
//! couplings and a different spatial and temporal range per process.

use dalia::la::chol;
use dalia::prelude::*;
use std::sync::Arc;

fn model(nv: usize, nt: usize) -> Arc<CoregionalModel> {
    let mesh = TriangleMesh::structured(Domain::unit_square(), 3, 3);
    let mut obs = Vec::new();
    for v in 0..nv {
        for t in 0..nt {
            for &(x, y) in &[(0.2, 0.3), (0.7, 0.6), (0.45, 0.85)] {
                obs.push(Observation {
                    var: v,
                    t,
                    loc: Point::new(x, y),
                    covariates: vec![1.0, x - y],
                    value: 0.4 * v as f64 - 0.15 * t as f64 + 0.3 * x * y,
                });
            }
        }
    }
    Arc::new(CoregionalModel::new(&mesh, nt, 1.0, nv, 2, obs).unwrap())
}

/// Hyperparameters with every term of the identity switched on.
fn live_hyper(nv: usize) -> ModelHyper {
    let sigmas = [0.7, 1.3, 2.1];
    let lambdas = [0.6, -0.45, 0.3];
    ModelHyper {
        range_s: (0..nv).map(|i| 0.5 + 0.3 * i as f64).collect(),
        range_t: (0..nv).map(|i| 1.5 + 0.8 * i as f64).collect(),
        sigmas: sigmas[..nv].to_vec(),
        lambdas: lambdas[..nv * (nv - 1) / 2].to_vec(),
        noise_prec: vec![5.0; nv],
    }
}

fn dense_logdet_qp(model: &CoregionalModel, hyper: &ModelHyper) -> f64 {
    let l = chol::cholesky(&model.assemble_qp_bta(hyper).to_dense())
        .expect("the joint prior precision is SPD");
    chol::logdet_from_cholesky(&l)
}

fn solver_logdet_qp(
    model: &Arc<CoregionalModel>,
    hyper: &ModelHyper,
    backend: SolverBackend,
) -> f64 {
    let mut solver = backend.build(model);
    solver.factorize(hyper).expect("factorization must succeed");
    solver.logdet_qp()
}

fn assert_rel(tag: &str, got: f64, want: f64, tol: f64) {
    let rel = (got - want).abs() / want.abs().max(1.0);
    assert!(rel <= tol, "{tag}: {got} vs {want} (relative {rel:.2e} > {tol:.0e})");
}

#[test]
fn process_identity_matches_dense_cholesky_and_the_sparse_backend() {
    for nv in 1..=3 {
        let model = model(nv, 4);
        let hyper = live_hyper(nv);
        let dense = dense_logdet_qp(&model, &hyper);
        let sparse = solver_logdet_qp(&model, &hyper, SolverBackend::SparseGeneral);
        for partitions in [1, 3] {
            let tag = format!("nv={nv} P={partitions}");
            let backend = SolverBackend::Bta { partitions, load_balance: 1.3 };
            let bta = solver_logdet_qp(&model, &hyper, backend);
            assert_rel(&format!("{tag} vs dense Cholesky"), bta, dense, 1e-12);
            assert_rel(&format!("{tag} vs sparse backend"), bta, sparse, 1e-10);
        }
    }
}

#[test]
fn prior_logdet_does_not_depend_on_the_partition_count() {
    let model = model(2, 5);
    let hyper = live_hyper(2);
    let logdets: Vec<u64> = [1, 2, 5]
        .into_iter()
        .map(|partitions| {
            let backend = SolverBackend::Bta { partitions, load_balance: 1.3 };
            solver_logdet_qp(&model, &hyper, backend).to_bits()
        })
        .collect();
    assert!(logdets.windows(2).all(|w| w[0] == w[1]), "{logdets:?}");
}
