//! Dense-oracle wall for the selected inversion at block sizes that reach the
//! blocked triangular solves.
//!
//! `trsm` and gemm below 32³ flops run the naive reference kernels, so
//! oracles at `b ≤ 4` never exercise the blocked right-side solve and the
//! packed products the selected-inversion sweep is built on. Here
//! `b ∈ {33, 64, 65, 130}` cross the blocked threshold, the 64-wide
//! diagonal-block boundary and a ragged last block.
//! Every diagonal, sub-diagonal, arrow and tip block of `pobtasi_with` and of
//! `d_pobtasi` (one, two and three partitions, and a layout whose middle
//! partition has an empty interior) is checked against the dense inverse.

use dalia_la::{chol, Matrix, PackBuffer};
use serinv::testing::test_matrix;
use serinv::{d_pobtaf, d_pobtasi, pobtaf_with, pobtasi_with, BtaMatrix, Partitioning};

/// Largest block error relative to the largest entry of the dense inverse.
const REL_TOL: f64 = 1e-10;

/// Time blocks of every case: enough for three partitions with interiors.
const N: usize = 5;

fn check(label: &str, got: &BtaMatrix, want: &BtaMatrix, scale: f64) {
    let blocks = [
        ("diag", &got.diag, &want.diag),
        ("sub", &got.sub, &want.sub),
        ("arrow", &got.arrow, &want.arrow),
    ];
    for (kind, g, w) in blocks {
        assert_eq!(g.len(), w.len(), "{label}: {kind} block count");
        for (i, (g, w)) in g.iter().zip(w).enumerate() {
            assert_eq!(g.shape(), w.shape(), "{label}: {kind} block {i} shape");
            let err = g.max_abs_diff(w) / scale;
            assert!(
                err < REL_TOL,
                "{label}: {kind} block {i} relative error {err:e}"
            );
        }
    }
    let err = got.tip.max_abs_diff(&want.tip) / scale;
    assert!(err < REL_TOL, "{label}: tip relative error {err:e}");
}

/// The dense inverse of `m` on its BTA pattern, and its largest entry.
fn oracle(m: &BtaMatrix) -> (BtaMatrix, f64) {
    let inv: Matrix = chol::spd_inverse(&m.to_dense()).expect("test matrix is SPD");
    let scale = inv.max_abs();
    (BtaMatrix::from_dense(&inv, m.n, m.b, m.a), scale)
}

fn check_block_size(b: usize) {
    for a in [0, 3] {
        let m = test_matrix(N, b, a, b as u64 + a as u64);
        let (want, scale) = oracle(&m);
        let mut pack = PackBuffer::new();

        let f = pobtaf_with(&m, None, &mut pack).expect("factorizes");
        check(
            &format!("pobtasi_with b={b} a={a}"),
            &pobtasi_with(&f, &mut pack).blocks,
            &want,
            scale,
        );

        let layouts = [
            ("P=1", Partitioning::even(N, 1)),
            ("P=2", Partitioning::load_balanced(N, 2, 1.6)),
            ("P=3", Partitioning::from_sizes(&[2, 2, 1])),
            ("empty interior", Partitioning::from_sizes(&[2, 1, 2])),
        ];
        for (name, part) in layouts {
            let dist = d_pobtaf(&m, &part).expect("factorizes");
            let sel = d_pobtasi(&dist, &mut pack);
            check(
                &format!("d_pobtasi {name} b={b} a={a}"),
                &sel.blocks,
                &want,
                scale,
            );
        }
    }
}

#[test]
fn selected_inverse_matches_dense_at_b33() {
    check_block_size(33);
}

#[test]
fn selected_inverse_matches_dense_at_b64() {
    check_block_size(64);
}

#[test]
fn selected_inverse_matches_dense_at_b65() {
    check_block_size(65);
}

#[test]
fn selected_inverse_matches_dense_at_b130() {
    check_block_size(130);
}
