//! Sparse matrix algebra: addition, products, Kronecker products and
//! congruence products (`AᵀDA`) used to assemble prior and conditional
//! precision matrices.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// `alpha * A + beta * B` for matrices of identical shape (patterns may differ).
pub fn add(alpha: f64, a: &CsrMatrix, beta: f64, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.shape(), b.shape(), "add: shape mismatch");
    let (nrows, ncols) = a.shape();
    let mut coo = CooMatrix::with_capacity(nrows, ncols, a.nnz() + b.nnz());
    for r in 0..nrows {
        for (c, v) in a.row_iter(r) {
            coo.push(r, c, alpha * v);
        }
        for (c, v) in b.row_iter(r) {
            coo.push(r, c, beta * v);
        }
    }
    coo.to_csr()
}

/// Linear combination of several matrices with identical shape.
pub fn linear_combination(terms: &[(f64, &CsrMatrix)]) -> CsrMatrix {
    assert!(!terms.is_empty(), "linear_combination: empty term list");
    let shape = terms[0].1.shape();
    let mut coo = CooMatrix::new(shape.0, shape.1);
    for &(alpha, m) in terms {
        assert_eq!(m.shape(), shape, "linear_combination: shape mismatch");
        for r in 0..shape.0 {
            for (c, v) in m.row_iter(r) {
                coo.push(r, c, alpha * v);
            }
        }
    }
    coo.to_csr()
}

/// General sparse matrix–matrix product `C = A B` (row-by-row Gustavson).
pub fn spgemm(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.ncols(), b.nrows(), "spgemm: inner dimension mismatch");
    let nrows = a.nrows();
    let ncols = b.ncols();
    let mut coo = CooMatrix::new(nrows, ncols);
    // Dense accumulator per row (Gustavson's algorithm).
    let mut accum = vec![0.0f64; ncols];
    let mut marker = vec![usize::MAX; ncols];
    let mut nonzero_cols: Vec<usize> = Vec::new();
    for i in 0..nrows {
        nonzero_cols.clear();
        for (k, av) in a.row_iter(i) {
            for (j, bv) in b.row_iter(k) {
                if marker[j] != i {
                    marker[j] = i;
                    accum[j] = 0.0;
                    nonzero_cols.push(j);
                }
                accum[j] += av * bv;
            }
        }
        nonzero_cols.sort_unstable();
        for &j in &nonzero_cols {
            coo.push(i, j, accum[j]);
        }
    }
    coo.to_csr()
}

/// Congruence product `Aᵀ D A` where `D` is diagonal (given as a slice).
///
/// This is the update `Qc = Qp + AᵀDA` of Eq. (4): `D` is the negative Hessian
/// of the log-likelihood (for Gaussian observations, the observation
/// precisions).
pub fn congruence_diag(a: &CsrMatrix, d: &[f64]) -> CsrMatrix {
    let mut out = CsrMatrix::zeros(a.ncols(), a.ncols());
    congruence_diag_into(a, d, &mut out);
    out
}

/// [`congruence_diag`] into `out`, bitwise identical to it, reusing `out`'s
/// storage: callers that rebuild `AᵀDA` for every θ (the solver workspaces)
/// keep one `out` and stop re-allocating its multi-megabyte entry arrays.
pub fn congruence_diag_into(a: &CsrMatrix, d: &[f64], out: &mut CsrMatrix) {
    assert_eq!(d.len(), a.nrows(), "congruence_diag: D dimension mismatch");
    let n = a.ncols();
    out.assign_entries(n, n, || {
        (0..a.nrows())
            .filter(|&r| d[r] != 0.0)
            .flat_map(move |r| {
                a.row_iter(r).flat_map(move |(ci, vi)| {
                    a.row_iter(r).map(move |(cj, vj)| (ci, cj, d[r] * vi * vj))
                })
            })
            .filter(|&(_, _, v)| v != 0.0)
    });
}

/// Kronecker product `A ⊗ B`.
///
/// With variables ordered time-major (time outer, space inner) the
/// spatio-temporal precision `Q_st = Σ_k M_k ⊗ S_k` is a sum of Kronecker
/// products of small temporal matrices `M_k` (tridiagonal, `n_t × n_t`) and
/// spatial FEM matrices `S_k` (`n_s × n_s`), which is exactly how the SPDE
/// discretization of the paper is assembled.
pub fn kron(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    let (am, an) = a.shape();
    let (bm, bn) = b.shape();
    let mut coo = CooMatrix::with_capacity(am * bm, an * bn, a.nnz() * b.nnz());
    for ar in 0..am {
        for (ac, av) in a.row_iter(ar) {
            for br in 0..bm {
                for (bc, bv) in b.row_iter(br) {
                    coo.push(ar * bm + br, ac * bn + bc, av * bv);
                }
            }
        }
    }
    coo.to_csr()
}

/// Block-diagonal concatenation of matrices.
pub fn block_diag(blocks: &[&CsrMatrix]) -> CsrMatrix {
    let nrows: usize = blocks.iter().map(|b| b.nrows()).sum();
    let ncols: usize = blocks.iter().map(|b| b.ncols()).sum();
    let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
    let mut coo = CooMatrix::with_capacity(nrows, ncols, nnz);
    let mut r0 = 0;
    let mut c0 = 0;
    for b in blocks {
        for r in 0..b.nrows() {
            for (c, v) in b.row_iter(r) {
                coo.push(r0 + r, c0 + c, v);
            }
        }
        r0 += b.nrows();
        c0 += b.ncols();
    }
    coo.to_csr()
}

/// Horizontal concatenation `[A | B]`.
pub fn hstack(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.nrows(), b.nrows(), "hstack: row mismatch");
    let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols() + b.ncols(), a.nnz() + b.nnz());
    for r in 0..a.nrows() {
        for (c, v) in a.row_iter(r) {
            coo.push(r, c, v);
        }
        for (c, v) in b.row_iter(r) {
            coo.push(r, a.ncols() + c, v);
        }
    }
    coo.to_csr()
}

/// Vertical concatenation `[A; B]`.
pub fn vstack(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.ncols(), b.ncols(), "vstack: column mismatch");
    let mut coo = CooMatrix::with_capacity(a.nrows() + b.nrows(), a.ncols(), a.nnz() + b.nnz());
    for r in 0..a.nrows() {
        for (c, v) in a.row_iter(r) {
            coo.push(r, c, v);
        }
    }
    for r in 0..b.nrows() {
        for (c, v) in b.row_iter(r) {
            coo.push(a.nrows() + r, c, v);
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dalia_la::blas::matmul;
    use dalia_la::Matrix;

    fn rand_like(nrows: usize, ncols: usize, seed: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                let h = (i * 31 + j * 17 + seed * 7) % 5;
                if h < 2 {
                    coo.push(i, j, (h + 1) as f64 * 0.5 + (i + j) as f64 * 0.1);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn add_matches_dense() {
        let a = rand_like(4, 5, 1);
        let b = rand_like(4, 5, 2);
        let c = add(2.0, &a, -1.0, &b);
        let mut expected = a.to_dense();
        expected.scale(2.0);
        expected.axpy(-1.0, &b.to_dense());
        assert!(c.to_dense().max_abs_diff(&expected) < 1e-14);
    }

    #[test]
    fn linear_combination_matches_add() {
        let a = rand_like(3, 3, 1);
        let b = rand_like(3, 3, 2);
        let c = rand_like(3, 3, 3);
        let lc = linear_combination(&[(1.0, &a), (2.0, &b), (-0.5, &c)]);
        let step = add(1.0, &add(1.0, &a, 2.0, &b), -0.5, &c);
        assert!(lc.max_abs_diff(&step) < 1e-14);
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = rand_like(4, 3, 1);
        let b = rand_like(3, 5, 2);
        let c = spgemm(&a, &b);
        let expected = matmul(&a.to_dense(), &b.to_dense());
        assert!(c.to_dense().max_abs_diff(&expected) < 1e-13);
    }

    #[test]
    fn congruence_matches_dense() {
        let a = rand_like(6, 4, 3);
        let d: Vec<f64> = (0..6).map(|i| 0.5 + i as f64).collect();
        let c = congruence_diag(&a, &d);
        let ad = a.to_dense();
        let dm = Matrix::from_diag(&d);
        let expected = matmul(&matmul(&ad.transpose(), &dm), &ad);
        assert!(c.to_dense().max_abs_diff(&expected) < 1e-12);
        assert!(c.is_symmetric(1e-12));
    }

    #[test]
    fn congruence_into_reused_storage_keeps_the_summation_order() {
        // Each output entry sums dozens of inexact products, so a change in
        // their order shows in the bits. Reference: the products bucketed by
        // output row in push order, sorted by column, summed in sorted order.
        let mut out = CsrMatrix::zeros(0, 0);
        for (nrows, ncols, seed) in [(60, 14, 1), (25, 9, 2), (60, 14, 3)] {
            let mut coo = CooMatrix::new(nrows, ncols);
            for (i, j) in (0..nrows).flat_map(|i| (0..ncols).map(move |j| (i, j))) {
                if !(i * 7 + j * 3 + seed).is_multiple_of(4) {
                    coo.push(i, j, ((i * ncols + j + seed) as f64 * 0.37).sin());
                }
            }
            let a = coo.to_csr();
            let d: Vec<f64> = (0..nrows).map(|i| if i % 5 == 2 { 0.0 } else { 0.3 + i as f64 }).collect();
            let mut buckets = vec![Vec::new(); ncols];
            for r in (0..nrows).filter(|&r| d[r] != 0.0) {
                for ((ci, vi), (cj, vj)) in a.row_iter(r).flat_map(|x| a.row_iter(r).map(move |y| (x, y))) {
                    buckets[ci].push((cj, d[r] * vi * vj));
                }
            }
            congruence_diag_into(&a, &d, &mut out);
            assert_eq!(out, congruence_diag(&a, &d));
            for (ci, mut bucket) in buckets.into_iter().enumerate() {
                bucket.sort_unstable_by_key(|&(c, _)| c);
                bucket.dedup_by(|next, kept| next.0 == kept.0 && { kept.1 += next.1; true });
                let bits = |(c, v): (usize, f64)| (c, v.to_bits());
                let want: Vec<_> = bucket.into_iter().map(bits).collect();
                assert_eq!(out.row_iter(ci).map(bits).collect::<Vec<_>>(), want, "row {ci}");
            }
        }
    }

    #[test]
    fn kron_matches_dense() {
        let a = rand_like(2, 3, 1);
        let b = rand_like(3, 2, 2);
        let k = kron(&a, &b);
        assert_eq!(k.shape(), (6, 6));
        let ad = a.to_dense();
        let bd = b.to_dense();
        let kd = k.to_dense();
        for i in 0..6 {
            for j in 0..6 {
                let expected = ad[(i / 3, j / 2)] * bd[(i % 3, j % 2)];
                assert!((kd[(i, j)] - expected).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn kron_identity_is_block_diag() {
        let b = rand_like(3, 3, 4);
        let k = kron(&CsrMatrix::identity(2), &b);
        let bd = block_diag(&[&b, &b]);
        assert!(k.max_abs_diff(&bd) < 1e-14);
    }

    #[test]
    fn stacking() {
        let a = rand_like(2, 3, 1);
        let b = rand_like(2, 2, 2);
        let h = hstack(&a, &b);
        assert_eq!(h.shape(), (2, 5));
        assert_eq!(h.get(1, 3), b.get(1, 0));

        let c = rand_like(3, 3, 5);
        let v = vstack(&a, &c);
        assert_eq!(v.shape(), (5, 3));
        assert_eq!(v.get(3, 1), c.get(1, 1));
    }

    #[test]
    fn block_diag_shapes() {
        let a = CsrMatrix::identity(2);
        let b = CsrMatrix::from_diag(&[3.0, 4.0, 5.0]);
        let bd = block_diag(&[&a, &b]);
        assert_eq!(bd.shape(), (5, 5));
        assert_eq!(bd.get(0, 0), 1.0);
        assert_eq!(bd.get(4, 4), 5.0);
        assert_eq!(bd.get(0, 3), 0.0);
    }
}
