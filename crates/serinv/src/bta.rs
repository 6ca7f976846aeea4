//! Block-tridiagonal-with-arrowhead (BTA) matrices in block-dense storage.
//!
//! A BTA matrix has `n` diagonal blocks of size `b × b`, sub-diagonal blocks
//! `B_i` coupling consecutive diagonal blocks, an arrow row of blocks
//! `C_i` (size `a × b`) coupling every diagonal block to the arrow tip, and an
//! `a × a` arrow tip `T` (see Fig. 2c of the paper):
//!
//! ```text
//! ┌ D_0  B_0ᵀ              C_0ᵀ ┐
//! │ B_0  D_1   B_1ᵀ        C_1ᵀ │
//! │      B_1   D_2   ⋱     C_2ᵀ │
//! │            ⋱     ⋱          │
//! │ C_0  C_1   C_2   …     T    │
//! └                             ┘
//! ```
//!
//! Only the lower triangle is stored; the matrix is assumed symmetric. The
//! block-dense representation is what enables the GPU-style dense kernels of
//! `dalia-la` to operate on the structured sparsity pattern (at the cost of
//! O(n·b²) memory instead of O(nnz), as discussed in Sec. IV-C of the paper).
//!
//! In the spatio-temporal model the structure parameters map to paper
//! quantities as `n = n_t` (time steps), `b = n_v · n_s` (variates × spatial
//! mesh nodes — the size of one temporal slab of the latent field) and
//! `a = n_v · n_r` (variates × fixed-effect covariates, the arrowhead that
//! couples the fixed effects to every time step). [`BtaMatrix`] is the
//! assembled precision `Q`; [`BtaCholesky`] holds the factor `L` of
//! `Q = L Lᵀ` in the same block layout, from which
//! [`BtaCholesky::logdet`] reads `log |Q| = 2 Σ log L_ii` — one of the three
//! terms of every INLA objective evaluation.

use crate::SerinvError;
use dalia_la::Matrix;

/// Symmetric block-tridiagonal matrix with arrowhead, lower-triangle storage.
#[derive(Clone, Debug)]
pub struct BtaMatrix {
    /// Number of diagonal blocks (`n` = number of time steps).
    pub n: usize,
    /// Size of each diagonal block (`b = n_v · n_s`).
    pub b: usize,
    /// Size of the arrow tip (`a = n_v · n_r`); may be zero (pure BT matrix).
    pub a: usize,
    /// Diagonal blocks `D_0 .. D_{n-1}` (each `b × b`, full storage, symmetric).
    pub diag: Vec<Matrix>,
    /// Sub-diagonal blocks `B_0 .. B_{n-2}` where `B_i` sits at block `(i+1, i)`.
    pub sub: Vec<Matrix>,
    /// Arrow row blocks `C_0 .. C_{n-1}` (each `a × b`).
    pub arrow: Vec<Matrix>,
    /// Arrow tip block (`a × a`).
    pub tip: Matrix,
}

impl BtaMatrix {
    /// Zero BTA matrix with the given block structure.
    pub fn zeros(n: usize, b: usize, a: usize) -> Self {
        assert!(n >= 1, "need at least one diagonal block");
        Self {
            n,
            b,
            a,
            diag: (0..n).map(|_| Matrix::zeros(b, b)).collect(),
            sub: (0..n.saturating_sub(1)).map(|_| Matrix::zeros(b, b)).collect(),
            arrow: (0..n).map(|_| Matrix::zeros(a, b)).collect(),
            tip: Matrix::zeros(a, a),
        }
    }

    /// Total matrix dimension `N = n·b + a`.
    pub fn dim(&self) -> usize {
        self.n * self.b + self.a
    }

    /// Memory footprint of the block-dense representation in `f64` entries.
    pub fn dense_footprint(&self) -> usize {
        self.n * self.b * self.b
            + self.n.saturating_sub(1) * self.b * self.b
            + self.n * self.a * self.b
            + self.a * self.a
    }

    /// Zero every block in place (workspace reuse: re-assembly into
    /// pre-allocated storage starts from a clean slate without reallocating).
    pub fn set_zero(&mut self) {
        for d in &mut self.diag {
            d.fill_zero();
        }
        for s in &mut self.sub {
            s.fill_zero();
        }
        for c in &mut self.arrow {
            c.fill_zero();
        }
        self.tip.fill_zero();
    }

    /// Copy the block values of `other` into this matrix without allocating.
    /// Both matrices must have the same `(n, b, a)` structure.
    pub fn copy_values_from(&mut self, other: &BtaMatrix) {
        assert_eq!(
            (self.n, self.b, self.a),
            (other.n, other.b, other.a),
            "copy_values_from: block structure mismatch"
        );
        for (dst, src) in self.diag.iter_mut().zip(&other.diag) {
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        }
        for (dst, src) in self.sub.iter_mut().zip(&other.sub) {
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        }
        for (dst, src) in self.arrow.iter_mut().zip(&other.arrow) {
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        }
        self.tip.as_mut_slice().copy_from_slice(other.tip.as_slice());
    }

    /// Add `alpha · I` to the diagonal (regularization / jitter).
    pub fn add_diagonal(&mut self, alpha: f64) {
        for d in &mut self.diag {
            for i in 0..self.b {
                d[(i, i)] += alpha;
            }
        }
        for i in 0..self.a {
            self.tip[(i, i)] += alpha;
        }
    }

    /// Dense copy of the full symmetric matrix (testing / small problems).
    pub fn to_dense(&self) -> Matrix {
        let nd = self.dim();
        let mut m = Matrix::zeros(nd, nd);
        for i in 0..self.n {
            m.set_block(i * self.b, i * self.b, &self.diag[i]);
        }
        for i in 0..self.n.saturating_sub(1) {
            m.set_block((i + 1) * self.b, i * self.b, &self.sub[i]);
            m.set_block(i * self.b, (i + 1) * self.b, &self.sub[i].transpose());
        }
        if self.a > 0 {
            let a0 = self.n * self.b;
            for i in 0..self.n {
                m.set_block(a0, i * self.b, &self.arrow[i]);
                m.set_block(i * self.b, a0, &self.arrow[i].transpose());
            }
            m.set_block(a0, a0, &self.tip);
        }
        m
    }

    /// Build a BTA matrix from a dense symmetric matrix with the given block
    /// structure (entries outside the BTA pattern are ignored).
    pub fn from_dense(m: &Matrix, n: usize, b: usize, a: usize) -> Self {
        assert_eq!(m.nrows(), n * b + a, "dense matrix size does not match block structure");
        let mut bta = Self::zeros(n, b, a);
        for i in 0..n {
            bta.diag[i] = m.block(i * b, i * b, b, b);
        }
        for i in 0..n - 1 {
            bta.sub[i] = m.block((i + 1) * b, i * b, b, b);
        }
        if a > 0 {
            let a0 = n * b;
            for i in 0..n {
                bta.arrow[i] = m.block(a0, i * b, a, b);
            }
            bta.tip = m.block(a0, a0, a, a);
        }
        bta
    }

    /// Symmetrize each diagonal block and the tip (numerical hygiene after
    /// assembly from sums of products).
    pub fn symmetrize(&mut self) {
        for d in &mut self.diag {
            d.symmetrize();
        }
        if self.a > 0 {
            self.tip.symmetrize();
        }
    }

    /// Multiply with a dense vector: `y = A x` (uses the symmetric structure).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "matvec dimension mismatch");
        let b = self.b;
        let a = self.a;
        let mut y = vec![0.0; self.dim()];
        // Diagonal and sub-diagonal contributions.
        for i in 0..self.n {
            let xi = &x[i * b..(i + 1) * b];
            let yi = dalia_la::blas::matvec(&self.diag[i], xi);
            for (k, v) in yi.iter().enumerate() {
                y[i * b + k] += v;
            }
            if i + 1 < self.n {
                let xj = &x[(i + 1) * b..(i + 2) * b];
                // y_{i+1} += B_i x_i ; y_i += B_iᵀ x_{i+1}
                let lo = dalia_la::blas::matvec(&self.sub[i], xi);
                for (k, v) in lo.iter().enumerate() {
                    y[(i + 1) * b + k] += v;
                }
                let up = dalia_la::blas::matvec_t(&self.sub[i], xj);
                for (k, v) in up.iter().enumerate() {
                    y[i * b + k] += v;
                }
            }
        }
        if a > 0 {
            let a0 = self.n * b;
            let xt = &x[a0..];
            for i in 0..self.n {
                let xi = &x[i * b..(i + 1) * b];
                let lo = dalia_la::blas::matvec(&self.arrow[i], xi);
                for (k, v) in lo.iter().enumerate() {
                    y[a0 + k] += v;
                }
                let up = dalia_la::blas::matvec_t(&self.arrow[i], xt);
                for (k, v) in up.iter().enumerate() {
                    y[i * b + k] += v;
                }
            }
            let tt = dalia_la::blas::matvec(&self.tip, xt);
            for (k, v) in tt.iter().enumerate() {
                y[a0 + k] += v;
            }
        }
        y
    }

    /// Add `ln` of every diagonal entry of the factor blocks to `s`, block
    /// by block (the tip last, with `tip`), for factor blocks whose block `j`
    /// is block `first + j` of the whole matrix. A zero, negative or
    /// non-finite pivot is [`SerinvError::IndefiniteLogdet`] with its global
    /// block index (the tip's is `first + n`).
    pub(crate) fn add_log_pivots(&self, first: usize, tip: bool, s: &mut f64) -> Result<(), SerinvError> {
        let tip = tip.then_some(&self.tip);
        for (j, d) in self.diag.iter().chain(tip).enumerate() {
            for i in 0..d.nrows() {
                let v = d[(i, i)];
                if !(v > 0.0) || !v.is_finite() {
                    return Err(SerinvError::IndefiniteLogdet { block: first + j, index: i, value: v });
                }
                *s += v.ln();
            }
        }
        Ok(())
    }

    /// Estimated number of floating point operations of a BTA Cholesky
    /// factorization (Sec. IV-C: `O(n·(b³ + a³))` leading terms).
    pub fn factorization_flops(&self) -> u64 {
        let n = self.n as u64;
        let b = self.b as u64;
        let a = self.a as u64;
        // potrf(b) + trsm(b) + syrk(b) per block column, plus arrow updates.
        n * (b * b * b / 3 + b * b * b + b * b * b + 2 * a * b * b + a * a * b) + a * a * a / 3
    }
}

/// Cholesky factor of a BTA matrix: same block layout as [`BtaMatrix`], with
/// `diag[i]` holding the lower-triangular `L_ii`, `sub[i]` holding `L_{i+1,i}`,
/// `arrow[i]` holding `L_{T,i}` and `tip` holding `L_TT`.
#[derive(Clone, Debug)]
pub struct BtaCholesky {
    /// Factorized blocks in BTA layout.
    pub blocks: BtaMatrix,
}

impl BtaCholesky {
    /// Log-determinant of the factorized matrix: `2 Σ log diag(L)`.
    ///
    /// Every factor diagonal entry must be strictly positive and finite —
    /// a zero, negative or NaN pivot means the factorization did not produce
    /// a valid Cholesky factor (e.g. NaN model inputs sail through `potrf`'s
    /// pivot check because every comparison with NaN is false). Instead of
    /// silently returning NaN that would corrupt `f(θ)` and the BFGS line
    /// search downstream, this reports the offending entry as a structured
    /// [`SerinvError::IndefiniteLogdet`].
    pub fn logdet(&self) -> Result<f64, SerinvError> {
        let mut s = 0.0;
        self.blocks.add_log_pivots(0, true, &mut s)?;
        Ok(2.0 * s)
    }

    /// Dense lower-triangular factor (testing only).
    pub fn to_dense_factor(&self) -> Matrix {
        let mut m = self.blocks.to_dense();
        // to_dense mirrors the lower blocks into the upper triangle; zero it.
        m.zero_upper();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::test_matrix;

    #[test]
    fn dims_and_footprint() {
        let m = BtaMatrix::zeros(4, 3, 2);
        assert_eq!(m.dim(), 14);
        assert_eq!(m.dense_footprint(), 4 * 9 + 3 * 9 + 4 * 6 + 4);
    }

    #[test]
    fn dense_roundtrip() {
        let m = test_matrix(5, 3, 2, 1);
        let d = m.to_dense();
        // The dense image must be symmetric.
        let mut dt = d.clone();
        dt.symmetrize();
        assert!(d.max_abs_diff(&dt) < 1e-14);
        let back = BtaMatrix::from_dense(&d, 5, 3, 2);
        assert!(back.to_dense().max_abs_diff(&d) < 1e-14);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = test_matrix(4, 3, 2, 2);
        let x: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.7).sin()).collect();
        let y = m.matvec(&x);
        let yd = dalia_la::blas::matvec(&m.to_dense(), &x);
        for (a, b) in y.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_bt_matrix_without_arrow() {
        let m = test_matrix(3, 2, 0, 3);
        assert_eq!(m.dim(), 6);
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let y = m.matvec(&x);
        let yd = dalia_la::blas::matvec(&m.to_dense(), &x);
        for (a, b) in y.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn add_diagonal_shifts() {
        let mut m = BtaMatrix::zeros(2, 2, 1);
        m.add_diagonal(3.0);
        assert_eq!(m.diag[0][(0, 0)], 3.0);
        assert_eq!(m.tip[(0, 0)], 3.0);
        assert_eq!(m.diag[1][(1, 0)], 0.0);
    }

    #[test]
    fn logdet_rejects_nonpositive_and_nonfinite_factor_diagonals() {
        let base = test_matrix(3, 2, 1, 5);
        let good = crate::sequential::pobtaf(&base).unwrap();
        assert!(good.logdet().unwrap().is_finite());

        // A deliberately indefinite matrix must fail at factorization time
        // with a structured error, never reach a NaN logdet.
        let mut indefinite = base.clone();
        for i in 0..indefinite.b {
            indefinite.diag[1][(i, i)] -= 1e3;
        }
        match crate::sequential::pobtaf(&indefinite) {
            Err(SerinvError::Factorization { block, .. }) => assert_eq!(block, 1),
            other => panic!("expected a factorization error, got {other:?}"),
        }

        // A factor whose diagonal was corrupted (the NaN-input case that
        // sails through potrf's pivot check) reports the offending entry
        // instead of silently returning NaN.
        let mut bad = good.clone();
        bad.blocks.diag[2][(1, 1)] = -0.5;
        match bad.logdet() {
            Err(SerinvError::IndefiniteLogdet { block: 2, index: 1, value }) => {
                assert_eq!(value, -0.5);
            }
            other => panic!("expected IndefiniteLogdet, got {other:?}"),
        }
        let mut nan = good.clone();
        nan.blocks.tip[(0, 0)] = f64::NAN;
        match nan.logdet() {
            Err(SerinvError::IndefiniteLogdet { block: 3, index: 0, value }) => {
                assert!(value.is_nan());
            }
            other => panic!("expected IndefiniteLogdet at the tip, got {other:?}"),
        }
    }

    #[test]
    fn flop_estimate_positive_and_monotone() {
        let small = BtaMatrix::zeros(4, 3, 1).factorization_flops();
        let big = BtaMatrix::zeros(8, 3, 1).factorization_flops();
        assert!(small > 0);
        assert!(big > small);
    }
}
