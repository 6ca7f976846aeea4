//! Sequential BTA solver kernels: Cholesky factorization (`pobtaf`),
//! triangular solve (`pobtas`) and selected inversion (`pobtasi`).
//!
//! The routine names follow the Serinv library the paper integrates
//! (POBTAF/POBTAS/POBTASI = POsitive-definite Block-Tridiagonal-Arrowhead
//! Factorize / Solve / Selected Inversion), and each routine computes one of
//! the paper quantities an INLA evaluation needs:
//!
//! | routine | computes | used for |
//! |---|---|---|
//! | [`pobtaf`] | block factor `L` with `Q = L Lᵀ` | `log \|Q_p\|`, `log \|Q_c\|` via [`BtaCholesky::logdet`] |
//! | [`pobtas`] | `x = Q⁻¹ r` | the conditional mean `μ_c = Q_c⁻¹ Aᵀ D y` (Eq. 7) |
//! | [`pobtasi`] | selected inverse `Σ = Q⁻¹` on the BTA pattern | latent marginal variances `diag(Q_c⁻¹)` |
//!
//! The computational pattern per block column `i` is: POTRF on the diagonal
//! block (`D_i = L_ii L_iiᵀ`), TRSM on the sub-diagonal and arrow blocks
//! (`L_{i+1,i} = B_i L_ii^{-ᵀ}`, `L_{T,i} = C_i L_ii^{-ᵀ}`) and SYRK/GEMM
//! Schur updates onto `D_{i+1}`, `C_{i+1}` and the tip `T` — a complexity of
//! `O(n (b³ + a³))` versus the `O((n b)³)` of a dense factorization.
//!
//! Every dense kernel call bottoms out in the cache-blocked, packed
//! micro-kernels of `dalia_la::blas`. The `*_with` entry points thread a
//! reusable [`PackBuffer`] through the block loop so a stateful caller (the
//! solver sessions in `dalia-core`) performs *zero* allocations per
//! factorization once its workspaces are warm; the plain entry points create
//! a transient buffer per call.

use crate::bta::{BtaCholesky, BtaMatrix};
use crate::SerinvError;
use dalia_la::blas::{self, PackBuffer, Side, Trans, Triangle};
use dalia_la::{chol, Matrix};

/// BTA Cholesky factorization (sequential reference implementation).
///
/// Consumes a copy of the matrix and returns its block Cholesky factor.
pub fn pobtaf(a: &BtaMatrix) -> Result<BtaCholesky, SerinvError> {
    pobtaf_with(a, None, &mut PackBuffer::new())
}

/// [`pobtaf`] with workspace reuse: if `storage` holds a BTA matrix of the
/// same `(n, b, a)` structure (typically the blocks of a retired factor), its
/// allocations are recycled for the new factor instead of cloning `a`, and
/// `pack` is threaded through every `potrf` / `trsm` / `syrk` / `gemm` the
/// block loop issues — so a caller that owns both the factor `storage` and
/// the `PackBuffer` (the stateful solver sessions) allocates nothing per
/// factorization.
pub fn pobtaf_with(
    a: &BtaMatrix,
    storage: Option<BtaMatrix>,
    pack: &mut PackBuffer,
) -> Result<BtaCholesky, SerinvError> {
    let mut m = match storage {
        Some(mut s) if (s.n, s.b, s.a) == (a.n, a.b, a.a) => {
            s.copy_values_from(a);
            s
        }
        _ => a.clone(),
    };
    factor_in_place(&mut m, pack)?;
    Ok(BtaCholesky { blocks: m })
}

/// The factorization kernel: overwrite `m` with its block Cholesky factor.
pub(crate) fn factor_in_place(m: &mut BtaMatrix, pack: &mut PackBuffer) -> Result<(), SerinvError> {
    let n = m.n;
    let has_arrow = m.a > 0;

    for i in 0..n {
        // Factorize the diagonal block: D_i = L_ii L_iiᵀ.
        chol::potrf_with(pack, &mut m.diag[i]).map_err(|e| SerinvError::Factorization {
            block: i,
            source: e,
        })?;
        let (left, right) = m.diag.split_at_mut(i + 1);
        let l_ii = &left[i];

        // B_i := B_i L_ii^{-T}, C_i := C_i L_ii^{-T}.
        if i + 1 < n {
            blas::trsm_with(pack, Side::Right, Triangle::Lower, Trans::Yes, l_ii, &mut m.sub[i]);
        }
        if has_arrow {
            blas::trsm_with(pack, Side::Right, Triangle::Lower, Trans::Yes, l_ii, &mut m.arrow[i]);
        }

        // Schur updates on the trailing blocks.
        if i + 1 < n {
            let b_i = &m.sub[i];
            // D_{i+1} -= B_i B_iᵀ.
            blas::syrk_full_with(pack, Trans::No, -1.0, b_i, 1.0, &mut right[0]);
            if has_arrow {
                // C_{i+1} -= C_i B_iᵀ.
                let (arrow_left, arrow_right) = m.arrow.split_at_mut(i + 1);
                blas::gemm_with(pack, Trans::No, Trans::Yes, -1.0, &arrow_left[i], b_i, 1.0, &mut arrow_right[0]);
            }
        }
        if has_arrow {
            // T -= C_i C_iᵀ.
            blas::syrk_full_with(pack, Trans::No, -1.0, &m.arrow[i], 1.0, &mut m.tip);
        }
    }
    if has_arrow {
        chol::potrf_with(pack, &mut m.tip)
            .map_err(|e| SerinvError::Factorization { block: n, source: e })?;
    }
    Ok(())
}

/// BTA triangular solve: solves `A X = B` given the factor from [`pobtaf`].
/// The right-hand side is a dense `N × k` matrix, overwritten with the
/// solution.
pub fn pobtas(factor: &BtaCholesky, rhs: &mut Matrix) {
    let mut pack = PackBuffer::new();
    pobtas_with(factor, rhs, &mut pack);
}

/// [`pobtas`] with an explicit kernel packing workspace.
pub fn pobtas_with(factor: &BtaCholesky, rhs: &mut Matrix, pack: &mut PackBuffer) {
    let m = &factor.blocks;
    let (n, b, a) = (m.n, m.b, m.a);
    assert_eq!(rhs.nrows(), m.dim(), "pobtas: rhs dimension mismatch");
    let k = rhs.ncols();
    let a0 = n * b;

    // Forward substitution: L y = rhs.
    for i in 0..n {
        if i > 0 {
            // rhs_i -= B_{i-1} y_{i-1}.
            let y_prev = rhs.block((i - 1) * b, 0, b, k);
            let mut update = Matrix::zeros(b, k);
            blas::gemm_with(pack, Trans::No, Trans::No, 1.0, &m.sub[i - 1], &y_prev, 0.0, &mut update);
            rhs.add_block(i * b, 0, -1.0, &update);
        }
        let mut yi = rhs.block(i * b, 0, b, k);
        blas::trsm_with(pack, Side::Left, Triangle::Lower, Trans::No, &m.diag[i], &mut yi);
        rhs.set_block(i * b, 0, &yi);
        if a > 0 {
            // rhs_T -= C_i y_i.
            let mut update = Matrix::zeros(a, k);
            blas::gemm_with(pack, Trans::No, Trans::No, 1.0, &m.arrow[i], &yi, 0.0, &mut update);
            rhs.add_block(a0, 0, -1.0, &update);
        }
    }
    if a > 0 {
        let mut yt = rhs.block(a0, 0, a, k);
        blas::trsm_with(pack, Side::Left, Triangle::Lower, Trans::No, &m.tip, &mut yt);
        rhs.set_block(a0, 0, &yt);
    }
    backward_sweep(m, rhs, pack);
}

/// Backward-only BTA triangular solve: `Lᵀ X = B` for the factor from
/// [`pobtaf`], overwriting the dense `N × k` right-hand side with the
/// solution.
///
/// This is the half-solve behind factor-backed posterior sampling: for
/// `z ~ N(0, I)`, the vector `x = Lᵀ⁻¹ z` has covariance
/// `Lᵀ⁻¹ L⁻¹ = (L Lᵀ)⁻¹ = Q⁻¹`, so `μ + Lᵀ⁻¹ z` is an exact draw from
/// `N(μ, Q⁻¹)` at the cost of one backward sweep per right-hand-side column.
pub fn pobtas_lt(factor: &BtaCholesky, rhs: &mut Matrix) {
    assert_eq!(rhs.nrows(), factor.blocks.dim(), "pobtas_lt: rhs dimension mismatch");
    backward_sweep(&factor.blocks, rhs, &mut PackBuffer::new());
}

/// Backward substitution `Lᵀ X = Y`, overwriting `rhs`, for the factor
/// blocks `m`: the second half of [`pobtas_with`] and the whole of
/// [`pobtas_lt`]. The caller checks the dimension.
fn backward_sweep(m: &BtaMatrix, rhs: &mut Matrix, pack: &mut PackBuffer) {
    let (n, b, a) = (m.n, m.b, m.a);
    let k = rhs.ncols();
    let a0 = n * b;
    if a > 0 {
        let mut xt = rhs.block(a0, 0, a, k);
        blas::trsm_with(pack, Side::Left, Triangle::Lower, Trans::Yes, &m.tip, &mut xt);
        rhs.set_block(a0, 0, &xt);
    }
    for i in (0..n).rev() {
        let mut yi = rhs.block(i * b, 0, b, k);
        if i + 1 < n {
            // y_i -= B_iᵀ x_{i+1}.
            let x_next = rhs.block((i + 1) * b, 0, b, k);
            blas::gemm_with(pack, Trans::Yes, Trans::No, -1.0, &m.sub[i], &x_next, 1.0, &mut yi);
        }
        if a > 0 {
            // y_i -= C_iᵀ x_T.
            let x_t = rhs.block(a0, 0, a, k);
            blas::gemm_with(pack, Trans::Yes, Trans::No, -1.0, &m.arrow[i], &x_t, 1.0, &mut yi);
        }
        blas::trsm_with(pack, Side::Left, Triangle::Lower, Trans::Yes, &m.diag[i], &mut yi);
        rhs.set_block(i * b, 0, &yi);
    }
}

/// Selected inverse of a BTA matrix: the blocks of `A⁻¹` on the BTA pattern.
///
/// The result is returned in BTA layout: `diag[i] = Σ_ii`,
/// `sub[i] = Σ_{i+1,i}`, `arrow[i] = Σ_{T,i}`, `tip = Σ_TT`.
#[derive(Clone, Debug)]
pub struct BtaSelectedInverse {
    /// Selected inverse blocks in BTA layout.
    pub blocks: BtaMatrix,
}

impl BtaSelectedInverse {
    /// Marginal variances: the diagonal of the selected inverse.
    pub fn diagonal(&self) -> Vec<f64> {
        let m = &self.blocks;
        let mut out = Vec::with_capacity(m.dim());
        for i in 0..m.n {
            for j in 0..m.b {
                out.push(m.diag[i][(j, j)]);
            }
        }
        for j in 0..m.a {
            out.push(m.tip[(j, j)]);
        }
        out
    }
}

/// BTA selected inversion (sequential reference implementation).
pub fn pobtasi(factor: &BtaCholesky) -> BtaSelectedInverse {
    let mut pack = PackBuffer::new();
    pobtasi_with(factor, &mut pack)
}

/// [`pobtasi`] with an explicit kernel packing workspace threaded through the
/// backward block sweep (pure `trsm` / `gemm` work).
pub fn pobtasi_with(factor: &BtaCholesky, pack: &mut PackBuffer) -> BtaSelectedInverse {
    let m = &factor.blocks;
    let (n, b, a) = (m.n, m.b, m.a);
    let mut inv = BtaMatrix::zeros(n, b, a);

    // Σ_TT = L_TT^{-T} L_TT^{-1}.
    if a > 0 {
        let mut tip_inv = Matrix::identity(a);
        blas::trsm_with(pack, Side::Left, Triangle::Lower, Trans::No, &m.tip, &mut tip_inv);
        blas::trsm_with(pack, Side::Left, Triangle::Lower, Trans::Yes, &m.tip, &mut tip_inv);
        inv.tip = tip_inv;
    }

    for i in (0..n).rev() {
        let l_ii = &m.diag[i];
        // L_ii^{-1}.
        let mut l_inv = Matrix::identity(b);
        blas::trsm_with(pack, Side::Left, Triangle::Lower, Trans::No, l_ii, &mut l_inv);

        // Σ_{R,i} = −Σ_{R,R} L_{R,i} L_ii^{-1} with R the sub-rows of column i.
        let mut sigma_sub = Matrix::zeros(b, b); // Σ_{i+1,i}
        let mut sigma_arr = Matrix::zeros(a, b); // Σ_{T,i}
        if i + 1 < n {
            let b_i = &m.sub[i];
            // Σ_{i+1,i} = −(Σ_{i+1,i+1} B_i + Σ_{T,i+1}ᵀ C_i) L_ii^{-1}.
            blas::gemm_with(pack, Trans::No, Trans::No, -1.0, &inv.diag[i + 1], b_i, 0.0, &mut sigma_sub);
            if a > 0 {
                blas::gemm_with(pack, Trans::Yes, Trans::No, -1.0, &inv.arrow[i + 1], &m.arrow[i], 1.0, &mut sigma_sub);
            }
            let mut tmp = Matrix::zeros(b, b);
            blas::gemm_with(pack, Trans::No, Trans::No, 1.0, &sigma_sub, &l_inv, 0.0, &mut tmp);
            sigma_sub = tmp;
            if a > 0 {
                // Σ_{T,i} = −(Σ_{T,i+1} B_i + Σ_TT C_i) L_ii^{-1}.
                blas::gemm_with(pack, Trans::No, Trans::No, -1.0, &inv.arrow[i + 1], b_i, 0.0, &mut sigma_arr);
                blas::gemm_with(pack, Trans::No, Trans::No, -1.0, &inv.tip, &m.arrow[i], 1.0, &mut sigma_arr);
                let mut tmp = Matrix::zeros(a, b);
                blas::gemm_with(pack, Trans::No, Trans::No, 1.0, &sigma_arr, &l_inv, 0.0, &mut tmp);
                sigma_arr = tmp;
            }
        } else if a > 0 {
            // Last block column: only the arrow row below.
            blas::gemm_with(pack, Trans::No, Trans::No, -1.0, &inv.tip, &m.arrow[i], 0.0, &mut sigma_arr);
            let mut tmp = Matrix::zeros(a, b);
            blas::gemm_with(pack, Trans::No, Trans::No, 1.0, &sigma_arr, &l_inv, 0.0, &mut tmp);
            sigma_arr = tmp;
        }

        // Σ_ii = L_ii^{-T}(L_ii^{-1} − B_iᵀ Σ_{i+1,i} − C_iᵀ Σ_{T,i}).
        let mut inner = l_inv.clone();
        if i + 1 < n {
            blas::gemm_with(pack, Trans::Yes, Trans::No, -1.0, &m.sub[i], &sigma_sub, 1.0, &mut inner);
        }
        if a > 0 {
            blas::gemm_with(pack, Trans::Yes, Trans::No, -1.0, &m.arrow[i], &sigma_arr, 1.0, &mut inner);
        }
        blas::trsm_with(pack, Side::Left, Triangle::Lower, Trans::Yes, l_ii, &mut inner);
        // Numerical symmetrization of the diagonal block.
        inner.symmetrize();

        inv.diag[i] = inner;
        if i + 1 < n {
            inv.sub[i] = sigma_sub;
        }
        if a > 0 {
            inv.arrow[i] = sigma_arr;
        }
    }
    BtaSelectedInverse { blocks: inv }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{test_matrix, test_rhs};
    use dalia_la::chol;

    #[test]
    fn pobtaf_reconstructs_matrix() {
        let a = test_matrix(5, 3, 2, 1);
        let f = pobtaf(&a).unwrap();
        let l = f.to_dense_factor();
        let rec = blas::matmul(&l, &l.transpose());
        assert!(rec.max_abs_diff(&a.to_dense()) < 1e-10);
    }

    #[test]
    fn pobtaf_logdet_matches_dense() {
        let a = test_matrix(6, 2, 3, 2);
        let f = pobtaf(&a).unwrap();
        let dense_l = chol::cholesky(&a.to_dense()).unwrap();
        assert!((f.logdet().unwrap() - chol::logdet_from_cholesky(&dense_l)).abs() < 1e-10);
    }

    #[test]
    fn pobtaf_no_arrow() {
        let a = test_matrix(4, 3, 0, 3);
        let f = pobtaf(&a).unwrap();
        let dense_l = chol::cholesky(&a.to_dense()).unwrap();
        assert!((f.logdet().unwrap() - chol::logdet_from_cholesky(&dense_l)).abs() < 1e-10);
    }

    #[test]
    fn pobtaf_with_recycles_storage_bitwise() {
        let a = test_matrix(5, 3, 2, 11);
        let fresh = pobtaf(&a).unwrap();
        let mut pack = PackBuffer::new();
        // Matching storage: recycled, result bitwise identical.
        let reused = pobtaf_with(&a, Some(BtaMatrix::zeros(5, 3, 2)), &mut pack).unwrap();
        for i in 0..5 {
            assert_eq!(fresh.blocks.diag[i].as_slice(), reused.blocks.diag[i].as_slice());
        }
        assert_eq!(fresh.blocks.tip.as_slice(), reused.blocks.tip.as_slice());
        // A retired factor's blocks work as storage for the next call.
        let recycled = pobtaf_with(&a, Some(reused.blocks), &mut pack).unwrap();
        assert_eq!(fresh.logdet().unwrap().to_bits(), recycled.logdet().unwrap().to_bits());
        // Mismatched storage falls back to a fresh clone.
        let fallback = pobtaf_with(&a, Some(BtaMatrix::zeros(2, 2, 1)), &mut pack).unwrap();
        assert_eq!(fresh.logdet().unwrap().to_bits(), fallback.logdet().unwrap().to_bits());
    }

    #[test]
    fn pobtaf_rejects_indefinite() {
        let mut a = test_matrix(3, 2, 1, 4);
        // Destroy positive definiteness of an interior diagonal block.
        a.diag[1][(0, 0)] = -100.0;
        assert!(matches!(pobtaf(&a), Err(SerinvError::Factorization { .. })));
    }

    #[test]
    fn pobtas_solves_linear_system() {
        let a = test_matrix(5, 3, 2, 5);
        let f = pobtaf(&a).unwrap();
        let x_true = test_rhs(a.dim(), 2);
        let dense = a.to_dense();
        let mut rhs = blas::matmul(&dense, &x_true);
        pobtas(&f, &mut rhs);
        assert!(rhs.max_abs_diff(&x_true) < 1e-9);
    }

    #[test]
    fn pobtas_vector_matches_dense_solve() {
        let a = test_matrix(4, 2, 1, 6);
        let f = pobtaf(&a).unwrap();
        let b: Vec<f64> = (0..a.dim()).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut x = Matrix::col_vector(&b);
        pobtas(&f, &mut x);
        let x_dense = chol::spd_solve_vec(&a.to_dense(), &b).unwrap();
        for (a, b) in x.col(0).iter().zip(&x_dense) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn pobtas_lt_matches_dense_transpose_solve() {
        for (n, b, a, seed) in [(5usize, 3usize, 2usize, 5u64), (4, 3, 0, 7), (1, 4, 2, 10)] {
            let m = test_matrix(n, b, a, seed);
            let f = pobtaf(&m).unwrap();
            let x_true = test_rhs(m.dim(), 3);
            // Dense reference: rhs = Lᵀ x_true, so the solve must recover x_true.
            let l = f.to_dense_factor();
            let mut rhs = blas::matmul(&l.transpose(), &x_true);
            pobtas_lt(&f, &mut rhs);
            assert!(
                rhs.max_abs_diff(&x_true) < 1e-9,
                "pobtas_lt mismatch for (n={n}, b={b}, a={a})"
            );
        }
    }

    #[test]
    fn pobtas_lt_composes_to_full_solve() {
        // L⁻ᵀ (L⁻¹ b) must equal the full pobtas solve (the two sweeps of
        // pobtas factored apart), pinning the sampling half-solve to the
        // production solve path.
        let m = test_matrix(5, 3, 2, 12);
        let f = pobtaf(&m).unwrap();
        let b: Vec<f64> = (0..m.dim()).map(|i| (i as f64 * 0.17).sin()).collect();
        let mut full = Matrix::col_vector(&b);
        pobtas(&f, &mut full);
        // Forward half via a dense solve on the assembled factor.
        let l = f.to_dense_factor();
        let mut x = Matrix::col_vector(&b);
        blas::trsm(Side::Left, Triangle::Lower, Trans::No, &l, &mut x);
        pobtas_lt(&f, &mut x);
        for (p, q) in full.col(0).iter().zip(x.col(0)) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_session_pack_solves_and_inverts_bitwise_like_transient_packs() {
        // The session path (factor, solve and selected inversion on one
        // reused pack) must agree to the last bit with the plain entry
        // points, which pack into a transient workspace per call.
        let a = test_matrix(5, 3, 2, 14);
        let cold = pobtaf(&a).unwrap();
        let mut cold_x = test_rhs(a.dim(), 2);
        pobtas(&cold, &mut cold_x);
        let cold_vars = pobtasi(&cold).diagonal();

        let mut pack = PackBuffer::new();
        let warm = pobtaf_with(&a, None, &mut pack).unwrap();
        for round in 0..2 {
            let mut x = test_rhs(a.dim(), 2);
            pobtas_with(&warm, &mut x, &mut pack);
            assert_eq!(x.as_slice(), cold_x.as_slice(), "solve, round {round}");
            let vars = pobtasi_with(&warm, &mut pack).diagonal();
            for (p, q) in vars.iter().zip(&cold_vars) {
                assert_eq!(p.to_bits(), q.to_bits(), "variances, round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "pobtas: rhs dimension mismatch")]
    fn pobtas_rejects_mismatched_rhs() {
        let a = test_matrix(3, 2, 1, 15);
        let f = pobtaf(&a).unwrap();
        pobtas(&f, &mut Matrix::zeros(a.dim() - 1, 1));
    }

    #[test]
    #[should_panic(expected = "pobtas_lt: rhs dimension mismatch")]
    fn pobtas_lt_rejects_mismatched_rhs() {
        let a = test_matrix(3, 2, 1, 16);
        let f = pobtaf(&a).unwrap();
        pobtas_lt(&f, &mut Matrix::zeros(a.dim() + 1, 1));
    }

    #[test]
    fn pobtas_no_arrow() {
        let a = test_matrix(4, 3, 0, 7);
        let f = pobtaf(&a).unwrap();
        let b: Vec<f64> = (0..a.dim()).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut x = Matrix::col_vector(&b);
        pobtas(&f, &mut x);
        let x_dense = chol::spd_solve_vec(&a.to_dense(), &b).unwrap();
        for (a, b) in x.col(0).iter().zip(&x_dense) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn pobtasi_matches_dense_inverse_on_pattern() {
        let a = test_matrix(5, 3, 2, 8);
        let f = pobtaf(&a).unwrap();
        let sel = pobtasi(&f);
        let dense_inv = chol::spd_inverse(&a.to_dense()).unwrap();
        let (n, b, aa) = (a.n, a.b, a.a);
        let a0 = n * b;
        for i in 0..n {
            let expected = dense_inv.block(i * b, i * b, b, b);
            assert!(sel.blocks.diag[i].max_abs_diff(&expected) < 1e-9, "diag block {i}");
        }
        for i in 0..n - 1 {
            let expected = dense_inv.block((i + 1) * b, i * b, b, b);
            assert!(sel.blocks.sub[i].max_abs_diff(&expected) < 1e-9, "sub block {i}");
        }
        for i in 0..n {
            let expected = dense_inv.block(a0, i * b, aa, b);
            assert!(sel.blocks.arrow[i].max_abs_diff(&expected) < 1e-9, "arrow block {i}");
        }
        let expected_tip = dense_inv.block(a0, a0, aa, aa);
        assert!(sel.blocks.tip.max_abs_diff(&expected_tip) < 1e-9);
        // Marginal variances match the dense inverse diagonal.
        let vars = sel.diagonal();
        for i in 0..a.dim() {
            assert!((vars[i] - dense_inv[(i, i)]).abs() < 1e-9);
        }
    }

    #[test]
    fn pobtasi_no_arrow_matches_dense() {
        let a = test_matrix(4, 2, 0, 9);
        let f = pobtaf(&a).unwrap();
        let sel = pobtasi(&f);
        let dense_inv = chol::spd_inverse(&a.to_dense()).unwrap();
        let vars = sel.diagonal();
        for i in 0..a.dim() {
            assert!((vars[i] - dense_inv[(i, i)]).abs() < 1e-9);
        }
    }

    #[test]
    fn single_block_matrix() {
        let a = test_matrix(1, 4, 2, 10);
        let f = pobtaf(&a).unwrap();
        let sel = pobtasi(&f);
        let dense_inv = chol::spd_inverse(&a.to_dense()).unwrap();
        for (i, v) in sel.diagonal().iter().enumerate() {
            assert!((v - dense_inv[(i, i)]).abs() < 1e-10);
        }
    }
}
