//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the workhorse format of the model layer: precision-matrix blocks,
//! design matrices and Kronecker products are all held in CSR before being
//! mapped into the block-dense BTA workspace of the structured solver.

use crate::coo::CooMatrix;
use dalia_la::Matrix;

/// Sparse matrix in CSR format with sorted column indices per row.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// Row pointer array, length `nrows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, sorted within each row.
    col_idx: Vec<usize>,
    /// Non-zero values, aligned with `col_idx`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from raw CSR arrays (must be consistent; column indices sorted).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length mismatch");
        assert_eq!(col_idx.len(), values.len(), "index/value length mismatch");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr tail mismatch");
        debug_assert!(col_idx.iter().all(|&c| c < ncols), "column index out of range");
        Self { nrows, ncols, row_ptr, col_idx, values }
    }

    /// Empty (all-zero) matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self { nrows, ncols, row_ptr: vec![0; nrows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let row_ptr = (0..=n).collect();
        let col_idx = (0..n).collect();
        let values = vec![1.0; n];
        Self { nrows: n, ncols: n, row_ptr, col_idx, values }
    }

    /// Diagonal matrix from a slice.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let row_ptr = (0..=n).collect();
        let col_idx = (0..n).collect();
        Self { nrows: n, ncols: n, row_ptr, col_idx, values: diag.to_vec() }
    }

    /// Convert from COO, summing duplicate entries and sorting columns.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let (nrows, ncols) = coo.shape();
        let (rows, cols, vals) = coo.triplets();
        let mut m = Self::zeros(nrows, ncols);
        m.assign_entries(nrows, ncols, || {
            rows.iter().zip(cols).zip(vals).map(|((&r, &c), &v)| (r, c, v))
        });
        m
    }

    /// Overwrite `self` with the `nrows × ncols` sum of the `(row, col,
    /// value)` entries that `entries()` yields, keeping this matrix's
    /// allocations: once it has held a matrix as large, re-filling it
    /// allocates only one sort buffer the size of its longest row. `entries`
    /// is called twice (to size the rows, then to fill them) and must yield
    /// the same sequence both times. Each row's entries, in yield order, are
    /// sorted by column and equal columns summed in sorted order.
    pub(crate) fn assign_entries<I>(&mut self, nrows: usize, ncols: usize, entries: impl Fn() -> I)
    where
        I: Iterator<Item = (usize, usize, f64)>,
    {
        self.nrows = nrows;
        self.ncols = ncols;
        // Bucket the entries by row, in yield order: `row_ptr[r + 1]` first
        // counts row r; after the prefix sum `row_ptr[r]` is the start of row
        // r's bucket, and filling advances it to the bucket's end.
        self.row_ptr.clear();
        self.row_ptr.resize(nrows + 1, 0);
        for (r, _, _) in entries() {
            self.row_ptr[r + 1] += 1;
        }
        for i in 0..nrows {
            self.row_ptr[i + 1] += self.row_ptr[i];
        }
        let nnz = self.row_ptr[nrows];
        self.col_idx.clear();
        self.col_idx.resize(nnz, 0);
        self.values.clear();
        self.values.resize(nnz, 0.0);
        for (r, c, v) in entries() {
            let pos = self.row_ptr[r];
            self.col_idx[pos] = c;
            self.values[pos] = v;
            self.row_ptr[r] += 1;
        }
        // Bucket ends back to bucket starts.
        self.row_ptr.copy_within(0..nrows, 1);
        self.row_ptr[0] = 0;
        // Sort each row by column and merge duplicates, compacting in place:
        // merged rows are never longer than their buckets, and each bucket is
        // copied out before its row's output overwrites it.
        let longest = self.row_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mut scratch: Vec<(usize, f64)> = Vec::with_capacity(longest);
        let (mut lo, mut out) = (0, 0);
        for r in 0..nrows {
            let hi = self.row_ptr[r + 1];
            scratch.clear();
            scratch.extend(self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                self.col_idx[out] = c;
                self.values[out] = v;
                out += 1;
                i = j;
            }
            self.row_ptr[r + 1] = out;
            lo = hi;
        }
        self.col_idx.truncate(out);
        self.values.truncate(out);
    }

    /// Build from a dense matrix, keeping entries with |value| > tol.
    pub fn from_dense(m: &Matrix, tol: f64) -> Self {
        CooMatrix::from_dense(m, tol).to_csr()
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array (pattern is immutable — used by the repeated
    /// assembly path where only values change between hyperparameter
    /// configurations).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterator over `(col, value)` pairs of row `r`.
    #[inline]
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        self.col_idx[start..end].iter().copied().zip(self.values[start..end].iter().copied())
    }

    /// Value at `(i, j)` (zero when not stored). O(log nnz_row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let start = self.row_ptr[i];
        let end = self.row_ptr[i + 1];
        match self.col_idx[start..end].binary_search(&j) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix–vector product `y = A x`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "spmv dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        for r in 0..self.nrows {
            let mut s = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                s += self.values[k] * x[self.col_idx[k]];
            }
            y[r] = s;
        }
        y
    }

    /// Transposed sparse matrix–vector product `y = A^T x`.
    pub fn spmv_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.nrows, "spmv_t dimension mismatch");
        let mut y = vec![0.0; self.ncols];
        for r in 0..self.nrows {
            let xr = x[r];
            if xr != 0.0 {
                for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                    y[self.col_idx[k]] += self.values[k] * xr;
                }
            }
        }
        y
    }

    /// Quadratic form `x^T A x`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        let ax = self.spmv(x);
        x.iter().zip(&ax).map(|(a, b)| a * b).sum()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.col_idx {
            counts[c] += 1;
        }
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for i in 0..self.ncols {
            row_ptr[i + 1] = row_ptr[i] + counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let pos = next[c];
                col_idx[pos] = r;
                values[pos] = self.values[k];
                next[c] += 1;
            }
        }
        // Rows of the transpose are produced in increasing original-row order,
        // so column indices are already sorted.
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Scale all values in place.
    pub fn scale(&mut self, alpha: f64) {
        self.values.iter_mut().for_each(|v| *v *= alpha);
    }

    /// Scaled copy.
    pub fn scaled(&self, alpha: f64) -> CsrMatrix {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// Dense copy (small matrices / tests).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                m[(r, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }

    /// Extract the dense sub-block `[r0, r0+rows) x [c0, c0+cols)`.
    pub fn dense_block(&self, r0: usize, c0: usize, rows: usize, cols: usize) -> Matrix {
        assert!(r0 + rows <= self.nrows && c0 + cols <= self.ncols, "block out of range");
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let r = r0 + i;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                if c >= c0 && c < c0 + cols {
                    m[(i, c - c0)] = self.values[k];
                }
            }
        }
        m
    }

    /// Accumulate `alpha *` the dense sub-block `[r0, ..) x [c0, ..)` into `out`.
    ///
    /// This is the O(nnz) "sparse to structured dense mapping" of Sec. IV-F of
    /// the paper: rather than materializing O(n·b²) zeros, only stored entries
    /// are visited.
    pub fn add_dense_block_into(
        &self,
        r0: usize,
        c0: usize,
        alpha: f64,
        out: &mut Matrix,
        out_r0: usize,
        out_c0: usize,
    ) {
        let rows = out.nrows() - out_r0;
        let cols = out.ncols() - out_c0;
        let rows = rows.min(self.nrows.saturating_sub(r0));
        let cols = cols.min(self.ncols.saturating_sub(c0));
        for i in 0..rows {
            let r = r0 + i;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                if c >= c0 && c < c0 + cols {
                    out[(out_r0 + i, out_c0 + c - c0)] += alpha * self.values[k];
                }
            }
        }
    }

    /// Sum of the diagonal entries.
    pub fn trace(&self) -> f64 {
        (0..self.nrows.min(self.ncols)).map(|i| self.get(i, i)).sum()
    }

    /// Diagonal as a vector.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols)).map(|i| self.get(i, i)).collect()
    }

    /// Lower-triangular part (including diagonal).
    pub fn lower_triangle(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for (c, v) in self.row_iter(r) {
                if c <= r {
                    coo.push(r, c, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Maximum absolute difference of two matrices with identical shapes
    /// (patterns may differ).
    pub fn max_abs_diff(&self, other: &CsrMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        let a = self.to_dense();
        let b = other.to_dense();
        a.max_abs_diff(&b)
    }

    /// `true` if the matrix is numerically symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.max_abs_diff(&t) <= tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 0, 4.0);
        coo.push(2, 2, 5.0);
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_sorted_and_summed() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2, 1.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 2, 3.0); // duplicate
        coo.push(0, 1, 4.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(1, 2), 4.0);
        assert_eq!(csr.get(1, 0), 2.0);
        assert_eq!(csr.get(0, 1), 4.0);
        // columns sorted per row
        let row1: Vec<usize> = csr.row_iter(1).map(|(c, _)| c).collect();
        assert_eq!(row1, vec![0, 2]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.spmv(&x);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
        let yt = a.spmv_t(&x);
        let expected = dalia_la::blas::matvec_t(&a.to_dense(), &x);
        for (a, b) in yt.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a.to_dense(), att.to_dense());
        assert_eq!(a.transpose().to_dense(), a.to_dense().transpose());
    }

    #[test]
    fn get_and_trace() {
        let a = sample();
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
        assert_eq!(a.trace(), 9.0);
        assert_eq!(a.diag(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn dense_block_extraction() {
        let a = sample();
        let b = a.dense_block(0, 0, 2, 2);
        assert_eq!(b[(0, 0)], 1.0);
        assert_eq!(b[(1, 1)], 3.0);
        assert_eq!(b[(0, 1)], 0.0);
    }

    #[test]
    fn add_dense_block_into_accumulates() {
        let a = sample();
        let mut out = Matrix::zeros(2, 2);
        a.add_dense_block_into(1, 1, 2.0, &mut out, 0, 0);
        assert_eq!(out[(0, 0)], 6.0); // 2 * 3
        assert_eq!(out[(1, 1)], 10.0); // 2 * 5
    }

    #[test]
    fn quadratic_form_matches_dense() {
        let a = sample();
        let x = vec![1.0, -1.0, 2.0];
        let d = a.to_dense();
        let ax = dalia_la::blas::matvec(&d, &x);
        let expected: f64 = x.iter().zip(&ax).map(|(a, b)| a * b).sum();
        assert!((a.quadratic_form(&x) - expected).abs() < 1e-14);
    }

    #[test]
    fn identity_and_diag() {
        let i = CsrMatrix::identity(3);
        assert_eq!(i.spmv(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
        let d = CsrMatrix::from_diag(&[2.0, 4.0]);
        assert_eq!(d.spmv(&[1.0, 1.0]), vec![2.0, 4.0]);
    }

    #[test]
    fn lower_triangle() {
        let a = sample();
        let l = a.lower_triangle();
        assert_eq!(l.get(0, 2), 0.0);
        assert_eq!(l.get(2, 0), 4.0);
        assert_eq!(l.get(2, 2), 5.0);
    }

    #[test]
    fn symmetry_check() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(0, 0, 1.0);
        assert!(coo.to_csr().is_symmetric(1e-14));
        let a = sample();
        assert!(!a.is_symmetric(1e-14));
    }
}
