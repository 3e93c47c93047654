//! Compressed sparse row (CSR) storage and SpMV kernels.
//!
//! CSR is the reference FP64 operator in this reproduction: the GPU and "Feinberg-fc"
//! baselines of the paper behave numerically like plain double-precision SpMV, which is
//! exactly what [`CsrMatrix::spmv_into`] computes.
//!
//! The structure — row pointers and column indices — sits behind one [`Arc`] and the
//! values are each matrix's own.  A [`clone`](Clone::clone) or
//! [`with_values`](CsrMatrix::with_values) shares the structure and owns its values, so
//! a sequence of matrices over one sparsity pattern (a transient chain's steps) holds
//! the pattern once, and [`shares_structure_with`](CsrMatrix::shares_structure_with)
//! tells in O(1) that two of them have it.  Every constructor that builds a structure
//! ([`from_raw`](CsrMatrix::from_raw), [`from_coo`](CsrMatrix::from_coo),
//! [`transpose`](CsrMatrix::transpose)) moves it into a fresh `Arc`; equality is
//! content equality either way.

use std::sync::Arc;

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::Result;

/// The sparsity structure of a CSR matrix, shared by every matrix over it.
#[derive(Debug, PartialEq)]
pub(crate) struct Structure {
    /// Row pointer array of length `nrows + 1`.
    row_ptr: Vec<usize>,
    /// Column indices, length `nnz`, sorted within each row.
    col_idx: Vec<usize>,
}

/// A sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// Row pointers and column indices, shared with clones and
    /// [`with_values`](Self::with_values) matrices.
    structure: Arc<Structure>,
    /// Nonzero values, length `nnz`: this matrix's own.
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays.
    ///
    /// `row_ptr` must have length `nrows + 1`, be non-decreasing, start at 0 and end at
    /// `col_idx.len()`; every column index must be `< ncols`.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::LengthMismatch {
                what: "CSR row_ptr",
                expected: nrows + 1,
                actual: row_ptr.len(),
            });
        }
        if col_idx.len() != vals.len() {
            return Err(SparseError::LengthMismatch {
                what: "CSR col_idx vs values",
                expected: vals.len(),
                actual: col_idx.len(),
            });
        }
        if row_ptr.first().copied() != Some(0) || row_ptr.last().copied() != Some(vals.len()) {
            return Err(SparseError::InvalidParameter(
                "CSR row_ptr must start at 0 and end at nnz".into(),
            ));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(SparseError::InvalidParameter(
                "CSR row_ptr must be non-decreasing".into(),
            ));
        }
        for &c in &col_idx {
            if c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: 0,
                    col: c,
                    nrows,
                    ncols,
                });
            }
        }
        Ok(Self::assembled(nrows, ncols, row_ptr, col_idx, vals))
    }

    /// The matrix over a freshly built structure, the arrays moved into its `Arc`.
    fn assembled(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            structure: Arc::new(Structure { row_ptr, col_idx }),
            vals,
        }
    }

    /// Builds a CSR matrix from a COO matrix, summing duplicate entries.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let nnz_in = coo.nnz();

        // Counting sort by row.
        let mut counts = vec![0usize; nrows + 1];
        for &r in coo.row_indices() {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut order_cols = vec![0usize; nnz_in];
        let mut order_vals = vec![0.0f64; nnz_in];
        {
            let mut cursor = counts.clone();
            for ((&r, &c), &v) in coo
                .row_indices()
                .iter()
                .zip(coo.col_indices().iter())
                .zip(coo.values().iter())
            {
                let k = cursor[r];
                order_cols[k] = c;
                order_vals[k] = v;
                cursor[r] += 1;
            }
        }

        // Sort within each row by column and merge duplicates.
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::with_capacity(nnz_in);
        let mut vals = Vec::with_capacity(nnz_in);
        row_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..nrows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            scratch.clear();
            scratch.extend(
                order_cols[lo..hi]
                    .iter()
                    .copied()
                    .zip(order_vals[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                if let Some(&last_c) = col_idx.last() {
                    if col_idx.len() > *row_ptr.last().expect("row_ptr nonempty") && last_c == c {
                        *vals.last_mut().expect("vals matches col_idx") += v;
                        continue;
                    }
                }
                col_idx.push(c);
                vals.push(v);
            }
            row_ptr.push(col_idx.len());
        }

        Self::assembled(nrows, ncols, row_ptr, col_idx, vals)
    }

    /// A matrix over this one's structure, shared, with `vals` as its values: a value
    /// update that copies no index.
    ///
    /// # Panics
    /// Panics if `vals` does not hold one value per stored non-zero.
    pub fn with_values(&self, vals: Vec<f64>) -> CsrMatrix {
        assert_eq!(
            vals.len(),
            self.nnz(),
            "CsrMatrix::with_values: one value per non-zero"
        );
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            structure: Arc::clone(&self.structure),
            vals,
        }
    }

    /// Whether `other` shares this matrix's structure — a clone or a
    /// [`with_values`](Self::with_values) matrix does, an equal structure built apart
    /// does not.  O(1).
    pub fn shares_structure_with(&self, other: &CsrMatrix) -> bool {
        Arc::ptr_eq(&self.structure, &other.structure)
    }

    /// The shared structure, for layouts that remember what they were built from.
    pub(crate) fn structure(&self) -> &Arc<Structure> {
        &self.structure
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.structure.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.structure.col_idx
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable value array (structure is fixed, values may be edited e.g. for scaling).
    /// The values are this matrix's own: a matrix sharing the structure keeps its own.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Returns the `(col_idx, values)` slices of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let row_ptr = self.row_ptr();
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        (&self.col_idx()[lo..hi], &self.vals[lo..hi])
    }

    /// Iterates over all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Returns the value at `(row, col)`, or 0.0 if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&col) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Extracts the main diagonal (missing diagonal entries are returned as 0.0).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Serial SpMV: `y ← A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "CSR spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "CSR spmv: y length mismatch");
        let (row_ptr, col_idx) = (self.row_ptr(), self.col_idx());
        for (r, yr) in y.iter_mut().enumerate() {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.vals[k] * x[col_idx[k]];
            }
            *yr = acc;
        }
    }

    /// Allocating convenience wrapper around [`spmv_into`](Self::spmv_into).
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// The true relative residual `‖b − A·x‖₂ / ‖b‖₂` of a candidate solution against
    /// this (exact fp64) matrix — the honest accuracy yardstick for solves performed
    /// on quantized operators, whose internal residuals are measured against the
    /// quantized matrix and can be arbitrarily optimistic.  Returns 0.0 for `b = 0`.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `b.len() != nrows`.
    pub fn relative_residual(&self, b: &[f64], x: &[f64]) -> f64 {
        assert_eq!(b.len(), self.nrows, "relative_residual: b length mismatch");
        let ax = self.spmv(x);
        let mut r = vec![0.0; b.len()];
        crate::vecops::sub_into(b, &ax, &mut r);
        let b_norm = crate::vecops::norm2(b);
        if b_norm > 0.0 {
            crate::vecops::norm2(&r) / b_norm
        } else {
            0.0
        }
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let (row_ptr, cols) = (self.row_ptr(), self.col_idx());
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in cols {
            counts[c + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.nrows {
            let row = row_ptr[r]..row_ptr[r + 1];
            for (&c, &v) in cols[row.clone()].iter().zip(&self.vals[row]) {
                let dst = cursor[c];
                col_idx[dst] = r;
                vals[dst] = v;
                cursor[c] += 1;
            }
        }
        Self::assembled(self.ncols, self.nrows, counts, col_idx, vals)
    }

    /// Checks numerical symmetry within an absolute tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.structure != self.structure {
            // Structurally different; fall back to element-wise comparison.
            return self
                .iter()
                .all(|(r, c, v)| (self.get(c, r) - v).abs() <= tol)
                && t.iter().all(|(r, c, v)| (self.get(r, c) - v).abs() <= tol);
        }
        self.vals
            .iter()
            .zip(t.vals.iter())
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Frobenius norm of the matrix (pairwise accumulation via [`crate::vecops::dot`],
    /// so the result is independent of how callers shard the value array).
    pub fn frobenius_norm(&self) -> f64 {
        crate::vecops::dot(&self.vals, &self.vals).sqrt()
    }

    /// Maximum absolute value of any stored entry (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.vals.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Minimum absolute value over the *nonzero* entries (`None` for an empty matrix).
    pub fn min_abs_nonzero(&self) -> Option<f64> {
        self.vals
            .iter()
            .filter(|v| **v != 0.0)
            .map(|v| v.abs())
            .fold(None, |m: Option<f64>, v| Some(m.map_or(v, |m| m.min(v))))
    }

    /// Converts back to COO (useful for re-blocking or writing Matrix Market files).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_coo() -> CooMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut a = CooMatrix::new(3, 3);
        a.push(0, 0, 1.0);
        a.push(0, 2, 2.0);
        a.push(1, 1, 3.0);
        a.push(2, 0, 4.0);
        a.push(2, 2, 5.0);
        a
    }

    #[test]
    fn from_coo_builds_expected_structure() {
        let a = CsrMatrix::from_coo(&example_coo());
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(a.col_idx(), &[0, 2, 1, 0, 2]);
        assert_eq!(a.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.5);
        let a = CsrMatrix::from_coo(&coo);
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 3.5);
    }

    #[test]
    fn from_raw_validates_inputs() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 3, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 9], vec![1.0, 2.0]).is_err());
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn spmv_matches_coo_reference() {
        let coo = example_coo();
        let a = CsrMatrix::from_coo(&coo);
        let x = [1.0, -2.0, 0.5];
        let mut y_csr = [0.0; 3];
        let mut y_coo = [0.0; 3];
        a.spmv_into(&x, &mut y_csr);
        coo.spmv_into(&x, &mut y_coo);
        assert_eq!(y_csr, y_coo);
    }

    #[test]
    fn get_and_diagonal() {
        let a = CsrMatrix::from_coo(&example_coo());
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn transpose_is_involutive() {
        let a = CsrMatrix::from_coo(&example_coo());
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn symmetry_detection() {
        let a = CsrMatrix::from_coo(&example_coo());
        assert!(!a.is_symmetric(1e-12));
        let mut s = CooMatrix::new(3, 3);
        s.push_sym(0, 1, -1.0);
        s.push(0, 0, 2.0);
        s.push(1, 1, 2.0);
        s.push(2, 2, 1.0);
        assert!(CsrMatrix::from_coo(&s).is_symmetric(1e-12));
    }

    #[test]
    fn norms_and_extrema() {
        let a = CsrMatrix::from_coo(&example_coo());
        let expected_fro = (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0).sqrt();
        assert!((a.frobenius_norm() - expected_fro).abs() < 1e-14);
        assert_eq!(a.max_abs(), 5.0);
        assert_eq!(a.min_abs_nonzero(), Some(1.0));
    }

    #[test]
    fn csr_coo_roundtrip() {
        let a = CsrMatrix::from_coo(&example_coo());
        let b = CsrMatrix::from_coo(&a.to_coo());
        assert_eq!(a, b);
    }

    #[test]
    fn clones_and_value_updates_share_the_structure_and_own_their_values() {
        let a = CsrMatrix::from_coo(&example_coo());
        let mut clone = a.clone();
        let updated = a.with_values(vec![-1.0; 5]);
        assert!(clone.shares_structure_with(&a) && updated.shares_structure_with(&a));
        assert_eq!(
            (updated.row_ptr(), updated.col_idx()),
            (a.row_ptr(), a.col_idx())
        );
        // Editing one sharer's values leaves the others' alone.
        clone.values_mut()[0] = 9.0;
        assert_eq!(a.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(updated.values(), &[-1.0; 5]);
        assert_eq!(clone.get(0, 0), 9.0);
        // Every constructor that builds a structure builds its own; equality is content.
        let raw = CsrMatrix::from_raw(
            3,
            3,
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().to_vec(),
        )
        .unwrap();
        let rebuilt = example_coo().to_csr();
        let transposed = a.transpose().transpose();
        for other in [&raw, &rebuilt, &transposed] {
            assert!(!other.shares_structure_with(&a));
            assert_eq!(*other, a);
        }
        assert_ne!(clone, a);
    }

    #[test]
    #[should_panic(expected = "one value per non-zero")]
    fn a_value_update_of_the_wrong_length_is_refused() {
        let _ = CsrMatrix::from_coo(&example_coo()).with_values(vec![1.0; 4]);
    }

    #[test]
    fn empty_matrix_is_handled() {
        let coo = CooMatrix::new(4, 4);
        let a = CsrMatrix::from_coo(&coo);
        assert_eq!(a.nnz(), 0);
        let y = a.spmv(&[1.0; 4]);
        assert_eq!(y, vec![0.0; 4]);
        assert_eq!(a.min_abs_nonzero(), None);
    }
}
