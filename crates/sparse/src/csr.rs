//! Compressed sparse row (CSR) storage and SpMV kernels.
//!
//! CSR is the reference FP64 operator in this reproduction: the GPU and "Feinberg-fc"
//! baselines of the paper behave numerically like plain double-precision SpMV, which is
//! exactly what [`CsrMatrix::spmv_into`] computes.
//!
//! The structure — `u32` row pointers and column indices, as ReFloat's format addresses
//! a matrix in 32 bits (Fig. 4) — sits behind one [`Arc`] and the values are each
//! matrix's own.  A [`clone`](Clone::clone) or [`with_values`](CsrMatrix::with_values)
//! shares the structure, so a sequence of matrices over one sparsity pattern (a
//! transient chain's steps) holds the pattern once, and
//! [`shares_structure_with`](CsrMatrix::shares_structure_with) tells in O(1) that two
//! of them have it; so does every block layout of them (`crate::blocked`), which holds
//! the same `Arc` as its row order.  Each constructor that builds a structure checks
//! once that it fits 32 bits, then narrows it into a fresh `Arc`; equality is content
//! equality either way.  A matrix built apart joins an equal live structure through
//! [`adopt_structure`](CsrMatrix::adopt_structure), which drops its own index arrays; a
//! [`WeakStructure`] names the structure to adopt without keeping it alive.

use std::ops::Range;
use std::sync::{Arc, Weak};

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::Result;

/// The sparsity structure of a CSR matrix, shared by every matrix over it and by every
/// block layout of it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Structure {
    /// Row pointer array of length `nrows + 1`.
    pub(crate) row_ptr: Vec<u32>,
    /// Column indices, length `nnz`, strictly increasing within each row.
    pub(crate) col_idx: Vec<u32>,
}

/// Checks, before any narrowing, that a structure of `nrows` rows and `nnz` non-zeros
/// whose greatest column index is `max_col` fits its `u32` indices.
fn fits_32_bits(nrows: usize, nnz: usize, max_col: Option<usize>) -> Result<()> {
    let max_col = ("column index", max_col.unwrap_or(0));
    let sizes = [("row count", nrows), ("non-zero count", nnz), max_col];
    match sizes
        .into_iter()
        .find(|&(_, value)| u32::try_from(value).is_err())
    {
        Some((what, value)) => Err(SparseError::IndexTooWide { what, value }),
        None => Ok(()),
    }
}

/// A weak reference to a CSR structure ([`CsrMatrix::downgrade_structure`]): it keeps
/// no index array alive, and while some matrix still holds the structure another
/// matrix of equal structure can [`adopt`](CsrMatrix::adopt_structure) it.
#[derive(Debug, Clone)]
pub struct WeakStructure(Weak<Structure>);

impl WeakStructure {
    /// Whether some matrix or block layout still holds the structure.
    pub fn is_live(&self) -> bool {
        self.0.strong_count() > 0
    }
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
    /// Builds a CSR matrix from raw arrays, its structure narrowed to `u32`.
    ///
    /// `row_ptr` must have length `nrows + 1`, be non-decreasing, start at 0 and end at
    /// `col_idx.len()`; a row's columns must be `< ncols` and strictly increasing
    /// ([`SparseError::IndexOutOfBounds`], [`SparseError::UnsortedRow`]), and the row
    /// count, non-zero count and columns must fit `u32` ([`SparseError::IndexTooWide`]).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Result<Self> {
        for (what, expected, actual) in [
            ("CSR row_ptr", nrows + 1, row_ptr.len()),
            ("CSR col_idx vs values", vals.len(), col_idx.len()),
        ] {
            if actual != expected {
                return Err(SparseError::LengthMismatch {
                    what,
                    expected,
                    actual,
                });
            }
        }
        let monotone = row_ptr.windows(2).all(|w| w[0] <= w[1]);
        if row_ptr[0] != 0 || row_ptr[nrows] != vals.len() || !monotone {
            return Err(SparseError::InvalidParameter(
                "CSR row_ptr must run from 0 to nnz and never decrease".into(),
            ));
        }
        for (row, bounds) in row_ptr.windows(2).enumerate() {
            let cols = &col_idx[bounds[0]..bounds[1]];
            if let Some(&col) = cols.iter().find(|&&c| c >= ncols) {
                return Err(SparseError::IndexOutOfBounds {
                    row,
                    col,
                    nrows,
                    ncols,
                });
            }
            if let Some(pair) = cols.windows(2).find(|pair| pair[0] >= pair[1]) {
                return Err(SparseError::UnsortedRow { row, col: pair[1] });
            }
        }
        fits_32_bits(nrows, vals.len(), col_idx.iter().copied().max())?;
        let narrow = |wide: Vec<usize>| wide.into_iter().map(|i| i as u32).collect();
        let (row_ptr, col_idx) = (narrow(row_ptr), narrow(col_idx));
        Ok(Self::assembled(nrows, ncols, row_ptr, col_idx, vals))
    }

    /// The matrix over a freshly built structure, the arrays moved into its `Arc`.
    fn assembled(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
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
    ///
    /// # Panics
    /// Panics where [`try_from_coo`](Self::try_from_coo) returns an error.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        Self::try_from_coo(coo).unwrap_or_else(|err| panic!("CsrMatrix::from_coo: {err}"))
    }

    /// [`from_coo`](Self::from_coo), or, before allocating anything,
    /// [`SparseError::IndexTooWide`] when the row count, the entry count or a column
    /// index does not fit `u32` — the check for a Matrix Market file read into COO.
    pub fn try_from_coo(coo: &CooMatrix) -> Result<Self> {
        let (nrows, ncols, nnz_in) = (coo.nrows(), coo.ncols(), coo.nnz());
        fits_32_bits(nrows, nnz_in, coo.col_indices().iter().copied().max())?;

        // Counting sort by row.
        let mut counts = vec![0u32; nrows + 1];
        for &r in coo.row_indices() {
            counts[r + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut order_cols = vec![0u32; nnz_in];
        let mut order_vals = vec![0.0f64; nnz_in];
        let mut cursor = counts.clone();
        for (r, c, v) in coo.iter() {
            let k = cursor[r] as usize;
            order_cols[k] = c as u32;
            order_vals[k] = v;
            cursor[r] += 1;
        }

        // Sort within each row by column and merge duplicates, each run summed in order
        // into its first entry.
        let mut row_ptr = vec![0; nrows + 1];
        let mut col_idx = Vec::with_capacity(nnz_in);
        let mut vals = Vec::with_capacity(nnz_in);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..nrows {
            let (lo, hi) = (counts[r] as usize, counts[r + 1] as usize);
            scratch.clear();
            scratch.extend((lo..hi).map(|k| (order_cols[k], order_vals[k])));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            scratch.dedup_by(|next, kept| {
                let duplicate = next.0 == kept.0;
                if duplicate {
                    kept.1 += next.1;
                }
                duplicate
            });
            col_idx.extend(scratch.iter().map(|&(c, _)| c));
            vals.extend(scratch.iter().map(|&(_, v)| v));
            row_ptr[r + 1] = col_idx.len() as u32;
        }

        Ok(Self::assembled(nrows, ncols, row_ptr, col_idx, vals))
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

    /// A weak reference to this matrix's structure, for
    /// [`adopt_structure`](Self::adopt_structure) by matrices built apart.
    pub fn downgrade_structure(&self) -> WeakStructure {
        WeakStructure(Arc::downgrade(&self.structure))
    }

    /// Makes this matrix share `other`'s structure when that structure is live and
    /// equal to its own — the same row pointers and columns — dropping this matrix's
    /// own index arrays, and says whether it now shares it.  O(1) when it already
    /// does; otherwise one compare of the arrays.  The values, and so everything a
    /// content hash or [`PartialEq`] sees, are unchanged; a different structure is
    /// left as it is.
    pub fn adopt_structure(&mut self, other: &WeakStructure) -> bool {
        let Some(structure) = other.0.upgrade() else {
            return false;
        };
        if Arc::ptr_eq(&structure, &self.structure) {
            return true;
        }
        let equal = *structure == *self.structure;
        if equal {
            self.structure = structure;
        }
        equal
    }

    /// The shared structure, which a block layout of this matrix holds as its row order.
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
    pub fn row_ptr(&self) -> &[u32] {
        &self.structure.row_ptr
    }

    /// Column index array.
    pub fn col_idx(&self) -> &[u32] {
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
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let row_ptr = self.row_ptr();
        let (lo, hi) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
        (&self.col_idx()[lo..hi], &self.vals[lo..hi])
    }

    /// Iterates over all `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Returns the value at `(row, col)`, or 0.0 if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        // A column beyond `u32` is stored nowhere.
        match u32::try_from(col).map(|c| cols.binary_search(&c)) {
            Ok(Ok(k)) => vals[k],
            _ => 0.0,
        }
    }

    /// Extracts the main diagonal (missing diagonal entries are returned as 0.0).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Serial SpMV: `y ← A x`, every row of [`row_sums`].
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_rows_into(0..self.nrows, x, y);
    }

    /// Rows `rows` of `A x` into `y`, through [`row_sums`]: a row's sum does not depend
    /// on the range it is computed in, so a band of rows is bit for bit those rows of
    /// [`spmv_into`](Self::spmv_into).
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`, `y.len() != rows.len()` or `rows` ends past
    /// `nrows`.
    pub fn spmv_rows_into(&self, rows: Range<usize>, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "CSR spmv: x length mismatch");
        assert_eq!(y.len(), rows.len(), "CSR spmv: y length mismatch");
        let row_ptr = &self.row_ptr()[rows.start..=rows.end];
        row_sums(row_ptr, self.col_idx(), &self.vals, x, y);
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
    ///
    /// # Panics
    /// Panics if the column count, the transpose's row count, does not fit `u32`.
    pub fn transpose(&self) -> CsrMatrix {
        fits_32_bits(self.ncols, self.nnz(), None)
            .unwrap_or_else(|err| panic!("CsrMatrix::transpose: {err}"));
        let (row_ptr, cols) = (self.row_ptr(), self.col_idx());
        let mut counts = vec![0u32; self.ncols + 1];
        for &c in cols {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.nrows {
            let row = row_ptr[r] as usize..row_ptr[r + 1] as usize;
            for (&c, &v) in cols[row.clone()].iter().zip(&self.vals[row]) {
                let dst = &mut cursor[c as usize];
                col_idx[*dst as usize] = r as u32;
                vals[*dst as usize] = v;
                *dst += 1;
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

/// The one row loop of every SpMV in the workspace: `y[i]` is row `i`'s terms
/// `vals[k] · x[col_idx[k]]`, for `k` from `row_ptr[i]` to `row_ptr[i + 1]`, added in
/// that order from `0.0`.  `row_ptr` holds one more pointer than `y` has rows, and its
/// pointers index `col_idx` and `vals`, so a band of rows passes its own slice of the
/// row pointers.  The CSR product reads the matrix's values, `refloat-core`'s
/// quantized product its decoded values, in the same row order.
///
/// Two terms per trip, added one after the other: the sum and its bits are those of a
/// one-term loop, while the speed stops following where the build places the loop (a
/// one-term loop read 32 % apart across placements, this one 4–7 %).
///
/// # Panics
/// Panics if `row_ptr.len() != y.len() + 1`, or a pointer or column is out of bounds.
pub fn row_sums(row_ptr: &[u32], col_idx: &[u32], vals: &[f64], x: &[f64], y: &mut [f64]) {
    assert_eq!(
        row_ptr.len(),
        y.len() + 1,
        "CSR spmv: one row pointer per row, plus one"
    );
    for (yr, bounds) in y.iter_mut().zip(row_ptr.windows(2)) {
        let row = bounds[0] as usize..bounds[1] as usize;
        let mut terms = vals[row.clone()].chunks_exact(2);
        let mut cols = col_idx[row].chunks_exact(2);
        let mut acc = 0.0;
        for (v, c) in (&mut terms).zip(&mut cols) {
            let (p0, p1) = (v[0] * x[c[0] as usize], v[1] * x[c[1] as usize]);
            acc += p0;
            acc += p1;
        }
        if let ([v], [c]) = (terms.remainder(), cols.remainder()) {
            acc += v * x[*c as usize];
        }
        *yr = acc;
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
    fn from_raw_names_the_row_that_holds_a_column_out_of_bounds() {
        let err = CsrMatrix::from_raw(3, 3, vec![0, 1, 2, 4], vec![0, 1, 2, 5], vec![1.0; 4]);
        assert!(
            matches!(
                err,
                Err(SparseError::IndexOutOfBounds {
                    row: 2,
                    col: 5,
                    nrows: 3,
                    ncols: 3
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn from_raw_rejects_a_row_whose_columns_do_not_strictly_increase() {
        let raw = |cols: Vec<usize>| CsrMatrix::from_raw(2, 3, vec![0, 1, 3], cols, vec![1.0; 3]);
        assert!(raw(vec![2, 0, 1]).is_ok(), "rows are sorted apart");
        for (cols, col) in [(vec![0, 2, 1], 1), (vec![0, 1, 1], 1)] {
            let err = raw(cols);
            assert!(
                matches!(err, Err(SparseError::UnsortedRow { row: 1, col: c }) if c == col),
                "{err:?}"
            );
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_column_index_beyond_32_bits_is_an_error_where_the_structure_is_built() {
        let col = 1usize << 32;
        let err = CsrMatrix::from_raw(1, col + 1, vec![0, 1], vec![col], vec![1.0]);
        assert!(
            matches!(
                err,
                Err(SparseError::IndexTooWide {
                    what: "column index",
                    value
                }) if value == col
            ),
            "{err:?}"
        );
        // The last column a `u32` holds is a column like any other.
        let last = CsrMatrix::from_raw(1, col, vec![0, 1], vec![col - 1], vec![2.0]).unwrap();
        assert_eq!(last.get(0, col - 1), 2.0);
        assert_eq!(last.get(0, col + col - 1), 0.0, "no truncation on lookup");
        let mut coo = CooMatrix::new(1, col + 1);
        coo.push(0, col, 1.0);
        let err = CsrMatrix::try_from_coo(&coo);
        assert!(
            matches!(err, Err(SparseError::IndexTooWide { .. })),
            "{err:?}"
        );
        // A row count beyond 32 bits is refused before its row pointers are allocated.
        let tall = CooMatrix::new(col, 1);
        let err = CsrMatrix::try_from_coo(&tall);
        assert!(
            matches!(
                err,
                Err(SparseError::IndexTooWide {
                    what: "row count",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "does not fit the 32-bit CSR structure")]
    #[cfg(target_pointer_width = "64")]
    fn the_transpose_of_a_matrix_wider_than_32_bits_is_refused_before_it_allocates() {
        let wide = CsrMatrix::from_raw(1, 1 << 40, vec![0, 0], vec![], vec![]).unwrap();
        let _ = wide.transpose();
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
        let wide = |indices: &[u32]| indices.iter().map(|&i| i as usize).collect();
        let raw = CsrMatrix::from_raw(
            3,
            3,
            wide(a.row_ptr()),
            wide(a.col_idx()),
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
    fn a_matrix_built_apart_adopts_an_equal_live_structure_only() {
        let a = CsrMatrix::from_coo(&example_coo());
        let mut apart = example_coo().to_csr();
        apart.values_mut()[0] = 7.0;
        let weak = a.downgrade_structure();
        assert!(!apart.shares_structure_with(&a));
        assert!(apart.adopt_structure(&weak) && apart.shares_structure_with(&a));
        // Already shared: adopted again, in O(1).
        assert!(apart.adopt_structure(&weak));
        assert_eq!(apart.values()[..2], [7.0, 2.0]);
        assert_eq!(a.values()[0], 1.0);
        // Another pattern is not adopted.
        let diagonal = || CsrMatrix::from_raw(3, 3, vec![0, 1, 2, 3], vec![0, 1, 2], vec![1.0; 3]);
        let mut other = diagonal().unwrap();
        assert!(!other.adopt_structure(&weak) && !other.shares_structure_with(&a));
        assert_eq!(other, diagonal().unwrap());
        // A structure no matrix holds any more is not adopted.
        drop((a, apart));
        assert!(!weak.is_live());
        let mut late = example_coo().to_csr();
        assert!(!late.adopt_structure(&weak));
        assert_eq!(late, example_coo().to_csr());
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
