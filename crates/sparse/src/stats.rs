//! Matrix statistics used to build the workload inventory (Table V) and the exponent
//! locality study (Fig. 3d).

use crate::csr::CsrMatrix;

/// Summary statistics of a sparse matrix, mirroring the columns the paper reports in
/// Table V plus the value-magnitude information the ReFloat format analysis needs.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// Average nonzeros per row (the paper's `NNZ/R` sparsity metric).
    pub nnz_per_row: f64,
    /// Maximum nonzeros in any row.
    pub max_row_nnz: usize,
    /// Structural bandwidth: max |row − col| over stored entries.
    pub bandwidth: usize,
    /// Whether the matrix is numerically symmetric (tolerance 1e-12 · max|a_ij|).
    pub symmetric: bool,
    /// Largest absolute nonzero value.
    pub max_abs: f64,
    /// Smallest absolute nonzero value (0 when the matrix is empty).
    pub min_abs: f64,
    /// Unbiased binary exponent of `max_abs` (i.e. `floor(log2 max_abs)`).
    pub max_exponent: i32,
    /// Unbiased binary exponent of `min_abs`.
    pub min_exponent: i32,
}

impl MatrixStats {
    /// Computes statistics for a CSR matrix.
    pub fn compute(a: &CsrMatrix) -> Self {
        let nnz = a.nnz();
        let nrows = a.nrows();
        let ncols = a.ncols();
        let mut max_row_nnz = 0usize;
        let mut bandwidth = 0usize;
        for r in 0..nrows {
            let (cols, _) = a.row(r);
            max_row_nnz = max_row_nnz.max(cols.len());
            for &c in cols {
                bandwidth = bandwidth.max(r.abs_diff(c as usize));
            }
        }
        let max_abs = a.max_abs();
        let min_abs = a.min_abs_nonzero().unwrap_or(0.0);
        let symmetric = nrows == ncols && a.is_symmetric(1e-12 * max_abs.max(1.0));
        MatrixStats {
            nrows,
            ncols,
            nnz,
            nnz_per_row: if nrows == 0 {
                0.0
            } else {
                nnz as f64 / nrows as f64
            },
            max_row_nnz,
            bandwidth,
            symmetric,
            max_abs,
            min_abs,
            max_exponent: exponent_of(max_abs),
            min_exponent: exponent_of(min_abs),
        }
    }

    /// The number of binades spanned by the nonzero magnitudes
    /// (`max_exponent − min_exponent`); 0 for empty matrices.
    ///
    /// This is the "exponent range of the whole matrix" quantity in the Fig. 3(d)
    /// locality discussion: the number of exponent *bits* needed to cover the matrix is
    /// `ceil(log2(range + 1))`.
    pub fn exponent_range(&self) -> u32 {
        if self.nnz == 0 {
            0
        } else {
            (self.max_exponent - self.min_exponent).max(0) as u32
        }
    }
}

/// The unbiased binary exponent of `|v|`, i.e. `floor(log2 |v|)`; 0 for `v == 0`.
pub fn exponent_of(v: f64) -> i32 {
    if v == 0.0 || !v.is_finite() {
        0
    } else {
        // f64::log2 is exact enough only away from powers of two; use the bit pattern.
        let bits = v.abs().to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i32;
        if biased == 0 {
            // Subnormal: value = frac · 2^-1074, so floor(log2) follows the MSB of frac.
            let frac = bits & ((1u64 << 52) - 1);
            (63 - frac.leading_zeros() as i32) - 1074
        } else {
            biased - 1023
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    #[test]
    fn exponent_of_matches_log2_floor() {
        assert_eq!(exponent_of(1.0), 0);
        assert_eq!(exponent_of(1.99), 0);
        assert_eq!(exponent_of(2.0), 1);
        assert_eq!(exponent_of(0.5), -1);
        assert_eq!(exponent_of(-8.0), 3);
        assert_eq!(exponent_of(1.5e-300), -996);
        assert_eq!(exponent_of(0.0), 0);
        for &v in &[3.7e-12, 9.1e4, 1.0e308, 2.2e-308] {
            assert_eq!(exponent_of(v), v.abs().log2().floor() as i32, "v = {v}");
        }
    }

    #[test]
    fn stats_of_small_matrix() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push_sym(0, 1, -1.0);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, 4.0);
        coo.push(2, 2, 0.25);
        coo.push(3, 3, 1024.0);
        coo.push_sym(0, 3, 2.0);
        let a = coo.to_csr();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.nrows, 4);
        assert_eq!(s.nnz, 8);
        assert!(s.symmetric);
        assert_eq!(s.max_row_nnz, 3);
        assert_eq!(s.bandwidth, 3);
        assert_eq!(s.max_abs, 1024.0);
        assert_eq!(s.min_abs, 0.25);
        assert_eq!(s.max_exponent, 10);
        assert_eq!(s.min_exponent, -2);
        assert_eq!(s.exponent_range(), 12);
        assert!((s.nnz_per_row - 2.0).abs() < 1e-15);
    }

    #[test]
    fn empty_matrix_stats_are_zeroed() {
        let a = CooMatrix::new(3, 3).to_csr();
        let s = MatrixStats::compute(&a);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.exponent_range(), 0);
        assert_eq!(s.min_abs, 0.0);
    }

    #[test]
    fn asymmetric_matrix_is_flagged() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let s = MatrixStats::compute(&coo.to_csr());
        assert!(!s.symmetric);
    }
}
