//! Exponent value locality (Fig. 3d): how many exponent bits a matrix *really* needs
//! once it is partitioned into crossbar-sized blocks.
//!
//! The paper's key observation: while the exponents of a whole matrix may span a range
//! needing up to 11 bits, the spread *inside* a `128×128` block is far smaller (a few
//! binades), so a small per-block offset plus a per-block base captures the values.

use refloat_sparse::stats::exponent_of;
use refloat_sparse::BlockedMatrix;

/// The exponent-locality report for one matrix (one group of bars in Fig. 3d).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityReport {
    /// Exponent bits of the storage format (11 for IEEE double) — the "FP64" bar.
    pub fp64_bits: u32,
    /// Bits needed to cover the exponent *range of the whole matrix* with a single
    /// shared base (a whole-matrix block-floating-point view).
    pub matrix_bits: u32,
    /// The paper's "locality": the maximum, over all non-empty blocks, of the bits
    /// needed to cover that block's exponent spread around its optimal base.
    pub max_block_bits: u32,
    /// Mean over blocks of the per-block bit requirement.
    pub mean_block_bits: f64,
    /// Histogram of per-block bit requirements (index = bits, value = #blocks).
    pub block_bits_histogram: Vec<usize>,
}

/// Bits of signed offset needed to represent an exponent spread of `range` binades
/// (max − min) around the optimal centre: the smallest `e` with
/// `2·(2^(e−1) − 1) ≥ range`, and 1 bit minimum for a non-empty block.
pub fn offset_bits_for_range(range: u32) -> u32 {
    let mut e = 1u32;
    while 2 * ((1u32 << (e - 1)) - 1) < range {
        e += 1;
    }
    e
}

/// Computes the exponent-locality report of a blocked matrix.
pub fn exponent_locality(blocked: &BlockedMatrix) -> LocalityReport {
    let mut matrix_min = i32::MAX;
    let mut matrix_max = i32::MIN;
    let mut per_block_bits = Vec::with_capacity(blocked.num_blocks());

    for blk in blocked.blocks() {
        let mut lo = i32::MAX;
        let mut hi = i32::MIN;
        for &v in blk.vals {
            if v == 0.0 {
                continue;
            }
            let e = exponent_of(v);
            lo = lo.min(e);
            hi = hi.max(e);
        }
        if lo > hi {
            continue; // block of explicit zeros
        }
        matrix_min = matrix_min.min(lo);
        matrix_max = matrix_max.max(hi);
        per_block_bits.push(offset_bits_for_range((hi - lo) as u32));
    }

    let matrix_bits = if matrix_min > matrix_max {
        0
    } else {
        offset_bits_for_range((matrix_max - matrix_min) as u32)
    };
    let max_block_bits = per_block_bits.iter().copied().max().unwrap_or(0);
    let mean_block_bits = if per_block_bits.is_empty() {
        0.0
    } else {
        // Exact integer sum (bit widths are small integers); divides once at the end.
        per_block_bits.iter().map(|&b| u64::from(b)).sum::<u64>() as f64
            / per_block_bits.len() as f64
    };
    let mut block_bits_histogram = vec![0usize; (max_block_bits + 1) as usize];
    for &b in &per_block_bits {
        block_bits_histogram[b as usize] += 1;
    }

    LocalityReport {
        fp64_bits: 11,
        matrix_bits,
        max_block_bits,
        mean_block_bits,
        block_bits_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::generators;
    use refloat_sparse::BlockedMatrix;

    #[test]
    fn offset_bits_formula_matches_small_cases() {
        assert_eq!(offset_bits_for_range(0), 1);
        assert_eq!(offset_bits_for_range(1), 2); // ±1 needs 2 bits
        assert_eq!(offset_bits_for_range(2), 2);
        assert_eq!(offset_bits_for_range(3), 3);
        assert_eq!(offset_bits_for_range(6), 3); // ±3 covers 6
        assert_eq!(offset_bits_for_range(7), 4);
        assert_eq!(offset_bits_for_range(14), 4);
        assert_eq!(offset_bits_for_range(100), 7);
    }

    #[test]
    fn block_locality_is_much_smaller_than_matrix_range() {
        // Values vary smoothly across the matrix (scale grows with the row index) but
        // are nearly constant inside a block — the situation Fig. 3d illustrates.
        let n = 512;
        let mut coo = refloat_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            let scale = 2.0f64.powi((i / 64) as i32 * 4); // jumps every block row
            coo.push(i, i, 2.0 * scale);
            if i + 1 < n {
                coo.push(i, i + 1, -0.9 * scale);
                coo.push(i + 1, i, -0.9 * scale);
            }
        }
        let blocked = BlockedMatrix::from_csr(&coo.to_csr(), 6).unwrap();
        let report = exponent_locality(&blocked);
        assert_eq!(report.fp64_bits, 11);
        assert!(
            report.matrix_bits >= 5,
            "matrix bits {}",
            report.matrix_bits
        );
        assert!(
            report.max_block_bits <= 4,
            "per-block bits should be small, got {}",
            report.max_block_bits
        );
        assert!(report.mean_block_bits <= report.max_block_bits as f64);
        assert_eq!(
            report.block_bits_histogram.iter().sum::<usize>(),
            blocked.num_blocks()
        );
    }

    #[test]
    fn default_e3_covers_the_mass_matrix_analogues() {
        // The paper's e = 3 must cover the block-level spread of the crystm-like
        // workloads — this is the claim behind Fig. 3d and Table VII.
        let a = generators::mass_matrix_3d(10, 10, 10, 1e-12, 0.8, 5).to_csr();
        let blocked = BlockedMatrix::from_csr(&a, 7).unwrap();
        let report = exponent_locality(&blocked);
        assert!(
            report.max_block_bits <= 4,
            "block bits = {}",
            report.max_block_bits
        );
    }

    #[test]
    fn empty_matrix_reports_zeroes() {
        let a = refloat_sparse::CooMatrix::new(64, 64).to_csr();
        let blocked = BlockedMatrix::from_csr(&a, 5).unwrap();
        let report = exponent_locality(&blocked);
        assert_eq!(report.matrix_bits, 0);
        assert_eq!(report.max_block_bits, 0);
        assert!(report.block_bits_histogram.len() == 1);
    }
}
