//! Storage model: Fig. 4 (per-block bits) and Table VIII (whole-matrix memory overhead).

use crate::format::ReFloatConfig;
use refloat_sparse::BlockedMatrix;

/// Bits used by the baseline double-precision COO-style storage the paper assumes in
/// Fig. 4: a 32-bit row index, a 32-bit column index and a 64-bit value per non-zero.
pub const DOUBLE_BITS_PER_NONZERO: u64 = 32 + 32 + 64;

/// Total bits of the baseline double-precision storage for `nnz` non-zeros.
pub fn double_storage_bits(nnz: usize) -> u64 {
    nnz as u64 * DOUBLE_BITS_PER_NONZERO
}

/// Bits of `nnz` encoded non-zeros spread over `blocks` non-empty blocks under the
/// Fig. 4 accounting: per element `2b` local-index bits plus `1 + e + f` value bits,
/// plus per block two `(32 − b)`-bit block coordinates and an 11-bit exponent base.
pub fn storage_bits(nnz: usize, blocks: usize, config: &ReFloatConfig) -> u64 {
    let per_element = (config.local_index_bits() + config.matrix_value_bits()) as u64;
    per_element * nnz as u64 + config.block_metadata_bits() as u64 * blocks as u64
}

/// Total bits of the ReFloat block storage for a blocked matrix ([`storage_bits`]).
pub fn refloat_storage_bits(blocked: &BlockedMatrix, config: &ReFloatConfig) -> u64 {
    storage_bits(blocked.nnz(), blocked.num_blocks(), config)
}

/// The Table VIII metric: ReFloat matrix storage normalized to the double-precision
/// storage of the same matrix (≈ 0.17–0.31 for the paper's workloads).
pub fn memory_overhead_ratio(blocked: &BlockedMatrix, config: &ReFloatConfig) -> f64 {
    let double = double_storage_bits(blocked.nnz());
    if double == 0 {
        return 0.0;
    }
    refloat_storage_bits(blocked, config) as f64 / double as f64
}

/// Break-down of the storage for reporting: `(value_bits, index_bits, metadata_bits)`.
pub fn storage_breakdown(blocked: &BlockedMatrix, config: &ReFloatConfig) -> (u64, u64, u64) {
    let nnz = blocked.nnz() as u64;
    let value_bits = nnz * config.matrix_value_bits() as u64;
    let index_bits = nnz * config.local_index_bits() as u64;
    let metadata_bits = blocked.num_blocks() as u64 * config.block_metadata_bits() as u64;
    (value_bits, index_bits, metadata_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::generators;
    use refloat_sparse::BlockedMatrix;

    #[test]
    fn double_storage_matches_fig4_example() {
        // Fig. 4: eight scalars at (32 + 32 + 64) bits = 1024 bits.
        assert_eq!(double_storage_bits(8), 1024);
    }

    #[test]
    fn refloat_storage_is_much_smaller_for_dense_blocks() {
        // A banded matrix has well-filled blocks, so the per-block metadata is amortized
        // and the ratio approaches (2b + 1 + e + f) / 128 ≈ 0.16 for the default format.
        let a = generators::laplacian_2d(64, 64, 0.1).to_csr();
        let blocked = BlockedMatrix::from_csr(&a, 7).unwrap();
        let config = ReFloatConfig::paper_default();
        let ratio = memory_overhead_ratio(&blocked, &config);
        assert!(ratio > 0.1 && ratio < 0.35, "ratio = {ratio}");
        // Consistency between the two accounting paths.
        let (v, i, m) = storage_breakdown(&blocked, &config);
        assert_eq!(v + i + m, refloat_storage_bits(&blocked, &config));
    }

    #[test]
    fn scattered_matrices_pay_more_block_metadata_like_table_viii() {
        // Table VIII: thermomech_TC/dM (scattered, few nnz per block) have a higher
        // ratio (≈0.3) than the banded matrices (≈0.17).
        let banded =
            BlockedMatrix::from_csr(&generators::laplacian_2d(64, 64, 0.1).to_csr(), 7).unwrap();
        let scattered = BlockedMatrix::from_csr(
            &generators::random_spd_graph(4096, 6, 1.4, 1.0, 3).to_csr(),
            7,
        )
        .unwrap();
        let config = ReFloatConfig::paper_default();
        let r_banded = memory_overhead_ratio(&banded, &config);
        let r_scattered = memory_overhead_ratio(&scattered, &config);
        assert!(
            r_scattered > r_banded,
            "scattered {r_scattered} should exceed banded {r_banded}"
        );
        assert!(
            r_scattered < 1.0,
            "ReFloat must still be smaller than double"
        );
    }

    #[test]
    fn ratio_grows_with_fraction_bits() {
        let a = generators::laplacian_2d(48, 48, 0.1).to_csr();
        let blocked = BlockedMatrix::from_csr(&a, 7).unwrap();
        let narrow = memory_overhead_ratio(&blocked, &ReFloatConfig::new(7, 3, 3, 3, 8));
        let wide = memory_overhead_ratio(&blocked, &ReFloatConfig::new(7, 3, 16, 3, 8));
        assert!(wide > narrow);
    }

    #[test]
    fn empty_matrix_ratio_is_zero() {
        let a = refloat_sparse::CooMatrix::new(256, 256).to_csr();
        let blocked = BlockedMatrix::from_csr(&a, 7).unwrap();
        assert_eq!(
            memory_overhead_ratio(&blocked, &ReFloatConfig::paper_default()),
            0.0
        );
    }
}
