//! The sharded ReFloat operator: one encoding, its rows spread over accelerator chips.
//!
//! [`ShardedReFloatMatrix`] is a [`ReFloatMatrix`] plus the cut rows of the block-row
//! partitioner (`refloat_sparse::shard`).  Each chip of a multi-chip accelerator holds
//! one contiguous band of block rows of the *one* encoding and produces that band of
//! the result vector for the host to gather — one logical operator spread over chips,
//! not one encoding per chip.
//!
//! # Determinism contract
//!
//! A sharded apply is **bitwise identical** to the unsharded [`ReFloatMatrix::apply`]
//! for every shard count, because it *is* that apply: the chips' bands are what the
//! chip model prices ([`ShardedReFloatMatrix::shard_blocks`],
//! [`ShardedReFloatMatrix::shard_rows`]), while the host runs the one encoding's
//! apply, and a CG solve the one encoding's banded apply on the matrix's lanes
//! ([`ShardedReFloatMatrix::with_lanes`]).  Either way the input is converted once and
//! every row is its own sum, which does not depend on the band it is computed in; the
//! inter-shard "reduction" is a gather of disjoint bands, which reorders nothing.
//!
//! Cuts sit on `2^b` block-row boundaries so that each chip holds whole blocks.  The
//! tests below enforce the contract for 1/2/4/8 shards and beyond the block-row count,
//! down to solver iterates.

use std::ops::Range;
use std::sync::Arc;

use crate::matrix::ReFloatMatrix;
use refloat_solvers::LinearOperator;
use refloat_sparse::block_row_shards;
use refloat_sparse::parallel::Lanes;
use refloat_sparse::vecops::LanedVectors;

/// A ReFloat operator whose rows are split into block-row bands, one per chip.
#[derive(Debug, Clone)]
pub struct ShardedReFloatMatrix {
    matrix: ReFloatMatrix,
    /// Each chip's rows, in order; together they tile `0..nrows`.
    bands: Vec<Range<usize>>,
}

impl ShardedReFloatMatrix {
    /// Splits `matrix`'s rows into at most `shards` nnz-balanced block-row bands.  The
    /// encoding is taken as is: pass a clone to share a cached one.
    pub fn new(matrix: ReFloatMatrix, shards: usize) -> Self {
        let bands = block_row_shards(matrix.layout(), shards);
        ShardedReFloatMatrix { matrix, bands }
    }

    /// Offers `lanes` to a CG solve on the host ([`ReFloatMatrix::with_lanes`]).
    pub fn with_lanes(mut self, lanes: &Arc<Lanes>) -> Self {
        self.matrix = self.matrix.with_lanes(lanes);
        self
    }

    /// The whole encoding every band reads.
    pub fn matrix(&self) -> &ReFloatMatrix {
        &self.matrix
    }

    /// Number of shards (chips the operator spans).
    pub fn num_shards(&self) -> usize {
        self.bands.len()
    }

    /// Non-empty blocks per shard (= crossbar clusters each chip must hold).
    pub fn shard_blocks(&self) -> Vec<u64> {
        let layout = self.matrix.layout();
        let blocks = |rows: &Range<usize>| layout.blocks_in_rows(rows.clone()) as u64;
        self.bands.iter().map(blocks).collect()
    }

    /// Output rows per shard (= the band each chip ships to the host per SpMV).
    pub fn shard_rows(&self) -> Vec<u64> {
        self.bands.iter().map(|rows| rows.len() as u64).collect()
    }
}

impl LinearOperator for ShardedReFloatMatrix {
    fn nrows(&self) -> usize {
        LinearOperator::nrows(&self.matrix)
    }

    fn ncols(&self) -> usize {
        LinearOperator::ncols(&self.matrix)
    }

    /// The one encoding's apply: `x` converted once, every row accumulated from it.
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.matrix.apply(x, y);
    }

    fn lanes(&self) -> Option<&Arc<Lanes>> {
        self.matrix.lanes()
    }

    fn apply_bands(&mut self, vectors: &mut LanedVectors, beta: Option<f64>) -> f64 {
        self.matrix.apply_bands(vectors, beta)
    }

    fn name(&self) -> String {
        let matrix = &self.matrix;
        format!(
            "sharded refloat {} ({} shards, {} blocks, {} nnz)",
            matrix.config(),
            self.num_shards(),
            matrix.num_blocks(),
            matrix.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ReFloatConfig;
    use refloat_matgen::generators;
    use refloat_solvers::{cg, SolverConfig};
    use refloat_sparse::CsrMatrix;

    fn workload() -> CsrMatrix {
        generators::laplacian_2d(24, 24, 0.4).to_csr()
    }

    fn config() -> ReFloatConfig {
        ReFloatConfig::new(4, 3, 8, 3, 8)
    }

    fn sharded(a: &CsrMatrix, shards: usize) -> ShardedReFloatMatrix {
        ShardedReFloatMatrix::new(ReFloatMatrix::from_csr(a, config()), shards)
    }

    #[test]
    fn sharded_apply_is_bitwise_identical_to_unsharded() {
        // 23 · 23 = 529 rows: the last band ends inside a partial block row.
        let ragged = generators::laplacian_2d(23, 23, 0.3).to_csr();
        let scattered = generators::random_spd_graph(1500, 6, 1.4, 1.0, 7).to_csr();
        for (a, b) in [(workload(), 4), (ragged, 4), (scattered, 7)] {
            let format = ReFloatConfig::new(b, 3, 8, 3, 8);
            let x: Vec<f64> = (0..a.ncols())
                .map(|i| ((i * 29 % 23) as f64) / 23.0 - 0.3)
                .collect();
            let mut whole = ReFloatMatrix::from_csr(&a, format);
            let mut reference = vec![0.0; a.nrows()];
            whole.apply(&x, &mut reference);
            let block_rows = a.nrows().div_ceil(1 << b);
            // The last count asks for more shards than there are block rows to cut.
            for shards in [1usize, 2, 4, 8, block_rows + 3] {
                let mut op = ShardedReFloatMatrix::new(whole.clone(), shards);
                assert!(op.matrix().shares_encoding_with(&whole));
                assert!(op.num_shards() <= shards.min(block_rows));
                let mut y = vec![f64::NAN; a.nrows()];
                op.apply(&x, &mut y);
                for (i, (u, v)) in reference.iter().zip(y.iter()).enumerate() {
                    assert_eq!(
                        u.to_bits(),
                        v.to_bits(),
                        "row {i} differs at {shards} shards (b = {b}): {u} vs {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_cg_iterates_are_bitwise_identical_across_shard_counts() {
        let a = workload();
        let b = vec![1.0; a.nrows()];
        let cfg = SolverConfig::relative(1e-8);
        let reference = cg(&mut ReFloatMatrix::from_csr(&a, config()), &b, &cfg);
        for shards in [2usize, 4, 8] {
            let r = cg(&mut sharded(&a, shards), &b, &cfg);
            assert_eq!(r.iterations, reference.iterations);
            for (u, v) in reference.x.iter().zip(r.x.iter()) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn shard_block_totals_match_the_unsharded_operator() {
        let a = workload();
        let whole = ReFloatMatrix::from_csr(&a, config());
        let sharded = ShardedReFloatMatrix::new(whole.clone(), 4);
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(
            sharded.shard_blocks().iter().sum::<u64>(),
            whole.num_blocks() as u64
        );
        assert_eq!(sharded.shard_rows().iter().sum::<u64>(), a.nrows() as u64);
    }
}
