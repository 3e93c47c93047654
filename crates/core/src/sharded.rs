//! The sharded ReFloat operator: one encoded shard per accelerator chip.
//!
//! [`ShardedReFloatMatrix`] splits a matrix into contiguous block-row bands (the
//! partitioner of `refloat_sparse::shard`), encodes each band as its own
//! [`ReFloatMatrix`], and applies the bands concurrently — each shard owns a disjoint
//! output range, exactly like the chips of a multi-chip accelerator each producing one
//! band of the result vector for the host to gather.
//!
//! # Determinism contract
//!
//! A sharded apply is **bitwise identical** to the unsharded [`ReFloatMatrix::apply`]
//! for every shard count:
//!
//! * shard cuts sit on `2^b` block-row boundaries, so each band re-blocks into exactly
//!   the blocks the unsharded matrix produces (same entries, same block-column order);
//! * the input vector is re-encoded **once** per apply, by the operator's own vector
//!   converter, and every band accumulates from that shared quantized vector — the
//!   same per-segment bases the unsharded converter chooses (conversion is a pure
//!   function of `x` and the format);
//! * every output row is accumulated only by its own shard, over the same terms in the
//!   same (row) order as unsharded — the inter-shard "reduction" is a gather of
//!   disjoint bands, which reorders nothing.
//!
//! The tests below enforce the contract for 1/2/4/8 shards, down to solver iterates.

use std::ops::Range;

use crate::format::ReFloatConfig;
use crate::matrix::ReFloatMatrix;
use crate::vector::{Scratch, VectorConverter};
use refloat_solvers::LinearOperator;
use refloat_sparse::{block_row_shards, extract_row_range, CsrMatrix};

/// One chip's slice of the operator: a contiguous row band and its encoding.
#[derive(Debug, Clone)]
pub struct OperatorShard {
    /// Global row range this shard produces.
    pub rows: Range<usize>,
    /// The shard's encoded operator (`rows.len() × ncols`).
    pub op: ReFloatMatrix,
}

/// A ReFloat operator partitioned into block-row shards, one per chip.
#[derive(Debug, Clone)]
pub struct ShardedReFloatMatrix {
    nrows: usize,
    ncols: usize,
    config: ReFloatConfig,
    shards: Vec<OperatorShard>,
    converter: VectorConverter,
    /// The quantized input vector all shards read.  Only this one is ever filled: a
    /// shard's own `op` accumulates and never converts.
    quantized_input: Scratch,
}

impl ShardedReFloatMatrix {
    /// Partitions `a` into at most `shards` nnz-balanced block-row bands and encodes
    /// each band in `config`'s format.
    ///
    /// # Panics
    /// Panics if the partitioner rejects the arguments (invalid `b`, empty matrix).
    pub fn from_csr(a: &CsrMatrix, config: ReFloatConfig, shards: usize) -> Self {
        let parts = block_row_shards(a, config.b, shards)
            .expect("valid blocking exponent from a validated ReFloatConfig");
        let shards = parts
            .into_iter()
            .map(|part| OperatorShard {
                op: ReFloatMatrix::from_csr(&extract_row_range(a, part.rows.clone()), config),
                rows: part.rows,
            })
            .collect();
        Self::from_parts(a.nrows(), a.ncols(), shards)
    }

    /// Assembles a sharded operator from pre-encoded bands (e.g. resolved through the
    /// runtime's encoded-matrix cache).
    ///
    /// # Panics
    /// Panics if the bands do not tile `0..nrows` in order or a band's encoding has
    /// the wrong shape or format.
    pub fn from_parts(nrows: usize, ncols: usize, parts: Vec<OperatorShard>) -> Self {
        assert!(
            !parts.is_empty(),
            "sharded operator needs at least one shard"
        );
        assert_eq!(parts[0].rows.start, 0, "shards must start at row 0");
        assert_eq!(
            parts.last().expect("non-empty").rows.end,
            nrows,
            "shards must cover all rows"
        );
        let config = *parts[0].op.config();
        for w in parts.windows(2) {
            assert_eq!(
                w[0].rows.end, w[1].rows.start,
                "shards must be contiguous in row order"
            );
        }
        for part in &parts {
            assert_eq!(
                LinearOperator::nrows(&part.op),
                part.rows.len(),
                "shard encoding rows must match its row range"
            );
            assert_eq!(
                LinearOperator::ncols(&part.op),
                ncols,
                "shard encodings must span all columns"
            );
            assert_eq!(
                part.op.config(),
                &config,
                "all shards must share one format"
            );
        }
        ShardedReFloatMatrix {
            nrows,
            ncols,
            config,
            shards: parts,
            converter: VectorConverter::new(config),
            quantized_input: Scratch::default(),
        }
    }

    /// The format configuration.
    pub fn config(&self) -> &ReFloatConfig {
        &self.config
    }

    /// Number of shards (chips the operator spans).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in row order.
    pub fn shards(&self) -> &[OperatorShard] {
        &self.shards
    }

    /// Non-empty blocks per shard (= crossbar clusters each chip must hold).
    pub fn shard_blocks(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.op.num_blocks() as u64)
            .collect()
    }

    /// Output rows per shard (= the band each chip ships to the host per SpMV).
    pub fn shard_rows(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.rows.len() as u64).collect()
    }

    /// Total non-empty blocks across shards (equals the unsharded block count: cuts on
    /// block-row boundaries never split or merge blocks).
    pub fn num_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.op.num_blocks()).sum()
    }

    /// Total encoded non-zeros.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(|s| s.op.nnz()).sum()
    }
}

impl LinearOperator for ShardedReFloatMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    /// Converts `x` once, then every shard accumulates its disjoint output band from
    /// the shared quantized vector; shards run on scoped threads (the last on the
    /// calling thread), mirroring chips working in parallel.
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "sharded apply: x length mismatch");
        assert_eq!(y.len(), self.nrows, "sharded apply: y length mismatch");
        self.quantized_input.convert(&mut self.converter, x);
        let xq = self.quantized_input.as_slice();
        // Slice y into per-shard bands.
        let mut bands: Vec<&mut [f64]> = Vec::with_capacity(self.shards.len());
        let mut rest = y;
        let mut offset = 0;
        for shard in &self.shards {
            let (band, tail) = rest.split_at_mut(shard.rows.end - offset);
            bands.push(band);
            rest = tail;
            offset = shard.rows.end;
        }
        std::thread::scope(|scope| {
            let mut work = self.shards.iter().zip(bands);
            let last = work.next_back();
            for (shard, band) in work {
                scope.spawn(move || shard.op.accumulate(xq, band));
            }
            if let Some((shard, band)) = last {
                shard.op.accumulate(xq, band);
            }
        });
    }

    fn name(&self) -> String {
        format!(
            "sharded refloat {} ({} shards, {} blocks, {} nnz)",
            self.config,
            self.num_shards(),
            self.num_blocks(),
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::generators;
    use refloat_solvers::{cg, SolverConfig};

    fn workload() -> CsrMatrix {
        generators::laplacian_2d(24, 24, 0.4).to_csr()
    }

    fn config() -> ReFloatConfig {
        ReFloatConfig::new(4, 3, 8, 3, 8)
    }

    #[test]
    fn sharded_apply_is_bitwise_identical_to_unsharded() {
        let a = workload();
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| ((i * 29 % 23) as f64) / 23.0 - 0.3)
            .collect();
        let mut reference = vec![0.0; a.nrows()];
        ReFloatMatrix::from_csr(&a, config()).apply(&x, &mut reference);
        for shards in [1usize, 2, 4, 8] {
            let mut sharded = ShardedReFloatMatrix::from_csr(&a, config(), shards);
            let mut y = vec![0.0; a.nrows()];
            sharded.apply(&x, &mut y);
            for (i, (u, v)) in reference.iter().zip(y.iter()).enumerate() {
                assert_eq!(
                    u.to_bits(),
                    v.to_bits(),
                    "row {i} differs at {shards} shards: {u} vs {v}"
                );
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
            let mut op = ShardedReFloatMatrix::from_csr(&a, config(), shards);
            let r = cg(&mut op, &b, &cfg);
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
        let sharded = ShardedReFloatMatrix::from_csr(&a, config(), 4);
        assert_eq!(sharded.num_blocks(), whole.num_blocks());
        assert_eq!(sharded.nnz(), whole.nnz());
        assert_eq!(
            sharded.shard_blocks().iter().sum::<u64>(),
            whole.num_blocks() as u64
        );
        assert_eq!(sharded.shard_rows().iter().sum::<u64>(), a.nrows() as u64);
    }

    #[test]
    fn batched_apply_matches_columnwise_applies_bitwise() {
        let a = workload();
        let n = a.ncols();
        let xs: Vec<Vec<f64>> = (0..3)
            .map(|k| {
                (0..n)
                    .map(|i| ((i * (7 + k) % 19) as f64) / 19.0 + 0.1)
                    .collect()
            })
            .collect();
        let mut ys = vec![vec![0.0; a.nrows()]; xs.len()];
        let mut op = ShardedReFloatMatrix::from_csr(&a, config(), 3);
        op.apply_batch(&xs, &mut ys);
        for (x, y) in xs.iter().zip(ys.iter()) {
            let mut single = vec![0.0; a.nrows()];
            ShardedReFloatMatrix::from_csr(&a, config(), 3).apply(x, &mut single);
            for (u, v) in single.iter().zip(y.iter()) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn from_parts_validates_the_tiling() {
        let a = workload();
        let sharded = ShardedReFloatMatrix::from_csr(&a, config(), 2);
        let parts: Vec<OperatorShard> = sharded.shards().to_vec();
        let rebuilt = ShardedReFloatMatrix::from_parts(a.nrows(), a.ncols(), parts);
        assert_eq!(rebuilt.num_shards(), 2);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn from_parts_rejects_gaps() {
        let a = workload();
        let sharded = ShardedReFloatMatrix::from_csr(&a, config(), 3);
        let mut parts: Vec<OperatorShard> = sharded.shards().to_vec();
        parts.remove(1);
        let _ = ShardedReFloatMatrix::from_parts(a.nrows(), a.ncols(), parts);
    }
}
