//! The ReFloat-quantized matrix operator.
//!
//! [`ReFloatMatrix`] stores a sparse matrix as ReFloat-encoded blocks and implements the
//! paper's computation procedure (Eq. 8–9): every SpMV first re-encodes the input vector
//! segment-by-segment (the vector converter of Fig. 6d), then accumulates the per-block
//! products `2^{eb+ebv} · Ã_c · x̃_c` in double precision, exactly as the accelerator's
//! processing engines emit FP64 partial results that the MAC units accumulate.
//!
//! Numerically, this functional model is identical to the hardware pipeline: the
//! crossbars compute the fixed-point products of the encoded fractions exactly
//! (verified against [`ReFloatMatrix::apply`] by the crossbar simulator in `reram-sim`),
//! and the final scaling by `2^{eb+ebv}` is a pure exponent addition.
//!
//! # Storage
//!
//! The encoding is the block-major layout of Fig. 7 taken literally: one arena of three
//! contiguous arrays — local row index, local column index and decoded value per
//! non-zero, blocks back to back in block-row-major order — plus a block table with one
//! `(block_row, block_col, eb, start)` entry per non-empty block, `start` being where
//! the block's run begins in the three arrays.  An SpMV streams the arena front to
//! back; [`ReFloatMatrix::blocks`] lends each block out as a [`BlockView`].  The arena
//! holds what the SpMV multiplies by and nothing else: the per-element sign, offset and
//! fraction code belong to [`crate::block::ReFloatBlock`], which encodes a single block
//! down to its bits on demand.

use std::sync::Arc;

use crate::block::{decode_into, optimal_exponent_base};
use crate::format::ReFloatConfig;
use crate::memory::storage_bits;
use crate::vector::{Scratch, VectorConverter};
use refloat_solvers::LinearOperator;
use refloat_sparse::{blocked::Block, BlockedMatrix, CsrMatrix};

/// One row of the block table.
#[derive(Debug, Clone, Copy)]
struct BlockEntry {
    block_row: u32,
    block_col: u32,
    eb: i32,
    /// Index of the block's first non-zero in the arena arrays; the block runs to the
    /// next entry's `start` (the last block: to the end of the arrays).
    start: u32,
}

/// The encoded blocks of one matrix: three parallel arrays and the block table.
#[derive(Debug)]
pub(crate) struct BlockArena {
    table: Vec<BlockEntry>,
    rows: Vec<u16>,
    cols: Vec<u16>,
    decoded: Vec<f64>,
}

impl BlockArena {
    /// An empty arena with room for `blocks` blocks holding `nnz` non-zeros in all.
    pub(crate) fn with_capacity(blocks: usize, nnz: usize) -> Self {
        BlockArena {
            table: Vec::with_capacity(blocks),
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            decoded: Vec::with_capacity(nnz),
        }
    }

    /// Opens the next block at the current end of the arrays.
    ///
    /// # Panics
    /// Panics if a block coordinate (a `(32 − b)`-bit integer in the format, Fig. 4)
    /// or the count of non-zeros so far does not fit the table's 32-bit fields.
    fn push_entry(&mut self, block_row: usize, block_col: usize, eb: i32) {
        let narrow = |v: usize| u32::try_from(v).expect("ReFloatMatrix: block table is 32-bit");
        self.table.push(BlockEntry {
            block_row: narrow(block_row),
            block_col: narrow(block_col),
            eb,
            start: narrow(self.decoded.len()),
        });
    }

    /// Encodes `block` against its Eq. 5 base and appends it; returns the base.
    pub(crate) fn push_encoded(&mut self, block: &Block, config: &ReFloatConfig) -> i32 {
        let eb = optimal_exponent_base(block.vals.iter());
        self.push_entry(block.block_row, block.block_col, eb);
        self.rows.extend_from_slice(&block.rows);
        self.cols.extend_from_slice(&block.cols);
        decode_into(&block.vals, config, eb, &mut self.decoded);
        eb
    }

    /// Appends block `index` of `other` as it stands: one range copy per array.
    pub(crate) fn push_copy(&mut self, other: &BlockArena, index: usize) {
        let blk = other.block(index);
        self.push_entry(blk.block_row, blk.block_col, blk.eb);
        self.rows.extend_from_slice(blk.rows);
        self.cols.extend_from_slice(blk.cols);
        self.decoded.extend_from_slice(blk.decoded);
    }

    /// The block of `entry`, which runs up to `end` — its successor's start.
    fn view(&self, entry: &BlockEntry, end: usize) -> BlockView<'_> {
        let range = entry.start as usize..end;
        BlockView {
            block_row: entry.block_row as usize,
            block_col: entry.block_col as usize,
            eb: entry.eb,
            rows: &self.rows[range.clone()],
            cols: &self.cols[range.clone()],
            decoded: &self.decoded[range],
        }
    }

    fn block(&self, index: usize) -> BlockView<'_> {
        let next = self.table.get(index + 1);
        let end = next.map_or(self.decoded.len(), |next| next.start as usize);
        self.view(&self.table[index], end)
    }

    /// Every block in storage order — a walk of the table, each entry paired with its
    /// successor's start.
    fn blocks(&self) -> impl Iterator<Item = BlockView<'_>> + Clone {
        let ends = self.table.iter().skip(1).map(|next| next.start as usize);
        let entries = self.table.iter().zip(ends.chain([self.decoded.len()]));
        entries.map(|(entry, end)| self.view(entry, end))
    }
}

/// One encoded block, borrowed from a [`ReFloatMatrix`].
#[derive(Debug, Clone, Copy)]
pub struct BlockView<'a> {
    /// Block-row index of the block.
    pub block_row: usize,
    /// Block-column index of the block.
    pub block_col: usize,
    /// The exponent base `eb` shared by every element of the block.
    pub eb: i32,
    /// Local row index (`ii`) per element.
    pub rows: &'a [u16],
    /// Local column index (`jj`) per element.
    pub cols: &'a [u16],
    /// Decoded value per element (what the crossbars effectively compute with).
    pub decoded: &'a [f64],
}

impl<'a> BlockView<'a> {
    /// Number of encoded elements.
    pub fn nnz(&self) -> usize {
        self.decoded.len()
    }

    /// Iterates over `(ii, jj, decoded_value)` in storage order.
    pub fn iter_decoded(&self) -> impl Iterator<Item = (u16, u16, f64)> + 'a {
        let entries = self.rows.iter().zip(self.cols).zip(self.decoded);
        entries.map(|((&r, &c), &v)| (r, c, v))
    }
}

/// A sparse matrix encoded block-by-block in ReFloat format, usable as a solver operator.
///
/// The encoding is programmed once and only read afterwards, so the arena sits behind
/// an [`Arc`]: a clone shares it and starts with an empty conversion scratch, which is
/// all that `apply(&mut self)` mutates.
#[derive(Debug, Clone)]
pub struct ReFloatMatrix {
    nrows: usize,
    ncols: usize,
    config: ReFloatConfig,
    arena: Arc<BlockArena>,
    converter: VectorConverter,
    /// The quantized input vector of the latest apply.
    quantized_input: Scratch,
    /// Whether the input vector is re-encoded through the vector converter on every
    /// apply (the full ReFloat pipeline) or passed through exactly (ablation).
    quantize_vectors: bool,
}

impl ReFloatMatrix {
    /// Encodes a blocked matrix into ReFloat format.
    pub fn from_blocked(blocked: &BlockedMatrix, config: ReFloatConfig) -> Self {
        assert_eq!(
            blocked.b(),
            config.b,
            "ReFloatMatrix: the blocking exponent ({}) must match the format's b ({})",
            blocked.b(),
            config.b
        );
        let mut arena = BlockArena::with_capacity(blocked.num_blocks(), blocked.nnz());
        for block in blocked.blocks() {
            arena.push_encoded(block, &config);
        }
        Self::from_arena(blocked.nrows(), blocked.ncols(), config, arena)
    }

    /// Wraps an assembled arena (blocks in block-row-major order); used by
    /// [`crate::incremental`] to stitch reused and re-encoded blocks together.
    pub(crate) fn from_arena(
        nrows: usize,
        ncols: usize,
        config: ReFloatConfig,
        arena: BlockArena,
    ) -> Self {
        ReFloatMatrix {
            nrows,
            ncols,
            config,
            arena: Arc::new(arena),
            converter: VectorConverter::new(config),
            quantized_input: Scratch::default(),
            quantize_vectors: true,
        }
    }

    /// Convenience: blocks a CSR matrix with the configuration's `b` and encodes it.
    pub fn from_csr(a: &CsrMatrix, config: ReFloatConfig) -> Self {
        let blocked = BlockedMatrix::from_csr(a, config.b)
            .expect("valid block exponent from a validated ReFloatConfig");
        Self::from_blocked(&blocked, config)
    }

    /// The format configuration.
    pub fn config(&self) -> &ReFloatConfig {
        &self.config
    }

    pub(crate) fn arena(&self) -> &BlockArena {
        &self.arena
    }

    /// The encoded blocks, in storage (block-row-major) order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockView<'_>> + Clone {
        self.arena.blocks()
    }

    /// Block `index` of [`blocks`](Self::blocks).
    ///
    /// # Panics
    /// Panics if `index >= num_blocks()`.
    pub fn block(&self, index: usize) -> BlockView<'_> {
        self.arena.block(index)
    }

    /// Number of non-empty blocks (= crossbar clusters required per SpMV).
    pub fn num_blocks(&self) -> usize {
        self.arena.table.len()
    }

    /// Total number of encoded non-zeros.
    pub fn nnz(&self) -> usize {
        self.arena.decoded.len()
    }

    /// Disables (or re-enables) the per-iteration vector re-encoding.  With vector
    /// quantization off, only the one-time matrix quantization error remains — an
    /// ablation that isolates the two error sources.
    pub fn set_vector_quantization(&mut self, enabled: bool) {
        self.quantize_vectors = enabled;
    }

    /// The vector converter (exposes the last bases/statistics for instrumentation).
    pub fn converter(&self) -> &VectorConverter {
        &self.converter
    }

    /// Reconstructs the quantized matrix `Ã` as a CSR matrix (what the accelerator
    /// effectively multiplies by); useful for analysis and tests.
    pub fn to_quantized_csr(&self) -> CsrMatrix {
        let mut coo = refloat_sparse::CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        let bs = self.config.block_size();
        for blk in self.blocks() {
            let row0 = blk.block_row * bs;
            let col0 = blk.block_col * bs;
            for (ii, jj, v) in blk.iter_decoded() {
                if v != 0.0 {
                    coo.push(row0 + ii as usize, col0 + jj as usize, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Total storage bits of the encoded matrix under the Fig. 4 accounting.
    pub fn storage_bits(&self) -> u64 {
        storage_bits(self.nnz(), self.num_blocks(), &self.config)
    }

    /// The quantize step of an SpMV: re-encodes `x` with per-segment bases (the vector
    /// converter; `x` passes through when vector quantization is off).  The one borrow
    /// lends the quantized input together with the matrix, now shared, so the caller
    /// can [`accumulate`](Self::accumulate) or walk [`blocks`](Self::blocks) its own way.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    pub fn quantize_input<'a>(&'a mut self, x: &'a [f64]) -> (&'a [f64], &'a Self) {
        assert_eq!(
            x.len(),
            self.ncols,
            "ReFloatMatrix apply: x length mismatch"
        );
        if !self.quantize_vectors {
            return (x, self);
        }
        self.quantized_input.convert(&mut self.converter, x);
        let this = &*self;
        (this.quantized_input.as_slice(), this)
    }

    /// The accumulate step of an SpMV (Eq. 8–9) over an already-quantized input:
    /// `y = Ã · xq`, block by block in storage order.  Within a block, a run of
    /// elements of one row is summed in a register, starting from and stored back to
    /// `y` — the additions, and so the bits, of an element-by-element `y[i] += …`.
    ///
    /// # Panics
    /// Panics if `y.len() != nrows`.
    pub fn accumulate(&self, xq: &[f64], y: &mut [f64]) {
        assert_eq!(
            y.len(),
            self.nrows,
            "ReFloatMatrix apply: y length mismatch"
        );
        y.fill(0.0);
        let bs = self.config.block_size();
        for blk in self.blocks() {
            let y = &mut y[blk.block_row * bs..];
            let xq = &xq[blk.block_col * bs..];
            let Some(&first) = blk.rows.first() else {
                continue;
            };
            let (mut row, mut sum) = (first as usize, y[first as usize]);
            for (ii, jj, v) in blk.iter_decoded() {
                if ii as usize != row {
                    y[row] = sum;
                    row = ii as usize;
                    sum = y[row];
                }
                sum += v * xq[jj as usize];
            }
            y[row] = sum;
        }
    }
}

impl LinearOperator for ReFloatMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let (xq, this) = self.quantize_input(x);
        this.accumulate(xq, y);
    }

    fn name(&self) -> String {
        format!(
            "refloat {} ({} blocks, {} nnz)",
            self.config,
            self.num_blocks(),
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::generators;
    use refloat_solvers::{bicgstab, cg, SolverConfig};
    use refloat_sparse::vecops;

    fn test_config(b: u32) -> ReFloatConfig {
        ReFloatConfig::new(b, 3, 8, 3, 8)
    }

    #[test]
    fn quantized_spmv_is_close_to_exact_for_well_scaled_matrices() {
        let a = generators::laplacian_2d(20, 20, 0.3).to_csr();
        let mut rf = ReFloatMatrix::from_csr(&a, test_config(4));
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| ((i * 31 % 17) as f64) / 17.0 + 0.1)
            .collect();
        let exact = a.spmv(&x);
        let mut approx = vec![0.0; a.nrows()];
        rf.apply(&x, &mut approx);
        assert!(vecops::rel_err(&approx, &exact) < 0.02, "rel err too large");
    }

    #[test]
    fn matrix_quantization_error_respects_fraction_bits() {
        let a = generators::mass_matrix_3d(6, 6, 6, 1e-12, 0.5, 3).to_csr();
        for f_bits in [3u32, 8, 16] {
            let cfg = ReFloatConfig::new(4, 3, f_bits, 3, 8);
            let rf = ReFloatMatrix::from_csr(&a, cfg);
            let quantized = rf.to_quantized_csr();
            let mut max_rel: f64 = 0.0;
            for (r, c, v) in a.iter() {
                let q = quantized.get(r, c);
                if v != 0.0 {
                    max_rel = max_rel.max(((q - v) / v).abs());
                }
            }
            // Exponent locality of the mass matrix keeps offsets in range, so the error
            // is the fraction truncation bound.
            assert!(
                max_rel <= 2.0f64.powi(-(f_bits as i32)) + 1e-12,
                "f = {f_bits}: max rel err {max_rel}"
            );
        }
    }

    #[test]
    fn cg_converges_with_refloat_operator_and_matches_fp64_solution() {
        let a = generators::laplacian_2d(24, 24, 0.5).to_csr();
        let x_star: Vec<f64> = (0..a.nrows())
            .map(|i| ((i % 13) as f64) / 13.0 + 0.2)
            .collect();
        let b = a.spmv(&x_star);
        let cfg = SolverConfig::relative(1e-8);

        let mut exact_op = a.clone();
        let exact = cg(&mut exact_op, &b, &cfg);

        let mut rf = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8));
        let quant = cg(&mut rf, &b, &cfg);

        assert!(exact.converged());
        assert!(quant.converged(), "refloat CG stop = {:?}", quant.stop);
        // The quantized solve needs a similar (slightly larger) number of iterations.
        assert!(quant.iterations >= exact.iterations);
        assert!(quant.iterations <= 3 * exact.iterations + 10);
        // And its solution solves the quantized system: check against x_star loosely.
        assert!(vecops::rel_err(&quant.x, &x_star) < 0.05);
    }

    #[test]
    fn bicgstab_converges_with_refloat_operator() {
        let a = generators::laplacian_2d(16, 16, 0.4).to_csr();
        let b = vec![1.0; a.nrows()];
        let cfg = SolverConfig::relative(1e-8);
        let mut rf = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8));
        let r = bicgstab(&mut rf, &b, &cfg);
        assert!(r.converged(), "stop = {:?}", r.stop);
    }

    #[test]
    fn paper_default_bits_converge_on_a_mass_matrix_analogue() {
        // e = f = 3 matrix bits and (ev, fv) = (3, 8) vector bits — the Table VII
        // setting — must be enough for convergence on a crystm-like block-local matrix.
        let a = generators::mass_matrix_3d(8, 8, 8, 1e-12, 0.8, 11).to_csr();
        let (b, _x_star) = refloat_matgen::rhs::default_rhs(&a);
        let cfg = SolverConfig::relative(1e-8).with_max_iterations(2000);
        let mut rf = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(5, 3, 3, 3, 8));
        let r = cg(&mut rf, &b, &cfg);
        assert!(
            r.converged(),
            "stop = {:?} after {} iters",
            r.stop,
            r.iterations
        );
    }

    #[test]
    fn disabling_vector_quantization_reduces_error() {
        let a = generators::laplacian_2d(12, 12, 0.3).to_csr();
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| (i as f64 * 0.05).cos() + 2.0)
            .collect();
        let exact = a.spmv(&x);

        let cfg = ReFloatConfig::new(4, 3, 20, 3, 4); // coarse vectors, fine matrix
        let mut with_vq = ReFloatMatrix::from_csr(&a, cfg);
        let mut without_vq = ReFloatMatrix::from_csr(&a, cfg);
        without_vq.set_vector_quantization(false);

        let mut y1 = vec![0.0; a.nrows()];
        let mut y2 = vec![0.0; a.nrows()];
        with_vq.apply(&x, &mut y1);
        without_vq.apply(&x, &mut y2);
        assert!(vecops::rel_err(&y2, &exact) < vecops::rel_err(&y1, &exact));
    }

    #[test]
    fn a_clone_shares_the_arena_and_starts_with_an_empty_scratch() {
        let a = generators::laplacian_2d(12, 12, 0.3).to_csr();
        let mut original = ReFloatMatrix::from_csr(&a, test_config(4));
        assert!(original.quantized_input.as_slice().is_empty());
        let mut y = vec![0.0; a.nrows()];
        original.apply(&vec![1.0; a.ncols()], &mut y);
        assert_eq!(original.quantized_input.as_slice().len(), a.ncols());
        let clone = original.clone();
        assert!(Arc::ptr_eq(&original.arena, &clone.arena));
        assert!(clone.quantized_input.as_slice().is_empty());
    }

    /// `y = Ã · xq` one element at a time over the block views: the definition
    /// `accumulate` must reproduce bit for bit.
    fn naive_accumulate(m: &ReFloatMatrix, xq: &[f64]) -> Vec<f64> {
        let bs = m.config().block_size();
        let mut y = vec![0.0; m.nrows];
        for blk in m.blocks() {
            for (ii, jj, v) in blk.iter_decoded() {
                y[blk.block_row * bs + ii as usize] += v * xq[blk.block_col * bs + jj as usize];
            }
        }
        y
    }

    #[test]
    fn accumulate_equals_the_per_element_loop_over_block_views_bitwise() {
        let dense_blocks = generators::mass_matrix_3d(9, 9, 9, 1e-12, 0.8, 5).to_csr();
        let scattered = generators::random_spd_graph(1500, 6, 1.4, 1.0, 7).to_csr();
        // 23 · 23 = 529 rows: the last block row and column are partial tiles.
        let ragged = generators::laplacian_2d(23, 23, 0.3).to_csr();
        // Every stored value of block (1, 0) is an explicit zero.
        let mut zero_block = generators::laplacian_2d(16, 4, 0.3).to_csr();
        let (row_ptr, col_idx) = (zero_block.row_ptr().to_vec(), zero_block.col_idx().to_vec());
        let in_block = (row_ptr[16]..row_ptr[32]).filter(|&k| col_idx[k] < 16);
        assert!(in_block.clone().count() > 0);
        in_block.for_each(|k| zero_block.values_mut()[k] = 0.0);
        for (a, b) in [
            (dense_blocks, 5),
            (scattered, 7),
            (ragged, 4),
            (zero_block, 4),
        ] {
            let m = ReFloatMatrix::from_csr(&a, test_config(b));
            assert_eq!(m.nnz(), a.nnz());
            assert_eq!(m.nnz(), m.blocks().map(|blk| blk.nnz()).sum::<usize>());
            let x = refloat_matgen::rhs::krylov_like(a.ncols(), 3);
            let mut y = vec![f64::NAN; a.nrows()];
            m.accumulate(&x, &mut y);
            let want = naive_accumulate(&m, &x);
            assert!(y.iter().zip(&want).all(|(u, v)| u.to_bits() == v.to_bits()));
        }
    }

    #[test]
    fn clones_applied_from_two_threads_match_a_serial_apply_bitwise() {
        let a = generators::laplacian_2d(20, 20, 0.3).to_csr();
        let original = ReFloatMatrix::from_csr(&a, test_config(4));
        let inputs: Vec<Vec<f64>> = (0..2)
            .map(|t| {
                (0..a.ncols())
                    .map(|i| ((i * (13 + t) % 29) as f64) / 29.0 - 0.4)
                    .collect()
            })
            .collect();
        let serial: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| {
                let mut y = vec![0.0; a.nrows()];
                original.clone().apply(x, &mut y);
                y
            })
            .collect();
        // Both threads pass the barrier before either applies, so the shared blocks
        // are read while the other clone's scratch is being written.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (x, want) in inputs.iter().zip(&serial) {
                let (mut op, start) = (original.clone(), &start);
                scope.spawn(move || {
                    let mut y = vec![0.0; want.len()];
                    start.wait();
                    for _ in 0..50 {
                        op.apply(x, &mut y);
                        assert!(y.iter().zip(want).all(|(u, v)| u.to_bits() == v.to_bits()));
                    }
                });
            }
        });
    }

    #[test]
    fn block_count_matches_blocked_matrix() {
        let a = generators::laplacian_2d(30, 30, 0.1).to_csr();
        let blocked = refloat_sparse::BlockedMatrix::from_csr(&a, 4).unwrap();
        let rf = ReFloatMatrix::from_blocked(&blocked, test_config(4));
        assert_eq!(rf.num_blocks(), blocked.num_blocks());
        assert_eq!(rf.nnz(), blocked.nnz());
        assert!(rf.storage_bits() > 0);
        assert!(LinearOperator::nrows(&rf) == 900 && LinearOperator::ncols(&rf) == 900);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_blocking_is_rejected() {
        let a = generators::laplacian_2d(8, 8, 0.1).to_csr();
        let blocked = refloat_sparse::BlockedMatrix::from_csr(&a, 3).unwrap();
        let _ = ReFloatMatrix::from_blocked(&blocked, test_config(4));
    }
}
