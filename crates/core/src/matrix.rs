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
//! The block-major layout of Fig. 7 — the block table and the local row and column
//! index of every non-zero — and the source CSR's row order beside it are defined
//! once, by `refloat-sparse`'s [`BlockLayout`], and a [`ReFloatMatrix`] *shares* the
//! layout it was encoded over (a re-encode of an unchanged structure shares its
//! predecessor's).  What this crate adds is the two things only the encoder knows: the
//! exponent base `eb` of every block, in block order, and the decoded value of every
//! non-zero, stored once, in **row order**.  An encode takes the bases first (Eq. 5 is
//! an integer exponent sum per block, so any read order serves), then runs one
//! quantize loop over the row order, reading a CSR's values in place or a blocking's at
//! their block-order positions.
//!
//! Row order is what the SpMV wants.  Eq. 8–9 sum every block's partial product into
//! its output rows; with a CSR source (columns sorted within a row) that fixes each
//! row's sum as its terms in ascending column order — the order, hence the bits, of
//! `CsrMatrix::spmv_into` — so [`ReFloatMatrix::accumulate`] sums each row in that
//! order over the decoded values.  Block order is what the cold readers want (ABFT
//! checksums, fault and noise injection, bitwise comparisons): they take an explicit
//! copy from [`ReFloatMatrix::decoded_in_block_order`] and walk
//! [`ReFloatMatrix::blocks`] over it as [`BlockView`]s.  The row↔block correspondence
//! is [`BlockLayout::walk_row_order`]'s, in `refloat-sparse`.  The per-element sign,
//! offset and fraction code belong to [`crate::block::ReFloatBlock`], which encodes a
//! single block down to its bits on demand.

use std::ops::Range;
use std::sync::Arc;

use crate::block::optimal_exponent_base;
use crate::format::ReFloatConfig;
use crate::memory::storage_bits;
use crate::scalar::{decompose, quantize};
use crate::vector::{Scratch, VectorConverter};
use refloat_solvers::LinearOperator;
use refloat_sparse::blocked::{Block, BlockLayout};
use refloat_sparse::{BlockedMatrix, CsrMatrix};

/// What encoding adds to a [`BlockLayout`].
#[derive(Debug)]
struct Encoded {
    /// Exponent base per block, in the layout's block order.
    eb: Vec<i32>,
    /// Decoded value per non-zero, in the layout's row order.
    decoded: Vec<f64>,
}

/// One encoded block, borrowed from a [`ReFloatMatrix`] and the block-order copy of its
/// decoded values.
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
    /// `block` of the layout over the decoded values, with its exponent base.
    fn new(block: Block<'a>, eb: i32) -> Self {
        BlockView {
            block_row: block.block_row,
            block_col: block.block_col,
            eb,
            rows: block.rows,
            cols: block.cols,
            decoded: block.vals,
        }
    }

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
/// The encoding is programmed once and only read afterwards, so the layout and the
/// encoded values each sit behind an [`Arc`]: a clone shares both and starts with an
/// empty conversion scratch, which is all that `apply(&mut self)` mutates.
#[derive(Debug, Clone)]
pub struct ReFloatMatrix {
    nrows: usize,
    ncols: usize,
    config: ReFloatConfig,
    layout: Arc<BlockLayout>,
    encoded: Arc<Encoded>,
    converter: VectorConverter,
    /// The quantized input vector of the latest apply.
    quantized_input: Scratch,
    /// Whether the input vector is re-encoded through the vector converter on every
    /// apply (the full ReFloat pipeline) or passed through exactly (ablation).
    quantize_vectors: bool,
}

impl ReFloatMatrix {
    /// Encodes a blocked matrix into ReFloat format: its layout is shared, not copied,
    /// each block's base comes from its contiguous values, and the quantize pass reads
    /// them at their block-order positions.
    pub fn from_blocked(blocked: &BlockedMatrix, config: ReFloatConfig) -> Self {
        let must_match = "ReFloatMatrix: the blocking exponent must match the format's b";
        assert_eq!(blocked.b(), config.b, "{must_match}");
        let eb = blocked.blocks().map(|b| optimal_exponent_base(b.vals));
        let vals = blocked.values();
        Self::quantized(blocked.layout(), config, eb.collect(), |_, at| &vals[at])
    }

    /// Blocks a CSR matrix with the configuration's `b` and encodes it like
    /// [`from_blocked`](Self::from_blocked), the quantize pass reading its row order.
    pub fn from_csr(a: &CsrMatrix, config: ReFloatConfig) -> Self {
        let blocked = BlockedMatrix::from_csr(a, config.b)
            .expect("valid block exponent from a validated ReFloatConfig");
        let eb = blocked.blocks().map(|b| optimal_exponent_base(b.vals));
        let vals = a.values();
        Self::quantized(blocked.layout(), config, eb.collect(), |run, _| &vals[run])
    }

    /// The quantize pass every encode ends with, given the bases `eb`: each value against
    /// its block's base, into the decoded array in row order, through the row↔block walk;
    /// `read(run, positions)` gives a run's values, from a CSR's row order or a blocking's.
    pub(crate) fn quantized<'v>(
        layout: &Arc<BlockLayout>,
        config: ReFloatConfig,
        eb: Vec<i32>,
        read: impl Fn(Range<usize>, Range<usize>) -> &'v [f64],
    ) -> Self {
        let (max_offset, f) = (config.max_offset(), config.f);
        let (rounding, underflow) = (config.rounding, config.underflow);
        let mut decoded = vec![0.0; layout.nnz()];
        layout.walk_row_order(|run, block, positions| {
            let base = eb[block];
            for (out, &v) in decoded[run.clone()].iter_mut().zip(read(run, positions)) {
                let q = decompose(v).map(|d| quantize(d, base, max_offset, f, rounding, underflow));
                *out = q.map_or(0.0, |q| q.value(base));
            }
        });
        ReFloatMatrix {
            nrows: layout.nrows(),
            ncols: layout.ncols(),
            config,
            layout: Arc::clone(layout),
            encoded: Arc::new(Encoded { eb, decoded }),
            converter: VectorConverter::new(config),
            quantized_input: Scratch::default(),
            quantize_vectors: true,
        }
    }

    /// The format configuration.
    pub fn config(&self) -> &ReFloatConfig {
        &self.config
    }

    /// The block-major structure this encoding shares with its blocking.
    pub(crate) fn layout(&self) -> &Arc<BlockLayout> {
        &self.layout
    }

    /// Whether `other` reads the same encoded values — a clone does, a second encode
    /// of the same matrix does not.
    #[cfg(test)]
    pub(crate) fn shares_encoding_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.encoded, &other.encoded)
    }

    /// The exponent base of every block, in block order.
    pub(crate) fn bases(&self) -> &[i32] {
        &self.encoded.eb
    }

    /// A copy of the decoded values in the layout's block order — the one way the block
    /// readers (ABFT checksums, fault and noise injection, bitwise comparisons) get at
    /// them, to walk with [`blocks`](Self::blocks).  Applies never need it.
    pub fn decoded_in_block_order(&self) -> Vec<f64> {
        let decoded = &self.encoded.decoded;
        let mut copy = vec![0.0; decoded.len()];
        self.layout.walk_row_order(|run, _, positions| {
            copy[positions].copy_from_slice(&decoded[run]);
        });
        copy
    }

    /// The encoded blocks, in storage (block-row-major) order, over `decoded` — the
    /// copy from [`decoded_in_block_order`](Self::decoded_in_block_order).
    ///
    /// # Panics
    /// Panics if `decoded` does not hold one value per non-zero.
    pub fn blocks<'a>(&'a self, decoded: &'a [f64]) -> impl Iterator<Item = BlockView<'a>> + Clone {
        let blocks = self.layout.blocks(decoded);
        (blocks.zip(&self.encoded.eb)).map(|(block, &eb)| BlockView::new(block, eb))
    }

    /// Block `index` of [`blocks`](Self::blocks), over `decoded`.
    ///
    /// # Panics
    /// Panics if `index >= num_blocks()` or `decoded` is shorter than the block's run.
    pub fn block<'a>(&'a self, index: usize, decoded: &'a [f64]) -> BlockView<'a> {
        let block = self.layout.block(index, decoded);
        BlockView::new(block, self.encoded.eb[index])
    }

    /// Number of non-empty blocks (= crossbar clusters required per SpMV).
    pub fn num_blocks(&self) -> usize {
        self.encoded.eb.len()
    }

    /// Total number of encoded non-zeros.
    pub fn nnz(&self) -> usize {
        self.encoded.decoded.len()
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
        let (row_ptr, col_idx) = (self.layout.row_ptr(), self.layout.col_idx());
        for (r, bounds) in row_ptr.windows(2).enumerate() {
            let row = bounds[0] as usize..bounds[1] as usize;
            for (&c, &v) in col_idx[row.clone()].iter().zip(&self.encoded.decoded[row]) {
                if v != 0.0 {
                    coo.push(r, c as usize, v);
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
    /// `y = Ã · xq`, every row of `accumulate_rows`.
    ///
    /// # Panics
    /// Panics if `xq.len() != ncols` or `y.len() != nrows`.
    pub fn accumulate(&self, xq: &[f64], y: &mut [f64]) {
        self.accumulate_rows(xq, 0..self.nrows, y);
    }

    /// Rows `rows` of `Ã · xq` into `y`, row by row over the decoded values in row
    /// order — the order of additions and so the bits of `CsrMatrix::spmv_into`, which
    /// are also the bits of summing the block products into `y` block by block.  A
    /// row's sum does not depend on the range it is computed in, so a shard's band is
    /// bit for bit those rows of the whole product.
    ///
    /// # Panics
    /// Panics if `xq.len() != ncols`, `y.len() != rows.len()` or `rows` ends past
    /// `nrows`.
    pub(crate) fn accumulate_rows(&self, xq: &[f64], rows: Range<usize>, y: &mut [f64]) {
        assert_eq!(
            xq.len(),
            self.ncols,
            "ReFloatMatrix spmv: x length mismatch"
        );
        assert_eq!(y.len(), rows.len(), "ReFloatMatrix spmv: y length mismatch");
        let row_ptr = &self.layout.row_ptr()[rows.start..=rows.end];
        let (col_idx, decoded) = (self.layout.col_idx(), &self.encoded.decoded);
        for (yr, bounds) in y.iter_mut().zip(row_ptr.windows(2)) {
            let row = bounds[0] as usize..bounds[1] as usize;
            let mut vals = decoded[row.clone()].chunks_exact(2);
            let mut cols = col_idx[row].chunks_exact(2);
            let mut acc = 0.0;
            // Two terms per trip, added one after the other: the sum and its bits stay
            // the CSR loop's, while the speed stops following where the build places the
            // loop (a one-term loop read 32 % apart across placements, this one 4–7 %).
            for (v, c) in (&mut vals).zip(&mut cols) {
                let (p0, p1) = (v[0] * xq[c[0] as usize], v[1] * xq[c[1] as usize]);
                acc += p0;
                acc += p1;
            }
            if let ([v], [c]) = (vals.remainder(), cols.remainder()) {
                acc += v * xq[*c as usize];
            }
            *yr = acc;
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
    fn a_clone_shares_layout_and_encoded_values_and_starts_with_an_empty_scratch() {
        let a = generators::laplacian_2d(12, 12, 0.3).to_csr();
        let mut original = ReFloatMatrix::from_csr(&a, test_config(4));
        assert!(original.quantized_input.as_slice().is_empty());
        let mut y = vec![0.0; a.nrows()];
        original.apply(&vec![1.0; a.ncols()], &mut y);
        assert_eq!(original.quantized_input.as_slice().len(), a.ncols());
        let clone = original.clone();
        assert!(Arc::ptr_eq(&original.layout, &clone.layout));
        assert!(Arc::ptr_eq(&original.encoded, &clone.encoded));
        assert!(clone.quantized_input.as_slice().is_empty());
    }

    /// `y = Ã · xq` one element at a time over the block views: the definition
    /// `accumulate` must reproduce bit for bit.
    fn naive_accumulate(m: &ReFloatMatrix, xq: &[f64]) -> Vec<f64> {
        let bs = m.config().block_size();
        let mut y = vec![0.0; m.nrows];
        let decoded = m.decoded_in_block_order();
        for blk in m.blocks(&decoded) {
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
            let decoded = m.decoded_in_block_order();
            assert_eq!(
                m.nnz(),
                m.blocks(&decoded).map(|blk| blk.nnz()).sum::<usize>()
            );
            let x = refloat_matgen::rhs::krylov_like(a.ncols(), 3);
            let mut y = vec![f64::NAN; a.nrows()];
            m.accumulate(&x, &mut y);
            let want = naive_accumulate(&m, &x);
            assert!(y.iter().zip(&want).all(|(u, v)| u.to_bits() == v.to_bits()));
        }
    }

    #[test]
    fn the_row_order_encode_is_the_per_block_encode_bitwise() {
        // Stored in row order, copied back out in block order: every block holds what
        // `ReFloatBlock::encode` makes of it, base and decoded values bit for bit.
        let a = generators::random_spd_graph(700, 5, 1.4, 1.0, 3).to_csr();
        let blocked = BlockedMatrix::from_csr(&a, 4).unwrap();
        let m = ReFloatMatrix::from_blocked(&blocked, test_config(4));
        let decoded = m.decoded_in_block_order();
        for (raw, enc) in blocked.blocks().zip(m.blocks(&decoded)) {
            let want = crate::block::ReFloatBlock::encode(&raw, m.config());
            assert_eq!((enc.eb, enc.nnz()), (want.eb, want.nnz()));
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(enc.decoded), bits(&want.decoded));
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
        // The encoding shares the blocking's layout; it does not copy the index arrays.
        assert!(Arc::ptr_eq(&rf.layout, blocked.layout()));
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
