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
//! predecessor's, and an encode over a donor of the same structure,
//! [`ReFloatMatrix::from_csr_over_on`], the donor's).  What this crate adds is the two
//! things only the encoder knows: the exponent base `eb` of every block, in block
//! order, and the decoded value of every non-zero, stored once, in **row order**.
//!
//! There is one encoder, and it reads values in row order only: [`from_csr`]'s lays
//! the CSR out without its values ([`BlockLayout::from_csr`]) and reads them in place,
//! the re-encode reads the next step's over the predecessor's layout, and
//! [`from_blocked`] puts a blocking's back into row order first.  It runs one block-row
//! band at a time.  A re-encode quantizes only the bands whose values changed and
//! copies every other band's bases and decoded values from the predecessor; a
//! from-scratch encode is the case where every band changed.
//! Eq. 5 is an integer exponent sum per block, so any read order serves: a pass over
//! the band sums every value's exact exponent into its block column, and the band's
//! blocks take their bases from those sums, in table order.  A second pass quantizes
//! every value against its block column's base with the vector converter's branch-free
//! bit body (`scalar::quantize_bits`); a block holding a subnormal, or whose window
//! leaves the normal exponents, runs the per-element [`scalar::quantize`] instead.
//!
//! [`from_csr`]: ReFloatMatrix::from_csr
//! [`from_blocked`]: ReFloatMatrix::from_blocked
//! [`scalar::quantize`]: crate::scalar::quantize
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
//!
//! # Lanes
//!
//! The accelerator runs one SpMV over many crossbars at once, with the vector converter
//! and the level-1 vector work beside it; the host model can run all three over several
//! threads.  [`ReFloatMatrix::with_lanes`] attaches a set of [`Lanes`], used two ways:
//!
//! * **A laned solve.**  A CG solve keeps its vectors on the lanes, cut into the
//!   pairwise tree's top-level subtrees ([`LanedVectors`]), and the apply works on those
//!   bands in place ([`apply_bands`](LinearOperator::apply_bands)): each lane converts
//!   the whole `2^b` segments of its band of `p`, the caller copies the helpers' into
//!   the one quantized input and converts the segments that straddle a band edge, then
//!   each lane accumulates its band's rows into its band of `A·p` and returns its part
//!   of `pᵀAp`.  The converter's bases and statistics are the one-thread converter's.
//! * **An encode** ([`from_csr_on`](ReFloatMatrix::from_csr_on), and the re-encode of
//!   [`crate::incremental`]) runs `encode_bands` per band of block rows, balanced by the
//!   non-zeros each quantizes, each helper reading the values through its own handle
//!   on the CSR matrix.  A re-encode's helper returns its changed rows alone; the
//!   caller copies the unchanged ones from the predecessor.
//!
//! Every other apply — BiCGSTAB's, the fault wrapper's — is the one-thread row loop,
//! and so is a solve's on one lane.  A row's sum is its terms in column order whatever
//! band it falls in, a segment's or a block's base depends on its own values alone, and
//! a band's reduction is its subtree's, so no output bit depends on the lane count;
//! only host time does.

use std::ops::Range;
use std::sync::Arc;

use crate::block::rounded_mean;
use crate::format::{ReFloatConfig, RoundingMode, UnderflowMode};
use crate::incremental::same_structure;
use crate::memory::storage_bits;
use crate::scalar::{
    quantize_bits, requantize, select, Bounds, Fraction, BIAS, FRACTION_BITS, NON_FINITE,
};
use crate::vector::{convert_part, whole_segments, ConversionStats, Scratch, VectorConverter};
use refloat_solvers::operator::apply_gathered;
use refloat_solvers::LinearOperator;
use refloat_sparse::blocked::{Block, BlockLayout};
use refloat_sparse::parallel::{BandTask, Lanes};
use refloat_sparse::shard::block_row_shards_counting;
use refloat_sparse::vecops::{self, Band, LanedVectors, MIN_LEN_PER_LANE};
use refloat_sparse::{BlockedMatrix, CsrMatrix};

/// The fewest non-zeros per lane for which an encode splits over lanes.  Handing a band
/// to a helper and copying it back costs a few microseconds: on a 2-core x86-64 host a
/// 2-lane split of a 2-D Laplacian's SpMV broke even near 4 k non-zeros per lane and
/// gained from about 8 k, and an encode costs more per non-zero than an SpMV.  The
/// `encode_lanes` bench measures a split encode.
pub const MIN_NNZ_PER_LANE: usize = 8192;

/// What encoding adds to a [`BlockLayout`].
#[derive(Debug)]
struct Encoded {
    /// Exponent base per block, in the layout's block order.
    eb: Vec<i32>,
    /// Decoded value per non-zero, in the layout's row order.
    decoded: Vec<f64>,
}

/// An encode's predecessor over the same layout, and per block row whether its values
/// changed since: a clean block row's bases and decoded values are the predecessor's,
/// copied, not quantized again (see [`crate::incremental`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reuse<'a> {
    /// The encoding of the previous values over the layout.
    pub(crate) previous: &'a ReFloatMatrix,
    /// Per block row, whether any of its values changed.
    pub(crate) dirty: &'a [bool],
}

impl<'a> Reuse<'a> {
    /// The encode's view of the predecessor over `layout`, copying clean rows' values.
    ///
    /// # Panics
    /// Panics if the predecessor is not over `layout` or a block row has no flag.
    fn delta(self, layout: &Arc<BlockLayout>) -> Delta<'a> {
        let over = Arc::ptr_eq(&self.previous.layout, layout);
        assert!(
            over,
            "ReFloatMatrix: a reuse is over the predecessor's layout"
        );
        let block_rows = layout.nrows().div_ceil(1 << layout.b());
        let flags = "ReFloatMatrix: one dirty flag per block row";
        assert_eq!(self.dirty.len(), block_rows, "{flags}");
        Delta {
            previous: &self.previous.encoded,
            dirty: self.dirty,
            copy_values: true,
        }
    }
}

/// What [`encode_bands`] does with a clean block row: it copies the row's bases from
/// the predecessor, and its decoded values too when `copy_values` is set.  Without
/// them the output holds the dirty rows' decoded values alone, back to back — a lane
/// helper's band, whose clean rows the caller copies from the predecessor straight into
/// the result instead of through the helper.
#[derive(Debug, Clone, Copy)]
struct Delta<'a> {
    /// The predecessor's encoding over the same layout.
    previous: &'a Encoded,
    /// Per block row, whether any of its values changed.
    dirty: &'a [bool],
    /// Whether a clean row's decoded values go to the output.
    copy_values: bool,
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
    /// The lanes a CG solve keeps its vectors on; `None` solves on the calling thread.
    lanes: Option<Arc<Lanes>>,
}

impl ReFloatMatrix {
    /// Encodes a blocked matrix into ReFloat format: its layout is shared, not copied,
    /// and its values are put back into row order for the band encoder (see the
    /// [module docs](self)).
    pub fn from_blocked(blocked: &BlockedMatrix, config: ReFloatConfig) -> Self {
        let must_match = "ReFloatMatrix: the blocking exponent must match the format's b";
        assert_eq!(blocked.b(), config.b, "{must_match}");
        let (layout, block_order) = (blocked.layout(), blocked.values());
        let mut vals = vec![0.0; layout.nnz()];
        layout.walk_row_order(|run, _, positions| {
            vals[run].copy_from_slice(&block_order[positions]);
        });
        Self::encoded(layout, config, &vals, None)
    }

    /// Lays a CSR matrix out in blocks of the configuration's `b`, without its values,
    /// and encodes the values from its row order, one block-row band at a time (see the
    /// [module docs](self)).
    pub fn from_csr(a: &CsrMatrix, config: ReFloatConfig) -> Self {
        Self::encoded(
            &Arc::new(Self::layout_of(a, config)),
            config,
            a.values(),
            None,
        )
    }

    /// [`from_csr`](Self::from_csr) with the encode split over `lanes`: each lane
    /// encodes one nnz-balanced band of block rows (`refloat_sparse::block_row_shards`),
    /// the helpers reading the values from their own handle on `a`.  The result is
    /// [`from_csr`](Self::from_csr)'s, bit for bit.  A matrix with fewer than
    /// [`MIN_NNZ_PER_LANE`] non-zeros per lane encodes on the calling thread.
    pub fn from_csr_on(a: &Arc<CsrMatrix>, config: ReFloatConfig, lanes: &Lanes) -> Self {
        Self::encoded_on(
            &Arc::new(Self::layout_of(a, config)),
            config,
            a,
            lanes,
            None,
        )
    }

    /// [`from_csr_on`](Self::from_csr_on) over `donor`'s layout, when `a` has the
    /// donor's structure: the same `b`, the same dimensions, and `row_ptr` and
    /// `col_idx` equal to the donor's row order.  The layout is a function of the
    /// structure and `b` alone, so the encode skips the blocking and shares the
    /// donor's layout ([`shares_layout_with`](Self::shares_layout_with)).  Any other
    /// donor is ignored and `a` is blocked afresh.  Either way the result is
    /// [`from_csr`](Self::from_csr)'s, bit for bit.
    pub fn from_csr_over_on(
        a: &Arc<CsrMatrix>,
        config: ReFloatConfig,
        donor: &ReFloatMatrix,
        lanes: &Lanes,
    ) -> Self {
        let layout = donor.layout();
        if donor.config.b == config.b && same_structure(layout, a) {
            Self::encoded_on(layout, config, a, lanes, None)
        } else {
            Self::from_csr_on(a, config, lanes)
        }
    }

    /// `a`'s layout in blocks of the configuration's `b`.
    fn layout_of(a: &CsrMatrix, config: ReFloatConfig) -> BlockLayout {
        BlockLayout::from_csr(a, config.b)
            .expect("valid block exponent from a validated ReFloatConfig")
    }

    /// The encode: `vals`, one per non-zero in `layout`'s row order, one block-row band
    /// at a time (see [`encode_bands`]).  With `reuse`, the dirty block rows are
    /// quantized and every clean one is copied from the predecessor; without, every
    /// row is dirty.
    pub(crate) fn encoded(
        layout: &Arc<BlockLayout>,
        config: ReFloatConfig,
        vals: &[f64],
        reuse: Option<Reuse<'_>>,
    ) -> Self {
        assert_eq!(vals.len(), layout.nnz(), "ReFloatMatrix: one value per nnz");
        let delta = reuse.map(|reuse| reuse.delta(layout));
        let mut eb = Vec::with_capacity(layout.num_blocks());
        let mut decoded = vec![0.0; vals.len()];
        encode_rows(
            layout,
            &config,
            vals,
            delta,
            0..layout.nrows(),
            &mut eb,
            &mut decoded,
        );
        Self::from_parts(layout, config, eb, decoded)
    }

    /// [`encoded`](Self::encoded) from `a`'s values, over `lanes`: every band of block
    /// rows but the last on a helper, the bands balanced by the non-zeros they quantize
    /// (the dirty rows').  A helper writes its dirty rows' decoded values and then all
    /// its bases into its output band; the caller copies those values back, and the
    /// helpers' clean rows straight from the predecessor, and gathers the bases in table
    /// order, then appends its own band's.  Fewer than [`MIN_NNZ_PER_LANE`] non-zeros
    /// to quantize per lane encode on the calling thread.
    pub(crate) fn encoded_on(
        layout: &Arc<BlockLayout>,
        config: ReFloatConfig,
        a: &Arc<CsrMatrix>,
        lanes: &Lanes,
        reuse: Option<Reuse<'_>>,
    ) -> Self {
        let dirty = |brow: usize| reuse.is_none_or(|reuse| reuse.dirty[brow]);
        let (bands, quantized) = block_row_shards_counting(layout, lanes.count(), dirty);
        if bands.len() < 2 || quantized < MIN_NNZ_PER_LANE * bands.len() {
            return Self::encoded(layout, config, a.values(), reuse);
        }
        assert_eq!(a.nnz(), layout.nnz(), "ReFloatMatrix: one value per nnz");
        let delta = reuse.map(|reuse| reuse.delta(layout));
        // What a helper reads the predecessor from, shared.
        let shared = reuse.map(|reuse| {
            let encoded = Arc::clone(&reuse.previous.encoded);
            (encoded, Arc::<[bool]>::from(reuse.dirty))
        });
        let dirty_len = |rows: &Range<usize>| -> usize {
            let spans = layout.block_row_spans(rows.clone());
            spans
                .filter(|(brow, _)| dirty(*brow))
                .map(|(_, span)| span.len())
                .sum()
        };
        let (last, helped) = bands.split_last().expect("a split has two bands");
        let tasks = helped.iter().map(|rows| {
            let (layout, a, shared, rows, len) = (
                Arc::clone(layout),
                Arc::clone(a),
                shared.clone(),
                rows.clone(),
                dirty_len(rows),
            );
            // The band's output, allocated here at its exact size so that the caller's
            // allocator, which frees it once it is copied back, can reuse it.
            let blocks = layout.blocks_in_rows(rows.clone());
            let mut out = Vec::with_capacity(len + blocks);
            Box::new(move |band: &mut Vec<f64>| {
                let mut eb = Vec::with_capacity(blocks);
                out.resize(len, 0.0);
                let delta = shared.as_ref().map(|(previous, dirty)| Delta {
                    previous,
                    dirty,
                    copy_values: false,
                });
                encode_rows(&layout, &config, a.values(), delta, rows, &mut eb, &mut out);
                out.extend(eb.iter().map(|&base| f64::from(base)));
                *band = out;
            }) as BandTask
        });
        let (mut eb, mut last_eb) = (Vec::with_capacity(layout.num_blocks()), Vec::new());
        let mut decoded = vec![0.0; layout.nnz()];
        let (head, tail) = decoded.split_at_mut(layout.row_ptr()[last.start] as usize);
        lanes.run(
            tasks,
            || {
                encode_rows(
                    layout,
                    &config,
                    a.values(),
                    delta,
                    last.clone(),
                    &mut last_eb,
                    tail,
                )
            },
            |lane, band| {
                let (mut vals, bases) = band.split_at(dirty_len(&helped[lane]));
                for (brow, span) in layout.block_row_spans(helped[lane].clone()) {
                    let from = match delta.filter(|delta| !delta.dirty[brow]) {
                        Some(delta) => &delta.previous.decoded[span.clone()],
                        None => vals.split_off(..span.len()).expect("a dirty row's values"),
                    };
                    head[span].copy_from_slice(from);
                }
                eb.extend(bases.iter().map(|&base| base as i32));
            },
        );
        eb.extend(last_eb);
        Self::from_parts(layout, config, eb, decoded)
    }

    /// The matrix holding an encode's bases and decoded values over `layout`.
    fn from_parts(
        layout: &Arc<BlockLayout>,
        config: ReFloatConfig,
        eb: Vec<i32>,
        decoded: Vec<f64>,
    ) -> Self {
        ReFloatMatrix {
            nrows: layout.nrows(),
            ncols: layout.ncols(),
            config,
            layout: Arc::clone(layout),
            encoded: Arc::new(Encoded { eb, decoded }),
            converter: VectorConverter::new(config),
            quantized_input: Scratch::default(),
            quantize_vectors: true,
            lanes: None,
        }
    }

    /// Offers `lanes` to a CG solve on the matrix ([`lanes`](LinearOperator::lanes),
    /// see the [module docs](self#lanes)) when it is square and has at least
    /// [`MIN_LEN_PER_LANE`] rows per lane.  Every output bit is the one-lane matrix's,
    /// and one lane changes nothing.
    pub fn with_lanes(self, lanes: &Arc<Lanes>) -> Self {
        self.split_over(lanes, MIN_LEN_PER_LANE)
    }

    /// [`with_lanes`](Self::with_lanes) with the per-lane row minimum as a parameter.
    fn split_over(mut self, lanes: &Arc<Lanes>, min_len: usize) -> Self {
        let parts = vecops::tree_bands(self.nrows, lanes.count()).len();
        let solves = parts > 1 && self.nrows == self.ncols && self.nrows >= min_len * parts;
        self.lanes = solves.then(|| Arc::clone(lanes));
        self
    }

    /// The format configuration.
    pub fn config(&self) -> &ReFloatConfig {
        &self.config
    }

    /// The block-major structure this encoding shares with its blocking (and from
    /// which a multi-chip accelerator cuts its per-chip block-row bands).
    pub fn layout(&self) -> &Arc<BlockLayout> {
        &self.layout
    }

    /// Whether `other` shares this encoding's block layout — a clone does, and so does
    /// an encode over this one ([`from_csr_over_on`](Self::from_csr_over_on)).
    pub fn shares_layout_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.layout, &other.layout)
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
        accumulate_rows(&self.layout, &self.encoded.decoded, xq, 0..self.nrows, y);
    }

    /// The convert phase of a laned solve's apply, after `p ← r + βp` on every band:
    /// each lane converts the whole segments inside its band of `p` — a helper into its
    /// output band, followed by their bases and its statistics, the caller straight into
    /// the quantized input — and the caller copies the helpers' bands in, then converts
    /// the segments that straddle a band edge.  The bases and statistics are the
    /// one-thread converter's.
    fn convert_bands(&mut self, vectors: &mut LanedVectors, beta: Option<f64>) {
        let (config, n, seg) = (self.config, self.ncols, self.config.block_size());
        let ranges = vectors.ranges().to_vec();
        let wholes: Vec<_> = ranges
            .iter()
            .map(|band| whole_segments(band, n, seg).0)
            .collect();
        let xq = self.quantized_input.buffer(n);
        let (bases, stats) = self.converter.start_parts(n);
        let (last, last_whole) = (&ranges[ranges.len() - 1], &wholes[wholes.len() - 1]);
        let (head, tail) = xq.split_at_mut(last.start);
        let (bases_head, bases_tail) = bases.split_at_mut(last_whole.start);
        let mut local_stats = ConversionStats::default();
        vectors.run(
            move |band, out| {
                band.direction(beta);
                let segments = whole_segments(&band.range, n, seg).0.len();
                out.clear();
                out.resize(band.range.len(), 0.0);
                let mut bases = vec![0; segments];
                let stats = convert_band(&config, n, band, out, &mut bases);
                out.extend(bases.iter().map(|&base| f64::from(base)));
                out.extend([stats.saturated, stats.flushed, stats.nonzero].map(|c| c as f64));
            },
            |band| {
                band.direction(beta);
                local_stats = convert_band(&config, n, band, tail, bases_tail);
            },
            |lane, out| {
                let (band, whole) = (ranges[lane].clone(), wholes[lane].clone());
                let (values, rest) = out.split_at(band.len());
                let (band_bases, counts) = rest.split_at(whole.len());
                head[band].copy_from_slice(values);
                for (base, &got) in bases_head[whole].iter_mut().zip(band_bases) {
                    *base = got as i32;
                }
                stats.add(&ConversionStats {
                    saturated: counts[0] as usize,
                    flushed: counts[1] as usize,
                    nonzero: counts[2] as usize,
                });
            },
        );
        stats.add(&local_stats);
        // The straddling segments: between one band's whole segments and the next's.  The
        // last band ends the vector, so its whole segments end the segments.
        let mut next = 0;
        for whole in &wholes {
            for s in next..whole.start {
                let segment = s * seg..((s + 1) * seg).min(n);
                let raw = xq[segment.clone()].to_vec();
                stats.add(&convert_part(
                    &config,
                    &raw,
                    &mut xq[segment],
                    &mut bases[s..=s],
                ));
            }
            next = next.max(whole.end);
        }
    }
}

/// Converts the whole segments inside `band`'s range of an `n`-vector from its `p`
/// into `out` (the band's length), their bases into `bases`, and copies the rest of
/// `p` — the pieces of segments that straddle its edges — into `out` raw.
fn convert_band(
    config: &ReFloatConfig,
    n: usize,
    band: &Band,
    out: &mut [f64],
    bases: &mut [i32],
) -> ConversionStats {
    let start = band.range.start;
    let (_, whole) = whole_segments(&band.range, n, config.block_size());
    let inner = whole.start - start..whole.end - start;
    out[..inner.start].copy_from_slice(&band.p[..inner.start]);
    out[inner.end..].copy_from_slice(&band.p[inner.end..]);
    convert_part(config, &band.p[inner.clone()], &mut out[inner], bases)
}

/// Encodes `vals`, one per non-zero in `layout`'s row order, for one rounding
/// (`NEAREST`) × underflow (`FTZ`) mode, and returns the bases in block order and the
/// decoded values in row order.  Each block-row band of the row order takes three steps,
/// the first and the last a pass over the band's values and columns:
///
/// 1. **Exponent sums.**  Every value adds its exact biased exponent to its block
///    column's sum (a subnormal's too, so no block-order copy is needed) and counts.
/// 2. **Bases.**  The band's blocks, in table order, take the rounded mean of their sums
///    (Eq. 5, [`rounded_mean`]) — the
///    [`optimal_exponent_base`](crate::block::optimal_exponent_base) of their values —
///    and their block column's window.
/// 3. **Quantize.**  Every value runs [`quantize_bits`] against its block column's
///    window.  An *edge block* — one holding a subnormal, or whose window leaves the
///    normal exponents — has no window and runs [`requantize`] per element instead.
///
/// It runs over the block rows that `rows` (block-row aligned) covers: their bases go to
/// `eb`, their decoded values to `decoded`, back to back.  With a `delta`, a clean block
/// row takes none of the steps: its bases are the predecessor's, and so are its decoded
/// values, copied or left out as [`Delta`] says.
fn encode_bands<const NEAREST: bool, const FTZ: bool>(
    layout: &BlockLayout,
    config: &ReFloatConfig,
    vals: &[f64],
    delta: Option<Delta<'_>>,
    rows: Range<usize>,
    eb: &mut Vec<i32>,
    decoded: &mut [f64],
) {
    let b = layout.b();
    let col_idx = layout.col_idx();
    let (max_offset, fraction) = (config.max_offset(), Fraction::new(config.f));
    let (rounding, underflow) = (config.rounding, config.underflow);
    let block_cols = layout.ncols().div_ceil(1 << b);
    // Per block column of the current band: the exponent sum, and the count of values
    // with an exponent plus 2^32 per subnormal (a block holds at most 2^30 values);
    // zero between bands.
    let mut sums = vec![(0u64, 0u64); block_cols];
    // Per block column of the current band: its block's base and window.
    let mut bases: Vec<(i32, Option<Bounds>)> = vec![(0, None); block_cols];
    // The index of the next block, and the next position in `decoded`.
    let (mut block, mut at) = (layout.blocks_in_rows(0..rows.start), 0);
    let mut blocks = layout.extents_in(rows.clone()).peekable();
    for (brow, band) in layout.block_row_spans(rows) {
        if let Some(delta) = delta.filter(|delta| !delta.dirty[brow]) {
            let first = block;
            while blocks.next_if(|((r, _), _)| *r == brow).is_some() {
                block += 1;
            }
            eb.extend_from_slice(&delta.previous.eb[first..block]);
            if delta.copy_values {
                let out = &mut decoded[at..at + band.len()];
                out.copy_from_slice(&delta.previous.decoded[band.clone()]);
                at += band.len();
            }
            continue;
        }
        let (cols, band_vals) = (&col_idx[band.clone()], &vals[band.clone()]);
        for (&c, &v) in cols.iter().zip(band_vals) {
            let (biased, counted, subnormal) = biased_exponent(v);
            let (sum, count) = &mut sums[(c >> b) as usize];
            *sum = sum.wrapping_add(select(counted, biased as u64));
            *count += counted as u64 | (subnormal as u64) << 32;
        }
        while let Some(((_, bcol), _)) = blocks.next_if(|((r, _), _)| *r == brow) {
            let (sum, count) = std::mem::take(&mut sums[bcol]);
            let (counted, subnormals) = (count as u32 as i64, count >> 32);
            let base = rounded_mean(sum as i64 - BIAS as i64 * counted, counted);
            let bounds = Bounds::around(base, max_offset).filter(|_| subnormals == 0);
            bases[bcol] = (base, bounds);
            eb.push(base);
            block += 1;
        }
        let out = &mut decoded[at..at + band.len()];
        at += band.len();
        for ((&c, &v), out) in cols.iter().zip(band_vals).zip(out) {
            *out = match &bases[(c >> b) as usize] {
                (_, Some(bounds)) => quantize_bits::<NEAREST, FTZ>(v, bounds, &fraction).0,
                (base, None) => requantize(v, *base, config.e, config.f, rounding, underflow),
            };
        }
    }
}

/// [`encode_bands`] over the block rows `rows` covers, the rounding and underflow
/// modes chosen once.
fn encode_rows(
    layout: &BlockLayout,
    config: &ReFloatConfig,
    vals: &[f64],
    delta: Option<Delta<'_>>,
    rows: Range<usize>,
    eb: &mut Vec<i32>,
    decoded: &mut [f64],
) {
    use {RoundingMode::*, UnderflowMode::*};
    let encode = match (config.rounding, config.underflow) {
        (Truncate, Saturate) => encode_bands::<false, false>,
        (Truncate, FlushToZero) => encode_bands::<false, true>,
        (RoundNearest, Saturate) => encode_bands::<true, false>,
        (RoundNearest, FlushToZero) => encode_bands::<true, true>,
    };
    encode(layout, config, vals, delta, rows, eb, decoded);
}

/// `v`'s exact exponent, biased — `12 − leading_zeros` for a subnormal, whose leading
/// one sits that many places below the normal range — and whether it has one (it is
/// finite and not zero) and whether it is subnormal, without a branch.
#[inline(always)]
fn biased_exponent(v: f64) -> (i64, bool, bool) {
    let magnitude = v.to_bits() & (u64::MAX >> 1);
    let field = magnitude >> FRACTION_BITS;
    let counted = magnitude.wrapping_sub(1) < (NON_FINITE << FRACTION_BITS) - 1;
    let subnormal = counted & (field == 0);
    let shift = select(
        subnormal,
        12u64.wrapping_sub(magnitude.leading_zeros() as u64),
    );
    (field.wrapping_add(shift) as i64, counted, subnormal)
}

/// Rows `rows` of `Ã · xq` into `y`, row by row over the decoded values in row order —
/// the order of additions and so the bits of `CsrMatrix::spmv_into`, which are also
/// the bits of summing the block products into `y` block by block.  A row's sum does
/// not depend on the range it is computed in, so a band is bit for bit those rows of
/// the whole product.
///
/// # Panics
/// Panics if `xq.len() != ncols`, `y.len() != rows.len()` or `rows` ends past `nrows`.
fn accumulate_rows(
    layout: &BlockLayout,
    decoded: &[f64],
    xq: &[f64],
    rows: Range<usize>,
    y: &mut [f64],
) {
    assert_eq!(
        xq.len(),
        layout.ncols(),
        "ReFloatMatrix spmv: x length mismatch"
    );
    assert_eq!(y.len(), rows.len(), "ReFloatMatrix spmv: y length mismatch");
    let row_ptr = &layout.row_ptr()[rows.start..=rows.end];
    let col_idx = layout.col_idx();
    for (yr, bounds) in y.iter_mut().zip(row_ptr.windows(2)) {
        let row = bounds[0] as usize..bounds[1] as usize;
        let mut vals = decoded[row.clone()].chunks_exact(2);
        let mut cols = col_idx[row].chunks_exact(2);
        let mut acc = 0.0;
        // Two terms per trip, added one after the other: the sum and its bits stay the
        // CSR loop's, while the speed stops following where the build places the loop
        // (a one-term loop read 32 % apart across placements, this one 4–7 %).
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

impl LinearOperator for ReFloatMatrix {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    /// Converts `x`, then accumulates every row, on the calling thread.
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let (xq, this) = self.quantize_input(x);
        this.accumulate(xq, y);
    }

    /// The lanes of [`with_lanes`](ReFloatMatrix::with_lanes), when a solve pays and
    /// the vector converter is on.
    fn lanes(&self) -> Option<&Arc<Lanes>> {
        self.lanes.as_ref().filter(|_| self.quantize_vectors)
    }

    /// Two lane phases over the solve's bands: `p ← r + βp` and the convert
    /// (`convert_bands`), then each lane accumulates its band's rows from the one
    /// quantized input straight into its `ap` band and returns its partial `pᵀAp`.  A
    /// single band, or an input passed through unconverted, is the plain
    /// [`apply`](LinearOperator::apply) in place ([`apply_gathered`]).
    fn apply_bands(&mut self, vectors: &mut LanedVectors, beta: Option<f64>) -> f64 {
        if !self.quantize_vectors || vectors.ranges().len() == 1 {
            return apply_gathered(self, vectors, beta);
        }
        assert_eq!(
            vectors.len(),
            self.ncols,
            "ReFloatMatrix apply: x length mismatch"
        );
        assert_eq!(
            self.nrows, self.ncols,
            "ReFloatMatrix: a laned solve is square"
        );
        self.convert_bands(vectors, beta);
        let (layout, encoded) = (Arc::clone(&self.layout), Arc::clone(&self.encoded));
        let xq = self.quantized_input.shared();
        vectors.reduce(move |band| {
            accumulate_rows(
                &layout,
                &encoded.decoded,
                &xq,
                band.range.clone(),
                &mut band.ap,
            );
            vecops::dot(&band.p, &band.ap)
        })
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
pub(crate) mod tests {
    use super::*;
    use crate::scalar::{decompose, quantize};
    use crate::vector::tests::{pattern, MODES};
    use crate::vector::ConversionStats;
    use proptest::prelude::*;
    use refloat_matgen::generators;
    use refloat_solvers::{bicgstab, cg, SolverConfig, StopReason};
    use refloat_sparse::vecops;
    use std::collections::BTreeMap;

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

    /// A CSR matrix holding `cells`, keyed and so sorted by `(row, column)`.
    fn csr(nrows: usize, ncols: usize, cells: &BTreeMap<(usize, usize), f64>) -> CsrMatrix {
        let mut row_ptr = vec![0; nrows + 1];
        for &(r, _) in cells.keys() {
            row_ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = cells.keys().map(|&(_, c)| c).collect();
        CsrMatrix::from_raw(
            nrows,
            ncols,
            row_ptr,
            col_idx,
            cells.values().copied().collect(),
        )
        .unwrap()
    }

    /// Asserts that `a`'s encode equals the per-element reference in all four modes at
    /// `(b, e, f)`: the blocking's layout, and per block [`optimal_exponent_base`] over
    /// its block-order values and every value through [`quantize`] and `value`.
    fn assert_encodes_like_the_reference(a: &CsrMatrix, (b, e, f): (u32, u32, u32)) {
        use crate::block::optimal_exponent_base;
        let blocked = BlockedMatrix::from_csr(a, b).unwrap();
        for (rounding, underflow) in MODES {
            let config = ReFloatConfig::new(b, e, f, 3, 8)
                .with_rounding(rounding)
                .with_underflow(underflow);
            let (mut bases, mut bits) = (Vec::new(), Vec::new());
            for block in blocked.blocks() {
                let eb = optimal_exponent_base(block.vals);
                bases.push(eb);
                bits.extend(block.vals.iter().map(|&v| {
                    let q = decompose(v).map(|d| {
                        quantize(d, eb, config.max_offset(), f, rounding, underflow).value(eb)
                    });
                    q.unwrap_or(0.0).to_bits()
                }));
            }
            let context = format!(
                "{}x{}, {config} {rounding:?} {underflow:?}",
                a.nrows(),
                a.ncols()
            );
            for m in [
                ReFloatMatrix::from_csr(a, config),
                ReFloatMatrix::from_blocked(&blocked, config),
            ] {
                assert_eq!(**m.layout(), **blocked.layout(), "{context}");
                assert_eq!(m.bases(), bases, "{context}");
                let got: Vec<u64> = m
                    .decoded_in_block_order()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, bits, "{context}");
            }
        }
    }

    #[test]
    fn the_band_encoder_handles_every_shape() {
        let value = |r: usize, c: usize| (r as f64 + 1.5) * 0.75f64.powi(c as i32 % 9) - 2.0;
        let cells = |nrows: usize, ncols: usize, keep: &dyn Fn(usize, usize) -> bool| {
            let grid = (0..nrows).flat_map(|r| (0..ncols).map(move |c| (r, c)));
            let kept = grid.filter(|&(r, c)| keep(r, c));
            kept.map(|(r, c)| ((r, c), value(r, c)))
                .collect::<BTreeMap<_, _>>()
        };
        // 0×0; rows 3..9 empty; 5 × 37 non-square; 21 rows, a ragged last band at every
        // b here; row 2 spanning every block column of 70.
        let shapes = [
            csr(0, 0, &BTreeMap::new()),
            csr(
                12,
                12,
                &cells(12, 12, &|r, c| !(3..9).contains(&r) && (r + c) % 3 == 0),
            ),
            csr(5, 37, &cells(5, 37, &|r, c| (r * 7 + c) % 4 == 0)),
            csr(21, 21, &cells(21, 21, &|r, c| r.abs_diff(c) <= 2)),
            csr(9, 70, &cells(9, 70, &|r, c| r == 2 || (r + c) % 11 == 0)),
        ];
        for a in &shapes {
            for format in [(1, 3, 8), (2, 2, 4), (3, 11, 52), (5, 0, 0), (7, 3, 3)] {
                assert_encodes_like_the_reference(a, format);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_band_encoder_equals_the_per_element_reference(
            (nrows, ncols) in (0usize..=40, 0usize..=70),
            cells in proptest::collection::vec(
                (0usize..40, 0usize..70, (0u64..=u64::MAX, 0usize..12, 0u32..64, -6i64..=6)),
                0..160,
            ),
            span in proptest::bool::ANY,
            (centre, plain) in (1i64..=2046, proptest::bool::ANY),
            b in 1u32..=7,
            e in 0u32..=11,
            f in 0u32..=52,
        ) {
            let draw = |d| f64::from_bits(pattern(d, centre, plain));
            let mut kept = BTreeMap::new();
            if nrows > 0 && ncols > 0 {
                for &(r, c, d) in &cells {
                    kept.insert((r % nrows, c % ncols), draw(d));
                }
                // One row with an entry in every block column.
                if let (true, Some(&(.., d))) = (span, cells.first()) {
                    for c in (0..ncols).step_by(1 << b) {
                        kept.insert((nrows / 2, c), draw(d));
                    }
                }
            }
            assert_encodes_like_the_reference(&csr(nrows, ncols, &kept), (b, e, f));
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

    /// One apply: output bits, the converter's bases and its statistics.
    fn applied(m: &mut ReFloatMatrix, x: &[f64]) -> (Vec<u64>, Vec<i32>, ConversionStats) {
        let mut y = vec![f64::NAN; m.nrows];
        m.apply(x, &mut y);
        let bits = y.iter().map(|v| v.to_bits()).collect();
        let converter = m.converter();
        let stats = converter.last_stats().clone();
        (bits, converter.last_bases().to_vec(), stats)
    }

    /// One set of lanes per count from 1 to 4, shared by the tests.
    pub(crate) fn lanes(count: usize) -> &'static Arc<Lanes> {
        static LANES: std::sync::OnceLock<Vec<Arc<Lanes>>> = std::sync::OnceLock::new();
        let sets =
            LANES.get_or_init(|| (1..=4).map(|c| Arc::new(Lanes::new(c).unwrap())).collect());
        &sets[count - 1]
    }

    /// A tridiagonal matrix of order `n` with diagonal entries over a few binades,
    /// symmetric positive definite, or negative definite when `sign` is −1.
    fn tridiagonal(n: usize, sign: f64) -> CsrMatrix {
        let mut coo = refloat_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, sign * (2.5 + (i % 5) as f64 * 0.75));
            if i + 1 < n {
                coo.push(i, i + 1, -sign);
                coo.push(i + 1, i, -sign);
            }
        }
        coo.to_csr()
    }

    /// A CG solve's bits: the iterate, the trace, the iterations and the stop, then the
    /// converter's bases and statistics after the last apply.
    type Solved = (
        Vec<u64>,
        Vec<u64>,
        usize,
        StopReason,
        Vec<i32>,
        ConversionStats,
    );

    fn solved(op: &mut ReFloatMatrix, b: &[f64], config: &SolverConfig) -> Solved {
        let r = cg(op, b, config);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let converter = op.converter();
        let (bases, stats) = (
            converter.last_bases().to_vec(),
            converter.last_stats().clone(),
        );
        (
            bits(&r.x),
            bits(&r.trace),
            r.iterations,
            r.stop,
            bases,
            stats,
        )
    }

    #[test]
    fn a_laned_solve_is_the_serial_solve_bitwise() {
        // At b = 4 the halves and quarters of 1000 rows are not whole 16-row segments.
        let mut stops = Vec::new();
        let converged = SolverConfig::relative(1e-6).with_max_iterations(300);
        let capped = SolverConfig::relative(1e-14).with_max_iterations(3);
        for n in [0, 1, 63, 64, 65, 129, 1000] {
            let mut b = refloat_matgen::rhs::krylov_like(n, 3);
            // A subnormal makes its segment an edge segment.
            if let Some(v) = b.get_mut(n / 2) {
                *v = 3e-310;
            }
            for (sign, config) in [(1.0, &converged), (1.0, &capped), (-1.0, &converged)] {
                let a = tridiagonal(n, sign);
                for (rounding, underflow) in MODES {
                    let format = test_config(4)
                        .with_rounding(rounding)
                        .with_underflow(underflow);
                    let serial = ReFloatMatrix::from_csr(&a, format);
                    let want = solved(&mut serial.clone(), &b, config);
                    for count in 1..=4 {
                        let mut laned = serial.clone().split_over(lanes(count), 0);
                        let parts = vecops::tree_bands(n, count).len();
                        assert_eq!(laned.lanes().is_some(), parts > 1);
                        let got = solved(&mut laned, &b, config);
                        let context = format!("n {n}, sign {sign}, {rounding:?} {underflow:?}");
                        assert!(got == want, "{count} lanes, {context}");
                    }
                    stops.push(std::mem::discriminant(&want.3));
                }
            }
        }
        // Every stop was exercised.
        let kinds = [
            StopReason::Converged,
            StopReason::MaxIterations,
            StopReason::Breakdown(String::new()),
        ];
        assert!(kinds
            .iter()
            .all(|kind| stops.contains(&std::mem::discriminant(kind))));

        // 23 · 23 = 529 rows: the last band ends inside a partial block row.
        let ragged = generators::laplacian_2d(23, 23, 0.3).to_csr();
        let scattered = generators::random_spd_graph(1500, 6, 1.4, 1.0, 7).to_csr();
        // Rows 10..170 hold nothing, so whole bands can be empty.
        let mut coo = refloat_sparse::CooMatrix::new(200, 200);
        for i in (0..10).chain(170..200) {
            coo.push(i, i, 2.0 + i as f64);
            coo.push(i, (i * 7) % 200, -0.5);
        }
        let empty_rows = coo.to_csr();
        let no_rows = refloat_sparse::CooMatrix::new(0, 0).to_csr();
        // 3 rows, 2 block rows of b = 1.
        let three_rows = generators::laplacian_2d(3, 1, 0.1).to_csr();
        for (a, b) in [
            (ragged, 4),
            (scattered, 5),
            (empty_rows, 1),
            (no_rows, 2),
            (three_rows, 1),
        ] {
            let serial = ReFloatMatrix::from_csr(&a, test_config(b));
            let rhs = refloat_matgen::rhs::krylov_like(a.nrows(), 5);
            let want = solved(&mut serial.clone(), &rhs, &converged);
            for count in 1..=4 {
                let got = solved(
                    &mut serial.clone().split_over(lanes(count), 0),
                    &rhs,
                    &converged,
                );
                assert!(got == want, "{count} lanes, {} rows", a.nrows());
            }
        }

        // A matrix below the per-lane row minimum solves on the calling thread.
        let small = ReFloatMatrix::from_csr(&tridiagonal(1000, 1.0), test_config(4));
        assert!(small.with_lanes(lanes(2)).lanes().is_none());
        let large = tridiagonal(2 * MIN_LEN_PER_LANE, 1.0);
        let large = ReFloatMatrix::from_csr(&large, test_config(4));
        assert!(large.clone().with_lanes(lanes(2)).lanes().is_some());
        assert!(large.with_lanes(lanes(1)).lanes().is_none());
    }

    #[test]
    fn a_laned_matrix_offers_its_lanes_above_the_minimum_and_its_clones_share_them() {
        let a = tridiagonal(2 * MIN_LEN_PER_LANE, 1.0);
        let serial = ReFloatMatrix::from_csr(&a, test_config(5));
        let lanes = Arc::new(Lanes::new(2).unwrap());
        let laned = serial.clone().with_lanes(&lanes);
        assert!(laned.lanes().is_some());
        let b = refloat_matgen::rhs::krylov_like(a.nrows(), 9);
        let config = SolverConfig::relative(1e-8).with_max_iterations(40);
        let want = solved(&mut serial.clone(), &b, &config);
        // Two clones solve at once on one set of lanes: one gets the helper, the other
        // runs its helper's bands on its own thread.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let (mut op, start, want) = (laned.clone(), &start, &want);
                let (b, config) = (&b, &config);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..5 {
                        assert!(solved(&mut op, b, config) == *want);
                    }
                });
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn a_banded_apply_is_the_serial_apply_bitwise(
            draws in proptest::collection::vec(
                (0u64..=u64::MAX, 0usize..12, 0u32..64, -6i64..=6),
                0..300,
            ),
            (centre, plain) in (1i64..=2046, proptest::bool::ANY),
            (b, ev, fv) in (1u32..=4, 0u32..=11, 0u32..=52),
            (mode, count) in (0usize..4, 1usize..=4),
            (direction, beta) in (proptest::bool::ANY, -2.0f64..2.0),
        ) {
            let beta = direction.then_some(beta);
            let x: Vec<f64> = draws
                .iter()
                .map(|&draw| f64::from_bits(pattern(draw, centre, plain)))
                .collect();
            let (rounding, underflow) = MODES[mode];
            let config = ReFloatConfig::new(b, 3, 8, ev, fv)
                .with_rounding(rounding)
                .with_underflow(underflow);
            let a = tridiagonal(x.len(), 1.0);
            // The laned vectors start with r = p = x, so the direction is x + βx.
            let mut p = x.clone();
            if let Some(beta) = beta {
                vecops::xpby(&x, beta, &mut p);
            }
            let mut serial = ReFloatMatrix::from_csr(&a, config);
            let want = applied(&mut serial, &p);
            let mut banded = serial.clone();
            let mut vectors = LanedVectors::new(lanes(count), &x);
            let p_ap = banded.apply_bands(&mut vectors, beta);
            let quantized = |m: &ReFloatMatrix| {
                m.quantized_input.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            prop_assert_eq!(quantized(&banded), quantized(&serial));
            let converter = banded.converter();
            prop_assert_eq!(converter.last_bases(), &want.1[..]);
            prop_assert_eq!(converter.last_stats(), &want.2);
            let y: Vec<f64> = want.0.iter().map(|&bits| f64::from_bits(bits)).collect();
            prop_assert_eq!(p_ap.to_bits(), vecops::dot(&p, &y).to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn an_encode_over_a_donor_is_from_csr_and_adopts_only_an_equal_structure(
            (nrows, ncols) in (1usize..=40, 1usize..=70),
            draws in proptest::collection::vec((0usize..40, 0usize..70, -4.0f64..4.0), 1..160),
            (b, donor_b) in (1u32..=4, 1u32..=4),
            kind in 0u32..4,
            (pick, count) in (0usize..1_000_000, 1usize..=2),
        ) {
            let mut cells = BTreeMap::new();
            for &(r, c, v) in &draws {
                cells.insert((r % nrows, c % ncols), v);
            }
            let a = Arc::new(csr(nrows, ncols, &cells));
            let scaled: BTreeMap<_, _> =
                cells.iter().map(|(&k, &v)| (k, v * 1.5 + 0.25)).collect();
            // 0: same structure, other values; 1: the same with one trailing empty
            // column; 2: the same row pointers with one entry moved along its row;
            // 3: an unrelated structure.
            let donor = match kind {
                0 => csr(nrows, ncols, &scaled),
                1 => csr(nrows, ncols + 1, &scaled),
                2 => {
                    let (&(r, c), &v) = scaled.iter().nth(pick % scaled.len()).unwrap();
                    let free = (0..ncols).find(|&c| !scaled.contains_key(&(r, c)));
                    let mut moved = scaled.clone();
                    if let Some(to) = free {
                        moved.remove(&(r, c));
                        moved.insert((r, to), v);
                    }
                    csr(nrows, ncols, &moved)
                }
                _ => tridiagonal(nrows, 1.0),
            };
            let same = (donor.nrows(), donor.ncols(), donor.row_ptr(), donor.col_idx())
                == (a.nrows(), a.ncols(), a.row_ptr(), a.col_idx());
            let config = test_config(b);
            let donor = ReFloatMatrix::from_csr(&donor, test_config(donor_b));
            let got = ReFloatMatrix::from_csr_over_on(&a, config, &donor, lanes(count));
            let want = ReFloatMatrix::from_csr(&a, config);
            prop_assert_eq!(got.bases(), want.bases());
            crate::incremental::assert_bitwise_identical(&got, &want);
            prop_assert_eq!(got.shares_layout_with(&donor), same && b == donor_b);
            match kind {
                0 => prop_assert!(same),
                1 => prop_assert!(!same),
                _ => {}
            }
        }
    }

    #[test]
    fn a_laned_encode_and_reencode_are_the_serial_ones_bitwise() {
        let mass = generators::mass_matrix_3d(13, 13, 13, 1e-12, 0.8, 5).to_csr();
        let graph = generators::random_spd_graph(6000, 6, 1.4, 1.0, 7).to_csr();
        for mut a in [mass, graph] {
            assert!(a.nnz() >= 4 * MIN_NNZ_PER_LANE);
            // Subnormals make edge blocks, and huge values windows past the normal range.
            let nnz = a.nnz();
            for k in (0..nnz).step_by(997) {
                a.values_mut()[k] = 3e-310;
            }
            for k in (5..nnz).step_by(1499) {
                a.values_mut()[k] = -1e300;
            }
            let same = refloat_matgen::transient::perturb_symmetric_pairs(&a, 0.1, 0.3, 17);
            let mut changed = refloat_sparse::CooMatrix::new(a.nrows(), a.ncols());
            a.iter()
                .filter(|&(r, c, _)| (r + c) % 101 != 0)
                .for_each(|(r, c, v)| changed.push(r, c, v));
            let nexts = [Arc::new(same), Arc::new(changed.to_csr())];
            let shared = Arc::new(a.clone());
            for (rounding, underflow) in MODES {
                let config = ReFloatConfig::new(5, 3, 8, 3, 8)
                    .with_rounding(rounding)
                    .with_underflow(underflow);
                let serial = ReFloatMatrix::from_csr(&a, config);
                for count in 2..=4 {
                    let laned = ReFloatMatrix::from_csr_on(&shared, config, lanes(count));
                    assert_eq!(laned.bases(), serial.bases());
                    crate::incremental::assert_bitwise_identical(&laned, &serial);
                    for next in &nexts {
                        let want = crate::incremental::reencode_incremental(&serial, &a, next);
                        let got = crate::incremental::reencode_incremental_on(
                            &serial,
                            &a,
                            next,
                            lanes(count),
                        );
                        assert_eq!(got.stats, want.stats);
                        assert_eq!(got.matrix.bases(), want.matrix.bases());
                        crate::incremental::assert_bitwise_identical(&got.matrix, &want.matrix);
                        let over =
                            ReFloatMatrix::from_csr_over_on(next, config, &serial, lanes(count));
                        crate::incremental::assert_bitwise_identical(&over, &want.matrix);
                        let adopted = want.matrix.shares_layout_with(&serial);
                        assert_eq!(over.shares_layout_with(&serial), adopted);
                    }
                }
            }
        }
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
