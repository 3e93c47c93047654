//! The ReFloat data format and its quantized operators — the primary contribution of
//! *ReFloat: Low-Cost Floating-Point Processing in ReRAM for Accelerating Iterative
//! Linear Solvers* (SC 2023).
//!
//! # The format
//!
//! A `ReFloat(b, e, f)(ev, fv)` configuration (see [`ReFloatConfig`]) partitions a sparse
//! matrix into `2^b × 2^b` blocks.  Every block stores a single *exponent base* `eb`
//! (chosen by the closed-form optimum of Eq. 5, the rounded mean of the element
//! exponents) and represents each element with
//!
//! * 1 sign bit,
//! * an `e`-bit signed exponent *offset* from `eb`, saturating at
//!   `[−2^(e−1)+1, 2^(e−1)−1]` (Eq. 4–5 and §III.D), and
//! * the leading `f` bits of the IEEE-754 fraction (§IV.B, Fig. 5).
//!
//! Vector segments of length `2^b` are re-encoded the same way before every SpMV with
//! their own base `ebv` and `(ev, fv)` bits — this is the "vector converter" of
//! Fig. 6(d) and the part the Feinberg baseline lacks, which is what makes that baseline
//! diverge on matrices whose values sit far from 1.0.
//!
//! # What lives where
//!
//! * [`scalar`] — the one scalar quantiser and the definition of the conversion, in
//!   integer bit arithmetic: the exponent read from the bit pattern, fraction bits
//!   dropped by a mask, the value assembled with `from_bits`; beside it its branch-free
//!   bit body, the one quantize step of the vector converter and the matrix encoder,
//!   which keep the per-element quantiser for subnormals and windows past the normal
//!   exponents,
//! * [`block`] — per-block base selection (Eq. 5) and [`ReFloatBlock`], the bit-level
//!   record of *one* block (sign, offset and fraction code per element, wide enough for
//!   every accepted `e ≤ 11`, `f ≤ 52`), encoded on demand by the crossbar engine, the
//!   format ablation and the property tests,
//! * [`vector`] — the vector converter ([`vector::VectorConverter`]): the segment form of
//!   the scalar quantiser, two passes per segment over the raw bit patterns (an exponent
//!   sum for `ebv`, then the branch-free quantize body specialised per rounding ×
//!   underflow mode).  A segment holding a subnormal, or whose window leaves the normal
//!   exponent range, runs the per-element quantiser instead; a property test holds the
//!   two equal in outputs, bases and statistics,
//! * [`matrix`] — [`ReFloatMatrix`], the quantized operator that plugs into the solvers.
//!   The layout (block table, local row and column indices, and the source CSR's row
//!   order beside them) is `refloat-sparse`'s `BlockLayout`, defined there once, built
//!   from a CSR's structure without its values, and *shared* with a `BlockedMatrix` the
//!   encoding came from, and so is the walk that maps row order to block order.  This
//!   crate owns only what the encoder adds — one exponent base `eb` per block, in block
//!   order, and one decoded value per non-zero, stored once, in row order, where the
//!   SpMV reads it with the CSR loop.  One encoder serves every encode: per block-row
//!   band of the row order, an exponent-sum pass, the band's bases, and a quantize pass
//!   through the converter's bit body against each value's block-column base; a
//!   property test holds it equal to the per-block, per-element reference in every
//!   mode.  Block readers take an explicit
//!   block-order copy and walk [`matrix::BlockView`]s over it; no matrix keeps
//!   bit-level fields.  An apply is one row loop on the calling thread.  With lanes
//!   attached ([`ReFloatMatrix::with_lanes`], which the runtime does for a worker with
//!   spare cores) a CG solve of at least [`refloat_sparse::vecops::MIN_LEN_PER_LANE`]
//!   rows per lane keeps its vectors on the lanes, converting and accumulating band by
//!   band, and [`ReFloatMatrix::from_csr_on`] splits an encode of at least
//!   [`matrix::MIN_NNZ_PER_LANE`] non-zeros per lane into nnz-balanced bands of block
//!   rows.  Each row is still one sum in column order and each reduction one pairwise
//!   tree, so the bits do not depend on the lanes,
//! * [`incremental`] — [`reencode_incremental`] (and its laned form): a from-scratch
//!   encode's result plus a diff.  A sequence step with the predecessor's sparsity
//!   structure adopts its layout and never re-blocks; a value diff per block row finds
//!   the rows that changed, only those are quantized and the rest copied, and the
//!   changed cells per block, with the two steps' bases, decide what a chip must
//!   rewrite,
//! * [`resilience`] — fault-aware encoding support: spare row/column remapping around
//!   stuck cells and per-block ABFT checksum rows for SpMV corruption detection,
//! * [`feinberg`] — the exponent-truncation baseline of Feinberg et al. [ISCA'18] as
//!   described in §III.C of the paper (correct matrix, fixed-window vectors),
//! * [`truncate`] — the plain fraction/exponent truncation formats of the Table I study,
//! * [`memory`] — the storage model behind Fig. 4 and Table VIII,
//! * [`locality`] — the exponent-locality analysis behind Fig. 3(d),
//! * [`formats`] — the classical formats of Table III expressed as ReFloat instances,
//! * [`escalation`] — precision-escalation ladders ([`EscalationPolicy`]) for the
//!   mixed-precision refinement loop of `refloat_solvers::refinement`,
//! * [`autotune`] — cost-model-driven per-matrix format selection: scores candidate
//!   `(e, f)(ev, fv)` points with the exponent-locality error model against the
//!   Eq. 2/3 hardware cost and returns the cheapest format predicted to converge
//!   ([`FormatPlan`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autotune;
pub mod block;
pub mod escalation;
pub mod feinberg;
pub mod format;
pub mod formats;
pub mod incremental;
pub mod locality;
pub mod matrix;
pub mod memory;
pub mod resilience;
pub mod scalar;
pub mod truncate;
pub mod vector;

pub use autotune::{AutotuneConfig, FormatCandidate, FormatDecision, FormatPlan};
pub use block::ReFloatBlock;
pub use escalation::EscalationPolicy;
pub use format::{ReFloatConfig, RoundingMode, UnderflowMode};
pub use incremental::{
    assert_bitwise_identical, reencode_incremental, IncrementalEncode, IncrementalStats,
};
pub use matrix::ReFloatMatrix;
pub use resilience::{AbftChecksum, RemapPlan, SpareBudget, StuckCell};
