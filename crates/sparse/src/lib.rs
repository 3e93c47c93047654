//! Sparse-matrix substrate for the ReFloat reproduction.
//!
//! The ReFloat accelerator (Song et al., SC'23) operates on large sparse matrices that
//! are partitioned into `2^b × 2^b` blocks, one block per ReRAM crossbar cluster.  This
//! crate provides everything the rest of the workspace needs to stand on:
//!
//! * [`CooMatrix`] — coordinate (triplet) storage, the natural construction and
//!   interchange format (also what Matrix Market files decode to),
//! * [`CsrMatrix`] — compressed sparse row storage with the sparse-matrix/dense-vector
//!   product (SpMV), the reference FP64 operator,
//! * [`BlockedMatrix`] — the matrix partitioned into square `2^b × 2^b` blocks stored in
//!   the *block-major* layout of Fig. 7 of the paper, which is the granularity at which
//!   ReFloat quantizes values and at which the accelerator maps work onto crossbars.
//!   This crate owns that layout: [`BlockLayout`] (the block table over the source
//!   CSR's row order — the matrix's own shared `u32` structure, not a copy — and
//!   nothing per non-zero) is its one definition, [`TableBuilder`] the one walk that
//!   finds its blocks, and its `walk_row_order` the one definition of how row order and
//!   block order correspond.  A `BlockedMatrix` adds the local indices and the `f64`
//!   values in block order; `refloat-core`'s `ReFloatMatrix` shares the same layout and
//!   adds the exponent bases, in block order, and the decoded values, in the order
//!   [`order`] decides per structure,
//! * [`order`] — where an encoding keeps its values, in row order or, for a structure
//!   on few diagonals, by diagonal within each block row, and the two SpMV kernels
//!   over them: the CSR row loop and the diagonal loop, the same bits for a finite
//!   input,
//! * [`mm`] — a Matrix Market (`.mtx`) reader/writer so the real SuiteSparse inputs can
//!   be used when available,
//! * [`vecops`] — the dense vector kernels (dot, axpy, norms, …) used by the Krylov
//!   solvers,
//! * [`parallel`] — cutting an index space into contiguous, evenly or weight-balanced
//!   chunks, one per worker or chip,
//! * [`shard`] — block-row-aligned, nnz-balanced sharding of a matrix across multiple
//!   accelerator chips: a shard is a row range of the one blocking, holding whole
//!   blocks.
//!
//! All numeric storage is `f64`; reduced-precision behaviour is layered on top by the
//! `refloat-core` crate, never baked into the substrate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blocked;
pub mod coo;
pub mod csr;
pub mod error;
pub mod mm;
pub mod order;
pub mod parallel;
pub mod shard;
pub mod stats;
pub mod vecops;

pub use blocked::{Block, BlockLayout, BlockedMatrix, TableBuilder};
pub use coo::CooMatrix;
pub use csr::{CsrMatrix, WeakStructure};
pub use error::SparseError;
pub use order::{Diagonals, ValueOrder};
pub use shard::block_row_shards;
pub use stats::MatrixStats;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
