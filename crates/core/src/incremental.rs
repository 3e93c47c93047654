//! Incremental re-encoding for sequences of closely-related matrices.
//!
//! Transient workloads submit a chain of matrices where step *N* differs from step
//! *N−1* in a small fraction of entries (time-step drift, coefficient jitter).  A
//! from-scratch [`ReFloatMatrix::from_csr`] re-quantizes — and, on the accelerator,
//! re-programs — every crossbar cluster on every step, even though most blocks are
//! bitwise unchanged.  [`reencode_incremental`] instead diffs the new matrix against
//! the previous step block by block:
//!
//! * **clean** blocks (identical structure and bitwise-identical values) reuse the
//!   previous encoding outright — zero quantization work, zero reprogramming;
//! * **dirty** blocks are re-encoded; when the fresh Eq. 5 exponent base equals the
//!   previous one, the changed values stayed inside the block's offset window and only
//!   the *changed* crossbar cells need reprogramming (a partial write);
//! * blocks whose base moved — or that are new — shift every element's offset/code,
//!   so the whole cluster is rewritten.
//!
//! The merge-walk over the two steps' blocks classifies blocks and charges cells; what
//! it carries over is only a clean block's exponent base, which is a pure function of
//! its (bitwise-unchanged) values and the format.  The values are then quantized by the
//! same row-order pass a from-scratch encode runs (`ReFloatMatrix::with_bases`), so the
//! incremental result equals a from-scratch encode of the new matrix bit for bit by
//! construction and copies no predecessor values.  Tests enforce this across
//! perturbation magnitudes up to the all-blocks-dirty worst case.
//!
//! The result adopts the layout of the *new* step's blocking (the layout is
//! `refloat-sparse`'s; see [`crate::matrix`]) — no index is copied.

use crate::block::optimal_exponent_base;
use crate::matrix::ReFloatMatrix;
use refloat_sparse::{blocked::Block, BlockedMatrix, CsrMatrix};

/// What the delta re-encode touched, in blocks and crossbar cells.
///
/// "Cells" are encoded non-zeros — the crossbar devices that hold a value.  The
/// reprogramming charge is what a chip would actually rewrite: nothing for reused
/// blocks, the changed cells for in-window partial writes, the whole block for
/// base-shifted or new blocks, plus clearing writes for blocks that vanished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Non-empty blocks in the new matrix.
    pub blocks_total: usize,
    /// Blocks bitwise-unchanged from the previous step (base carried over, no write).
    pub blocks_reused: usize,
    /// Dirty blocks whose exponent base survived: only changed cells rewritten.
    pub blocks_partial: usize,
    /// Dirty blocks whose base moved, plus blocks new in this step: full rewrite.
    pub blocks_full: usize,
    /// Blocks present in the previous step but absent from the new matrix (their
    /// cells are cleared and charged to [`cells_reprogrammed`](Self::cells_reprogrammed)).
    pub blocks_vanished: usize,
    /// Encoded non-zeros in the new matrix.
    pub cells_total: u64,
    /// Crossbar cells actually rewritten (changed + fully-rewritten + cleared).
    pub cells_reprogrammed: u64,
}

impl IncrementalStats {
    /// Blocks that went through the quantizer again (partial + full).
    pub fn blocks_reencoded(&self) -> usize {
        self.blocks_partial + self.blocks_full
    }

    /// Fraction of the new matrix's cells that were rewritten.  Can exceed 1 only in
    /// the degenerate case where clearing vanished blocks dominates a shrinking matrix.
    pub fn reprogram_fraction(&self) -> f64 {
        if self.cells_total == 0 {
            0.0
        } else {
            self.cells_reprogrammed as f64 / self.cells_total as f64
        }
    }

    /// Fraction of blocks reused verbatim.
    pub fn reuse_fraction(&self) -> f64 {
        if self.blocks_total == 0 {
            0.0
        } else {
            self.blocks_reused as f64 / self.blocks_total as f64
        }
    }
}

/// Result of [`reencode_incremental`]: the encoded matrix plus the delta accounting.
#[derive(Debug, Clone)]
pub struct IncrementalEncode {
    /// The new encoded matrix — bitwise identical to `ReFloatMatrix::from_csr(a, …)`.
    pub matrix: ReFloatMatrix,
    /// What the delta touched.
    pub stats: IncrementalStats,
}

/// `true` when two raw blocks hold the same entries at the same positions with
/// bitwise-identical values (`f64::to_bits`, so `-0.0 ≠ 0.0` and NaNs never match —
/// strictly conservative: a mismatch only ever costs a redundant re-encode).
fn blocks_bitwise_equal(a: &Block, b: &Block) -> bool {
    a.rows == b.rows
        && a.cols == b.cols
        && a.vals.len() == b.vals.len()
        && a.vals
            .iter()
            .zip(b.vals.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Counts entries that differ between two sorted blocks (changed values, plus entries
/// present in only one of them).  Both blocks come from `BlockedMatrix::from_csr`, so
/// their entries are sorted by `(ii, jj)`.
fn changed_cells(prev: &Block, next: &Block) -> u64 {
    let mut i = 0;
    let mut j = 0;
    let mut changed = 0u64;
    while i < prev.vals.len() && j < next.vals.len() {
        let pk = (prev.rows[i], prev.cols[i]);
        let nk = (next.rows[j], next.cols[j]);
        match pk.cmp(&nk) {
            std::cmp::Ordering::Less => {
                changed += 1; // cleared cell
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                changed += 1; // newly written cell
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if prev.vals[i].to_bits() != next.vals[j].to_bits() {
                    changed += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    changed + (prev.vals.len() - i) as u64 + (next.vals.len() - j) as u64
}

/// Re-encodes `a` by diffing against the previous step's encoding.
///
/// `previous` is the encoded matrix of the previous step and `previous_source` the raw
/// CSR it was encoded from (the encoding stores only quantized values, so the raw
/// predecessor is needed to detect bitwise-clean blocks).  The result is **bitwise
/// identical** to `ReFloatMatrix::from_csr(a, *previous.config())`; the stats report
/// how little work that took.
///
/// # Panics
/// Panics if the three matrices disagree on dimensions, or if `previous_source` does
/// not re-encode to `previous`'s block set (i.e. it is not actually the predecessor's
/// source).
pub fn reencode_incremental(
    previous: &ReFloatMatrix,
    previous_source: &CsrMatrix,
    a: &CsrMatrix,
) -> IncrementalEncode {
    let config = *previous.config();
    assert_eq!(
        (previous_source.nrows(), previous_source.ncols()),
        (a.nrows(), a.ncols()),
        "reencode_incremental: matrix dimensions changed between steps"
    );

    let prev_blocked = BlockedMatrix::from_csr(previous_source, config.b)
        .expect("valid block exponent from a validated ReFloatConfig");
    let next_blocked = BlockedMatrix::from_csr(a, config.b)
        .expect("valid block exponent from a validated ReFloatConfig");
    assert_eq!(
        prev_blocked.num_blocks(),
        previous.num_blocks(),
        "reencode_incremental: previous_source is not the source of the previous encoding"
    );

    let mut stats = IncrementalStats {
        blocks_total: next_blocked.num_blocks(),
        ..IncrementalStats::default()
    };
    let mut eb = Vec::with_capacity(next_blocked.num_blocks());

    // Both block lists are sorted by (block_row, block_col): merge-walk them, the
    // previous step's raw blocks paired with their bases.
    let key = |blk: &Block| (blk.block_row, blk.block_col);
    let mut prev_blocks = prev_blocked.blocks().zip(previous.bases()).peekable();
    for next in next_blocked.blocks() {
        // A block that existed last step has no entries any more: clear its cells.
        while let Some((gone, _)) = prev_blocks.next_if(|(prev, _)| key(prev) < key(&next)) {
            stats.blocks_vanished += 1;
            stats.cells_reprogrammed += gone.nnz() as u64;
        }
        stats.cells_total += next.nnz() as u64;
        match prev_blocks.next_if(|(prev, _)| key(prev) == key(&next)) {
            Some((prev_raw, &prev_eb)) if blocks_bitwise_equal(&prev_raw, &next) => {
                // Clean: the base is a pure function of the values, so the previous
                // block's is this block's from-scratch base.
                stats.blocks_reused += 1;
                eb.push(prev_eb);
            }
            dirty_or_new => {
                let base = optimal_exponent_base(next.vals);
                eb.push(base);
                match dirty_or_new {
                    Some((prev_raw, &prev_eb)) if base == prev_eb => {
                        // Values moved but stayed inside the block's offset window:
                        // only the changed cells need new device writes.
                        stats.blocks_partial += 1;
                        stats.cells_reprogrammed += changed_cells(&prev_raw, &next);
                    }
                    _ => {
                        stats.blocks_full += 1;
                        stats.cells_reprogrammed += next.nnz() as u64;
                    }
                }
            }
        }
    }
    for (gone, _) in prev_blocks {
        stats.blocks_vanished += 1;
        stats.cells_reprogrammed += gone.nnz() as u64;
    }

    IncrementalEncode {
        matrix: ReFloatMatrix::with_bases(&next_blocked, config, eb),
        stats,
    }
}

/// Asserts that two encoded matrices are bitwise identical, block for block — the
/// incremental-encode guarantee, exposed so benches and integration tests can check it
/// on live runtime objects.
///
/// # Panics
/// Panics with a descriptive message on the first differing block.
pub fn assert_bitwise_identical(incremental: &ReFloatMatrix, scratch: &ReFloatMatrix) {
    assert_eq!(
        incremental.num_blocks(),
        scratch.num_blocks(),
        "encodings disagree on block count"
    );
    let (inc_decoded, full_decoded) = (
        incremental.decoded_in_block_order(),
        scratch.decoded_in_block_order(),
    );
    for (inc, full) in incremental
        .blocks(&inc_decoded)
        .zip(scratch.blocks(&full_decoded))
    {
        assert_eq!(
            (inc.block_row, inc.block_col),
            (full.block_row, full.block_col),
            "encodings disagree on block placement"
        );
        let same = inc.eb == full.eb
            && inc.rows == full.rows
            && inc.cols == full.cols
            && inc.decoded.len() == full.decoded.len()
            && (inc.decoded.iter().zip(full.decoded)).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "block ({}, {}) differs between incremental and from-scratch encode",
            inc.block_row, inc.block_col
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ReFloatConfig;
    use refloat_matgen::fem::poisson_2d;
    use refloat_matgen::transient::{perturb_symmetric_pairs, TransientChain, TransientSpec};
    use std::sync::Arc;

    fn config() -> ReFloatConfig {
        // Small blocks so the test matrices span many blocks; a wide fraction keeps
        // the quantized operators close to the raw values.
        ReFloatConfig::new(3, 3, 13, 3, 13)
    }

    #[test]
    fn identical_matrix_reuses_every_block_and_reprograms_nothing() {
        let a = poisson_2d(12, 10, 0.2, 3).to_csr();
        let previous = ReFloatMatrix::from_csr(&a, config());
        let inc = reencode_incremental(&previous, &a, &a);
        assert_eq!(inc.stats.blocks_reused, inc.stats.blocks_total);
        assert_eq!(inc.stats.blocks_reencoded(), 0);
        assert_eq!(inc.stats.cells_reprogrammed, 0);
        assert_eq!(inc.stats.reprogram_fraction(), 0.0);
        assert_bitwise_identical(&inc.matrix, &ReFloatMatrix::from_csr(&a, config()));
    }

    #[test]
    fn incremental_encode_is_bitwise_identical_across_perturbation_magnitudes() {
        // Property sweep: from barely-touched to all-blocks-dirty, the incremental
        // encode must equal the from-scratch encode bit for bit.
        let base = poisson_2d(14, 12, 0.3, 9).to_csr();
        let previous = ReFloatMatrix::from_csr(&base, config());
        for (sigma, fraction, seed) in [
            (1e-6, 0.01, 1u64),
            (0.01, 0.1, 2),
            (0.1, 0.5, 3),
            (0.5, 1.0, 4), // every entry perturbed: the all-dirty worst case
            (4.0, 1.0, 5), // violent magnitude swings force base changes
        ] {
            let next = perturb_symmetric_pairs(&base, sigma, fraction, seed);
            let inc = reencode_incremental(&previous, &base, &next);
            let scratch = ReFloatMatrix::from_csr(&next, config());
            assert_bitwise_identical(&inc.matrix, &scratch);
            assert_eq!(
                inc.stats.blocks_total,
                inc.stats.blocks_reused + inc.stats.blocks_reencoded()
            );
            assert_eq!(inc.stats.cells_total, scratch.nnz() as u64);
            assert!(inc.stats.cells_reprogrammed <= inc.stats.cells_total);
        }
    }

    #[test]
    fn a_changed_structure_yields_the_new_steps_layout_not_the_predecessors() {
        // Block (0, 1) and its mirror lose every entry; blocks (0, 14) and (14, 0),
        // empty before, gain one each; everything else is bitwise unchanged.
        let base = poisson_2d(12, 10, 0.2, 3).to_csr();
        let n = base.nrows();
        let mut next = refloat_sparse::CooMatrix::new(n, n);
        for (r, c, v) in base.iter() {
            if !matches!((r >> 3, c >> 3), (0, 1) | (1, 0)) {
                next.push(r, c, v);
            }
        }
        next.push_sym(0, n - 1, -0.125);
        let next = next.to_csr();

        let previous = ReFloatMatrix::from_csr(&base, config());
        let inc = reencode_incremental(&previous, &base, &next);
        assert_bitwise_identical(&inc.matrix, &ReFloatMatrix::from_csr(&next, config()));
        let next_blocked = BlockedMatrix::from_csr(&next, config().b).unwrap();
        assert_eq!(inc.matrix.layout(), next_blocked.layout());
        assert!(!Arc::ptr_eq(inc.matrix.layout(), previous.layout()));
        assert_eq!((inc.stats.blocks_vanished, inc.stats.blocks_full), (2, 2));
        assert_eq!(inc.stats.blocks_reused, inc.stats.blocks_total - 2);
    }

    #[test]
    fn all_dirty_worst_case_reuses_nothing() {
        let base = poisson_2d(10, 10, 0.2, 5).to_csr();
        let previous = ReFloatMatrix::from_csr(&base, config());
        let next = perturb_symmetric_pairs(&base, 0.3, 1.0, 7);
        let inc = reencode_incremental(&previous, &base, &next);
        assert_eq!(inc.stats.blocks_reused, 0);
        assert_eq!(inc.stats.blocks_reencoded(), inc.stats.blocks_total);
        assert_bitwise_identical(&inc.matrix, &ReFloatMatrix::from_csr(&next, config()));
    }

    #[test]
    fn local_drift_reuses_most_blocks_and_charges_only_touched_cells() {
        let base = poisson_2d(16, 14, 0.2, 11);
        let spec = TransientSpec::default()
            .with_steps(3)
            .with_seed(13)
            .with_drift(0.05, 0.15);
        let mut chain = TransientChain::new(base, spec);
        let step0 = chain.next().unwrap();
        let step1 = chain.next().unwrap();
        let previous = ReFloatMatrix::from_csr(&step0.matrix, config());
        let inc = reencode_incremental(&previous, &step0.matrix, &step1.matrix);
        assert_bitwise_identical(
            &inc.matrix,
            &ReFloatMatrix::from_csr(&step1.matrix, config()),
        );
        assert!(
            inc.stats.reuse_fraction() > 0.5,
            "local drift should leave most blocks clean: {:?}",
            inc.stats
        );
        assert!(
            inc.stats.reprogram_fraction() < 0.5,
            "local drift should rewrite a minority of cells: {:?}",
            inc.stats
        );
    }

    #[test]
    fn chained_incremental_encodes_stay_identical_over_a_transient_run() {
        let base = poisson_2d(12, 12, 0.2, 21);
        let spec = TransientSpec::default()
            .with_steps(6)
            .with_seed(31)
            .with_drift(0.04, 0.2)
            .with_mass(0.5, 0.1);
        let mut previous: Option<(CsrMatrix, ReFloatMatrix)> = None;
        for step in TransientChain::new(base, spec) {
            let scratch = ReFloatMatrix::from_csr(&step.matrix, config());
            if let Some((prev_src, prev_enc)) = previous.take() {
                let inc = reencode_incremental(&prev_enc, &prev_src, &step.matrix);
                assert_bitwise_identical(&inc.matrix, &scratch);
                previous = Some((step.matrix.clone(), inc.matrix));
            } else {
                previous = Some((step.matrix.clone(), scratch));
            }
        }
    }
}
