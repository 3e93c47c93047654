//! Incremental re-encoding for sequences of closely-related matrices.
//!
//! Transient workloads submit a chain of matrices where step *N* differs from step
//! *N−1* in a small fraction of entries (time-step drift, coefficient jitter).  A
//! from-scratch [`ReFloatMatrix::from_csr`] would have the accelerator re-program every
//! crossbar cluster on every step, even though most blocks are bitwise unchanged.
//! [`reencode_incremental`] is that encode plus a diff against the previous step, which
//! charges only what changed:
//!
//! * **clean** blocks (identical structure and bitwise-identical values): no write;
//! * **dirty** blocks whose fresh Eq. 5 exponent base equals the previous one kept their
//!   values inside the block's offset window: only the *changed* cells are rewritten;
//! * blocks whose base moved — or that are new — shift every element's offset/code,
//!   so the whole cluster is rewritten.
//!
//! Only the layout is carried over, so the result equals a from-scratch encode bit for
//! bit by construction.  The layout depends only on the sparsity structure: when the
//! new matrix's row pointers and columns are the previous layout's (every FEM chain's
//! case), the encode adopts it and never re-blocks, and a row-order walk counts each
//! block's changed cells — a zip of the two steps' value runs, since a cell keeps its
//! row-order index.  Otherwise the new matrix is blocked once and a per-row
//! merge of the two steps' sorted columns charges each difference to its block.

use std::sync::Arc;

use crate::matrix::ReFloatMatrix;
use refloat_sparse::blocked::BlockLayout;
use refloat_sparse::parallel::Lanes;
use refloat_sparse::CsrMatrix;

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
    /// Blocks bitwise-unchanged from the previous step (same base, no write).
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
    /// Blocks whose encoding changed, so a chip rewrites some of their cells (partial +
    /// full).
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

/// Re-encodes `a` by diffing against the previous step's encoding.
///
/// `previous` is the encoded matrix of the previous step and `previous_source` the raw
/// CSR it was encoded from (the encoding stores only quantized values, so the raw
/// predecessor is needed to find the changed cells).  The result is **bitwise
/// identical** to `ReFloatMatrix::from_csr(a, *previous.config())`; the stats report
/// how little of it a chip would have to rewrite.
///
/// # Panics
/// Panics if the three matrices disagree on dimensions, or if `previous_source` is not
/// actually the predecessor's source: its non-zero count differs from `previous`'s (in
/// debug builds, its structure differs from `previous`'s layout).
pub fn reencode_incremental(
    previous: &ReFloatMatrix,
    previous_source: &CsrMatrix,
    a: &CsrMatrix,
) -> IncrementalEncode {
    let config = *previous.config();
    reencode(previous, previous_source, a, |adopted| match adopted {
        Some(layout) => ReFloatMatrix::encoded(layout, config, a.values()),
        None => ReFloatMatrix::from_csr(a, config),
    })
}

/// [`reencode_incremental`] with the encode split over `lanes`, as
/// [`ReFloatMatrix::from_csr_on`] splits it: the same matrix and stats, bit for bit.
pub fn reencode_incremental_on(
    previous: &ReFloatMatrix,
    previous_source: &CsrMatrix,
    a: &Arc<CsrMatrix>,
    lanes: &Lanes,
) -> IncrementalEncode {
    let config = *previous.config();
    reencode(previous, previous_source, a, |adopted| match adopted {
        Some(layout) => ReFloatMatrix::encoded_on(layout, config, a, lanes),
        None => ReFloatMatrix::from_csr_on(a, config, lanes),
    })
}

/// The re-encode of `a` against `previous`, with `encode` making the new matrix: over
/// the adopted layout when `a`'s structure is the predecessor's, else from scratch.
fn reencode(
    previous: &ReFloatMatrix,
    previous_source: &CsrMatrix,
    a: &CsrMatrix,
    encode: impl FnOnce(Option<&Arc<BlockLayout>>) -> ReFloatMatrix,
) -> IncrementalEncode {
    let config = *previous.config();
    assert_eq!(
        (previous_source.nrows(), previous_source.ncols()),
        (a.nrows(), a.ncols()),
        "reencode_incremental: matrix dimensions changed between steps"
    );
    let layout = previous.layout();
    let not_the_source =
        "reencode_incremental: previous_source is not the source of the previous encoding";
    assert_eq!(previous_source.nnz(), previous.nnz(), "{not_the_source}");
    debug_assert!(same_structure(layout, previous_source), "{not_the_source}");

    let (matrix, changed) = if same_structure(layout, a) {
        // The encode reads the values over the adopted layout; one row-order walk counts
        // each block's changed cells: a cell keeps its row-order index, so the two
        // steps' value runs zip.
        let (new, old) = (a.values(), previous_source.values());
        let mut changed = vec![0u64; layout.num_blocks()];
        layout.walk_row_order(|run, block, _| {
            let pairs = new[run.clone()].iter().zip(&old[run]);
            changed[block] += pairs.filter(|(x, y)| x.to_bits() != y.to_bits()).count() as u64;
        });
        (encode(Some(layout)), changed)
    } else {
        let matrix = encode(None);
        let changed = merged_changes(previous_source, a, matrix.layout(), config.b);
        (matrix, changed)
    };
    let stats = classify(previous, &matrix, &changed);
    IncrementalEncode { matrix, stats }
}

/// Whether `a`'s structure — dimensions, row pointers and columns — is `layout`'s row
/// order, so that `layout` is `a`'s blocking too.
pub(crate) fn same_structure(layout: &BlockLayout, a: &CsrMatrix) -> bool {
    let same = |narrow: &[u32], wide: &[usize]| {
        narrow.iter().map(|&i| i as usize).eq(wide.iter().copied())
    };
    (layout.nrows(), layout.ncols()) == (a.nrows(), a.ncols())
        && same(layout.row_ptr(), a.row_ptr())
        && same(layout.col_idx(), a.col_idx())
}

/// Changed cells per block of `layout` (`next`'s blocking at exponent `b`) between two
/// matrices of different structure: a per-row merge of their sorted columns, each
/// difference — a changed value, a cleared cell, a new one — charged to its block.
/// Differences in blocks `next` lacks are dropped: a vanished block is charged whole.
fn merged_changes(prev: &CsrMatrix, next: &CsrMatrix, layout: &BlockLayout, b: u32) -> Vec<u64> {
    let keys: Vec<(usize, usize)> = layout.extents().map(|(key, _)| key).collect();
    let mut changed = vec![0; keys.len()];
    for r in 0..next.nrows() {
        let ((prev_cols, prev_vals), (next_cols, next_vals)) = (prev.row(r), next.row(r));
        let (mut i, mut j) = (0, 0);
        while i < prev_cols.len() || j < next_cols.len() {
            // Past a row's end its column reads as `usize::MAX`, after every real one.
            let p = prev_cols.get(i).copied().unwrap_or(usize::MAX);
            let n = next_cols.get(j).copied().unwrap_or(usize::MAX);
            let c = p.min(n);
            let same = p == n && prev_vals[i].to_bits() == next_vals[j].to_bits();
            (i, j) = (i + usize::from(p == c), j + usize::from(n == c));
            if let (false, Ok(block)) = (same, keys.binary_search(&(r >> b, c >> b))) {
                changed[block] += 1;
            }
        }
    }
    changed
}

/// The stats of re-encoding `previous` as `next`, given the changed cells per block of
/// `next`: the two block tables matched by key, each block classified by its changed
/// cells and the two bases (see the module docs), a block gone from `next` cleared.
fn classify(previous: &ReFloatMatrix, next: &ReFloatMatrix, changed: &[u64]) -> IncrementalStats {
    let mut stats = IncrementalStats {
        blocks_total: next.num_blocks(),
        cells_total: next.nnz() as u64,
        ..IncrementalStats::default()
    };
    let mut prev = previous.layout().extents().zip(previous.bases()).peekable();
    let next_blocks = next.layout().extents().zip(next.bases()).zip(changed);
    for (((key, cells), &eb), &changed) in next_blocks {
        while let Some(((_, gone), _)) = prev.next_if(|((prev_key, _), _)| *prev_key < key) {
            stats.blocks_vanished += 1;
            stats.cells_reprogrammed += gone.len() as u64;
        }
        match prev.next_if(|((prev_key, _), _)| *prev_key == key) {
            Some(_) if changed == 0 => stats.blocks_reused += 1,
            Some((_, &prev_eb)) if prev_eb == eb => {
                stats.blocks_partial += 1;
                stats.cells_reprogrammed += changed;
            }
            _ => {
                stats.blocks_full += 1;
                stats.cells_reprogrammed += cells.len() as u64;
            }
        }
    }
    for ((_, gone), _) in prev {
        stats.blocks_vanished += 1;
        stats.cells_reprogrammed += gone.len() as u64;
    }
    stats
}

/// Asserts that two encoded matrices are bitwise identical — the same layout, and
/// block for block the same base and decoded bits: the incremental-encode guarantee,
/// exposed so benches and integration tests can check it on live runtime objects.
///
/// # Panics
/// Panics with a descriptive message on a differing layout or the first differing block.
pub fn assert_bitwise_identical(incremental: &ReFloatMatrix, scratch: &ReFloatMatrix) {
    let same_layout = incremental.layout() == scratch.layout();
    assert!(same_layout, "encodings disagree on the block layout");
    let (inc, full) = (
        incremental.decoded_in_block_order(),
        scratch.decoded_in_block_order(),
    );
    for (inc, full) in incremental.blocks(&inc).zip(scratch.blocks(&full)) {
        let same = inc.eb == full.eb
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
    use crate::block::optimal_exponent_base;
    use crate::format::ReFloatConfig;
    use proptest::prelude::*;
    use refloat_matgen::fem::poisson_2d;
    use refloat_matgen::transient::{perturb_symmetric_pairs, TransientChain, TransientSpec};
    use refloat_sparse::{blocked::Block, BlockedMatrix, CooMatrix};
    use std::collections::HashSet;

    fn config() -> ReFloatConfig {
        // Small blocks so the test matrices span many blocks; a wide fraction keeps
        // the quantized operators close to the raw values.
        ReFloatConfig::new(3, 3, 13, 3, 13)
    }

    /// `true` when two raw blocks hold the same entries at the same positions with
    /// bitwise-identical values.
    fn blocks_bitwise_equal(a: &Block, b: &Block) -> bool {
        a.rows == b.rows
            && a.cols == b.cols
            && a.vals.len() == b.vals.len()
            && (a.vals.iter().zip(b.vals)).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Entries that differ between two blocks sorted by `(ii, jj)`: changed values,
    /// plus entries present in only one of them.
    fn changed_cells(prev: &Block, next: &Block) -> u64 {
        let (mut i, mut j, mut changed) = (0, 0, 0u64);
        while i < prev.nnz() && j < next.nnz() {
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
        changed + (prev.nnz() - i) as u64 + (next.nnz() - j) as u64
    }

    /// The reference for [`IncrementalStats`]: both steps blocked, the two block lists
    /// merge-walked by key, and every matched pair compared entry by entry.
    fn oracle_stats(
        previous: &ReFloatMatrix,
        source: &CsrMatrix,
        a: &CsrMatrix,
    ) -> IncrementalStats {
        let b = previous.config().b;
        let prev_blocked = BlockedMatrix::from_csr(source, b).unwrap();
        let next_blocked = BlockedMatrix::from_csr(a, b).unwrap();
        let mut stats = IncrementalStats {
            blocks_total: next_blocked.num_blocks(),
            ..IncrementalStats::default()
        };
        let key = |blk: &Block| (blk.block_row, blk.block_col);
        let mut prev_blocks = prev_blocked.blocks().zip(previous.bases()).peekable();
        for next in next_blocked.blocks() {
            while let Some((gone, _)) = prev_blocks.next_if(|(prev, _)| key(prev) < key(&next)) {
                stats.blocks_vanished += 1;
                stats.cells_reprogrammed += gone.nnz() as u64;
            }
            stats.cells_total += next.nnz() as u64;
            match prev_blocks.next_if(|(prev, _)| key(prev) == key(&next)) {
                Some((prev, _)) if blocks_bitwise_equal(&prev, &next) => stats.blocks_reused += 1,
                Some((prev, &eb)) if optimal_exponent_base(next.vals) == eb => {
                    stats.blocks_partial += 1;
                    stats.cells_reprogrammed += changed_cells(&prev, &next);
                }
                _ => {
                    stats.blocks_full += 1;
                    stats.cells_reprogrammed += next.nnz() as u64;
                }
            }
        }
        for (gone, _) in prev_blocks {
            stats.blocks_vanished += 1;
            stats.cells_reprogrammed += gone.nnz() as u64;
        }
        stats
    }

    /// One edit of `base` at `config()`'s 8 × 8 blocks, chosen by `kind`: 0 none; 1
    /// value drift at magnitude `sigma`; 2 every entry of one block removed, so it
    /// vanishes; 3 one entry added in a block that was empty; 4 inside one block, a
    /// cell cleared and an empty one written with its value — the same exponents, so
    /// the block keeps its base.  `pick` selects the block and cells.
    fn edit(base: &CsrMatrix, kind: u32, pick: usize, sigma: f64, seed: u64) -> CsrMatrix {
        let n = base.nrows();
        let mut entries: Vec<(usize, usize, f64)> = base.iter().collect();
        let cells: HashSet<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let blocked = BlockedMatrix::from_csr(base, config().b).unwrap();
        let keys: Vec<_> = blocked.layout().extents().map(|(key, _)| key).collect();
        let key_of = |(r, c): (usize, usize)| (r >> 3, c >> 3);
        let key = keys[pick % keys.len()];
        match kind {
            0 => {}
            1 => return perturb_symmetric_pairs(base, sigma, 0.3, seed),
            2 => entries.retain(|&(r, c, _)| key_of((r, c)) != key),
            3 => {
                let corners = (0..n)
                    .step_by(8)
                    .flat_map(|r| (0..n).step_by(8).map(move |c| (r, c)));
                let empty: Vec<_> = corners
                    .filter(|&cell| !keys.contains(&key_of(cell)))
                    .collect();
                let (r, c) = empty[pick % empty.len()];
                entries.push((r, c, -0.375));
            }
            _ => {
                let (rows, cols) = (
                    key.0 * 8..(key.0 * 8 + 8).min(n),
                    key.1 * 8..(key.1 * 8 + 8).min(n),
                );
                let tile = rows.flat_map(|r| cols.clone().map(move |c| (r, c)));
                let free: Vec<_> = tile.filter(|cell| !cells.contains(cell)).collect();
                let held: Vec<usize> = (0..entries.len())
                    .filter(|&k| key_of((entries[k].0, entries[k].1)) == key)
                    .collect();
                let (r, c) = free[pick % free.len()];
                let cleared = entries.remove(held[pick % held.len()]);
                entries.push((r, c, cleared.2));
            }
        }
        let mut coo = CooMatrix::new(n, n);
        entries.into_iter().for_each(|(r, c, v)| coo.push(r, c, v));
        coo.to_csr()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        #[test]
        fn reencode_stats_equal_the_block_merge_oracle_for_random_edits(
            (nx, ny) in (8usize..14, 8usize..14),
            kind in 0u32..5,
            pick in 0usize..1_000_000,
            sigma in prop_oneof![Just(1e-6), Just(1e-3), Just(0.1), Just(0.5), Just(4.0)],
            seed in 0u64..1_000,
        ) {
            let base = poisson_2d(nx, ny, 0.2, seed).to_csr();
            let next = edit(&base, kind, pick, sigma, seed);
            let previous = ReFloatMatrix::from_csr(&base, config());
            let inc = reencode_incremental(&previous, &base, &next);
            let stats = inc.stats;
            prop_assert_eq!(stats, oracle_stats(&previous, &base, &next));
            assert_bitwise_identical(&inc.matrix, &ReFloatMatrix::from_csr(&next, config()));
            let unchanged = (base.row_ptr(), base.col_idx()) == (next.row_ptr(), next.col_idx());
            prop_assert_eq!(unchanged, kind <= 1);
            prop_assert_eq!(Arc::ptr_eq(inc.matrix.layout(), previous.layout()), unchanged);
            let (total, previous_total) = (stats.blocks_total, previous.num_blocks());
            match kind {
                0 => prop_assert_eq!(stats.blocks_reused, total),
                2 => prop_assert_eq!((stats.blocks_vanished, total + 1), (1, previous_total)),
                3 => prop_assert_eq!((stats.blocks_full, total), (1, previous_total + 1)),
                4 => prop_assert_eq!((stats.blocks_partial, stats.cells_reprogrammed), (1, 2)),
                _ => {}
            }
        }
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
