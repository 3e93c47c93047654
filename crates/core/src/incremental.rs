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
//! The result equals a from-scratch encode bit for bit: a block's base and codes are a
//! function of its own values, so a block row whose values are bitwise unchanged
//! encodes to what it encoded to before.  The host pays only for what changed, too.
//! When the new matrix has the predecessor's structure (every FEM chain's case), a
//! re-encode costs:
//!
//! * **one structure check**, `BlockLayout::lays_out`: O(1) when the new matrix shares
//!   the structure the layout holds as its row order (a chain's steps do), else one
//!   compare of the row pointers and columns;
//! * **one value diff per block row**: an OR of the two steps' value bits over the
//!   row's span (a cell keeps its row-order index) says whether the row is dirty, and
//!   only a dirty row walks its non-zeros to count each block's changed cells;
//! * **quantizing the dirty block rows only**, over the adopted layout, and **one copy**
//!   of every clean row's bases and decoded values from the predecessor.
//!
//! Otherwise the new matrix is blocked and encoded from scratch, and a per-row merge of
//! the two steps' sorted columns charges each difference to its block.

use std::sync::Arc;

use crate::matrix::{ReFloatMatrix, Reuse};
use refloat_sparse::blocked::BlockLayout;
use refloat_sparse::parallel::{Lanes, MIN_NNZ_PER_LANE};
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
    reencode(previous, previous_source, a, |reuse| match reuse {
        Some(reuse) => ReFloatMatrix::encoded(previous.layout(), config, a.values(), Some(reuse)),
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
    reencode_split(previous, previous_source, a, lanes, MIN_NNZ_PER_LANE)
}

/// [`reencode_incremental_on`], splitting at `min_nnz` non-zeros to quantize per lane.
fn reencode_split(
    previous: &ReFloatMatrix,
    previous_source: &CsrMatrix,
    a: &Arc<CsrMatrix>,
    lanes: &Lanes,
    min_nnz: usize,
) -> IncrementalEncode {
    let config = *previous.config();
    reencode(previous, previous_source, a, |reuse| {
        let layout = reuse.is_some().then(|| previous.layout());
        ReFloatMatrix::encoded_on(a, config, layout, reuse, lanes, min_nnz)
    })
}

/// The re-encode of `a` against `previous`, with `encode` making the new matrix: over
/// the predecessor's layout, copying its clean block rows, when `a`'s structure is the
/// predecessor's, else from scratch.
fn reencode(
    previous: &ReFloatMatrix,
    previous_source: &CsrMatrix,
    a: &CsrMatrix,
    encode: impl FnOnce(Option<Reuse<'_>>) -> ReFloatMatrix,
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
    debug_assert!(layout.lays_out(previous_source), "{not_the_source}");

    let (matrix, changed) = if layout.lays_out(a) {
        let (dirty, changed) = value_changes(layout, a.values(), previous_source.values());
        let dirty = &dirty;
        (encode(Some(Reuse { previous, dirty })), changed)
    } else {
        let matrix = encode(None);
        let changed = merged_changes(previous_source, a, matrix.layout(), config.b);
        (matrix, changed)
    };
    let stats = classify(previous, &matrix, &changed);
    IncrementalEncode { matrix, stats }
}

/// The value diff of two matrices over `layout`'s structure, `new` and `old` in its row
/// order: per block row whether any value's bits differ (an OR of XORs over the row's
/// span), and per block its changed cells, counted per block column of a dirty row
/// alone, as the encoder sums exponents.
fn value_changes(layout: &BlockLayout, new: &[f64], old: &[f64]) -> (Vec<bool>, Vec<u64>) {
    let (b, col_idx) = (layout.b(), layout.col_idx());
    let mut dirty = Vec::with_capacity(layout.nrows().div_ceil(1 << b));
    let mut changed = vec![0; layout.num_blocks()];
    // Changed cells per block column of the current block row; zero between rows.
    let mut per_col = vec![0u64; layout.ncols().div_ceil(1 << b)];
    let mut blocks = layout.extents().enumerate().peekable();
    for (brow, span) in layout.block_row_spans(0..layout.nrows()) {
        let pairs = new[span.clone()].iter().zip(&old[span.clone()]);
        let diff = pairs.fold(0, |diff, (x, y)| diff | (x.to_bits() ^ y.to_bits()));
        dirty.push(diff != 0);
        if diff != 0 {
            let cells = col_idx[span.clone()].iter().zip(&new[span.clone()]);
            for ((&c, x), y) in cells.zip(&old[span]) {
                per_col[(c >> b) as usize] += u64::from(x.to_bits() != y.to_bits());
            }
        }
        // A clean row's blocks keep their zero counts.
        while let Some((block, ((_, bcol), _))) = blocks.next_if(|(_, ((r, _), _))| *r == brow) {
            changed[block] = std::mem::take(&mut per_col[bcol]);
        }
    }
    (dirty, changed)
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
            let p = prev_cols.get(i).map_or(usize::MAX, |&c| c as usize);
            let n = next_cols.get(j).map_or(usize::MAX, |&c| c as usize);
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
    let (inc, full) = (incremental.decoded(), scratch.decoded());
    // Per block: whether its bases agree and, read in row order, its decoded bits.
    let bases = incremental.bases().iter().zip(scratch.bases());
    let mut same: Vec<bool> = bases.map(|(a, b)| a == b).collect();
    incremental.layout().walk_row_order(|run, block, _| {
        let bits = |v: &f64| v.to_bits();
        same[block] &= inc[run.clone()]
            .iter()
            .map(bits)
            .eq(full[run].iter().map(bits));
    });
    if let Some(block) = same.iter().position(|&same| !same) {
        let mut extents = incremental.layout().extents();
        let ((block_row, block_col), _) = extents.nth(block).expect("a layout block");
        panic!(
            "block ({block_row}, {block_col}) differs between incremental and from-scratch encode"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::optimal_exponent_base;
    use crate::format::ReFloatConfig;
    use crate::matrix::tests::lanes;
    use proptest::prelude::*;
    use refloat_matgen::fem::poisson_2d;
    use refloat_matgen::transient::{perturb_symmetric_pairs, TransientChain, TransientSpec};
    use refloat_sparse::shard::block_row_shards_counting;
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

    /// `a`'s structure rebuilt through `from_raw`: equal content, not shared.
    fn deep_copy(a: &CsrMatrix) -> CsrMatrix {
        let wide = |indices: &[u32]| indices.iter().map(|&i| i as usize).collect();
        let (row_ptr, col_idx) = (wide(a.row_ptr()), wide(a.col_idx()));
        CsrMatrix::from_raw(a.nrows(), a.ncols(), row_ptr, col_idx, a.values().to_vec()).unwrap()
    }

    /// Asserts that two encodings are the same layout, bases and decoded bits.
    fn assert_same_encoding(got: &ReFloatMatrix, want: &ReFloatMatrix) {
        assert_eq!(got.layout(), want.layout());
        assert_eq!(got.bases(), want.bases());
        assert_bitwise_identical(got, want);
    }

    #[test]
    fn the_delta_reencode_is_from_csr_bit_for_bit_on_every_lane_count_and_edit() {
        // 32-row block rows over 11,000 rows: 344 block rows, the last one partial, and
        // enough non-zeros that alternate dirty rows split over up to four lanes.
        let config = ReFloatConfig::new(5, 3, 8, 3, 8);
        let base = poisson_2d(110, 100, 0.2, 5).to_csr();
        let n = base.nrows();
        let block_rows = n.div_ceil(32);
        assert!(!n.is_multiple_of(32), "the last block row is partial");
        // Every third value of the rows of the chosen block rows, scaled.
        let edited = |dirty: &dyn Fn(usize) -> bool| {
            let mut vals = base.values().to_vec();
            for r in (0..n).filter(|&r| dirty(r / 32)) {
                let row = base.row_ptr()[r] as usize..base.row_ptr()[r + 1] as usize;
                for v in vals[row].iter_mut().step_by(3) {
                    *v *= 1.0 + 1.0 / 64.0;
                }
            }
            base.with_values(vals)
        };
        // One cell, the last of an interior block row: a row is dirty by any of its values.
        let mut last_cell = base.values().to_vec();
        last_cell[base.row_ptr()[(block_rows / 3 + 1) * 32] as usize - 1] *= 1.0 + 1.0 / 64.0;
        let mut changed = CooMatrix::new(n, n);
        base.iter()
            .filter(|&(r, c, _)| (r + c) % 101 != 0)
            .for_each(|(r, c, v)| changed.push(r, c, v));
        let edits: Vec<(&str, CsrMatrix)> = vec![
            ("none", base.with_values(base.values().to_vec())),
            ("first block row", edited(&|brow| brow == 0)),
            (
                "last, partial, block row",
                edited(&|brow| brow == block_rows - 1),
            ),
            (
                "one interior block row",
                edited(&|brow| brow == block_rows / 2),
            ),
            ("one cell", base.with_values(last_cell)),
            ("alternate block rows", edited(&|brow| brow % 2 == 1)),
            ("every row", edited(&|_| true)),
            ("changed structure", changed.to_csr()),
        ];
        let previous = ReFloatMatrix::from_csr(&base, config);
        for (label, shared) in edits {
            let structure_kept = shared.shares_structure_with(&base);
            let copy = deep_copy(&shared);
            assert!(!copy.shares_structure_with(&base) && copy == shared);
            // The copy is recognised by the compare, never by identity.
            assert!(!previous.layout().blocked_from(&copy));
            assert_eq!(previous.layout().blocked_from(&shared), structure_kept);
            assert_eq!(previous.layout().lays_out(&copy), structure_kept);

            let want = ReFloatMatrix::from_csr(&shared, config);
            let want_stats = oracle_stats(&previous, &base, &shared);
            if label == "alternate block rows" {
                // The laned encode really splits, with clean rows on every lane to copy.
                let (dirty, _) = value_changes(previous.layout(), shared.values(), base.values());
                for count in 2..=4 {
                    let layout = previous.layout();
                    let (row_ptr, b) = (layout.row_ptr(), layout.b());
                    let (bands, quantized) =
                        block_row_shards_counting(row_ptr, b, count, |brow| dirty[brow]);
                    assert_eq!(bands.len(), count);
                    assert!(
                        quantized >= MIN_NNZ_PER_LANE * count,
                        "{quantized} on {count}"
                    );
                }
            }
            for a in [shared, copy] {
                let a = Arc::new(a);
                let serial = reencode_incremental(&previous, &base, &a);
                assert_same_encoding(&serial.matrix, &want);
                assert_eq!(serial.stats, want_stats, "{label}");
                assert_eq!(serial.matrix.shares_layout_with(&previous), structure_kept);
                for count in 1..=4 {
                    let laned = reencode_incremental_on(&previous, &base, &a, lanes(count));
                    assert_same_encoding(&laned.matrix, &want);
                    assert_eq!(laned.stats, want_stats, "{label} on {count} lanes");
                }
            }
        }
    }

    #[test]
    fn a_split_reencode_at_any_size_is_the_one_band_reencode() {
        // 130 rows in 8-row block rows: 17 block rows, the last one partial.
        let base = poisson_2d(13, 10, 0.2, 3).to_csr();
        let (n, block_rows) = (base.nrows(), base.nrows().div_ceil(8));
        let previous = ReFloatMatrix::from_csr(&base, config());
        let patterns: [(&str, &dyn Fn(usize) -> bool); 4] = [
            ("all", &|_| true),
            ("none", &|_| false),
            ("alternate", &|brow| brow % 2 == 1),
            ("the last", &|brow| brow == block_rows - 1),
        ];
        for (label, dirty) in patterns {
            let mut vals = base.values().to_vec();
            for r in (0..n).filter(|&r| dirty(r / 8)) {
                let row = base.row_ptr()[r] as usize..base.row_ptr()[r + 1] as usize;
                vals[row].iter_mut().for_each(|v| *v *= 1.0 + 1.0 / 64.0);
            }
            let next = Arc::new(base.with_values(vals));
            let want = reencode_incremental(&previous, &base, &next);
            let reused = want.stats.blocks_reused;
            assert_eq!(reused == 0, label == "all", "{label}");
            for count in 2..=4 {
                let got = reencode_split(&previous, &base, &next, lanes(count), 0);
                assert_same_encoding(&got.matrix, &want.matrix);
                assert_eq!(got.stats, want.stats, "{label} on {count} lanes");
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
