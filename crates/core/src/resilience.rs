//! Fault-aware encoding: spare row/column remapping around stuck cells and ABFT
//! checksum columns for quantized-SpMV error detection.
//!
//! Production ReRAM crossbars carry persistent stuck-at faults.  Two classic defenses
//! make them survivable at the *encoding* layer, before any scheduler gets involved:
//!
//! * **Spare remapping** ([`RemapPlan`]) — crossbars reserve a few spare rows/columns;
//!   at encode time the mapper retires the physical rows/columns with the most stuck
//!   cells and shifts their elements onto spares.  Cells covered by a retired line stop
//!   mattering; the (hopefully empty) remainder is reported as *uncovered* and becomes
//!   the corruption the runtime must detect.
//! * **ABFT checksums** ([`AbftChecksum`]) — following algorithm-based fault tolerance
//!   for matrix multiply (Huang & Abraham), each encoded block gets one checksum row
//!   holding its column sums.  Because the checksum row lives in the *same* crossbar as
//!   the block, common-mode conductance drift scales data and checksum identically, so
//!   the detector `Σy  ≟  Σ_blocks drift_b · (c_b · x̃_b)` fires on stuck-cell
//!   corruption but stays quiet under benign drift.  The extra row costs one crossbar
//!   row and one accumulation cycle per block-MVM (charged in `reram_sim::cost`).
//!
//! The device simulator (`reram_sim::fault`) samples the stuck cells and drives both
//! mechanisms; this module is the pure encoding math so it can be property-tested
//! without a device model.

use crate::matrix::ReFloatMatrix;
use std::collections::BTreeMap;

/// One stuck cell, located by encoded block index and local coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCell {
    /// Index of the block (crossbar) in encoding order.
    pub block: usize,
    /// Local row inside the crossbar, `< 2^b`.
    pub row: u16,
    /// Local column inside the crossbar, `< 2^b`.
    pub col: u16,
    /// `true` = stuck-at-high (max conductance), `false` = stuck-at-low (zero).
    pub high: bool,
}

/// Spare rows/columns available per crossbar for remapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpareBudget {
    /// Spare rows per crossbar.
    pub rows: usize,
    /// Spare columns per crossbar.
    pub cols: usize,
}

impl SpareBudget {
    /// A typical provisioning: two spare rows and two spare columns per crossbar.
    pub fn default_per_crossbar() -> Self {
        SpareBudget { rows: 2, cols: 2 }
    }

    /// No spares at all — every stuck cell stays uncovered.
    pub fn none() -> Self {
        SpareBudget { rows: 0, cols: 0 }
    }
}

/// The outcome of greedy spare remapping over a set of stuck cells.
///
/// Per block, the plan retires up to `budget.rows` rows (most stuck cells first, lowest
/// index on ties) and then up to `budget.cols` columns over the remaining cells.  Cells
/// on a retired line are *covered* — their elements move to spares and read correctly.
/// The rest are *uncovered* and will corrupt reads until a re-encode onto healthier
/// resources.
#[derive(Debug, Clone, Default)]
pub struct RemapPlan {
    covered: Vec<StuckCell>,
    uncovered: Vec<StuckCell>,
    spare_rows_used: usize,
    spare_cols_used: usize,
}

impl RemapPlan {
    /// Plans remapping for `cells` (any mix of blocks) under a per-crossbar budget.
    pub fn plan(cells: &[StuckCell], budget: &SpareBudget) -> Self {
        let mut by_block: BTreeMap<usize, Vec<StuckCell>> = BTreeMap::new();
        for &c in cells {
            by_block.entry(c.block).or_default().push(c);
        }
        let mut plan = RemapPlan::default();
        for (_, block_cells) in by_block {
            let retired_rows = retire_lines(block_cells.iter().map(|c| c.row), budget.rows);
            let after_rows: Vec<StuckCell> = block_cells
                .iter()
                .copied()
                .filter(|c| !retired_rows.contains(&c.row))
                .collect();
            let retired_cols = retire_lines(after_rows.iter().map(|c| c.col), budget.cols);
            plan.spare_rows_used += retired_rows.len();
            plan.spare_cols_used += retired_cols.len();
            for c in block_cells {
                if retired_rows.contains(&c.row) || retired_cols.contains(&c.col) {
                    plan.covered.push(c);
                } else {
                    plan.uncovered.push(c);
                }
            }
        }
        plan
    }

    /// Cells remapped onto spare lines (read correctly).
    pub fn covered(&self) -> &[StuckCell] {
        &self.covered
    }

    /// Cells no spare line could absorb (still corrupt reads).
    pub fn uncovered(&self) -> &[StuckCell] {
        &self.uncovered
    }

    /// Total spare rows consumed across all blocks.
    pub fn spare_rows_used(&self) -> usize {
        self.spare_rows_used
    }

    /// Total spare columns consumed across all blocks.
    pub fn spare_cols_used(&self) -> usize {
        self.spare_cols_used
    }

    /// The uncovered cells' terms in `matrix`'s product, by row and then block, one
    /// (row, block)'s in plan order.  A stuck-at-high cell reads as the top of its
    /// block's window, `2^{eb + max_offset + 1}`, a stuck-at-low one as zero; a cell
    /// past the matrix edge (an edge block's partial tile), or reading clean, has none.
    pub fn corruptions(&self, matrix: &ReFloatMatrix) -> Vec<Corruption> {
        let (layout, b) = (matrix.layout(), matrix.config().b);
        let top = 2f64.powi(matrix.config().max_offset() + 1);
        let blocks: Vec<(usize, usize)> = layout.extents().map(|(key, _)| key).collect();
        let decoded = matrix.decoded();
        let mut out = Vec::new();
        for cell in &self.uncovered {
            let (block_row, block_col) = blocks[cell.block];
            let row = (block_row << b) + cell.row as usize;
            let col = (block_col << b) + cell.col as usize;
            if row >= layout.nrows() || col >= layout.ncols() {
                continue;
            }
            // The clean value, by a binary search in the row's columns.
            let run = layout.row_ptr()[row] as usize..layout.row_ptr()[row + 1] as usize;
            let found = layout.col_idx()[run.clone()].binary_search(&(col as u32));
            let clean = found.map_or(0.0, |k| decoded[run.start + k]);
            let stuck = match cell.high {
                true => top * 2f64.powi(matrix.bases()[cell.block]),
                false => 0.0,
            };
            let (block, delta) = (cell.block, stuck - clean);
            if delta != 0.0 {
                out.push(Corruption {
                    row,
                    block,
                    col,
                    delta,
                });
            }
        }
        out.sort_by_key(|c| (c.row, c.block));
        out
    }
}

/// One uncovered stuck cell's term in a faulty product, `(stuck − clean) ·
/// drift[block] · x̃[col]`, added to row `row` after its terms in `block`
/// ([`ReFloatMatrix::accumulate_faulty`]).
#[derive(Debug, Clone, Copy)]
pub struct Corruption {
    pub(crate) row: usize,
    pub(crate) block: usize,
    pub(crate) col: usize,
    pub(crate) delta: f64,
}

/// Picks up to `budget` line indices to retire, ordered by stuck-cell count descending
/// (line index ascending on ties).  Lines with zero stuck cells are never retired.
fn retire_lines<I: Iterator<Item = u16>>(lines: I, budget: usize) -> Vec<u16> {
    if budget == 0 {
        return Vec::new();
    }
    let mut counts: BTreeMap<u16, usize> = BTreeMap::new();
    for line in lines {
        *counts.entry(line).or_insert(0) += 1;
    }
    let mut ranked: Vec<(usize, u16)> = counts.into_iter().map(|(l, n)| (n, l)).collect();
    // Highest count first; BTreeMap already gave ascending line order for ties.
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().take(budget).map(|(_, l)| l).collect()
}

/// One ABFT checksum row per encoded block, computed from the *decoded* (quantized)
/// values so the check is exact against what the crossbars actually multiply by.
#[derive(Debug, Clone)]
pub struct AbftChecksum {
    /// Per block, its column sums: sorted `(column, Σ values, Σ |values|)` triples over
    /// its occupied columns.
    blocks: Vec<Vec<(u32, f64, f64)>>,
}

impl AbftChecksum {
    /// Computes checksum rows for every block of an encoded matrix from its row-order
    /// values: a column's sum adds its rows in ascending order, as a walk of the block
    /// in `(ii, jj)` order would.
    pub fn from_matrix(matrix: &ReFloatMatrix) -> Self {
        let (layout, decoded) = (matrix.layout(), matrix.decoded());
        let col_idx = layout.col_idx();
        let mut sums = vec![BTreeMap::<u32, (f64, f64)>::new(); layout.num_blocks()];
        layout.walk_row_order(|run, block, _| {
            for (&col, &v) in col_idx[run.clone()].iter().zip(&decoded[run]) {
                let entry = sums[block].entry(col).or_insert((0.0, 0.0));
                entry.0 += v;
                entry.1 += v.abs();
            }
        });
        let columns = |sums: BTreeMap<_, _>| sums.into_iter().map(|(c, (s, a))| (c, s, a));
        let blocks = sums.into_iter().map(|sums| columns(sums).collect());
        AbftChecksum {
            blocks: blocks.collect(),
        }
    }

    /// The checksum residual check.
    ///
    /// `actual` is `Σ y` over the SpMV output; the expectation is
    /// `Σ_b drift[b] · (c_b · x̃_b)` with the per-block common-mode drift factors the
    /// device applied (the checksum row drifts with its block, so drift cancels).
    /// Returns the relative residual `|actual − expected| / scale`, where `scale` is a
    /// cancellation-safe magnitude bound — clean reads land around machine epsilon,
    /// stuck-cell corruption lands orders of magnitude higher.
    pub fn residual(&self, quantized_input: &[f64], drift: &[f64], actual: f64) -> f64 {
        let mut expected = 0.0;
        let mut scale = 1e-300;
        for (b, columns) in self.blocks.iter().enumerate() {
            // `c_b · x̃_b` and its magnitude bound `|c_b| · |x̃_b|`.
            let (mut dot, mut bound) = (0.0, 0.0);
            for &(col, sum, abs_sum) in columns {
                let x = quantized_input[col as usize];
                dot += sum * x;
                bound += abs_sum * x.abs();
            }
            let d = drift.get(b).copied().unwrap_or(1.0);
            expected += d * dot;
            scale += d.abs() * bound;
        }
        (actual - expected).abs() / scale.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ReFloatConfig;
    use proptest::prelude::*;
    use refloat_matgen::generators;
    use refloat_solvers::LinearOperator;
    use refloat_sparse::vecops;
    use refloat_sparse::BlockedMatrix;

    fn cell(block: usize, row: u16, col: u16) -> StuckCell {
        StuckCell {
            block,
            row,
            col,
            high: false,
        }
    }

    #[test]
    fn remap_prefers_the_densest_row() {
        // Three cells on row 5, one stray: one spare row covers the three.
        let cells = [cell(0, 5, 1), cell(0, 5, 9), cell(0, 5, 14), cell(0, 2, 3)];
        let plan = RemapPlan::plan(&cells, &SpareBudget { rows: 1, cols: 0 });
        assert_eq!(plan.covered().len(), 3);
        assert_eq!(plan.uncovered(), &[cell(0, 2, 3)]);
        assert_eq!(plan.spare_rows_used(), 1);
    }

    #[test]
    fn remap_uses_columns_after_rows() {
        let cells = [cell(0, 5, 1), cell(0, 6, 1), cell(0, 2, 3)];
        // One spare row (covers at most one cell here), one spare column: the column
        // spare picks col 1, covering the two remaining cells on it.
        let plan = RemapPlan::plan(&cells, &SpareBudget { rows: 1, cols: 1 });
        assert!(plan.uncovered().len() <= 1);
        assert_eq!(plan.spare_cols_used(), 1);
    }

    #[test]
    fn zero_budget_covers_nothing() {
        let cells = [cell(0, 1, 1), cell(3, 2, 2)];
        let plan = RemapPlan::plan(&cells, &SpareBudget::none());
        assert!(plan.covered().is_empty());
        assert_eq!(plan.uncovered().len(), 2);
    }

    #[test]
    fn budgets_are_per_crossbar_not_global() {
        // One stuck cell in each of four blocks: a 1-row budget covers all four,
        // because each block has its own spares.
        let cells: Vec<StuckCell> = (0..4).map(|b| cell(b, 1, 1)).collect();
        let plan = RemapPlan::plan(&cells, &SpareBudget { rows: 1, cols: 0 });
        assert_eq!(plan.covered().len(), 4);
        assert_eq!(plan.spare_rows_used(), 4);
    }

    #[test]
    fn clean_spmv_passes_the_checksum_and_corruption_fails_it() {
        let a = generators::laplacian_2d(12, 12, 0.3).to_csr();
        let mut m = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8));
        let checksum = AbftChecksum::from_matrix(&m);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin() + 0.5).collect();
        let mut y = vec![0.0; n];
        m.apply(&x, &mut y);
        // The operator quantizes the input; recompute the quantized vector the same way.
        let mut xq = vec![0.0; n];
        crate::vector::VectorConverter::new(*m.config()).convert_into(&x, &mut xq);
        let drift = vec![1.0; m.num_blocks()];
        let clean = checksum.residual(&xq, &drift, vecops::sum(&y));
        assert!(clean < 1e-12, "clean residual {clean}");

        // Corrupt one output entry the way a stuck cell would.
        let mut y_bad = y.clone();
        y_bad[7] += 3.0;
        let bad = checksum.residual(&xq, &drift, vecops::sum(&y_bad));
        assert!(bad > 1e-6, "corrupted residual {bad} should be detectable");
    }

    #[test]
    fn common_mode_drift_does_not_trip_the_checksum() {
        let a = generators::laplacian_2d(10, 10, 0.3).to_csr();
        let mut m = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8));
        let checksum = AbftChecksum::from_matrix(&m);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.25).collect();
        let drift: Vec<f64> = (0..m.num_blocks())
            .map(|b| 1.0 + 0.02 * ((b % 5) as f64 - 2.0))
            .collect();
        // The faulty device's product, drift and no stuck cells, beside the clean one.
        let (mut y, mut clean) = (vec![0.0; n], vec![0.0; n]);
        let (xq, m) = m.quantize_input(&x);
        m.accumulate_faulty(xq, &drift, &[], &mut y);
        m.accumulate(xq, &mut clean);
        assert_ne!(y, clean, "the drift must reach the product");
        let res = checksum.residual(xq, &drift, vecops::sum(&y));
        assert!(res < 1e-12, "drift-only residual {res} must stay quiet");
    }

    #[test]
    fn the_row_order_checksum_is_the_block_order_one_bit_for_bit() {
        let shapes = [
            (generators::laplacian_2d(13, 13, 0.3).to_csr(), 3),
            (
                generators::mass_matrix_3d(6, 6, 6, 1e-12, 0.5, 3).to_csr(),
                4,
            ),
            (
                generators::mass_matrix_3d(5, 7, 3, 1e-12, 0.8, 9).to_csr(),
                5,
            ),
        ];
        for (a, b) in shapes {
            let m = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(b, 3, 8, 3, 8));
            let want: Vec<Vec<(u32, u64, u64)>> = BlockedMatrix::over(m.layout(), &m.decoded())
                .blocks()
                .map(|blk| {
                    let mut sums: BTreeMap<u16, (f64, f64)> = BTreeMap::new();
                    for (_, jj, v) in blk.iter() {
                        let entry = sums.entry(jj).or_insert((0.0, 0.0));
                        entry.0 += v;
                        entry.1 += v.abs();
                    }
                    let col0 = (blk.block_col << b) as u32;
                    let bits = |(jj, (s, a)): (u16, (f64, f64))| {
                        (col0 + jj as u32, f64::to_bits(s), f64::to_bits(a))
                    };
                    sums.into_iter().map(bits).collect()
                })
                .collect();
            let got: Vec<Vec<(u32, u64, u64)>> = AbftChecksum::from_matrix(&m)
                .blocks
                .iter()
                .map(|blk| blk.iter().map(|&(c, s, a)| (c, s.to_bits(), a.to_bits())))
                .map(Iterator::collect)
                .collect();
            assert_eq!(got, want, "b = {b}");
        }
    }

    proptest! {
        #[test]
        fn retired_lines_never_exceed_the_budget(
            coords in proptest::collection::vec((0usize..4, 0u16..16, 0u16..16), 0..64),
            rows in 0usize..20,
            cols in 0usize..4,
        ) {
            let cells: Vec<StuckCell> = coords
                .iter()
                .map(|&(b, r, c)| StuckCell { block: b, row: r, col: c, high: b % 2 == 0 })
                .collect();
            let budget = SpareBudget { rows, cols };
            let plan = RemapPlan::plan(&cells, &budget);
            // Every input cell lands in exactly one bucket.
            prop_assert_eq!(plan.covered().len() + plan.uncovered().len(), cells.len());
            // Per-crossbar budgets: at most `rows`/`cols` spares per distinct block.
            let blocks = cells.iter().map(|c| c.block).collect::<std::collections::BTreeSet<_>>();
            prop_assert!(plan.spare_rows_used() <= rows * blocks.len().max(1));
            prop_assert!(plan.spare_cols_used() <= cols * blocks.len().max(1));
            // With budget for every cell's row, everything is covered.
            if rows >= 16 {
                prop_assert!(plan.uncovered().is_empty());
            }
        }
    }
}
