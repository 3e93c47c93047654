//! Square-block partitioning and the block-major layout of Fig. 7.
//!
//! ReRAM crossbars compute MVM at the granularity of a `2^b × 2^b` matrix block
//! (`b = 7`, i.e. 128×128, for the crossbars in Table IV of the paper).  Only the
//! *non-empty* blocks of a sparse matrix are stored: each has block coordinates `(i, j)`
//! (the leading index bits of Fig. 5a) and entries with *local* `(ii, jj)` coordinates
//! inside the block (the trailing `b` bits).
//!
//! This module is the one definition of the *block-major layout* the paper introduces
//! in §V.C / Fig. 7 so that all non-zeros of a block — and all blocks that are
//! scheduled together — are read sequentially from memory.  A [`BlockLayout`] is the
//! structure alone: contiguous local row and column indices, blocks back to back in
//! block-row-major order and each block's entries in CSR order (sorted by `(ii, jj)`),
//! plus a block table of `(block_row, block_col, start)`.  Its *row order* is the
//! source CSR's own shared structure (`u32` row pointers and global columns), not a
//! copy, and this module alone defines how the two orders correspond:
//! [`BlockLayout::walk_row_order`] pairs every row-order index with its block and its
//! block-order position, a run of them at a time.
//!
//! The layout is built from a CSR's row pointers and columns without its values
//! ([`BlockLayout::from_csr`]): one block-row band at a time, a pass counts each block
//! column's entries, the band's touched block columns are ordered (through a bitmap,
//! linear in their number, unless they are few and far apart) into its blocks, and a
//! second pass places every entry.  Anything with one value per non-zero rides on the
//! layout, in whichever order suits it: a [`BlockedMatrix`] is the layout plus the
//! `f64` values in block order, which the same blocking gathers as it places each
//! entry, and `refloat-core`'s `ReFloatMatrix` shares the same layout (it sits behind
//! an [`Arc`]) and adds the per-block exponent bases and the decoded values in row
//! order, which it encodes from the CSR's row order and its SpMV reads with the CSR
//! loop.
//!
//! So [`BlockLayout::lays_out`] knows in O(1) that a matrix sharing that structure (a
//! clone, a value update through `CsrMatrix::with_values`, or a matrix built apart
//! that adopted it through `CsrMatrix::adopt_structure`) is laid out by it, and
//! compares the arrays only for a structure built apart.

use std::ops::Range;
use std::sync::Arc;

use crate::coo::CooMatrix;
use crate::csr::{CsrMatrix, Structure};
use crate::error::SparseError;
use crate::Result;

/// One row of the block table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TableEntry {
    block_row: u32,
    block_col: u32,
    /// Index of the block's first non-zero in the per-non-zero arrays; the block runs
    /// to the next entry's `start`.
    start: u32,
}

/// The block-major structure of a sparse matrix: where every non-zero sits, without
/// the values.  Equality is content equality; which structure object a layout holds
/// does not take part.
#[derive(Debug, PartialEq)]
pub struct BlockLayout {
    nrows: usize,
    ncols: usize,
    /// log2 of the block edge length (the paper's `b`).
    b: u32,
    /// One entry per non-empty block, strictly sorted by `(block_row, block_col)`,
    /// closed by a sentinel whose `start` is the non-zero count.
    table: Vec<TableEntry>,
    /// Local row index `ii` (`< 2^b`) per non-zero.
    rows: Vec<u16>,
    /// Local column index `jj` (`< 2^b`) per non-zero.
    cols: Vec<u16>,
    /// Row order: the CSR structure the layout was blocked from, shared with every
    /// matrix over it — where each row's non-zeros start, and their global columns.
    structure: Arc<Structure>,
}

/// One non-empty `2^b × 2^b` block, borrowed from a [`BlockLayout`] and an array of
/// per-non-zero values laid out by it.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    /// Block-row index `i` (row `r` of the full matrix lives in block-row `r >> b`).
    pub block_row: usize,
    /// Block-column index `j`.
    pub block_col: usize,
    /// Local row indices `ii` (`< 2^b`), one per entry.
    pub rows: &'a [u16],
    /// Local column indices `jj` (`< 2^b`), one per entry.
    pub cols: &'a [u16],
    /// Entry values, one per entry, in the same order as `rows`/`cols`.
    pub vals: &'a [f64],
}

impl<'a> Block<'a> {
    /// Number of non-zero entries stored in the block.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Iterates over `(ii, jj, value)` entries of the block, in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16, f64)> + 'a {
        let entries = self.rows.iter().zip(self.cols).zip(self.vals);
        entries.map(|((&r, &c), &v)| (r, c, v))
    }
}

impl BlockLayout {
    /// The block-major structure of a CSR matrix at `2^b × 2^b` blocks, built from its
    /// row pointers and columns alone, one block-row band at a time and in two passes
    /// over the band: count the entries per block column, order the band's block
    /// columns and turn the counts into block starts, then place every entry's local
    /// indices in CSR order.  The arrays are allocated once at their final size; nothing
    /// is allocated per block.
    ///
    /// The row order is the CSR's own structure, shared.
    ///
    /// Returns an error if `b == 0` would make blocks degenerate (`b` must be ≥ 1), if
    /// `b` is large enough that local indices no longer fit in `u16` (`b ≤ 15`), or if
    /// the column count does not fit the format's 32-bit column addresses (Fig. 4).
    pub fn from_csr(a: &CsrMatrix, b: u32) -> Result<Self> {
        Self::blocking(a, b, |_, _| {})
    }

    /// [`from_csr`](Self::from_csr), calling `place(k, at)` as it places the entry at
    /// row-order index `k` at block-order position `at`.
    fn blocking(a: &CsrMatrix, b: u32, mut place: impl FnMut(usize, usize)) -> Result<Self> {
        if b == 0 || b > 15 {
            return Err(SparseError::InvalidParameter(format!(
                "block size exponent b must be in 1..=15, got {b}"
            )));
        }
        let bs = 1usize << b;
        let (nrows, ncols, nnz) = (a.nrows(), a.ncols(), a.nnz());
        // The `as u32` below narrow block coordinates, bounded by the row count, which
        // the structure bounds, and by the column count, checked here.
        if u32::try_from(ncols).is_err() {
            return Err(SparseError::InvalidParameter(format!(
                "{nrows}x{ncols} matrix at b = {b}: the layout is 32-bit"
            )));
        }

        let mut table = Vec::new();
        let (mut rows, mut cols) = (vec![0u16; nnz], vec![0u16; nnz]);
        let block_cols = ncols.div_ceil(bs);
        // Per block column of the current band: its entry count in the first pass, the
        // index its next entry goes to in the second; all zero between bands.
        let mut cursor = vec![0u32; block_cols];
        let mut seen = vec![0u64; block_cols.div_ceil(64)];
        // The band's distinct block columns, in the order of their first entries: each
        // entry writes its own at the end, and only a first one moves the end — no
        // branch, which a scattered band's first entries would mispredict.
        let mut touched = vec![0usize; block_cols + 1];
        let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
        for (brow, row_lo) in (0..nrows).step_by(bs).enumerate() {
            let row_hi = (row_lo + bs).min(nrows);
            // Pass 1: count the band's entries per block column.
            let mut distinct = 0;
            for &c in &col_idx[row_ptr[row_lo] as usize..row_ptr[row_hi] as usize] {
                let bcol = (c >> b) as usize;
                touched[distinct] = bcol;
                distinct += (cursor[bcol] == 0) as usize;
                cursor[bcol] += 1;
            }
            let touched = &mut touched[..distinct];
            // The band's blocks in block-column order, each starting where the one
            // before it ends; the counts become write cursors.
            sort_distinct(touched, &mut seen);
            let mut start = row_ptr[row_lo];
            for &bcol in touched.iter() {
                table.push(TableEntry {
                    block_row: brow as u32,
                    block_col: bcol as u32,
                    start,
                });
                start += std::mem::replace(&mut cursor[bcol], start);
            }
            // Pass 2: place every entry; CSR order within a block is `(ii, jj)` order.
            for r in row_lo..row_hi {
                let row = row_ptr[r] as usize..row_ptr[r + 1] as usize;
                for (k, &c) in row.clone().zip(&col_idx[row]) {
                    let bcol = (c >> b) as usize;
                    let at = cursor[bcol] as usize;
                    cursor[bcol] += 1;
                    rows[at] = (r - row_lo) as u16;
                    cols[at] = (c & ((1 << b) - 1)) as u16;
                    place(k, at);
                }
            }
            for &bcol in touched.iter() {
                cursor[bcol] = 0;
            }
        }
        table.push(TableEntry {
            block_row: u32::MAX,
            block_col: u32::MAX,
            start: nnz as u32,
        });

        Ok(BlockLayout {
            nrows,
            ncols,
            b,
            table,
            rows,
            cols,
            structure: Arc::clone(a.structure()),
        })
    }

    /// Whether the layout was blocked from `a`'s structure itself — `a`, a clone of it,
    /// a matrix made from either by `CsrMatrix::with_values`, or one that adopted it
    /// by `CsrMatrix::adopt_structure` — so that it is `a`'s blocking too.  O(1); a
    /// matrix with an equal structure of its own is not recognised
    /// ([`lays_out`](Self::lays_out) is).
    pub fn blocked_from(&self, a: &CsrMatrix) -> bool {
        Arc::ptr_eq(&self.structure, a.structure())
            && (self.nrows, self.ncols) == (a.nrows(), a.ncols())
    }

    /// Whether the layout is `a`'s blocking: the layout was
    /// [`blocked_from`](Self::blocked_from) `a`'s structure, known in O(1), or `a` has
    /// the same dimensions and an equal structure of its own, known by one compare of
    /// the row pointers and columns.
    pub fn lays_out(&self, a: &CsrMatrix) -> bool {
        self.blocked_from(a)
            || (self.nrows, self.ncols) == (a.nrows(), a.ncols())
                && *self.structure == **a.structure()
    }

    /// Number of rows of the underlying matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns of the underlying matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The block-size exponent `b` (blocks are `2^b × 2^b`).
    pub fn b(&self) -> u32 {
        self.b
    }

    /// Block edge length `2^b`.
    pub(crate) fn block_size(&self) -> usize {
        1 << self.b
    }

    /// Number of *non-empty* blocks.
    pub fn num_blocks(&self) -> usize {
        self.table.len() - 1
    }

    /// Number of non-empty blocks in the block rows that `rows` covers: the clusters a
    /// chip holding that band of a [`block_row_shards`](crate::block_row_shards)
    /// partition must program.
    pub fn blocks_in_rows(&self, rows: Range<usize>) -> usize {
        self.block_span(rows).len()
    }

    /// The indices of the blocks in the block rows that `rows` covers.
    fn block_span(&self, rows: Range<usize>) -> Range<usize> {
        // The sentinel's `u32::MAX` block row sorts after every real one.
        let first = |block_row: usize| {
            self.table
                .partition_point(|entry| (entry.block_row as usize) < block_row)
        };
        first(rows.start >> self.b)..first(rows.end.div_ceil(self.block_size()))
    }

    /// Total number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Every block's coordinates `(block_row, block_col)` and its block-order positions,
    /// in storage order: the block table, no values needed.
    pub fn extents(
        &self,
    ) -> impl ExactSizeIterator<Item = ((usize, usize), Range<usize>)> + Clone + '_ {
        self.extents_in(0..self.nrows)
    }

    /// [`extents`](Self::extents) of the blocks in the block rows that `rows` covers.
    pub fn extents_in(
        &self,
        rows: Range<usize>,
    ) -> impl ExactSizeIterator<Item = ((usize, usize), Range<usize>)> + Clone + '_ {
        let span = self.block_span(rows);
        // Up to the first block past the span, whose start ends the span's last block.
        self.table[span.start..=span.end].windows(2).map(|pair| {
            let key = (pair[0].block_row as usize, pair[0].block_col as usize);
            (key, pair[0].start as usize..pair[1].start as usize)
        })
    }

    /// Every block in storage (block-row-major) order, over `vals`.
    ///
    /// # Panics
    /// Panics if `vals` does not hold one value per non-zero.
    pub fn blocks<'a>(
        &'a self,
        vals: &'a [f64],
    ) -> impl ExactSizeIterator<Item = Block<'a>> + Clone {
        assert_eq!(vals.len(), self.nnz(), "block layout: one value per nnz");
        self.table.windows(2).map(move |pair| {
            let range = pair[0].start as usize..pair[1].start as usize;
            Block {
                block_row: pair[0].block_row as usize,
                block_col: pair[0].block_col as usize,
                rows: &self.rows[range.clone()],
                cols: &self.cols[range.clone()],
                vals: &vals[range],
            }
        })
    }

    /// The block rows that `rows` (block-row aligned) covers, in order, each with the
    /// row-order indices of its non-zeros: `(block_row, span)`.
    pub fn block_row_spans(
        &self,
        rows: Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let (bs, end, row_ptr) = (self.block_size(), rows.end, self.row_ptr());
        rows.step_by(bs).map(move |lo| {
            let hi = (lo + bs).min(end);
            (lo >> self.b, row_ptr[lo] as usize..row_ptr[hi] as usize)
        })
    }

    /// Row pointers of the row order: row `r`'s non-zeros are the row-order indices
    /// `row_ptr[r]..row_ptr[r + 1]` — the source CSR's own `row_ptr`.
    pub fn row_ptr(&self) -> &[u32] {
        &self.structure.row_ptr
    }

    /// Global column index of every non-zero in row order — the source CSR's own
    /// `col_idx`.
    pub fn col_idx(&self) -> &[u32] {
        &self.structure.col_idx
    }

    /// Walks the non-zeros in row order, run by run: `visit(row_order, block,
    /// block_order)` says the row-order indices `row_order` all belong to block `block`
    /// and sit, in the same order, at the block-order positions `block_order`.  A run is
    /// a maximal stretch of one band's row order in one block column — consecutive
    /// there because [`BlockLayout::from_csr`] places a band's entries in CSR order.
    /// This is the one definition of how the two orders correspond; every row-order
    /// index is visited once, in order, and the positions form a permutation.
    pub fn walk_row_order(&self, mut visit: impl FnMut(Range<usize>, usize, Range<usize>)) {
        let bs = self.block_size();
        // Per block column of the current band: its block's index and the block-order
        // position of its next entry.  Only the band's own block columns are read.
        let mut cursor = vec![(0u32, 0u32); self.ncols.div_ceil(bs)];
        let mut blocks = self.table[..self.num_blocks()]
            .iter()
            .enumerate()
            .peekable();
        for (brow, band) in self.block_row_spans(0..self.nrows) {
            while let Some((index, entry)) =
                blocks.next_if(|(_, entry)| entry.block_row as usize == brow)
            {
                cursor[entry.block_col as usize] = (index as u32, entry.start);
            }
            let mut k = band.start;
            for run in self.col_idx()[band].chunk_by(|&c, &d| c >> self.b == d >> self.b) {
                let (block, start) = &mut cursor[(run[0] >> self.b) as usize];
                let at = *start as usize;
                visit(k..k + run.len(), *block as usize, at..at + run.len());
                *start += run.len() as u32;
                k += run.len();
            }
        }
    }
}

/// Sorts `touched`, a band's distinct block columns, ascending.  When they cover at
/// least one in 64 of the columns between the least and the greatest, they are marked
/// in the bitmap `seen` and read back word by word, which is linear in their number; a
/// sparser band is sorted by comparison.  `seen` is all zero before and after.
fn sort_distinct(touched: &mut [usize], seen: &mut [u64]) {
    let (Some(&lo), Some(&hi)) = (touched.iter().min(), touched.iter().max()) else {
        return;
    };
    let words = lo / 64..hi / 64 + 1;
    if words.len() > touched.len() {
        touched.sort_unstable();
        return;
    }
    for &c in touched.iter() {
        seen[c / 64] |= 1 << (c % 64);
    }
    let mut next = 0;
    for w in words {
        let mut bits = std::mem::take(&mut seen[w]);
        while bits != 0 {
            touched[next] = w * 64 + bits.trailing_zeros() as usize;
            next += 1;
            bits &= bits - 1;
        }
    }
}

/// A sparse matrix partitioned into square `2^b × 2^b` blocks, stored block-row-major:
/// a shared [`BlockLayout`] and the one `f64` value per non-zero it arranges.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedMatrix {
    layout: Arc<BlockLayout>,
    vals: Vec<f64>,
}

impl BlockedMatrix {
    /// Partitions a CSR matrix into `2^b × 2^b` blocks: the [`BlockLayout::from_csr`]
    /// structure, its blocking gathering the values into block order as it places each
    /// entry.  Errors as [`BlockLayout::from_csr`] does.
    pub fn from_csr(a: &CsrMatrix, b: u32) -> Result<Self> {
        let mut vals = vec![0.0; a.nnz()];
        let layout = BlockLayout::blocking(a, b, |k, at| vals[at] = a.values()[k])?;
        Ok(BlockedMatrix {
            layout: Arc::new(layout),
            vals,
        })
    }

    /// The block-major structure, shareable with anything that stores one value per
    /// non-zero of this matrix.
    pub fn layout(&self) -> &Arc<BlockLayout> {
        &self.layout
    }

    /// Number of rows of the underlying matrix.
    pub fn nrows(&self) -> usize {
        self.layout.nrows
    }

    /// Number of columns of the underlying matrix.
    pub fn ncols(&self) -> usize {
        self.layout.ncols
    }

    /// The block-size exponent `b` (blocks are `2^b × 2^b`).
    pub fn b(&self) -> u32 {
        self.layout.b()
    }

    /// Block edge length `2^b`.
    pub fn block_size(&self) -> usize {
        self.layout.block_size()
    }

    /// Number of block rows (`⌈nrows / 2^b⌉`).
    pub fn num_block_rows(&self) -> usize {
        self.nrows().div_ceil(self.block_size())
    }

    /// Number of block columns (`⌈ncols / 2^b⌉`).
    pub fn num_block_cols(&self) -> usize {
        self.ncols().div_ceil(self.block_size())
    }

    /// Number of *non-empty* blocks.
    ///
    /// This is the number of crossbar clusters one full SpMV requires on the
    /// accelerator (§VI.B of the paper), so it drives the timing model.
    pub fn num_blocks(&self) -> usize {
        self.layout.num_blocks()
    }

    /// Total number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// All non-empty blocks in block-row-major order (the block-major layout).
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block<'_>> + Clone {
        self.layout.blocks(&self.vals)
    }

    /// The values, one per non-zero, in the layout's block order.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Average number of non-zeros per non-empty block.
    pub fn avg_nnz_per_block(&self) -> f64 {
        if self.num_blocks() == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.num_blocks() as f64
        }
    }

    /// Reconstructs the matrix as CSR (for round-trip testing and interoperability).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows(), self.ncols(), self.nnz());
        let bs = self.block_size();
        for blk in self.blocks() {
            let row0 = blk.block_row * bs;
            let col0 = blk.block_col * bs;
            for (ii, jj, v) in blk.iter() {
                coo.push(row0 + ii as usize, col0 + jj as usize, v);
            }
        }
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banded(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + i as f64 * 1e-3);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
            if i + 7 < n {
                coo.push(i, i + 7, 0.25);
                coo.push(i + 7, i, 0.25);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn from_csr_partitions_all_nonzeros() {
        let a = banded(100);
        let blocked = BlockedMatrix::from_csr(&a, 4).unwrap();
        assert_eq!(blocked.block_size(), 16);
        assert_eq!(blocked.nnz(), a.nnz());
        assert_eq!(blocked.num_block_rows(), 7);
        assert_eq!(blocked.num_block_cols(), 7);
        assert!(blocked.num_blocks() >= blocked.num_block_rows());
    }

    #[test]
    fn invalid_block_exponent_is_rejected() {
        let a = banded(10);
        assert!(BlockedMatrix::from_csr(&a, 0).is_err());
        assert!(BlockedMatrix::from_csr(&a, 16).is_err());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_block_coordinate_beyond_32_bits_is_an_error_not_an_allocation() {
        // 2^39 block columns at b = 1: the per-band cursor alone would be 2 TiB.
        let wide = CsrMatrix::from_raw(1, 1 << 40, vec![0, 0], vec![], vec![]).unwrap();
        let err = BlockedMatrix::from_csr(&wide, 1).unwrap_err();
        assert!(matches!(err, SparseError::InvalidParameter(_)), "{err}");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_column_count_beyond_32_bits_is_an_error_even_when_the_block_columns_fit() {
        // 2^18 block columns at b = 15 fit the table; the format's 32-bit column
        // addresses do not.
        let wide = CsrMatrix::from_raw(1, 1 << 33, vec![0, 0], vec![], vec![]).unwrap();
        let err = BlockedMatrix::from_csr(&wide, 15).unwrap_err();
        assert!(matches!(err, SparseError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn blocks_are_sorted_block_row_major() {
        let a = banded(200);
        let blocked = BlockedMatrix::from_csr(&a, 5).unwrap();
        let keys: Vec<(usize, usize)> = blocked
            .blocks()
            .map(|b| (b.block_row, b.block_col))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn local_indices_fit_in_block() {
        let a = banded(100);
        let blocked = BlockedMatrix::from_csr(&a, 4).unwrap();
        for blk in blocked.blocks() {
            for (ii, jj, _) in blk.iter() {
                assert!((ii as usize) < blocked.block_size());
                assert!((jj as usize) < blocked.block_size());
            }
        }
    }

    #[test]
    fn csr_roundtrip_preserves_matrix() {
        let a = banded(120);
        let blocked = BlockedMatrix::from_csr(&a, 4).unwrap();
        let back = blocked.to_csr();
        assert_eq!(a, back);
    }

    /// The layout of `a` by definition: its entries sorted by block, then by `(ii, jj)`,
    /// the table read off the sorted order, and the values in it.
    fn reference(a: &CsrMatrix, b: u32) -> (BlockLayout, Vec<f64>) {
        let mut entries: Vec<(usize, usize, f64)> = a.iter().collect();
        entries.sort_by_key(|&(r, c, _)| (r >> b, c >> b, r, c));
        let mut table: Vec<TableEntry> = Vec::new();
        for (k, &(r, c, _)) in entries.iter().enumerate() {
            let (block_row, block_col) = ((r >> b) as u32, (c >> b) as u32);
            if table.last().map(|t| (t.block_row, t.block_col)) != Some((block_row, block_col)) {
                table.push(TableEntry {
                    block_row,
                    block_col,
                    start: k as u32,
                });
            }
        }
        table.push(TableEntry {
            block_row: u32::MAX,
            block_col: u32::MAX,
            start: entries.len() as u32,
        });
        let local = |i: usize| (i & ((1 << b) - 1)) as u16;
        let layout = BlockLayout {
            nrows: a.nrows(),
            ncols: a.ncols(),
            b,
            table,
            rows: entries.iter().map(|&(r, ..)| local(r)).collect(),
            cols: entries.iter().map(|&(_, c, _)| local(c)).collect(),
            structure: Arc::clone(a.structure()),
        };
        (layout, entries.iter().map(|&(.., v)| v).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn the_layout_and_the_blocking_are_the_sorted_entries(
            (nrows, ncols) in (0usize..=48, 0usize..=600),
            cells in proptest::collection::vec((0usize..48, 0usize..600), 0..200),
            span in 0usize..3,
            b in 1u32..=7,
        ) {
            // Few entries over many block columns take the comparison sort; a row with an
            // entry in every block column, or in every other one, takes the bitmap.
            let mut coo = CooMatrix::new(nrows, ncols);
            if nrows > 0 && ncols > 0 {
                for (k, &(r, c)) in cells.iter().enumerate() {
                    coo.push(r % nrows, c % ncols, k as f64 + 1.0);
                }
                for c in (0..ncols).step_by(span.max(1) << b).filter(|_| span > 0) {
                    coo.push(nrows - 1, c, -(c as f64));
                }
            }
            let a = coo.to_csr();
            let (want, values) = reference(&a, b);
            let layout = BlockLayout::from_csr(&a, b).unwrap();
            proptest::prop_assert_eq!(&layout, &want);
            let blocked = BlockedMatrix::from_csr(&a, b).unwrap();
            proptest::prop_assert_eq!(&**blocked.layout(), &want);
            proptest::prop_assert_eq!(blocked.values(), &values[..]);
        }
    }

    #[test]
    fn a_layout_knows_the_structure_it_was_blocked_from_and_not_an_equal_one() {
        let a = banded(100);
        let layout = BlockLayout::from_csr(&a, 4).unwrap();
        let sharers = [a.clone(), a.with_values(vec![0.5; a.nnz()])];
        assert!(layout.blocked_from(&a) && sharers.iter().all(|s| layout.blocked_from(s)));
        let copy = banded(100);
        assert!(copy == a && !layout.blocked_from(&copy));
        // Equal content is an equal layout, whatever it was blocked from.
        assert_eq!(BlockLayout::from_csr(&copy, 4).unwrap(), layout);
        // A dropped source is not mistaken for a new matrix: the layout holds its structure.
        let (lone, expect) = (banded(50), BlockLayout::from_csr(&banded(50), 4).unwrap());
        let lone_layout = BlockLayout::from_csr(&lone, 4).unwrap();
        drop(lone);
        assert_eq!(lone_layout, expect);
        assert!(!lone_layout.blocked_from(&banded(50)));
    }

    #[test]
    fn a_layout_holds_the_matrix_structure_and_no_copy_of_it() {
        let a = banded(100);
        let layout = BlockLayout::from_csr(&a, 4).unwrap();
        assert!(std::ptr::eq(layout.row_ptr(), a.row_ptr()));
        assert!(std::ptr::eq(layout.col_idx(), a.col_idx()));
        let blocked = BlockedMatrix::from_csr(&a, 4).unwrap();
        assert!(std::ptr::eq(blocked.layout().col_idx(), a.col_idx()));
        // The matrix and the two layouts hold the one structure.
        assert_eq!(Arc::strong_count(a.structure()), 3);
        drop(a);
        assert_eq!(layout, **blocked.layout());
    }

    #[test]
    fn a_layout_lays_out_a_matrix_of_equal_structure_and_dimensions_only() {
        let a = banded(100);
        let layout = BlockLayout::from_csr(&a, 4).unwrap();
        let copy = banded(100);
        assert!(layout.lays_out(&a) && layout.lays_out(&a.with_values(vec![1.0; a.nnz()])));
        assert!(!layout.blocked_from(&copy) && layout.lays_out(&copy));
        assert!(!layout.lays_out(&banded(99)));
        // The same arrays over one more column are another matrix.
        let wide = CsrMatrix::from_raw(
            100,
            101,
            a.row_ptr().iter().map(|&p| p as usize).collect(),
            a.col_idx().iter().map(|&c| c as usize).collect(),
            a.values().to_vec(),
        )
        .unwrap();
        assert!(!layout.lays_out(&wide));
        // One entry more.
        let mut coo = banded(100).to_coo();
        coo.push(0, 50, 1.0);
        assert!(!layout.lays_out(&coo.to_csr()));
    }

    #[test]
    fn non_square_matrix_is_supported() {
        let mut coo = CooMatrix::new(10, 37);
        coo.push(0, 36, 1.0);
        coo.push(9, 0, 2.0);
        coo.push(5, 20, 3.0);
        let blocked = BlockedMatrix::from_csr(&coo.to_csr(), 3).unwrap();
        assert_eq!(blocked.num_block_rows(), 2);
        assert_eq!(blocked.num_block_cols(), 5);
        assert_eq!(blocked.nnz(), 3);
    }
}
