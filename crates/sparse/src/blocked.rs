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
//! structure alone: a block table of `(block_row, block_col, start)`, blocks back to
//! back in block-row-major order and each block's entries in CSR order (sorted by
//! `(ii, jj)`), over the source CSR's own shared structure (`u32` row pointers and
//! global columns) as its *row order*, not a copy.  It holds nothing per non-zero of
//! its own.  This module alone defines how the two orders correspond:
//! [`BlockLayout::walk_row_order`] pairs every row-order index with its block and its
//! block-order position, a run of them at a time.
//!
//! One walk finds the blocks ([`TableBuilder`]): one block-row band at a time, a pass
//! over the band's columns counts each block column's entries, and the band's touched
//! block columns are ordered (through a bitmap, linear in their number, unless they are
//! few and far apart) into its table entries.  [`BlockLayout::from_csr`] is that walk
//! alone; `refloat-core`'s encoder runs it inside its exponent pass, handing each
//! entry's value along, so a from-scratch encode finds its blocks without a walk of its
//! own.  Anything with one value per non-zero rides on the layout, in whichever order
//! suits it: a [`BlockedMatrix`] is the layout plus the local indices and the `f64`
//! values in block order, and `refloat-core`'s `ReFloatMatrix` shares the same layout
//! (it sits behind an [`Arc`]) and adds the per-block exponent bases and the decoded
//! values in row order, which its SpMV reads with the CSR loop.
//!
//! So [`BlockLayout::lays_out`] knows in O(1) that a matrix sharing that structure (a
//! clone, a value update through `CsrMatrix::with_values`, or a matrix built apart
//! that adopted it through `CsrMatrix::adopt_structure`) is laid out by it, and
//! compares the arrays only for a structure built apart.

use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

use crate::coo::CooMatrix;
use crate::csr::{CsrMatrix, Structure};
use crate::error::SparseError;
use crate::vecops::Halo;
use crate::Result;

/// One row of the block table.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TableEntry {
    block_row: u32,
    block_col: u32,
    /// Block-order position of the block's first non-zero; the block runs to the next
    /// entry's `start`.
    start: u32,
}

/// The block-major structure of a sparse matrix: where every non-zero sits, without
/// the values.  Equality is content equality; which structure object a layout holds,
/// and which halos it has kept, do not take part.
#[derive(Debug)]
pub struct BlockLayout {
    nrows: usize,
    ncols: usize,
    /// log2 of the block edge length (the paper's `b`).
    b: u32,
    /// One entry per non-empty block, strictly sorted by `(block_row, block_col)`,
    /// closed by a sentinel whose `start` is the non-zero count.
    table: Vec<TableEntry>,
    /// Row order: the CSR structure the layout was blocked from, shared with every
    /// matrix over it — where each row's non-zeros start, and their global columns.
    structure: Arc<Structure>,
    /// The halo of every band split a laned apply has asked for ([`halo`](Self::halo)):
    /// run lists alone, nothing that keeps the structure alive.
    halos: Mutex<Vec<Arc<Halo>>>,
}

impl PartialEq for BlockLayout {
    fn eq(&self, other: &Self) -> bool {
        (self.nrows, self.ncols, self.b) == (other.nrows, other.ncols, other.b)
            && self.table == other.table
            && self.structure == other.structure
    }
}

/// One non-empty `2^b × 2^b` block of a [`BlockedMatrix`].
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

/// The row-order indices of the non-zeros of each block row that `rows` (block-row
/// aligned) covers, in order: `(block_row, span)`, read off the row pointers.
pub fn block_row_spans(
    row_ptr: &[u32],
    b: u32,
    rows: Range<usize>,
) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let end = rows.end;
    rows.step_by(1 << b).map(move |lo| {
        let hi = (lo + (1 << b)).min(end);
        (lo >> b, row_ptr[lo] as usize..row_ptr[hi] as usize)
    })
}

/// The one walk that finds a matrix's blocks: its block table, built one block-row
/// band at a time, in order, from the band's columns in row order.
///
/// [`band`](Self::band) counts the band's entries per block column, handing each
/// entry's block column to a visitor as it goes (the encoder sums exponents there),
/// then orders the band's distinct block columns and appends their table entries.  A
/// builder can be cut into parts by block row ([`part`](Self::part)), walked apart (on
/// other threads) and joined back in order ([`append`](Self::append)); a table whose
/// every block row was walked [`finish`](Self::finish)es into the matrix's
/// [`BlockLayout`].  Nothing is allocated per block row.
#[derive(Debug)]
pub struct TableBuilder {
    nrows: usize,
    ncols: usize,
    b: u32,
    structure: Arc<Structure>,
    /// The block rows walked so far.
    block_rows: Range<usize>,
    table: Vec<TableEntry>,
    /// Per block column of the current band: its entry count; all zero between bands.
    counts: Vec<u32>,
    /// A bitmap over the block columns for [`sort_distinct`]; all zero between bands.
    seen: Vec<u64>,
    /// The band's distinct block columns, in the order of their first entries: each
    /// entry writes its own at the end, and only a first one moves the end — no branch,
    /// which a scattered band's first entries would mispredict.
    touched: Vec<usize>,
}

impl TableBuilder {
    /// An empty table of `a` at `2^b × 2^b` blocks, to walk from block row 0.
    ///
    /// Returns an error if `b == 0` would make blocks degenerate (`b` must be ≥ 1), if
    /// `b` is large enough that local indices no longer fit in `u16` (`b ≤ 15`), or if
    /// the column count does not fit the format's 32-bit column addresses (Fig. 4).
    pub fn new(a: &CsrMatrix, b: u32) -> Result<Self> {
        if b == 0 || b > 15 {
            return Err(SparseError::InvalidParameter(format!(
                "block size exponent b must be in 1..=15, got {b}"
            )));
        }
        let (nrows, ncols) = (a.nrows(), a.ncols());
        // The `as u32` of the walk narrow block coordinates, bounded by the row count,
        // which the structure bounds, and by the column count, checked here.
        if u32::try_from(ncols).is_err() {
            return Err(SparseError::InvalidParameter(format!(
                "{nrows}x{ncols} matrix at b = {b}: the layout is 32-bit"
            )));
        }
        Ok(Self::starting(
            nrows,
            ncols,
            b,
            Arc::clone(a.structure()),
            0,
        ))
    }

    /// An empty table over `structure` from block row `first`.
    fn starting(
        nrows: usize,
        ncols: usize,
        b: u32,
        structure: Arc<Structure>,
        first: usize,
    ) -> Self {
        let block_cols = ncols.div_ceil(1 << b);
        TableBuilder {
            nrows,
            ncols,
            b,
            structure,
            block_rows: first..first,
            table: Vec::new(),
            counts: vec![0; block_cols],
            seen: vec![0; block_cols.div_ceil(64)],
            touched: vec![0; block_cols + 1],
        }
    }

    /// An empty part of the same table, to walk from block row `first` on and then
    /// [`append`](Self::append) after the block rows before it.
    pub fn part(&self, first: usize) -> Self {
        let structure = Arc::clone(&self.structure);
        Self::starting(self.nrows, self.ncols, self.b, structure, first)
    }

    /// Walks block row `block_row`, the one after the rows walked so far: counts its
    /// entries per block column, calling `visit(block_col, item)` for each entry in row
    /// order with the next of `items` (one per entry of the band), then appends the
    /// band's blocks in block-column order, each starting where the one before it ends.
    /// Returns their block columns, in that order.
    ///
    /// # Panics
    /// Panics if `block_row` is not the next block row.
    pub fn band<T>(
        &mut self,
        block_row: usize,
        items: impl IntoIterator<Item = T>,
        mut visit: impl FnMut(usize, T),
    ) -> &[usize] {
        assert_eq!(
            block_row, self.block_rows.end,
            "TableBuilder: block rows are walked in order"
        );
        self.block_rows.end += 1;
        let (row_ptr, b) = (&self.structure.row_ptr, self.b);
        let (lo, hi) = (block_row << b, ((block_row + 1) << b).min(self.nrows));
        let span = row_ptr[lo] as usize..row_ptr[hi] as usize;
        let mut distinct = 0;
        for (&c, item) in self.structure.col_idx[span.clone()].iter().zip(items) {
            let bcol = (c >> b) as usize;
            self.touched[distinct] = bcol;
            distinct += (self.counts[bcol] == 0) as usize;
            self.counts[bcol] += 1;
            visit(bcol, item);
        }
        let touched = &mut self.touched[..distinct];
        sort_distinct(touched, &mut self.seen);
        let mut start = span.start as u32;
        for &bcol in touched.iter() {
            self.table.push(TableEntry {
                block_row: block_row as u32,
                block_col: bcol as u32,
                start,
            });
            start += std::mem::take(&mut self.counts[bcol]);
        }
        touched
    }

    /// Appends `part`, walked from the block row after this table's last.
    ///
    /// # Panics
    /// Panics if `part` is not a part of this table or does not start there.
    pub fn append(&mut self, part: TableBuilder) {
        let same = Arc::ptr_eq(&self.structure, &part.structure) && self.b == part.b;
        assert!(same, "TableBuilder: a part of another table");
        assert_eq!(
            part.block_rows.start, self.block_rows.end,
            "TableBuilder: parts are appended in order"
        );
        self.block_rows.end = part.block_rows.end;
        self.table.extend(part.table);
    }

    /// The layout whose table this is.
    ///
    /// # Panics
    /// Panics unless every block row, from the first, was walked.
    pub fn finish(mut self) -> BlockLayout {
        let all = 0..self.nrows.div_ceil(1 << self.b);
        assert_eq!(
            self.block_rows, all,
            "TableBuilder: every block row is walked"
        );
        self.table.push(TableEntry {
            block_row: u32::MAX,
            block_col: u32::MAX,
            start: self.structure.col_idx.len() as u32,
        });
        BlockLayout {
            nrows: self.nrows,
            ncols: self.ncols,
            b: self.b,
            table: self.table,
            structure: self.structure,
            halos: Mutex::default(),
        }
    }
}

impl BlockLayout {
    /// The block-major structure of a CSR matrix at `2^b × 2^b` blocks, built from its
    /// row pointers and columns alone: the [`TableBuilder`] walk over every block row,
    /// with nothing to visit.  The row order is the CSR's own structure, shared.
    ///
    /// Errors as [`TableBuilder::new`] does.
    pub fn from_csr(a: &CsrMatrix, b: u32) -> Result<Self> {
        let mut table = TableBuilder::new(a, b)?;
        for block_row in 0..a.nrows().div_ceil(1 << b) {
            table.band(block_row, std::iter::repeat(()), |_, ()| {});
        }
        Ok(table.finish())
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
        self.structure.col_idx.len()
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

    /// The block rows that `rows` (block-row aligned) covers, in order, each with the
    /// row-order indices of its non-zeros: `(block_row, span)`.
    pub fn block_row_spans(
        &self,
        rows: Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        block_row_spans(self.row_ptr(), self.b, rows)
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

    /// The [`Halo`] of a laned apply over the layout's rows cut into `bands`, band `k`
    /// converting the input's columns `own[k]` itself.  It is a function of the
    /// structure and the split alone, so the first call for a split computes it and the
    /// layout keeps it for every later apply of every matrix over it — a transient
    /// chain's steps share one.
    pub fn halo(&self, bands: &[Range<usize>], own: &[Range<usize>]) -> Arc<Halo> {
        // A panic under the lock, in a bad split's computation, leaves the list as it
        // was: a poisoned guard still holds whole halos.
        let mut halos = self.halos.lock().unwrap_or_else(PoisonError::into_inner);
        let split = |halo: &&Arc<Halo>| (halo.bands(), halo.own()) == (bands, own);
        if let Some(halo) = halos.iter().find(split) {
            return Arc::clone(halo);
        }
        let (row_ptr, col_idx) = (self.row_ptr(), self.col_idx());
        let halo = Arc::new(Halo::new(row_ptr, col_idx, self.ncols, bands, own));
        halos.push(Arc::clone(&halo));
        halo
    }

    /// Walks the non-zeros in row order, run by run: `visit(row_order, block,
    /// block_order)` says the row-order indices `row_order` all belong to block `block`
    /// and sit, in the same order, at the block-order positions `block_order`.  A run is
    /// a maximal stretch of one band's row order in one block column — consecutive
    /// there because a block holds its entries in CSR order.  It and
    /// [`BlockedMatrix::over`] read the one definition of how the two orders correspond,
    /// `walk_bands`' cursors; every row-order index is visited once, in order, and the
    /// positions form a permutation.
    pub fn walk_row_order(&self, mut visit: impl FnMut(Range<usize>, usize, Range<usize>)) {
        self.walk_bands(|_, band, cursor| {
            let mut k = band.start;
            for run in self.col_idx()[band].chunk_by(|&c, &d| c >> self.b == d >> self.b) {
                let (block, start) = &mut cursor[(run[0] >> self.b) as usize];
                let at = *start as usize;
                visit(k..k + run.len(), *block as usize, at..at + run.len());
                *start += run.len() as u32;
                k += run.len();
            }
        });
    }

    /// Calls `band(rows, span, cursor)` for every block row in order: `rows` its rows,
    /// `span` their row-order indices, and `cursor[block_col]`, for each of its blocks,
    /// the block's index and its first block-order position, which the caller advances
    /// as it places the block column's entries in row order.  Only the band's own block
    /// columns are set.
    fn walk_bands(&self, mut band: impl FnMut(Range<usize>, Range<usize>, &mut [(u32, u32)])) {
        let mut cursor = vec![(0u32, 0u32); self.ncols.div_ceil(self.block_size())];
        let mut blocks = self.table[..self.num_blocks()]
            .iter()
            .enumerate()
            .peekable();
        for (brow, span) in self.block_row_spans(0..self.nrows) {
            while let Some((index, entry)) =
                blocks.next_if(|(_, entry)| entry.block_row as usize == brow)
            {
                cursor[entry.block_col as usize] = (index as u32, entry.start);
            }
            let lo = brow << self.b;
            band(
                lo..(lo + self.block_size()).min(self.nrows),
                span,
                &mut cursor,
            );
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
/// a shared [`BlockLayout`] and, in its block order, the local row and column index
/// and the `f64` value of every non-zero — the one type that stores anything in block
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockedMatrix {
    layout: Arc<BlockLayout>,
    /// Local row index `ii` (`< 2^b`) per non-zero.
    rows: Vec<u16>,
    /// Local column index `jj` (`< 2^b`) per non-zero.
    cols: Vec<u16>,
    vals: Vec<f64>,
}

impl BlockedMatrix {
    /// Partitions a CSR matrix into `2^b × 2^b` blocks: its [`BlockLayout::from_csr`]
    /// layout, with its values put [`over`](Self::over) it.  Errors as
    /// [`BlockLayout::from_csr`] does.
    pub fn from_csr(a: &CsrMatrix, b: u32) -> Result<Self> {
        let layout = BlockLayout::from_csr(a, b)?;
        Ok(Self::over(&Arc::new(layout), a.values()))
    }

    /// The blocked matrix over `layout` (shared) whose values, in the layout's row order,
    /// are `values`: each block row's entries placed at their block-order positions as
    /// [`walk_row_order`](BlockLayout::walk_row_order) pairs them, row by row, with their
    /// local indices.
    ///
    /// # Panics
    /// Panics if `values` does not hold one value per non-zero.
    pub fn over(layout: &Arc<BlockLayout>, values: &[f64]) -> Self {
        let nnz = layout.nnz();
        assert_eq!(values.len(), nnz, "BlockedMatrix: one value per nnz");
        let (mut rows, mut cols, mut vals) = (vec![0u16; nnz], vec![0u16; nnz], vec![0.0; nnz]);
        let (b, row_ptr, col_idx) = (layout.b, layout.row_ptr(), layout.col_idx());
        let mask = (1 << b) - 1;
        layout.walk_bands(|band_rows, _, cursor| {
            for r in band_rows {
                let row = row_ptr[r] as usize..row_ptr[r + 1] as usize;
                for (&c, &v) in col_idx[row.clone()].iter().zip(&values[row]) {
                    let at = &mut cursor[(c >> b) as usize].1;
                    let k = *at as usize;
                    (rows[k], cols[k], vals[k]) =
                        ((r & mask) as u16, (c as usize & mask) as u16, v);
                    *at += 1;
                }
            }
        });
        BlockedMatrix {
            layout: Arc::clone(layout),
            rows,
            cols,
            vals,
        }
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
        self.layout
            .extents()
            .map(|((block_row, block_col), range)| Block {
                block_row,
                block_col,
                rows: &self.rows[range.clone()],
                cols: &self.cols[range.clone()],
                vals: &self.vals[range],
            })
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

    /// The blocking of `a` by definition: its entries sorted by block, then by `(ii, jj)`,
    /// the table read off the sorted order, and the local indices and values in it.
    fn reference(a: &CsrMatrix, b: u32) -> BlockedMatrix {
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
            structure: Arc::clone(a.structure()),
            halos: Mutex::default(),
        };
        BlockedMatrix {
            layout: Arc::new(layout),
            rows: entries.iter().map(|&(r, ..)| local(r)).collect(),
            cols: entries.iter().map(|&(_, c, _)| local(c)).collect(),
            vals: entries.iter().map(|&(.., v)| v).collect(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn the_layout_and_the_blocking_are_the_sorted_entries(
            (nrows, ncols) in (0usize..=48, 0usize..=600),
            cells in proptest::collection::vec((0usize..48, 0usize..600), 0..200),
            span in 0usize..3,
            b in 1u32..=7,
            cut in 0usize..=48,
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
            let want = reference(&a, b);
            let layout = BlockLayout::from_csr(&a, b).unwrap();
            proptest::prop_assert_eq!(&layout, &**want.layout());
            let blocked = BlockedMatrix::from_csr(&a, b).unwrap();
            proptest::prop_assert_eq!(&blocked, &want);
            // A table walked in two parts, the second from any block row, is the same.
            let block_rows = nrows.div_ceil(1 << b);
            let cut = cut.min(block_rows);
            let mut head = TableBuilder::new(&a, b).unwrap();
            let mut tail = head.part(cut);
            for block_row in 0..block_rows {
                let part = if block_row < cut { &mut head } else { &mut tail };
                part.band(block_row, std::iter::repeat(()), |_, ()| {});
            }
            head.append(tail);
            proptest::prop_assert_eq!(&head.finish(), &layout);
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
