//! Block-row sharding of a sparse matrix across multiple accelerator chips.
//!
//! A single simulated chip holds a bounded number of crossbar clusters; SuiteSparse-
//! class matrices blow past that budget and have to be streamed through the chip in
//! multiple re-programming rounds (§VI.B of the paper).  The alternative explored by
//! the distributed in-memory-computing line of work (Vo et al.) is to *partition the
//! operator across chips*: each chip owns a contiguous band of block-rows, every SpMV
//! runs shard-local, and the host gathers the disjoint output bands.
//!
//! A shard is a row range of the one blocking, not a second matrix.  The partitioner
//! cuts on **block-row boundaries** (multiples of `2^b` rows), so no block straddles
//! two chips and each chip holds whole blocks of the layout
//! ([`BlockLayout::blocks_in_rows`] counts them).  Shard loads are balanced by nonzero
//! count via [`balance_by_weight`](crate::parallel::balance_by_weight).

use std::ops::Range;

use crate::blocked::{block_row_spans, BlockLayout};
use crate::parallel;

/// Computes block-row-aligned, nnz-balanced shard row ranges of `layout`'s matrix.
///
/// Returns at most `shards` non-empty ranges that tile `0..nrows` in order; fewer are
/// returned when the matrix has fewer block-rows than requested shards.  Cuts fall on
/// multiples of `2^b`.  A matrix with no rows is one empty band, so every matrix has
/// at least one.
pub fn block_row_shards(layout: &BlockLayout, shards: usize) -> Vec<Range<usize>> {
    block_row_shards_counting(layout.row_ptr(), layout.b(), shards, |_| true).0
}

/// [`block_row_shards`] of the matrix whose row pointers are `row_ptr`, at `2^b`-row
/// block rows, balanced over the non-zeros of the block rows that `counted` selects (a
/// re-encode's dirty rows): any other block row weighs nothing.  It reads the row
/// pointers alone, so a matrix not yet blocked can be cut.  Returns the bands and the
/// number of non-zeros they weigh.
pub fn block_row_shards_counting(
    row_ptr: &[u32],
    b: u32,
    shards: usize,
    counted: impl Fn(usize) -> bool,
) -> (Vec<Range<usize>>, usize) {
    let nrows = row_ptr.len() - 1;
    // Counted non-zeros before each block-row boundary: the balance weights.  No rows
    // counts as one empty block row.
    let mut prefix = vec![0];
    for (brow, span) in block_row_spans(row_ptr, b, 0..nrows) {
        prefix.push(prefix[brow] + if counted(brow) { span.len() } else { 0 });
    }
    if nrows == 0 {
        prefix.push(0);
    }
    let bands = parallel::balance_by_weight(&prefix, shards)
        .into_iter()
        .map(|brows| brows.start << b..(brows.end << b).min(nrows))
        .collect();
    (bands, prefix[prefix.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocked::BlockedMatrix;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;

    fn banded(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + i as f64 * 1e-3);
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    fn shards_of(a: &CsrMatrix, b: u32, shards: usize) -> Vec<Range<usize>> {
        block_row_shards(BlockedMatrix::from_csr(a, b).unwrap().layout(), shards)
    }

    fn nnz(a: &CsrMatrix, rows: &Range<usize>) -> usize {
        (a.row_ptr()[rows.end] - a.row_ptr()[rows.start]) as usize
    }

    #[test]
    fn shards_tile_the_rows_on_block_boundaries() {
        let a = banded(1000);
        let blocked = BlockedMatrix::from_csr(&a, 4).unwrap();
        for shards in [1usize, 2, 3, 4, 8] {
            let parts = block_row_shards(blocked.layout(), shards);
            assert!(!parts.is_empty() && parts.len() <= shards);
            assert_eq!(parts[0].start, 0);
            assert_eq!(parts.last().unwrap().end, 1000);
            for w in parts.windows(2) {
                assert_eq!(w[0].end, w[1].start);
                assert_eq!(w[0].end % 16, 0, "cut must sit on a block boundary");
            }
            let blocks = parts
                .iter()
                .map(|rows| blocked.layout().blocks_in_rows(rows.clone()));
            assert_eq!(blocks.sum::<usize>(), blocked.num_blocks());
        }
    }

    #[test]
    fn shard_loads_are_balanced_by_nonzeros() {
        let a = banded(4096);
        let parts = shards_of(&a, 4, 4);
        assert_eq!(parts.len(), 4);
        let max = parts.iter().map(|p| nnz(&a, p)).max().unwrap();
        let min = parts.iter().map(|p| nnz(&a, p)).min().unwrap();
        assert!(max <= 2 * min, "nnz imbalance: {max} vs {min}");
    }

    #[test]
    fn more_shards_than_block_rows_degrades_gracefully() {
        let a = banded(20); // b = 4 -> 2 block rows
        let parts = shards_of(&a, 4, 16);
        assert!(parts.len() <= 2);
        assert_eq!(parts.last().unwrap().end, 20);
    }

    #[test]
    fn a_matrix_with_no_rows_is_one_empty_band() {
        let empty = CooMatrix::new(0, 0).to_csr();
        for shards in [1usize, 2, 8] {
            let parts = shards_of(&empty, 4, shards);
            assert_eq!((parts.len(), &parts[0]), (1, &(0..0)));
        }
    }
}
