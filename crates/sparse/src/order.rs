//! Where an encoding over a [`BlockLayout`] keeps its values, and the two kernels that
//! sum its rows.
//!
//! An encoding stores one value per *slot*.  In **row order** a slot is a non-zero, at
//! its index in the layout's row order, and a row's sum is the CSR row loop
//! ([`row_sums`]), which gathers `x` at every non-zero's column.  A structure whose
//! non-zeros lie on few diagonals (offsets `col − row`: a stencil's, a FEM mesh's)
//! takes the **diagonal order** instead: every row has one slot per diagonal, `+0.0`
//! where the row stores nothing there.  Within the block row `lo..lo + len` that holds
//! row `r` (the layout's `2^b` rows), the slot of `(r, d)` is `lo · D + d · len +
//! (r − lo)`, for `D` diagonals:
//!
//! * a diagonal's values over a block row are one contiguous run, beside a contiguous
//!   run of `x`, so the kernel ([`ValueOrder::sums`]) streams both, with no gather, in
//!   a loop the compiler vectorizes;
//! * a block row's slots are one contiguous span in either order
//!   ([`ValueOrder::block_row_slots`]), so an encode splits, copies and skips by block
//!   row alike.  (Plain diagonal-major `d · nrows + r` would put the encoder's `D` write
//!   streams `8 · nrows` bytes apart, which alias in the cache at power-of-two sizes.)
//!
//! Both kernels add each row's terms in ascending column order from `0.0`, the diagonal
//! one in ascending offset order.  A padded slot adds `+0.0 · x[c]`, an exact `±0` when
//! `x[c]` is finite, and a round-to-nearest sum started at `+0.0` is never `−0.0`, so the
//! term changes nothing: for a finite `x` the two orders give the same bits.  An `x`
//! holding an infinity or a NaN, which the vector converter never emits, needs the row
//! loop over the values in row order ([`ValueOrder::row_order`]).
//!
//! The order is a function of the structure alone, decided once per structure (every
//! layout and matrix sharing it reads the same answer): the diagonal order when its
//! slots are at most twice the non-zeros, `D · nrows ≤ 2 · nnz`, else row order.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::blocked::{block_row_spans, BlockLayout};
use crate::csr::row_sums;

/// How an encoding over a structure stores its values: see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueOrder {
    /// One slot per non-zero, in the row order.
    Rows,
    /// One slot per row and diagonal, block row by block row.
    Diagonals(Arc<Diagonals>),
}

/// The diagonals a structure's non-zeros lie on.
#[derive(Debug, PartialEq, Eq)]
pub struct Diagonals {
    /// Their offsets `col − row`, strictly ascending.
    offsets: Vec<i64>,
    /// The least offset, where `index` starts.
    least: i64,
    /// Per offset from the least to the greatest, the index of its diagonal (a table,
    /// so placing a value takes no search); an offset on no diagonal has none.
    index: Vec<u32>,
}

impl Diagonals {
    /// The diagonals of the strictly ascending `offsets`.
    fn new(offsets: Vec<i64>) -> Self {
        let least = offsets.first().copied().unwrap_or(0);
        let span = offsets.last().map_or(0, |&greatest| greatest - least + 1);
        let mut index = vec![u32::MAX; span as usize];
        for (d, &offset) in offsets.iter().enumerate() {
            index[(offset - least) as usize] = d as u32;
        }
        Diagonals {
            offsets,
            least,
            index,
        }
    }

    /// The index of the diagonal at `offset`.
    #[inline(always)]
    fn of(&self, offset: i64) -> usize {
        self.index[(offset - self.least) as usize] as usize
    }
}

impl ValueOrder {
    /// The order of a structure of row pointers `row_ptr` and columns `col_idx`: the
    /// diagonal order when `D · nrows ≤ 2 · nnz`.
    pub(crate) fn of(row_ptr: &[u32], col_idx: &[u32]) -> Self {
        scan(row_ptr, col_idx).0
    }

    /// The diagonals' offsets `col − row`, ascending, in diagonal order; `None` in row
    /// order.
    pub fn offsets(&self) -> Option<&[i64]> {
        match self {
            ValueOrder::Rows => None,
            ValueOrder::Diagonals(diagonals) => Some(&diagonals.offsets),
        }
    }

    /// The slots of the rows `rows`, whose start opens a block row and whose end closes
    /// one (or the matrix), in a structure of row pointers `row_ptr`.
    pub fn slots(&self, row_ptr: &[u32], rows: Range<usize>) -> Range<usize> {
        match self {
            ValueOrder::Rows => row_ptr[rows.start] as usize..row_ptr[rows.end] as usize,
            ValueOrder::Diagonals(diagonals) => {
                let count = diagonals.offsets.len();
                rows.start * count..rows.end * count
            }
        }
    }

    /// The block rows that `rows` (block-row aligned) covers at `2^b` rows each, in
    /// order, each with its non-zeros' row-order indices and its slots:
    /// `(block_row, non-zeros, slots)`.
    pub fn block_row_slots<'a>(
        &'a self,
        row_ptr: &'a [u32],
        b: u32,
        rows: Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>, Range<usize>)> + 'a {
        let nrows = row_ptr.len() - 1;
        block_row_spans(row_ptr, b, rows).map(move |(brow, span)| {
            let lo = brow << b;
            (
                brow,
                span,
                self.slots(row_ptr, lo..(lo + (1 << b)).min(nrows)),
            )
        })
    }

    /// Calls `visit(k, slot)` for every non-zero of the rows `rows`, in row order: `k`
    /// its row-order index, `slot` where its value sits, blocks rows being `2^b` rows.
    ///
    /// # Panics
    /// Panics if a non-zero lies outside the order's diagonals (another structure's).
    #[inline]
    pub fn place(
        &self,
        row_ptr: &[u32],
        col_idx: &[u32],
        b: u32,
        rows: Range<usize>,
        mut visit: impl FnMut(usize, usize),
    ) {
        let diagonals = match self {
            ValueOrder::Rows => {
                let span = row_ptr[rows.start] as usize..row_ptr[rows.end] as usize;
                return span.for_each(|k| visit(k, k));
            }
            ValueOrder::Diagonals(diagonals) => diagonals,
        };
        let (nrows, count) = (row_ptr.len() - 1, diagonals.offsets.len());
        for r in rows {
            let lo = r >> b << b;
            let len = (lo + (1 << b)).min(nrows) - lo;
            let first = lo * count + (r - lo);
            let row = row_ptr[r] as usize..row_ptr[r + 1] as usize;
            if row.len() == count {
                // A full row's `d`-th non-zero is on the `d`-th diagonal.
                for (d, k) in row.enumerate() {
                    visit(k, first + d * len);
                }
                continue;
            }
            for (k, &c) in row.clone().zip(&col_idx[row]) {
                visit(k, first + diagonals.of(c as i64 - r as i64) * len);
            }
        }
    }

    /// The values of an encoding over `layout` in this order, `values`, read back in
    /// the layout's row order: borrowed in row order, gathered from the diagonals.
    ///
    /// # Panics
    /// Panics unless `values` holds one value per slot.
    pub fn row_order<'a>(&self, layout: &BlockLayout, values: &'a [f64]) -> Cow<'a, [f64]> {
        let (row_ptr, col_idx, all) = (layout.row_ptr(), layout.col_idx(), 0..layout.nrows());
        let slots = self.slots(row_ptr, all.clone()).len();
        assert_eq!(values.len(), slots, "ValueOrder: one value per slot");
        if *self == ValueOrder::Rows {
            return Cow::Borrowed(values);
        }
        let mut rows = vec![0.0; layout.nnz()];
        self.place(row_ptr, col_idx, layout.b(), all, |k, slot| {
            rows[k] = values[slot]
        });
        Cow::Owned(rows)
    }

    /// Row `r`'s values in column order, of an encoding over `layout` whose values, in
    /// this order, are `values`: borrowed in row order, gathered into `buffer` from the
    /// diagonals.  A row loop that reads values in row order, one row at a time, reads
    /// them so without a whole copy.
    pub fn row<'a>(
        &self,
        layout: &BlockLayout,
        values: &'a [f64],
        r: usize,
        buffer: &'a mut Vec<f64>,
    ) -> &'a [f64] {
        let row_ptr = layout.row_ptr();
        let row = row_ptr[r] as usize..row_ptr[r + 1] as usize;
        if *self == ValueOrder::Rows {
            return &values[row];
        }
        buffer.clear();
        buffer.resize(row.len(), 0.0);
        self.place(
            row_ptr,
            layout.col_idx(),
            layout.b(),
            r..r + 1,
            |k, slot| buffer[k - row.start] = values[slot],
        );
        buffer
    }

    /// Rows `rows` of the product of the encoding over `layout` whose values, in this
    /// order, are `values`, with `x`, into `y`: each row's terms `value · x[col]` added in
    /// ascending column order from `0.0` — the row loop [`row_sums`] in row order, and
    /// in diagonal order one pass per diagonal over each block row, the same bits for a
    /// finite `x` (see the [module docs](self)).  A row's sum does not depend on the
    /// range it is computed in.
    ///
    /// # Panics
    /// Panics if `values` does not hold one value per slot, `x` one per column or `y`
    /// one per row of `rows`, or `rows` ends past the last row.
    pub fn sums(
        &self,
        layout: &BlockLayout,
        values: &[f64],
        x: &[f64],
        rows: Range<usize>,
        y: &mut [f64],
    ) {
        let (nrows, row_ptr) = (layout.nrows(), layout.row_ptr());
        assert_eq!(x.len(), layout.ncols(), "encoded spmv: x length mismatch");
        assert_eq!(y.len(), rows.len(), "encoded spmv: y length mismatch");
        let slots = self.slots(row_ptr, 0..nrows).len();
        assert_eq!(values.len(), slots, "encoded spmv: one value per slot");
        match self {
            ValueOrder::Rows => {
                row_sums(
                    &row_ptr[rows.start..=rows.end],
                    layout.col_idx(),
                    values,
                    x,
                    y,
                );
            }
            ValueOrder::Diagonals(diagonals) => {
                diagonal_sums(&diagonals.offsets, layout.b(), nrows, values, x, rows, y);
            }
        }
    }
}

/// The diagonal kernel of [`ValueOrder::sums`]: per block row, `y` over its rows in
/// `rows` set to `0.0`, then one pass per diagonal, in ascending offset order, adding
/// `value · x[r + offset]` over the rows whose column `r + offset` is in `x`.
fn diagonal_sums(
    offsets: &[i64],
    b: u32,
    nrows: usize,
    values: &[f64],
    x: &[f64],
    rows: Range<usize>,
    y: &mut [f64],
) {
    let (count, ncols) = (offsets.len(), x.len() as i64);
    let mut r = rows.start;
    while r < rows.end {
        let lo = r >> b << b;
        let hi = (lo + (1 << b)).min(nrows);
        let (end, len) = (hi.min(rows.end), hi - lo);
        let out = &mut y[r - rows.start..end - rows.start];
        out.fill(0.0);
        let block_row = &values[lo * count..hi * count];
        for (diagonal, &offset) in block_row.chunks_exact(len).zip(offsets) {
            // The rows of `r..end` whose column on this diagonal is inside `x`.
            let first = (r as i64).max(-offset);
            let last = (end as i64).min(ncols - offset);
            if first >= last {
                continue;
            }
            let (first, last) = (first as usize, last as usize);
            let vals = &diagonal[first - lo..last - lo];
            let xs = &x[(first as i64 + offset) as usize..(last as i64 + offset) as usize];
            for ((y, v), x) in out[first - r..last - r].iter_mut().zip(vals).zip(xs) {
                *y += v * x;
            }
        }
        r = end;
    }
}

/// The order of a structure ([`ValueOrder::of`]) and how many rows the scan read before
/// it decided.  A row whose columns are the previous row's, each one further right —
/// every interior row of a stencil — adds no offset and is not looked at further; the
/// scan gives up at the first offset past the bound `2 · nnz / nrows`.
fn scan(row_ptr: &[u32], col_idx: &[u32]) -> (ValueOrder, usize) {
    let nrows = row_ptr.len() - 1;
    let most = (2 * col_idx.len()).checked_div(nrows).unwrap_or(0);
    let mut offsets: Vec<i64> = Vec::new();
    let mut previous: &[u32] = &[];
    for (r, bounds) in row_ptr.windows(2).enumerate() {
        let cols = &col_idx[bounds[0] as usize..bounds[1] as usize];
        let shifted =
            cols.len() == previous.len() && cols.iter().zip(previous).all(|(&c, &p)| c == p + 1);
        previous = cols;
        if shifted {
            continue;
        }
        for &c in cols {
            let offset = c as i64 - r as i64;
            if let Err(at) = offsets.binary_search(&offset) {
                if offsets.len() == most {
                    return (ValueOrder::Rows, r + 1);
                }
                offsets.insert(at, offset);
            }
        }
    }
    (
        ValueOrder::Diagonals(Arc::new(Diagonals::new(offsets))),
        nrows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;
    use crate::csr::CsrMatrix;
    use proptest::prelude::*;

    /// The `nx × ny × nz` grid's stencil: each point and its neighbours at the given
    /// grid steps, those off the grid left out.
    fn stencil(n: [usize; 3], steps: &[[i64; 3]]) -> CsrMatrix {
        let index = |p: [i64; 3]| (p[2] * n[1] as i64 + p[1]) * n[0] as i64 + p[0];
        let rows = n.iter().product();
        let mut coo = CooMatrix::new(rows, rows);
        for r in 0..rows as i64 {
            let p = [
                r % n[0] as i64,
                r / n[0] as i64 % n[1] as i64,
                r / (n[0] * n[1]) as i64,
            ];
            for s in steps {
                let q = [p[0] + s[0], p[1] + s[1], p[2] + s[2]];
                if (0..3).all(|i| (0..n[i] as i64).contains(&q[i])) {
                    coo.push(r as usize, index(q) as usize, 1.0 + (r % 7) as f64);
                }
            }
        }
        coo.to_csr()
    }

    fn order(a: &CsrMatrix) -> ValueOrder {
        ValueOrder::of(a.row_ptr(), a.col_idx())
    }

    fn box_steps(dims: usize) -> Vec<[i64; 3]> {
        let span = |i: usize| if i < dims { -1..=1 } else { 0..=0 };
        let mut steps = Vec::new();
        for k in span(2) {
            for j in span(1) {
                for i in span(0) {
                    steps.push([i, j, k]);
                }
            }
        }
        steps
    }

    #[test]
    fn stencils_take_the_diagonal_order() {
        let five = [[0, -1, 0], [-1, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0]];
        for (a, diagonals) in [
            (stencil([30, 20, 1], &five), 5),
            (stencil([30, 20, 1], &box_steps(2)), 9),
            (stencil([9, 8, 7], &box_steps(3)), 27),
        ] {
            let offsets = order(&a).offsets().map(<[i64]>::len);
            assert_eq!(offsets, Some(diagonals), "a {diagonals}-point stencil");
        }
    }

    #[test]
    fn the_rule_holds_at_equality_and_for_rectangular_matrices() {
        // Rows 0..4 on diagonals 0 and 2 (8 slots, 4 stored): D · n = 2 · nnz exactly.
        let at = |cells: &[(usize, usize)], (n, m)| {
            let mut coo = CooMatrix::new(n, m);
            cells.iter().for_each(|&(r, c)| coo.push(r, c, 1.0));
            coo.to_csr()
        };
        let equal = at(&[(0, 0), (1, 3), (2, 2), (3, 5)], (4, 6));
        assert_eq!(order(&equal).offsets(), Some(&[0, 2][..]));
        // A third diagonal breaks it.
        let past = at(&[(0, 0), (1, 3), (2, 2), (3, 6)], (4, 7));
        assert_eq!(order(&past), ValueOrder::Rows);
        // A wide band of a 3 × 8 matrix, and two diagonals of a 5 × 3 one.
        let wide: Vec<_> = (0..3)
            .flat_map(|r| (r..r + 6).map(move |c| (r, c)))
            .collect();
        let offsets: Vec<i64> = (0..6).collect();
        assert_eq!(order(&at(&wide, (3, 8))).offsets(), Some(&offsets[..]));
        let tall: Vec<_> = (0..3).flat_map(|c| [(c, c), (c + 2, c)]).collect();
        assert_eq!(order(&at(&tall, (5, 3))).offsets(), Some(&[-2, 0][..]));
    }

    #[test]
    fn the_scan_gives_up_on_a_scattered_matrix_within_a_few_rows() {
        // 20 000 rows of six columns each, scattered by a multiplicative hash.
        let n = 20_000;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..n {
            for k in 0..6u64 {
                let c = (r as u64 * 6 + k).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                coo.push(r, c as usize % n, 1.0);
            }
        }
        let a = coo.to_csr();
        let (order, scanned) = scan(a.row_ptr(), a.col_idx());
        assert_eq!(order, ValueOrder::Rows);
        assert!(scanned <= 4, "the scan read {scanned} rows");
    }

    /// `a`'s values laid out in `order` at `2^b`-row block rows, padding `+0.0`.
    fn laid_out(order: &ValueOrder, a: &CsrMatrix, b: u32) -> Vec<f64> {
        let mut values = vec![0.0; order.slots(a.row_ptr(), 0..a.nrows()).len()];
        let (row_ptr, col_idx, all) = (a.row_ptr(), a.col_idx(), 0..a.nrows());
        order.place(row_ptr, col_idx, b, all, |k, slot| {
            values[slot] = a.values()[k]
        });
        values
    }

    /// A banded matrix: on `diagonals` (offsets from the main one) of an `n × m`
    /// matrix, each cell kept or missing by `keep`, some kept ones stored zeros.
    fn banded(n: usize, m: usize, diagonals: &[i64], keep: &[u8], vals: &[f64]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, m);
        let mut k = 0;
        for r in 0..n {
            for &d in diagonals {
                let c = r as i64 + d;
                k += 1;
                if (0..m as i64).contains(&c) && !keep[k % keep.len()].is_multiple_of(4) {
                    let v = vals[k % vals.len()];
                    coo.push(
                        r,
                        c as usize,
                        if keep[k % keep.len()] == 1 { 0.0 } else { v },
                    );
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_diagonal_sums_are_the_row_loop_bit_for_bit(
            n in 1usize..90,
            wider in 0usize..6,
            diagonals in proptest::collection::vec(-12i64..12, 1..8),
            keep in proptest::collection::vec(0u8..8, 1..40),
            vals in proptest::collection::vec(-1e3f64..1e3, 1..40),
            xs in proptest::collection::vec(
                prop_oneof![Just(0.0), Just(-0.0), -1e3f64..1e3, Just(1e-310)], 1..60),
            b in 1u32..5,
            cut in (0usize..90, 0usize..90),
        ) {
            let m = n + wider;
            let mut diagonals = diagonals;
            diagonals.sort_unstable();
            diagonals.dedup();
            let a = banded(n, m, &diagonals, &keep, &vals);
            let layout = BlockLayout::from_csr(&a, b).unwrap();
            // At most 7 diagonals over rows that keep three in four of theirs mostly
            // pass the rule; a structure that fails it keeps row order, where the check
            // holds trivially.
            let diagonal = order(&a);
            let values = laid_out(&diagonal, &a, b);
            prop_assert_eq!(&*diagonal.row_order(&layout, &values), a.values());
            let x: Vec<f64> = (0..m).map(|i| xs[i % xs.len()]).collect();
            let (lo, hi) = (cut.0 % (n + 1), cut.1 % (n + 1));
            let rows = lo.min(hi)..lo.max(hi);
            let (mut want, mut got) = (vec![7.0; rows.len()], vec![7.0; rows.len()]);
            ValueOrder::Rows.sums(&layout, a.values(), &x, rows.clone(), &mut want);
            diagonal.sums(&layout, &values, &x, rows, &mut got);
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn the_diagonal_sums_handle_every_shape() {
        let x = |m: usize| (0..m).map(|i| 1.0 + i as f64 * 0.5).collect::<Vec<_>>();
        // A 1 × 1 matrix; a matrix with empty rows; one with no non-zero at all.
        let mut one = CooMatrix::new(1, 1);
        one.push(0, 0, -2.0);
        let mut gaps = CooMatrix::new(6, 6);
        for (r, c) in [(0, 0), (0, 1), (1, 1), (3, 3), (3, 4), (5, 5)] {
            gaps.push(r, c, 1.5 + r as f64);
        }
        for a in [one.to_csr(), gaps.to_csr(), CooMatrix::new(5, 3).to_csr()] {
            for b in [1, 2, 7] {
                let layout = BlockLayout::from_csr(&a, b).unwrap();
                let order = order(&a);
                assert!(matches!(order, ValueOrder::Diagonals(_)));
                let values = laid_out(&order, &a, b);
                let x = x(a.ncols());
                for rows in [0..a.nrows(), 0..0, a.nrows() / 2..a.nrows()] {
                    let (mut want, mut got) = (vec![9.0; rows.len()], vec![9.0; rows.len()]);
                    ValueOrder::Rows.sums(&layout, a.values(), &x, rows.clone(), &mut want);
                    order.sums(&layout, &values, &x, rows, &mut got);
                    assert_eq!(got, want);
                }
            }
        }
    }
}
