//! Property tests on the sparse substrate: format conversions and SpMV kernels must
//! agree with each other for arbitrary sparse matrices, and the block-major layout must
//! preserve the matrix exactly.

use proptest::prelude::*;
use refloat::prelude::*;
use refloat::sparse::mm;

/// Strategy: an arbitrary small sparse matrix given as dimension + triplets.
fn arb_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4usize..40).prop_flat_map(|n| {
        let entries = proptest::collection::vec(
            (0..n, 0..n, prop_oneof![-1e6f64..1e6, -1e-6f64..1e-6]),
            1..200,
        );
        (Just(n), entries)
    })
}

fn build(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in entries {
        if v != 0.0 {
            coo.push(r, c, v);
        }
    }
    coo.to_csr()
}

/// The invariants of the block-major layout that its readers rely on: the block table
/// strictly sorted by `(block_row, block_col)`, no empty block, every block's entries
/// strictly sorted by `(ii, jj)` (CSR order, which keeps each run of the row↔block walk
/// contiguous in block order) and inside both the tile and the matrix, and the blocks'
/// runs back to back in the three arrays, covering exactly `nnz` entries.  The row
/// order beside it is the
/// source CSR's structure, and the row↔block walk visits every row-order index once, in
/// order, and sends it to a block-order position holding its entry — a permutation.
/// Holds for any CSR with sorted, unique column indices per row.
fn assert_layout_invariants(blocked: &BlockedMatrix, csr: &CsrMatrix) {
    let bs = blocked.block_size();
    let blocks: Vec<_> = blocked.blocks().collect();
    assert_eq!(blocks.len(), blocked.num_blocks());
    assert_eq!(blocks.iter().map(|b| b.nnz()).sum::<usize>(), blocked.nnz());
    for pair in blocks.windows(2) {
        let (prev, next) = (&pair[0], &pair[1]);
        assert!((prev.block_row, prev.block_col) < (next.block_row, next.block_col));
        assert_eq!(prev.rows.as_ptr_range().end, next.rows.as_ptr_range().start);
        assert_eq!(prev.cols.as_ptr_range().end, next.cols.as_ptr_range().start);
        assert_eq!(prev.vals.as_ptr_range().end, next.vals.as_ptr_range().start);
    }
    for blk in &blocks {
        assert!(blk.nnz() > 0, "empty block stored");
        assert_eq!((blk.rows.len(), blk.cols.len()), (blk.nnz(), blk.nnz()));
        let cells: Vec<(u16, u16)> = blk.iter().map(|(ii, jj, _)| (ii, jj)).collect();
        assert!(cells.windows(2).all(|w| w[0] < w[1]), "entries not sorted");
        for (ii, jj) in cells {
            assert!((ii as usize) < bs && (jj as usize) < bs);
            assert!(blk.block_row * bs + (ii as usize) < blocked.nrows());
            assert!(blk.block_col * bs + (jj as usize) < blocked.ncols());
        }
    }

    // The row order is the source CSR's structure itself.
    let layout = blocked.layout();
    assert!(std::ptr::eq(layout.row_ptr(), csr.row_ptr()));
    assert!(std::ptr::eq(layout.col_idx(), csr.col_idx()));
    // The walk visits every row-order index once, in order, and sends each to a slot of
    // its own block that holds its entry; the slots form a permutation.
    let starts: Vec<usize> = blocks
        .iter()
        .scan(0, |next, blk| {
            Some(std::mem::replace(next, *next + blk.nnz()))
        })
        .collect();
    let mut visited = 0;
    let mut positions = Vec::with_capacity(csr.nnz());
    layout.walk_row_order(|run, block, block_order| {
        assert_eq!(run.start, visited, "row order not walked once, in order");
        assert_eq!(run.len(), block_order.len());
        visited = run.end;
        for (k, position) in run.zip(block_order) {
            positions.push(position);
            let (blk, at) = (&blocks[block], position - starts[block]);
            let r = csr.row_ptr().partition_point(|&p| p as usize <= k) - 1;
            let row = blk.block_row * bs + blk.rows[at] as usize;
            let col = blk.block_col * bs + blk.cols[at] as usize;
            assert_eq!((row, col), (r, csr.col_idx()[k] as usize));
            assert_eq!(blk.vals[at].to_bits(), csr.values()[k].to_bits());
        }
    });
    assert_eq!(visited, csr.nnz());
    positions.sort_unstable();
    assert!(
        positions.into_iter().eq(0..csr.nnz()),
        "positions not a permutation"
    );
}

/// Blocks `csr` at every `b` in `1..=7` and checks the layout invariants and the exact
/// round trip.
fn assert_blocks_faithfully(csr: &CsrMatrix) {
    for bexp in 1..=7 {
        let blocked = BlockedMatrix::from_csr(csr, bexp).unwrap();
        assert_layout_invariants(&blocked, csr);
        assert_eq!(blocked.nnz(), csr.nnz());
        assert_eq!(&blocked.to_csr(), csr);
    }
}

#[test]
fn blocking_edge_cases_keep_the_layout_invariants() {
    // Rectangular, both edges partial tiles at every b, entries in all four corners.
    let mut rect = CooMatrix::new(10, 37);
    for (r, c) in [(0, 0), (0, 36), (9, 0), (9, 36), (5, 20), (5, 21), (4, 21)] {
        rect.push(r, c, 1.0 + (r * 37 + c) as f64);
    }
    assert_blocks_faithfully(&rect.to_csr());

    // Whole bands of empty rows between, before and after the occupied ones.
    let mut gaps = CooMatrix::new(300, 300);
    for (r, c) in [(2, 299), (2, 0), (130, 131), (131, 130), (257, 3)] {
        gaps.push(r, c, -(r as f64) - 0.25);
    }
    assert_blocks_faithfully(&gaps.to_csr());

    // No non-zero at all: no block.
    let empty = CooMatrix::new(5, 7).to_csr();
    assert_eq!(BlockedMatrix::from_csr(&empty, 2).unwrap().num_blocks(), 0);
    assert_blocks_faithfully(&empty);

    // 1×1: one partial tile.
    let mut one = CooMatrix::new(1, 1);
    one.push(0, 0, -3.5);
    assert_blocks_faithfully(&one.to_csr());

    // Explicit stored zeros are entries like any other (a block of nothing else is
    // still a block); only the way back drops them, `CooMatrix::push` does.
    let kept = build(12, &[(0, 0, 1.0), (7, 7, 3.0)]);
    let mut zeros = build(12, &[(0, 0, 1.0), (0, 9, 2.0), (7, 7, 3.0), (11, 2, 4.0)]);
    zeros.values_mut()[1] = 0.0;
    zeros.values_mut()[3] = 0.0;
    let blocked = BlockedMatrix::from_csr(&zeros, 2).unwrap();
    assert_layout_invariants(&blocked, &zeros);
    assert_eq!((blocked.nnz(), blocked.num_blocks()), (4, 4));
    assert_eq!(blocked.to_csr(), kept);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_coo_and_blocked_spmv_agree((n, entries) in arb_matrix(), bexp in 1u32..=7) {
        let csr = build(n, &entries);
        let coo = csr.to_coo();
        let blocked = BlockedMatrix::from_csr(&csr, bexp).unwrap();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) / 13.0 - 0.4).collect();
        let mut y_csr = vec![0.0; n];
        let mut y_coo = vec![0.0; n];
        csr.spmv_into(&x, &mut y_csr);
        coo.spmv_into(&x, &mut y_coo);
        assert_layout_invariants(&blocked, &csr);
        // The premise of the row-order quantized SpMV: the per-element loop over the
        // block views, in storage order, adds each row's terms in ascending column
        // order — the CSR loop's order, so its bits.
        let bs = blocked.block_size();
        let mut y_blk = vec![0.0; n];
        for blk in blocked.blocks() {
            for (ii, jj, v) in blk.iter() {
                y_blk[blk.block_row * bs + ii as usize] += v * x[blk.block_col * bs + jj as usize];
            }
        }
        prop_assert!(y_csr.iter().zip(&y_blk).all(|(u, v)| u.to_bits() == v.to_bits()));
        for i in 0..n {
            prop_assert!((y_csr[i] - y_coo[i]).abs() <= 1e-9 * y_csr[i].abs().max(1e-12));
        }
    }

    #[test]
    fn blocking_round_trips_exactly((n, entries) in arb_matrix(), bexp in 1u32..=7) {
        let csr = build(n, &entries);
        let blocked = BlockedMatrix::from_csr(&csr, bexp).unwrap();
        assert_layout_invariants(&blocked, &csr);
        prop_assert_eq!(blocked.nnz(), csr.nnz());
        prop_assert_eq!(blocked.to_csr(), csr);
    }

    #[test]
    fn matrix_market_round_trips_exactly((n, entries) in arb_matrix()) {
        let csr = build(n, &entries);
        let mut text = Vec::new();
        mm::write_coo_to_writer(&mut text, &csr.to_coo(), "property test").unwrap();
        let parsed = mm::read_coo_from_str(std::str::from_utf8(&text).unwrap()).unwrap();
        prop_assert_eq!(parsed.to_csr(), csr);
    }

    // write -> read identity across every symmetry class and field the reader
    // supports, with randomized comment/blank-line placement between header, size
    // line and entries.
    #[test]
    fn matrix_market_round_trips_all_symmetries_and_fields(
        (n, entries) in arb_matrix(),
        sym_pick in 0u8..3,
        field_pick in 0u8..3,
        comment_style in 0u8..4,
    ) {
        use mm::{Field, Symmetry};
        let symmetry = [Symmetry::General, Symmetry::Symmetric, Symmetry::SkewSymmetric]
            [sym_pick as usize];
        let field = [Field::Real, Field::Integer, Field::Pattern][field_pick as usize];

        // Build a matrix with the claimed symmetry and values representable in the
        // claimed field (integers for Integer, 1.0 for Pattern).
        let mut coo = CooMatrix::new(n, n);
        let mut seen = std::collections::HashSet::new();
        for &(r, c, v) in &entries {
            let v = match field {
                Field::Real => v,
                Field::Integer => (v.rem_euclid(1e3)).round() + 1.0,
                Field::Pattern => 1.0,
            };
            if v == 0.0 {
                continue;
            }
            match symmetry {
                Symmetry::General => {
                    if seen.insert((r, c)) {
                        coo.push(r, c, v);
                    }
                }
                Symmetry::Symmetric => {
                    if seen.insert((r.min(c), r.max(c))) {
                        coo.push(r, c, v);
                        if r != c {
                            coo.push(c, r, v);
                        }
                    }
                }
                Symmetry::SkewSymmetric => {
                    if r != c && seen.insert((r.min(c), r.max(c))) {
                        // A pattern file has no sign token, so the implied +1 always
                        // sits on the stored (lower) triangle: canonicalize the
                        // orientation or the sign could not survive the round-trip.
                        let (r, c) = if field == Field::Pattern {
                            (r.max(c), r.min(c))
                        } else {
                            (r, c)
                        };
                        coo.push(r, c, v);
                        coo.push(c, r, -v);
                    }
                }
            }
        }

        let comment = match comment_style {
            0 => String::new(),
            1 => "one line".to_string(),
            2 => "first\nsecond\nthird".to_string(),
            _ => "spaced\n\nlines".to_string(),
        };
        let mut buf = Vec::new();
        mm::write_coo_as(&mut buf, &coo, field, symmetry, &comment).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // Blank lines and late comments between the size line and the entries (and at
        // the end) must be tolerated by the reader.
        if comment_style == 3 {
            let size_end = text
                .match_indices('\n')
                .nth(text.lines().position(|l| !l.starts_with('%')).unwrap())
                .map(|(i, _)| i + 1)
                .unwrap_or(text.len());
            text.insert_str(size_end, "\n% late comment\n\n");
            text.push('\n');
        }
        let parsed = mm::read_coo_from_str(&text).unwrap();
        prop_assert_eq!(parsed.to_csr(), coo.to_csr());
    }

    #[test]
    fn transpose_preserves_spmv_duality((n, entries) in arb_matrix()) {
        // (A x)ᵀ y == xᵀ (Aᵀ y) for all x, y — a classic duality check.
        let a = build(n, &entries);
        let at = a.transpose();
        let x: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i % 3) as f64) + 0.5).collect();
        let ax = a.spmv(&x);
        let aty = at.spmv(&y);
        let lhs = refloat::sparse::vecops::dot(&ax, &y);
        let rhs = refloat::sparse::vecops::dot(&x, &aty);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * lhs.abs().max(1e-9));
    }
}
