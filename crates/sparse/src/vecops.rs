//! Dense vector kernels used by the iterative solvers.
//!
//! The Krylov solvers in `refloat-solvers` (CG, BiCGSTAB — Code 1 of the paper) spend
//! their non-SpMV time in level-1 BLAS style operations.  These are deliberately written
//! over plain slices so they impose no container choice on callers and avoid
//! allocation.  The element-wise loops (`axpy`, `xpby`, …) auto-vectorize; the
//! reductions do not: their order of additions is fixed, because it decides the bits,
//! and a strict-order `f64` sum compiles to scalar multiplies and adds.
//!
//! # Tree-aligned bands
//!
//! The reductions are pairwise trees whose split points depend only on the length, so a
//! reduction splits over lanes without moving a bit: [`tree_bands`] cuts the index space
//! into the tree's top-level subtrees (halves for two lanes, quarters for four), each
//! lane reduces its own subtree with the same kernel, and [`tree_sum`] adds the
//! partials in the tree's order.  A CG solve keeps its vectors cut that way, one
//! [`Band`] per lane, for the whole solve ([`LanedVectors`]): the element-wise updates
//! run on the bands in place, and a reduction moves one partial per lane.  On one lane
//! the one band is the whole vectors.

use std::ops::Range;
use std::sync::Arc;

use crate::parallel::{Lanes, Resident};

/// The fewest elements per lane for which a solve spreads its vectors over lanes.  A
/// laned CG iteration pays three round trips to the helpers, the apply's halo exchange
/// among them, about 5 µs in all on a 2-core x86-64 host: on 2-D Laplacians in the
/// `(7,3,8)(5,16)` format a 2-lane iteration broke even with the one-thread one near
/// 1 k elements per lane (9.9 against 10.5 µs), was 2× slower at 300 and 30 % faster
/// at 2 k (15.0 against 21.4 µs), so the minimum stays at 2 k.  The
/// `cg_iteration_lanes` bench measures a whole iteration.
pub const MIN_LEN_PER_LANE: usize = 2048;

/// Leaf size of the pairwise reductions: small enough that the worst-case error of the
/// naive base-case loop stays negligible, large enough that the recursion overhead
/// vanishes.  The leaf loop is a strict left-to-right sum, so it stays scalar.
const PAIRWISE_LEAF: usize = 64;

/// Pairwise (cascade) reduction of `Σ xᵢ·yᵢ` over equal-length slices.
///
/// Naive left-to-right accumulation has an error bound that grows like `O(n·ε)`; the
/// pairwise tree brings that down to `O(log n · ε)`, which keeps residual norms stable
/// at `n ≥ 10⁶` and — because the split points depend only on the slice length — makes
/// the result independent of how callers shard the surrounding computation.
fn pairwise_dot(x: &[f64], y: &[f64]) -> f64 {
    if x.len() <= PAIRWISE_LEAF {
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            acc += a * b;
        }
        return acc;
    }
    let mid = x.len() / 2;
    let (xl, xr) = x.split_at(mid);
    let (yl, yr) = y.split_at(mid);
    pairwise_dot(xl, yl) + pairwise_dot(xr, yr)
}

/// Dot product `xᵀ y`, accumulated pairwise (error `O(log n · ε)` instead of the
/// naive loop's `O(n · ε)`); the summation order is a pure function of the length, so
/// results are bitwise reproducible and independent of caller-side sharding.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    pairwise_dot(x, y)
}

/// Pairwise (cascade) reduction of `Σ xᵢ` — same tree shape as [`pairwise_dot`].
fn pairwise_sum(x: &[f64]) -> f64 {
    if x.len() <= PAIRWISE_LEAF {
        let mut acc = 0.0;
        for v in x {
            acc += v;
        }
        return acc;
    }
    let mid = x.len() / 2;
    let (l, r) = x.split_at(mid);
    pairwise_sum(l) + pairwise_sum(r)
}

/// Sum `Σ xᵢ`, accumulated pairwise (error `O(log n · ε)` instead of the naive
/// loop's `O(n · ε)`); the summation order is a pure function of the length, so the
/// result is bitwise reproducible.  This is the sanctioned alternative to
/// `.sum::<f64>()` that the naive-float-accumulation lint points at.
pub fn sum(x: &[f64]) -> f64 {
    pairwise_sum(x)
}

/// Euclidean norm `‖x‖₂` (pairwise accumulation, see [`dot`]).
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← a·x + y` (the classic axpy).
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y` (the "xpby" update used by CG's direction update `p ← r + β p`).
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi + b * *yi;
    }
}

/// `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// `z ← x - y`, element-wise, writing into `z`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub_into(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch (x vs y)");
    assert_eq!(x.len(), z.len(), "sub_into: length mismatch (x vs z)");
    for ((zi, xi), yi) in z.iter_mut().zip(x.iter()).zip(y.iter()) {
        *zi = xi - yi;
    }
}

/// Sets every element of `x` to zero.
pub fn zero(x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi = 0.0;
    }
}

/// The bands of a reduction over `0..n` split over `lanes` lanes: the subtrees of the
/// pairwise tree `k` levels below its root, for the largest power of two `2^k` not above
/// `lanes`; a subtree the tree does not split (a leaf) stays whole.  Each band's pairwise
/// reduction is its subtree's, bit for bit, so [`tree_sum`] of their partials is the
/// whole reduction's.  An empty space is one empty band.
pub fn tree_bands(n: usize, lanes: usize) -> Vec<Range<usize>> {
    fn cut(range: Range<usize>, depth: u32, bands: &mut Vec<Range<usize>>) {
        if depth == 0 || range.len() <= PAIRWISE_LEAF {
            bands.push(range);
            return;
        }
        let mid = range.start + range.len() / 2;
        cut(range.start..mid, depth - 1, bands);
        cut(mid..range.end, depth - 1, bands);
    }
    let mut bands = Vec::new();
    cut(0..n, lanes.max(1).ilog2(), &mut bands);
    bands
}

/// Adds `partials`, one per band of [`tree_bands`]`(n, lanes)` in order, as the pairwise
/// tree adds its subtrees.
///
/// # Panics
/// Panics if there is not exactly one partial per band.
pub fn tree_sum(n: usize, lanes: usize, partials: &[f64]) -> f64 {
    fn add(len: usize, depth: u32, partials: &mut std::slice::Iter<'_, f64>) -> f64 {
        if depth == 0 || len <= PAIRWISE_LEAF {
            return *partials.next().expect("tree_sum: one partial per band");
        }
        let left = add(len / 2, depth - 1, partials);
        left + add(len - len / 2, depth - 1, partials)
    }
    let mut rest = partials.iter();
    let sum = add(n, lanes.max(1).ilog2(), &mut rest);
    assert!(rest.next().is_none(), "tree_sum: one partial per band");
    sum
}

/// One lane's share of a laned Krylov solve: its range of the index space, and the
/// solve's vectors over that range.
#[derive(Debug, Default)]
pub struct Band {
    /// Where the band sits in the whole vectors.
    pub range: Range<usize>,
    /// The iterate.
    pub x: Vec<f64>,
    /// The residual.
    pub r: Vec<f64>,
    /// The search direction.
    pub p: Vec<f64>,
    /// The operator applied to the search direction.
    pub ap: Vec<f64>,
    /// The operator's own copy of the input it converts from `p`, the whole vector
    /// long: its band, converted in place, and the [`Halo`] imports its rows read.
    /// Empty until an operator that converts its input (ReFloat's) sizes it, and kept
    /// from one apply to the next.
    pub input: Vec<f64>,
}

impl Band {
    /// CG's direction update `p ← r + β·p`, when `beta` is given.
    pub fn direction(&mut self, beta: Option<f64>) {
        if let Some(beta) = beta {
            xpby(&self.r, beta, &mut self.p);
        }
    }
}

/// A Krylov solve's vectors kept on lanes: cut into the [`tree_bands`] of their length,
/// each band in its lane's [`Resident`] state for the whole solve, the last on the
/// caller.  Phases run on the bands in place; a reduction returns one partial per band
/// and adds them in the tree's order, so it is bit for bit the whole vectors' reduction.
/// On one lane the vectors are a single band on the calling thread, and a phase is a
/// plain call.
#[derive(Debug)]
pub struct LanedVectors {
    lanes: usize,
    ranges: Vec<Range<usize>>,
    bands: Resident<Band>,
    /// One partial per band, the latest reduction's.
    partials: Vec<f64>,
}

impl LanedVectors {
    /// A solve of `A·x = b` from `x = 0`, on `lanes`: `r = p = b` and `x = A·p = 0`.
    pub fn new(lanes: &Arc<Lanes>, b: &[f64]) -> Self {
        let ranges = tree_bands(b.len(), lanes.count());
        let bands = ranges.iter().map(|range| Band {
            range: range.clone(),
            x: vec![0.0; range.len()],
            r: b[range.clone()].to_vec(),
            p: b[range.clone()].to_vec(),
            ap: vec![0.0; range.len()],
            input: Vec::new(),
        });
        LanedVectors {
            lanes: lanes.count(),
            bands: Resident::new(lanes, bands.collect()),
            partials: vec![0.0; ranges.len()],
            ranges,
        }
    }

    /// The vectors' length.
    pub fn len(&self) -> usize {
        self.ranges.last().map_or(0, |band| band.end)
    }

    /// Whether the vectors are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every band's range, in order; the last is the caller's.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// The one band, when there is one: the whole vectors, on the calling thread.
    pub fn single(&mut self) -> Option<&mut Band> {
        self.bands.alone()
    }

    /// Runs `task` on every helper's band, on its lane, and `local` on the caller's, then
    /// passes helper `i`'s output to `gather(i, output)` (see [`Resident::run`]).
    pub fn run<F>(
        &mut self,
        task: F,
        local: impl FnOnce(&mut Band),
        gather: impl FnMut(usize, &[f64]),
    ) where
        F: Fn(&mut Band, &mut Vec<f64>) + Clone + Send + 'static,
    {
        self.bands.run(task, local, gather);
    }

    /// `partial` of every band, each on its lane, added in the pairwise tree's order:
    /// when `partial` is a [`dot`] or [`sum`] over its band, the result is that reduction
    /// over the whole vectors, bit for bit.
    pub fn reduce<F>(&mut self, partial: F) -> f64
    where
        F: Fn(&mut Band) -> f64 + Clone + Send + 'static,
    {
        self.reduce_apart(partial.clone(), partial)
    }

    /// [`reduce`](Self::reduce) with the caller's band through `local` and every
    /// helper's through `partial`, for a phase whose caller reads what it alone holds.
    pub fn reduce_apart<F>(&mut self, partial: F, local: impl FnOnce(&mut Band) -> f64) -> f64
    where
        F: Fn(&mut Band) -> f64 + Clone + Send + 'static,
    {
        self.bands.partials(partial, local, &mut self.partials);
        tree_sum(self.len(), self.lanes, &self.partials)
    }

    /// `p ← r + β·p` on every band when `beta` is given, and the whole `p`.
    pub fn direction(&mut self, beta: Option<f64>) -> Vec<f64> {
        let mut p = vec![0.0; self.len()];
        let (head, tail) = p.split_at_mut(self.ranges[self.ranges.len() - 1].start);
        let ranges = &self.ranges;
        self.bands.run(
            move |band, out| {
                band.direction(beta);
                out.clear();
                out.extend_from_slice(&band.p);
            },
            |band| {
                band.direction(beta);
                tail.copy_from_slice(&band.p);
            },
            |lane, out| head[ranges[lane].clone()].copy_from_slice(out),
        );
        p
    }

    /// Stores `ap`, the operator applied to the whole `p`, in the bands, and returns
    /// `pᵀ·ap`.
    pub fn set_ap(&mut self, ap: Vec<f64>) -> f64 {
        let ap = Arc::new(ap);
        self.reduce(move |band| {
            band.ap.copy_from_slice(&ap[band.range.clone()]);
            dot(&band.p, &band.ap)
        })
    }

    /// The iterate `x`, gathered from the bands; a single band's is moved out.
    pub fn into_x(self) -> Vec<f64> {
        let mut bands = self.bands.into_states().into_iter();
        let mut x = bands.next().map(|band| band.x).unwrap_or_default();
        for band in bands {
            x.extend_from_slice(&band.x);
        }
        x
    }
}

/// What the lanes of a laned apply exchange of its input vector.  Band `k` of the
/// split converts the input's columns `own[k]` itself, into its own copy; its rows read
/// other columns too.  Its *imports* are the runs of columns outside `own[k]` that its
/// rows read, and its *exports* the runs of columns inside `own[k]` that another band's
/// rows read.  One lane, the caller's, holds the shared copy: a helper sends it its
/// exports, and takes its imports from it.
///
/// The runs depend on the matrix's structure and the split alone, so a block layout
/// keeps them for every matrix over it (`BlockLayout::halo`).  They are found with a
/// mark per column, one pass over each band's non-zeros and one over the marks.
#[derive(Debug, PartialEq)]
pub struct Halo {
    bands: Vec<Range<usize>>,
    own: Vec<Range<usize>>,
    imports: Vec<Vec<Range<usize>>>,
    exports: Vec<Vec<Range<usize>>>,
}

impl Halo {
    /// The halo of the `ncols`-column matrix with row pointers `row_ptr` and columns
    /// `col_idx`, its rows cut into `bands`, band `k` converting the columns `own[k]`.
    ///
    /// # Panics
    /// Panics if `bands` and `own` differ in length, or a band or a column is out of
    /// bounds.
    pub(crate) fn new(
        row_ptr: &[u32],
        col_idx: &[u32],
        ncols: usize,
        bands: &[Range<usize>],
        own: &[Range<usize>],
    ) -> Self {
        assert_eq!(bands.len(), own.len(), "Halo: one own range per band");
        // The current band's reads outside its own columns, then every band's.
        let (mut read, mut wanted) = (vec![false; ncols], vec![false; ncols]);
        let mut imports = Vec::with_capacity(bands.len());
        for (rows, own) in bands.iter().zip(own) {
            let entries = row_ptr[rows.start] as usize..row_ptr[rows.end] as usize;
            for &c in &col_idx[entries] {
                let c = c as usize;
                if !own.contains(&c) {
                    read[c] = true;
                }
            }
            let runs = marked_runs(&read, 0..ncols);
            for run in &runs {
                read[run.clone()].fill(false);
                wanted[run.clone()].fill(true);
            }
            imports.push(runs);
        }
        Halo {
            bands: bands.to_vec(),
            own: own.to_vec(),
            imports,
            // A band's own columns are none of its imports, so what any band imports
            // there is what another band reads.
            exports: own
                .iter()
                .map(|own| marked_runs(&wanted, own.clone()))
                .collect(),
        }
    }

    /// The row bands, in order.
    pub fn bands(&self) -> &[Range<usize>] {
        &self.bands
    }

    /// The columns each band converts itself, in band order.
    pub(crate) fn own(&self) -> &[Range<usize>] {
        &self.own
    }

    /// The position of the band whose rows are `rows`.
    ///
    /// # Panics
    /// Panics if no band starts at `rows.start`.
    pub fn index(&self, rows: &Range<usize>) -> usize {
        let found = self
            .bands
            .binary_search_by_key(&rows.start, |band| band.start);
        found.expect("Halo: a band of the split")
    }

    /// The runs of columns outside band `k`'s own that its rows read.
    pub fn imports(&self, k: usize) -> &[Range<usize>] {
        &self.imports[k]
    }

    /// The runs of band `k`'s own columns that another band's rows read.
    pub fn exports(&self, k: usize) -> &[Range<usize>] {
        &self.exports[k]
    }
}

/// The maximal runs of set marks among `marks[within]`, in order.
fn marked_runs(marks: &[bool], within: Range<usize>) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, &marked) in marks[within.clone()].iter().enumerate() {
        match (marked, start) {
            (true, None) => start = Some(within.start + i),
            (false, Some(s)) => {
                runs.push(s..within.start + i);
                start = None;
            }
            _ => {}
        }
    }
    runs.extend(start.map(|s| s..within.end));
    runs
}

/// Relative difference `‖x − y‖₂ / max(‖y‖₂, ε)`, a convenience for tests and
/// experiment harnesses comparing a reduced-precision result against a reference.
pub fn rel_err(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_err: length mismatch");
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        num += (a - b) * (a - b);
        den += b * b;
    }
    num.sqrt() / den.sqrt().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn dot_matches_manual_sum() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, -5.0, 6.0];
        assert_eq!(dot(&x, &y), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn norm2_of_three_four_is_five() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn xpby_matches_cg_direction_update() {
        // p <- r + beta * p
        let r = [1.0, 1.0];
        let mut p = [3.0, -2.0];
        xpby(&r, 0.5, &mut p);
        assert_eq!(p, [2.5, 0.0]);
    }

    #[test]
    fn scale_and_zero() {
        let mut x = [1.0, -2.0, 4.0];
        scale(0.5, &mut x);
        assert_eq!(x, [0.5, -1.0, 2.0]);
        zero(&mut x);
        assert_eq!(x, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn sub_into_computes_difference() {
        let x = [5.0, 7.0];
        let y = [2.0, 10.0];
        let mut z = [0.0; 2];
        sub_into(&x, &y, &mut z);
        assert_eq!(z, [3.0, -3.0]);
    }

    #[test]
    fn rel_err_is_zero_for_identical_vectors_and_scales() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(rel_err(&x, &x), 0.0);
        let y = [1.1, 2.0, 3.0];
        let e = rel_err(&y, &x);
        assert!(e > 0.0 && e < 0.1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    /// Naive left-to-right accumulation, kept only as the error yardstick for the
    /// pairwise regression below.
    fn naive_dot(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y.iter()).fold(0.0, |acc, (a, b)| acc + a * b)
    }

    /// Dot product `xᵀ y` with Kahan (compensated) accumulation: the fp64 reference
    /// the pairwise regression below compares [`dot`] against.
    fn dot_kahan(x: &[f64], y: &[f64]) -> f64 {
        let mut sum = 0.0;
        let mut comp = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            let term = a * b - comp;
            let next = sum + term;
            comp = (next - sum) - term;
            sum = next;
        }
        sum
    }

    #[test]
    fn pairwise_dot_tracks_kahan_reference_at_a_million_elements() {
        // A deterministic, poorly-conditioned sum: magnitudes spread over ~6 decades
        // with sign flips, the regime where naive accumulation visibly drifts.
        let n = 1_000_000;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * (1.0 + (i % 977) as f64 * 1e-3) * 10f64.powi((i % 7) - 3)
            })
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + ((i * 31) % 613) as f64 * 1e-4)
            .collect();

        let reference = dot_kahan(&x, &y);
        let pairwise = dot(&x, &y);
        let naive = naive_dot(&x, &y);

        // Scale of the summands (not of the cancelled result) bounds the rounding.
        let magnitude: f64 = x
            .iter()
            .zip(y.iter())
            .map(|(a, b)| (a * b).abs())
            .fold(0.0, |acc, t| acc + t);
        let pairwise_err = (pairwise - reference).abs();
        let naive_err = (naive - reference).abs();
        // O(log n · ε) for the pairwise tree: comfortably under 64·ε·Σ|xᵢyᵢ|.
        assert!(
            pairwise_err <= 64.0 * f64::EPSILON * magnitude,
            "pairwise err {pairwise_err:.3e} vs bound {:.3e}",
            64.0 * f64::EPSILON * magnitude
        );
        // And never worse than the naive loop it replaced.
        assert!(
            pairwise_err <= naive_err.max(f64::EPSILON * magnitude),
            "pairwise err {pairwise_err:.3e} should not exceed naive err {naive_err:.3e}"
        );
    }

    #[test]
    fn norm2_is_stable_at_large_n() {
        // 10⁶ copies of the same value: ‖x‖₂ = |v|·√n exactly in real arithmetic.
        let n = 1_000_000usize;
        let v = 0.1_f64;
        let x = vec![v; n];
        let expected = v * (n as f64).sqrt();
        let got = norm2(&x);
        assert!(
            ((got - expected) / expected).abs() < 1e-13,
            "norm2 drifted: {got} vs {expected}"
        );
    }

    /// The `n × n` CSR matrix with a one at every `(row, col)` of `cells`.
    fn pattern(n: usize, cells: impl IntoIterator<Item = (usize, usize)>) -> crate::CsrMatrix {
        let mut coo = crate::CooMatrix::new(n, n);
        for (r, c) in cells {
            coo.push(r, c, 1.0);
        }
        coo.to_csr()
    }

    /// The columns `runs` cover, in order.
    fn covered(runs: &[Range<usize>]) -> Vec<usize> {
        runs.iter().flat_map(Range::clone).collect()
    }

    #[test]
    fn a_tridiagonal_halo_is_the_columns_beside_each_band_edge() {
        let a = pattern(
            10,
            (0..10usize).flat_map(|i| [(i, i.saturating_sub(1)), (i, (i + 1).min(9))]),
        );
        let bands = [0..5, 5..10];
        let halo = Halo::new(a.row_ptr(), a.col_idx(), 10, &bands, &bands);
        // Each band reads its neighbour's edge column and sends its own to it.
        let runs = |k| (covered(halo.imports(k)), covered(halo.exports(k)));
        assert_eq!((runs(0), runs(1)), ((vec![5], vec![4]), (vec![4], vec![5])));
        assert_eq!(
            (halo.index(&(5..10)), halo.bands(), halo.own()),
            (1, &bands[..], &bands[..])
        );
        // A band that converts none of its own columns imports every column it reads.
        let halo = Halo::new(a.row_ptr(), a.col_idx(), 10, &bands, &[0..0, 10..10]);
        assert_eq!(
            (covered(halo.imports(0)), covered(halo.imports(1))),
            ((0..6).collect(), (4..10).collect())
        );
        assert!(halo.exports(0).is_empty() && halo.exports(1).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn the_halo_runs_are_the_columns_other_bands_read(
            cells in proptest::collection::vec((0usize..60, 0usize..60), 0..300),
            n in 1usize..60,
            lanes in 1usize..=4,
            trims in proptest::collection::vec((0usize..5, 0usize..5), 4),
        ) {
            use std::collections::BTreeSet;
            let a = pattern(n, cells.iter().map(|&(r, c)| (r % n, c % n)));
            let bands = tree_bands(n, lanes);
            // Each band converts a sub-range of itself, as whole segments would.
            let own: Vec<_> = bands
                .iter()
                .zip(&trims)
                .map(|(band, &(lo, hi))| {
                    let start = (band.start + lo).min(band.end);
                    start..band.end.saturating_sub(hi).max(start)
                })
                .collect();
            let halo = Halo::new(a.row_ptr(), a.col_idx(), n, &bands, &own);
            let reads: Vec<BTreeSet<usize>> = bands
                .iter()
                .zip(&own)
                .map(|(rows, own)| {
                    let read = rows.clone().flat_map(|r| a.row(r).0.iter().map(|&c| c as usize));
                    read.filter(|c| !own.contains(c)).collect()
                })
                .collect();
            for (k, own) in own.iter().enumerate() {
                let imports = covered(halo.imports(k));
                proptest::prop_assert_eq!(&imports, &reads[k].iter().copied().collect::<Vec<_>>());
                let others: BTreeSet<usize> =
                    (0..bands.len()).filter(|&j| j != k).flat_map(|j| reads[j].clone()).collect();
                let exports: Vec<usize> = others.into_iter().filter(|c| own.contains(c)).collect();
                proptest::prop_assert_eq!(covered(halo.exports(k)), exports);
                // Runs are maximal: no two touch.
                for runs in [halo.imports(k), halo.exports(k)] {
                    proptest::prop_assert!(runs.windows(2).all(|w| w[0].end < w[1].start));
                    proptest::prop_assert!(runs.iter().all(|run| !run.is_empty()));
                }
            }
        }
    }

    #[test]
    fn dot_result_is_independent_of_leaf_alignment() {
        // The pairwise split points depend only on the total length, so computing the
        // same dot twice (and over an identical copy) must be bitwise identical.
        let x: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37) % 101) as f64 - 50.0)
            .collect();
        let y: Vec<f64> = (0..10_000).map(|i| ((i * 53) % 89) as f64 * 0.25).collect();
        let a = dot(&x, &y);
        let b = dot(&x.clone(), &y.clone());
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
