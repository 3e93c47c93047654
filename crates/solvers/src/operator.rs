//! The operator abstraction the solvers are written against.

use std::ops::Range;
use std::sync::Arc;

use refloat_sparse::parallel::{balance_by_weight, Lanes, MIN_NNZ_PER_LANE};
use refloat_sparse::vecops::{self, LanedVectors};
use refloat_sparse::CsrMatrix;

/// A square (or rectangular) linear operator `y = A·x`.
///
/// `apply` takes `&mut self` so that operators with per-operator state — the scratch
/// of ReFloat's vector converter (the encoding itself is immutable and shared between
/// clones), analog noise generators, or instrumentation counters — do not need
/// interior mutability.
pub trait LinearOperator {
    /// Number of rows of the operator (length of the output vector).
    fn nrows(&self) -> usize;

    /// Number of columns of the operator (length of the input vector).
    fn ncols(&self) -> usize;

    /// Computes `y ← A·x`.
    ///
    /// Implementations must not assume anything about the prior contents of `y`.
    fn apply(&mut self, x: &[f64], y: &mut [f64]);

    /// The lanes a CG solve on this operator keeps its vectors on ([`LanedVectors`]);
    /// none by default, and then the vectors are one band on the calling thread.
    fn lanes(&self) -> Option<&Arc<Lanes>> {
        None
    }

    /// One apply of a CG solve: `p ← r + β·p` on every band when `beta` is given, then
    /// `A·p` into the bands' `ap`; returns `pᵀ·A·p`, its band partials added in the
    /// pairwise tree's order.  Every bit is that of [`apply`](Self::apply) on the whole
    /// `p` followed by [`vecops::dot`].
    ///
    /// The default is [`apply_gathered`]; an operator offering [`lanes`](Self::lanes)
    /// overrides it to work on the bands in place.
    fn apply_bands(&mut self, vectors: &mut LanedVectors, beta: Option<f64>) -> f64 {
        apply_gathered(self, vectors, beta)
    }

    /// A short human-readable description used in experiment logs.
    fn name(&self) -> String {
        "operator".to_string()
    }
}

/// [`LinearOperator::apply_bands`] through [`apply`](LinearOperator::apply): on a
/// single band, from its `p` into its `ap` in place; over several, `p` gathered from the
/// bands, applied by `a`, and `A·p` stored back in them.
pub fn apply_gathered<A: LinearOperator + ?Sized>(
    a: &mut A,
    vectors: &mut LanedVectors,
    beta: Option<f64>,
) -> f64 {
    if let Some(band) = vectors.single() {
        band.direction(beta);
        a.apply(&band.p, &mut band.ap);
        return vecops::dot(&band.p, &band.ap);
    }
    let p = vectors.direction(beta);
    let mut ap = vec![0.0; a.nrows()];
    a.apply(&p, &mut ap);
    vectors.set_ap(ap)
}

impl LinearOperator for CsrMatrix {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        CsrMatrix::ncols(self)
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }

    fn name(&self) -> String {
        format!(
            "csr-fp64 ({}x{}, nnz {})",
            CsrMatrix::nrows(self),
            CsrMatrix::ncols(self),
            self.nnz()
        )
    }
}

/// A shared CSR reference is itself an operator: `spmv_into` needs only `&self`,
/// so a `&CsrMatrix` can serve as the high-precision residual operator of
/// [`solve_warm_split`](crate::solve_warm_split) without cloning the matrix.
impl LinearOperator for &CsrMatrix {
    fn nrows(&self) -> usize {
        CsrMatrix::nrows(self)
    }

    fn ncols(&self) -> usize {
        CsrMatrix::ncols(self)
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmv_into(x, y);
    }

    fn name(&self) -> String {
        format!(
            "csr-fp64 ({}x{}, nnz {})",
            CsrMatrix::nrows(self),
            CsrMatrix::ncols(self),
            self.nnz()
        )
    }
}

/// The exact fp64 operator of a shared CSR matrix, its rows split over lanes: the
/// host's residual `b − A·x` of a refined solve ([`refine_warm`](crate::refine_warm))
/// and of a warm start's guard ([`solve_warm_split`](crate::solve_warm_split)).  The
/// rows are cut into one band per lane, balanced by their non-zeros, when every lane
/// gets at least [`MIN_NNZ_PER_LANE`] of them, as an encode's are; otherwise the apply
/// is the plain [`CsrMatrix::spmv_into`] on the calling thread.  Each row is one lane's
/// sum in column order ([`CsrMatrix::spmv_rows_into`]), so every bit is the one-thread
/// product's.
#[derive(Debug)]
pub struct LanedCsr {
    csr: Arc<CsrMatrix>,
    lanes: Arc<Lanes>,
    /// The row bands, the last the caller's; one band applies on the calling thread.
    bands: Vec<Range<usize>>,
    /// The input of the latest apply, which the helpers read.
    x: Arc<Vec<f64>>,
}

impl LanedCsr {
    /// `csr`'s exact operator on `lanes`.
    pub fn new(csr: Arc<CsrMatrix>, lanes: &Arc<Lanes>) -> Self {
        let count = lanes.count();
        let bands = if count > 1 && csr.nnz() >= MIN_NNZ_PER_LANE * count {
            let prefix: Vec<usize> = csr.row_ptr().iter().map(|&p| p as usize).collect();
            balance_by_weight(&prefix, count)
        } else {
            std::iter::once(0..csr.nrows()).collect()
        };
        LanedCsr {
            csr,
            lanes: Arc::clone(lanes),
            bands,
            x: Arc::default(),
        }
    }

    /// How many row bands an apply splits into.
    pub fn bands(&self) -> usize {
        self.bands.len()
    }
}

impl LinearOperator for LanedCsr {
    fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    /// Each helper computes its band's rows from a shared copy of `x` and returns them,
    /// to be copied into `y`; the caller computes the last band in place.
    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let Some((last, helped)) = self.bands.split_last().filter(|(_, h)| !h.is_empty()) else {
            return self.csr.spmv_into(x, y);
        };
        assert_eq!(x.len(), self.csr.ncols(), "CSR spmv: x length mismatch");
        assert_eq!(y.len(), self.csr.nrows(), "CSR spmv: y length mismatch");
        // The helpers let go of `x` before `run` returns, so this copies in place.
        let shared = Arc::make_mut(&mut self.x);
        shared.clear();
        shared.extend_from_slice(x);
        let tasks = helped.iter().map(|rows| {
            let (csr, x, rows) = (Arc::clone(&self.csr), Arc::clone(&self.x), rows.clone());
            move || {
                let mut out = vec![0.0; rows.len()];
                csr.spmv_rows_into(rows, &x, &mut out);
                out
            }
        });
        let (head, tail) = y.split_at_mut(last.start);
        let (outs, ()) = self
            .lanes
            .run(tasks, || self.csr.spmv_rows_into(last.clone(), x, tail));
        for (rows, out) in helped.iter().zip(outs) {
            head[rows.clone()].copy_from_slice(&out);
        }
    }

    fn name(&self) -> String {
        format!("{} on {} lanes", self.csr.name(), self.bands.len())
    }
}

/// Wraps an operator and counts how many times it is applied — the solver-time model
/// multiplies this count by the per-SpMV latency of each platform.
pub struct OperatorStats<A> {
    inner: A,
    applies: usize,
}

impl<A: LinearOperator> OperatorStats<A> {
    /// Wraps `inner` with an application counter starting at zero.
    pub fn new(inner: A) -> Self {
        OperatorStats { inner, applies: 0 }
    }

    /// Number of `apply` calls so far.
    pub fn applies(&self) -> usize {
        self.applies
    }

    /// Consumes the wrapper and returns the inner operator.
    pub fn into_inner(self) -> A {
        self.inner
    }

    /// Borrows the inner operator.
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: LinearOperator> LinearOperator for OperatorStats<A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        self.applies += 1;
        self.inner.apply(x, y);
    }

    fn lanes(&self) -> Option<&Arc<Lanes>> {
        self.inner.lanes()
    }

    fn apply_bands(&mut self, vectors: &mut LanedVectors, beta: Option<f64>) -> f64 {
        self.applies += 1;
        self.inner.apply_bands(vectors, beta)
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// A diagonal operator, mostly useful in tests (its solves have closed-form answers).
#[derive(Debug, Clone)]
pub struct DiagonalOperator {
    diag: Vec<f64>,
}

impl DiagonalOperator {
    /// Creates the operator `diag(d)`.
    pub fn new(diag: Vec<f64>) -> Self {
        DiagonalOperator { diag }
    }

    /// The diagonal entries.
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }
}

impl LinearOperator for DiagonalOperator {
    fn nrows(&self) -> usize {
        self.diag.len()
    }

    fn ncols(&self) -> usize {
        self.diag.len()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        for ((yi, xi), di) in y.iter_mut().zip(x.iter()).zip(self.diag.iter()) {
            *yi = di * xi;
        }
    }

    fn name(&self) -> String {
        format!("diagonal ({})", self.diag.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_sparse::CooMatrix;

    fn small_csr() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 2, 4.0);
        coo.push(0, 1, 1.0);
        coo.to_csr()
    }

    #[test]
    fn csr_operator_applies_spmv() {
        let mut a = small_csr();
        let mut y = vec![0.0; 3];
        LinearOperator::apply(&mut a, &[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0, 4.0]);
        assert!(a.name().contains("csr-fp64"));
    }

    #[test]
    fn operator_stats_counts_applications() {
        let mut wrapped = OperatorStats::new(small_csr());
        let mut y = vec![0.0; 3];
        for _ in 0..5 {
            wrapped.apply(&[1.0, 0.0, 0.0], &mut y);
        }
        assert_eq!(wrapped.applies(), 5);
        assert_eq!(wrapped.nrows(), 3);
    }

    #[test]
    fn diagonal_operator_scales_elementwise() {
        let mut d = DiagonalOperator::new(vec![1.0, 2.0, 3.0]);
        let mut y = vec![0.0; 3];
        d.apply(&[5.0, 5.0, 5.0], &mut y);
        assert_eq!(y, vec![5.0, 10.0, 15.0]);
        assert_eq!(d.diagonal(), &[1.0, 2.0, 3.0]);
    }
}
