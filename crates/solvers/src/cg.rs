//! Conjugate Gradient (CG) — Hestenes & Stiefel, the first Krylov solver evaluated in
//! the paper.
//!
//! CG performs exactly one operator application per iteration (plus one for the initial
//! residual), which is the `1 SpMV / iteration` count the paper's performance model uses
//! for the CG rows of Fig. 8.
//!
//! An operator with [`lanes`](LinearOperator::lanes) gets a laned solve: the vectors
//! live on the lanes in [`LanedVectors`] bands for the whole solve, and an iteration is
//! three lane phases — `p ← r + βp` and the operator's apply up to `pᵀAp`
//! ([`apply_bands`](LinearOperator::apply_bands)), then `x += αp; r −= α·Ap; rᵀr`.  Its
//! reductions add the bands' partials in the pairwise tree's order, so every iterate,
//! residual and stop is the one-thread solve's, bit for bit.

use crate::operator::LinearOperator;
use crate::result::{SolveResult, SolverConfig, StopReason};
use refloat_sparse::vecops::{self, LanedVectors};

/// Solves `A x = b` with plain (unpreconditioned) CG starting from `x₀ = 0`.
///
/// The operator only has to be symmetric positive definite *approximately*: the
/// quantized ReFloat operators are slight perturbations of an SPD matrix and CG is run
/// on them exactly as the paper does, with breakdown detection guarding against loss of
/// positive definiteness.
pub fn cg<A: LinearOperator + ?Sized>(a: &mut A, b: &[f64], config: &SolverConfig) -> SolveResult {
    pcg(a, b, None, config)
}

/// Solves `A x = b` with CG, optionally applying a diagonal (Jacobi) preconditioner
/// given as the vector of inverse diagonal entries `m⁻¹` (see [`crate::jacobi`]).
///
/// Without a preconditioner, on an operator with [`lanes`](LinearOperator::lanes), the
/// vectors stay on the lanes (see the [module docs](self)); the result is the same.
///
/// # Panics
/// Panics if dimensions of `a`, `b` and the preconditioner disagree.
pub fn pcg<A: LinearOperator + ?Sized>(
    a: &mut A,
    b: &[f64],
    inv_diag: Option<&[f64]>,
    config: &SolverConfig,
) -> SolveResult {
    let n = b.len();
    assert_eq!(a.nrows(), n, "cg: operator rows must match rhs length");
    assert_eq!(a.ncols(), n, "cg: operator must be square");
    if let Some(m) = inv_diag {
        assert_eq!(m.len(), n, "cg: preconditioner length must match rhs");
    }

    let threshold = config.threshold(vecops::norm2(b));
    let mut trace = Vec::new();

    // x0 = 0, so r0 = b.
    let mut vectors = match a.lanes().filter(|_| inv_diag.is_none()) {
        Some(lanes) => Vectors::Laned(LanedVectors::new(lanes, b)),
        None => Vectors::Serial(Serial::new(b, inv_diag)),
    };
    let rr = vecops::dot(b, b);
    let mut rz_old = vectors.precondition(rr);
    let mut spmv_count = 0usize;

    let mut res_norm = rr.sqrt();
    if config.record_trace {
        trace.push(res_norm);
    }
    if res_norm < threshold {
        return vectors.result(0, spmv_count, res_norm, trace, StopReason::Converged);
    }

    // The first direction is z0; every later one is z + βp.
    let mut beta = None;
    for k in 1..=config.max_iterations {
        let p_ap = vectors.apply(a, beta);
        spmv_count += 1;

        if !p_ap.is_finite() || p_ap <= 0.0 {
            let stop = StopReason::Breakdown(format!("pᵀAp = {p_ap} is not positive"));
            return vectors.result(k, spmv_count, res_norm, trace, stop);
        }
        let alpha = rz_old / p_ap;
        let rr = vectors.step(alpha);
        res_norm = rr.sqrt();
        if config.record_trace {
            trace.push(res_norm);
        }
        if !res_norm.is_finite() {
            let stop = StopReason::Breakdown("residual norm is not finite".into());
            return vectors.result(k, spmv_count, res_norm, trace, stop);
        }
        if res_norm < threshold {
            return vectors.result(k, spmv_count, res_norm, trace, StopReason::Converged);
        }

        let rz_new = vectors.precondition(rr);
        if rz_new == 0.0 || !rz_new.is_finite() {
            let stop = StopReason::Breakdown(format!("rᵀz = {rz_new}"));
            return vectors.result(k, spmv_count, res_norm, trace, stop);
        }
        beta = Some(rz_new / rz_old);
        rz_old = rz_new;
    }

    let max = config.max_iterations;
    vectors.result(max, spmv_count, res_norm, trace, StopReason::MaxIterations)
}

/// A CG solve's vectors: on the calling thread, or on the operator's lanes.
enum Vectors<'m> {
    Serial(Serial<'m>),
    Laned(LanedVectors),
}

/// The vectors of a solve on the calling thread.  Without a preconditioner `z = r`: CG
/// reads `r` where it would read `z`, which is never filled, and `rᵀz` is the `rᵀr` the
/// residual norm was taken from — the same bits, one copy and one dot fewer per
/// iteration.
struct Serial<'m> {
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    inv_diag: Option<&'m [f64]>,
}

impl<'m> Serial<'m> {
    fn new(b: &[f64], inv_diag: Option<&'m [f64]>) -> Self {
        let n = b.len();
        Serial {
            x: vec![0.0; n],
            r: b.to_vec(),
            z: vec![0.0; inv_diag.map_or(0, |_| n)],
            p: Vec::new(),
            ap: vec![0.0; n],
            inv_diag,
        }
    }
}

impl Vectors<'_> {
    /// `p ← z + β·p` (`p ← z` without `beta`), then `A·p`; returns `pᵀ·A·p`.
    fn apply<A: LinearOperator + ?Sized>(&mut self, a: &mut A, beta: Option<f64>) -> f64 {
        let v = match self {
            Vectors::Laned(vectors) => return a.apply_bands(vectors, beta),
            Vectors::Serial(v) => v,
        };
        let z = match v.inv_diag {
            Some(_) => &v.z,
            None => &v.r,
        };
        match beta {
            Some(beta) => vecops::xpby(z, beta, &mut v.p),
            None => v.p.clone_from(z),
        }
        a.apply(&v.p, &mut v.ap);
        vecops::dot(&v.p, &v.ap)
    }

    /// `x += α·p`, `r −= α·A·p`; returns `rᵀr`.
    fn step(&mut self, alpha: f64) -> f64 {
        match self {
            Vectors::Serial(v) => {
                vecops::axpy(alpha, &v.p, &mut v.x);
                vecops::axpy(-alpha, &v.ap, &mut v.r);
                vecops::dot(&v.r, &v.r)
            }
            Vectors::Laned(vectors) => vectors.reduce(move |band| {
                vecops::axpy(alpha, &band.p, &mut band.x);
                vecops::axpy(-alpha, &band.ap, &mut band.r);
                vecops::dot(&band.r, &band.r)
            }),
        }
    }

    /// `rᵀz` for the preconditioned residual `z = M⁻¹ r`, written into `z`.  Without a
    /// preconditioner it is `rr`, the caller's `rᵀr`, and `z` is left alone.
    fn precondition(&mut self, rr: f64) -> f64 {
        let Vectors::Serial(Serial {
            r,
            z,
            inv_diag: Some(m),
            ..
        }) = self
        else {
            return rr;
        };
        for ((zi, ri), mi) in z.iter_mut().zip(r.iter()).zip(m.iter()) {
            *zi = ri * mi;
        }
        vecops::dot(r, z)
    }

    /// The solve's result, with the iterate gathered.
    fn result(
        self,
        iterations: usize,
        spmv_count: usize,
        final_residual: f64,
        trace: Vec<f64>,
        stop: StopReason,
    ) -> SolveResult {
        let x = match self {
            Vectors::Serial(v) => v.x,
            Vectors::Laned(vectors) => vectors.into_x(),
        };
        SolveResult {
            x,
            iterations,
            spmv_count,
            final_residual,
            trace,
            stop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{DiagonalOperator, OperatorStats};
    use refloat_matgen::generators;
    use refloat_sparse::parallel::Lanes;
    use refloat_sparse::CsrMatrix;
    use std::sync::Arc;

    fn solve_reference(a: &CsrMatrix, b: &[f64], config: &SolverConfig) -> SolveResult {
        let mut op = a.clone();
        cg(&mut op, b, config)
    }

    #[test]
    fn solves_diagonal_system_in_one_iteration_per_distinct_eigenvalue() {
        let mut a = DiagonalOperator::new(vec![2.0; 50]);
        let b = vec![4.0; 50];
        let r = cg(&mut a, &b, &SolverConfig::default());
        assert!(r.converged());
        assert!(r.iterations <= 2);
        for xi in &r.x {
            assert!((xi - 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_laplacian_to_requested_tolerance() {
        let a = generators::laplacian_2d(20, 20, 0.2).to_csr();
        let x_star: Vec<f64> = (0..a.nrows())
            .map(|i| ((i % 17) as f64 - 8.0) / 8.0)
            .collect();
        let b = a.spmv(&x_star);
        let cfg = SolverConfig::relative(1e-10);
        let r = solve_reference(&a, &b, &cfg);
        assert!(r.converged(), "stop = {:?}", r.stop);
        assert!(vecops::rel_err(&r.x, &x_star) < 1e-7);
        // True residual agrees with the recursive residual to reasonable accuracy.
        let mut true_r = a.spmv(&r.x);
        for (ri, bi) in true_r.iter_mut().zip(b.iter()) {
            *ri = bi - *ri;
        }
        assert!(vecops::norm2(&true_r) < 1e-8 * vecops::norm2(&b) * 10.0);
    }

    #[test]
    fn iteration_count_grows_with_condition_number() {
        let well = generators::logspace_diagonal(400, 1.0, 10.0).to_csr();
        let ill = generators::logspace_diagonal(400, 1.0, 1e4).to_csr();
        let b = vec![1.0; 400];
        let cfg = SolverConfig::relative(1e-10);
        let rw = solve_reference(&well, &b, &cfg);
        let ri = solve_reference(&ill, &b, &cfg);
        assert!(rw.converged() && ri.converged());
        assert!(
            ri.iterations > 2 * rw.iterations,
            "ill-conditioned {} vs well-conditioned {}",
            ri.iterations,
            rw.iterations
        );
    }

    #[test]
    fn jacobi_preconditioning_helps_badly_scaled_systems() {
        let a = generators::logspace_diagonal(300, 1e-6, 1.0).to_csr();
        let b: Vec<f64> = (0..300).map(|i| (i as f64 * 0.1).sin()).collect();
        let cfg = SolverConfig::relative(1e-10).with_max_iterations(5000);
        let plain = solve_reference(&a, &b, &cfg);
        let inv_diag: Vec<f64> = a.diagonal().iter().map(|d| 1.0 / d).collect();
        let mut op = a.clone();
        let pre = pcg(&mut op, &b, Some(&inv_diag), &cfg);
        assert!(pre.converged());
        // Jacobi makes a diagonal system converge immediately; plain CG needs many more.
        assert!(pre.iterations <= 2);
        assert!(plain.iterations > pre.iterations);
    }

    #[test]
    fn respects_iteration_limit_and_reports_nc() {
        let a = generators::logspace_diagonal(500, 1.0, 1e8).to_csr();
        let b = vec![1.0; 500];
        let cfg = SolverConfig::relative(1e-12).with_max_iterations(3);
        let r = solve_reference(&a, &b, &cfg);
        assert!(!r.converged());
        assert_eq!(r.iterations, 3);
        assert_eq!(r.stop, StopReason::MaxIterations);
        assert_eq!(r.iterations_label(), "NC");
    }

    #[test]
    fn trace_is_monotone_for_spd_diagonal_and_has_iteration_length() {
        let a = generators::laplacian_2d(10, 10, 0.5).to_csr();
        let b = vec![1.0; 100];
        let cfg = SolverConfig::relative(1e-10);
        let r = solve_reference(&a, &b, &cfg);
        assert!(r.converged());
        assert_eq!(r.trace.len(), r.iterations + 1); // includes the initial residual
        assert!(r.trace.last().unwrap() < &r.trace[0]);
    }

    #[test]
    fn spmv_count_is_one_per_iteration() {
        let a = generators::laplacian_2d(12, 12, 0.3).to_csr();
        let b = vec![1.0; 144];
        let r = solve_reference(&a, &b, &SolverConfig::relative(1e-9));
        assert_eq!(r.spmv_count, r.iterations);
    }

    #[test]
    fn breakdown_on_indefinite_operator() {
        // A negative-definite diagonal makes pᵀAp < 0 on the first iteration.
        let mut a = DiagonalOperator::new(vec![-1.0; 10]);
        let b = vec![1.0; 10];
        let r = cg(&mut a, &b, &SolverConfig::default());
        assert!(matches!(r.stop, StopReason::Breakdown(_)));
    }

    /// `inner` with lanes, applied over them by the default `apply_bands`.
    struct Laned<A> {
        inner: A,
        lanes: Arc<Lanes>,
    }

    impl<A: LinearOperator> LinearOperator for Laned<A> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }

        fn ncols(&self) -> usize {
            self.inner.ncols()
        }

        fn apply(&mut self, x: &[f64], y: &mut [f64]) {
            self.inner.apply(x, y);
        }

        fn lanes(&self) -> Option<&Arc<Lanes>> {
            Some(&self.lanes)
        }
    }

    /// A shifted 1-D Laplacian of order `n`, scaled by `sign`.
    fn tridiagonal(n: usize, sign: f64) -> CsrMatrix {
        let mut coo = refloat_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, sign * (2.0 + 0.01 * (i % 7) as f64));
            if i + 1 < n {
                coo.push(i, i + 1, -sign);
                coo.push(i + 1, i, -sign);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn a_laned_solve_is_the_serial_solve_bitwise() {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, 63, 64, 65, 129, 300] {
            let b: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64 - 4.5) / 3.0).collect();
            let converged = SolverConfig::relative(1e-10);
            let capped = SolverConfig::relative(1e-14).with_max_iterations(3);
            let cases = [(1.0, &converged), (1.0, &capped), (-1.0, &converged)];
            for (sign, config) in cases {
                let a = tridiagonal(n, sign);
                let want = cg(&mut a.clone(), &b, config);
                for count in 1..=4 {
                    let lanes = Arc::new(Lanes::new(count).unwrap());
                    let mut op = OperatorStats::new(Laned {
                        inner: a.clone(),
                        lanes,
                    });
                    let got = cg(&mut op, &b, config);
                    let context = format!("n {n}, sign {sign}, {count} lanes");
                    assert_eq!(bits(&got.x), bits(&want.x), "{context}");
                    assert_eq!(bits(&got.trace), bits(&want.trace), "{context}");
                    assert_eq!(got.iterations, want.iterations, "{context}");
                    assert_eq!(got.stop, want.stop, "{context}");
                    assert_eq!(op.applies(), want.spmv_count, "{context}");
                }
            }
        }
    }

    #[test]
    fn tree_bands_and_their_sum_are_the_pairwise_dot() {
        for n in [0, 1, 64, 65, 129, 1000, 4097] {
            let x: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            for lanes in 1..=9 {
                let bands = vecops::tree_bands(n, lanes);
                assert_eq!(bands.first().map(|band| band.start), Some(0));
                assert_eq!(bands.last().map(|band| band.end), Some(n));
                assert!(bands.windows(2).all(|pair| pair[0].end == pair[1].start));
                let partials: Vec<f64> = bands
                    .iter()
                    .map(|band| vecops::dot(&x[band.clone()], &x[band.clone()]))
                    .collect();
                let sum = vecops::tree_sum(n, lanes, &partials);
                assert_eq!(sum.to_bits(), vecops::dot(&x, &x).to_bits(), "n {n}");
            }
        }
        // Two lanes cut at n/2, four at the quarters, and a leaf is not cut.
        assert_eq!(vecops::tree_bands(1000, 2), [0..500, 500..1000]);
        assert_eq!(vecops::tree_bands(1000, 3), [0..500, 500..1000]);
        assert_eq!(
            vecops::tree_bands(1001, 4),
            [0..250, 250..500, 500..750, 750..1001]
        );
        assert_eq!(vecops::tree_bands(129, 4), [0..64, 64..96, 96..129]);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = generators::laplacian_2d(5, 5, 0.1).to_csr();
        let r = solve_reference(&a, &[0.0; 25], &SolverConfig::default());
        assert!(r.converged());
        assert_eq!(r.iterations, 0);
        assert!(r.x.iter().all(|&v| v == 0.0));
    }
}
