//! Conjugate Gradient (CG) — Hestenes & Stiefel, the first Krylov solver evaluated in
//! the paper.
//!
//! CG performs exactly one operator application per iteration (from `x₀ = 0` the initial
//! residual is `b`), which is the `1 SpMV / iteration` count the paper's performance
//! model uses for the CG rows of Fig. 8.
//!
//! The vectors live in [`LanedVectors`] for the whole solve: on the operator's
//! [`lanes`](LinearOperator::lanes), or as one band on the calling thread when it offers
//! none.  An iteration is two phases — the operator's
//! [`apply_bands`](LinearOperator::apply_bands) (`p ← r + βp`, then `A·p` up to `pᵀAp`),
//! then `x += αp; r −= α·Ap; rᵀr`.  Its reductions add the bands' partials in the
//! pairwise tree's order, so every iterate, residual and stop is the same on any number
//! of lanes, bit for bit.

use crate::operator::LinearOperator;
use crate::result::{reached, SolveResult, SolverConfig, StopReason};
use refloat_sparse::vecops::{self, LanedVectors};

/// Solves `A x = b` with plain (unpreconditioned) CG starting from `x₀ = 0`.
///
/// The operator only has to be symmetric positive definite *approximately*: the
/// quantized ReFloat operators are slight perturbations of an SPD matrix and CG is run
/// on them exactly as the paper does, with breakdown detection guarding against loss of
/// positive definiteness.
///
/// # Panics
/// Panics if `a` is not square of order `b.len()`.
pub fn cg<A: LinearOperator + ?Sized>(a: &mut A, b: &[f64], config: &SolverConfig) -> SolveResult {
    let n = b.len();
    assert_eq!(a.nrows(), n, "cg: operator rows must match rhs length");
    assert_eq!(a.ncols(), n, "cg: operator must be square");

    let threshold = config.threshold(vecops::norm2(b));
    let mut trace = Vec::new();

    // x0 = 0, so r0 = b, and the first direction is r0; every later one is r + βp.
    let lanes = a.lanes().cloned().unwrap_or_default();
    let mut vectors = LanedVectors::new(&lanes, b);
    let mut rr = vecops::dot(b, b);
    let mut res_norm = rr.sqrt();
    if config.record_trace {
        trace.push(res_norm);
    }
    if reached(res_norm, threshold) {
        return finish(vectors, 0, res_norm, trace, StopReason::Converged);
    }

    let mut beta = None;
    for k in 1..=config.max_iterations {
        let p_ap = a.apply_bands(&mut vectors, beta);
        if !p_ap.is_finite() || p_ap <= 0.0 {
            let stop = StopReason::Breakdown(format!("pᵀAp = {p_ap} is not positive"));
            return finish(vectors, k, res_norm, trace, stop);
        }
        let alpha = rr / p_ap;
        let rr_new = vectors.reduce(move |band| {
            vecops::axpy(alpha, &band.p, &mut band.x);
            vecops::axpy(-alpha, &band.ap, &mut band.r);
            vecops::dot(&band.r, &band.r)
        });
        res_norm = rr_new.sqrt();
        if config.record_trace {
            trace.push(res_norm);
        }
        if !res_norm.is_finite() {
            let stop = StopReason::Breakdown("residual norm is not finite".into());
            return finish(vectors, k, res_norm, trace, stop);
        }
        if reached(res_norm, threshold) {
            return finish(vectors, k, res_norm, trace, StopReason::Converged);
        }
        beta = Some(rr_new / rr);
        rr = rr_new;
    }

    let max = config.max_iterations;
    finish(vectors, max, res_norm, trace, StopReason::MaxIterations)
}

/// The solve's result after `iterations` iterations, one apply each, with the iterate
/// gathered.
fn finish(
    vectors: LanedVectors,
    iterations: usize,
    final_residual: f64,
    trace: Vec<f64>,
    stop: StopReason,
) -> SolveResult {
    SolveResult {
        x: vectors.into_x(),
        iterations,
        spmv_count: iterations,
        final_residual,
        trace,
        stop,
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

    /// The textbook loop on the calling thread, over whole vectors, with `cg`'s stop
    /// rules: the reference every solve must equal bit for bit.  It records the trace
    /// whatever the configuration says.
    fn textbook_cg<A: LinearOperator>(a: &mut A, b: &[f64], config: &SolverConfig) -> SolveResult {
        let n = b.len();
        let threshold = config.threshold(vecops::norm2(b));
        let (mut x, mut r, mut p, mut ap) = (vec![0.0; n], b.to_vec(), b.to_vec(), vec![0.0; n]);
        let mut rr = vecops::dot(&r, &r);
        let mut trace = vec![rr.sqrt()];
        let (iterations, stop) = 'solve: {
            if reached(rr.sqrt(), threshold) {
                break 'solve (0, StopReason::Converged);
            }
            let mut beta = 0.0;
            for k in 1..=config.max_iterations {
                if k > 1 {
                    vecops::xpby(&r, beta, &mut p);
                }
                a.apply(&p, &mut ap);
                let p_ap = vecops::dot(&p, &ap);
                if !p_ap.is_finite() || p_ap <= 0.0 {
                    let what = format!("pᵀAp = {p_ap} is not positive");
                    break 'solve (k, StopReason::Breakdown(what));
                }
                let alpha = rr / p_ap;
                vecops::axpy(alpha, &p, &mut x);
                vecops::axpy(-alpha, &ap, &mut r);
                let rr_new = vecops::dot(&r, &r);
                trace.push(rr_new.sqrt());
                if !rr_new.sqrt().is_finite() {
                    let what = "residual norm is not finite".into();
                    break 'solve (k, StopReason::Breakdown(what));
                }
                if reached(rr_new.sqrt(), threshold) {
                    break 'solve (k, StopReason::Converged);
                }
                beta = rr_new / rr;
                rr = rr_new;
            }
            (config.max_iterations, StopReason::MaxIterations)
        };
        let final_residual = *trace.last().expect("the initial residual");
        SolveResult {
            x,
            iterations,
            spmv_count: iterations,
            final_residual,
            trace,
            stop,
        }
    }

    /// Asserts that `got`, with `applies` operator applications, is `want` bit for bit.
    fn assert_same_solve(got: &SolveResult, applies: usize, want: &SolveResult, context: &str) {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.x), bits(&want.x), "{context}");
        assert_eq!(bits(&got.trace), bits(&want.trace), "{context}");
        assert_eq!(got.iterations, want.iterations, "{context}");
        assert_eq!(got.stop, want.stop, "{context}");
        assert_eq!(applies, want.spmv_count, "{context}");
    }

    #[test]
    fn a_laned_solve_is_the_serial_solve_bitwise() {
        let mut stops = Vec::new();
        for n in [0, 1, 2, 63, 64, 65, 127, 128, 129, 200, 256, 257, 300] {
            let b: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64 - 4.5) / 3.0).collect();
            let converged = SolverConfig::relative(1e-10);
            let capped = SolverConfig::relative(1e-14).with_max_iterations(3);
            let cases = [(1.0, &converged), (1.0, &capped), (-1.0, &converged)];
            for (sign, config) in cases {
                let a = tridiagonal(n, sign);
                let context = format!("n {n}, sign {sign}");
                let want = textbook_cg(&mut a.clone(), &b, config);
                stops.push(std::mem::discriminant(&want.stop));
                // One band, through the default `apply_bands`.
                let got = cg(&mut a.clone(), &b, config);
                assert_same_solve(&got, got.spmv_count, &want, &format!("csr, {context}"));
                let mut counted = OperatorStats::new(a.clone());
                let got = cg(&mut counted, &b, config);
                assert_same_solve(&got, counted.applies(), &want, &format!("stats, {context}"));
                let diagonal = DiagonalOperator::new(a.diagonal());
                let want_diagonal = textbook_cg(&mut diagonal.clone(), &b, config);
                let got = cg(&mut diagonal.clone(), &b, config);
                let applies = got.spmv_count;
                assert_same_solve(&got, applies, &want_diagonal, &format!("diag, {context}"));
                // One to four lanes, through the default `apply_bands`.
                for count in 1..=4 {
                    let lanes = Arc::new(Lanes::new(count).unwrap());
                    let mut op = OperatorStats::new(Laned {
                        inner: a.clone(),
                        lanes,
                    });
                    let got = cg(&mut op, &b, config);
                    let context = format!("{count} lanes, {context}");
                    assert_same_solve(&got, op.applies(), &want, &context);
                }
            }
        }
        let kinds = [
            StopReason::Converged,
            StopReason::MaxIterations,
            StopReason::Breakdown(String::new()),
        ];
        assert!(kinds
            .iter()
            .all(|kind| stops.contains(&std::mem::discriminant(kind))));
    }

    #[test]
    fn an_exact_iterate_converges_at_tolerance_zero() {
        let exact = SolverConfig::relative(0.0);
        let mut a = DiagonalOperator::new(vec![2.0; 50]);
        let r = cg(&mut a, &[4.0; 50], &exact);
        assert_eq!((r.stop, r.iterations), (StopReason::Converged, 1));
        assert_eq!(r.final_residual, 0.0);
        assert!(r.x.iter().all(|&v| v == 2.0));
        // x₀ = 0 solves a zero right-hand side.
        let r = cg(&mut a, &[0.0; 50], &exact);
        assert_eq!((r.stop, r.iterations), (StopReason::Converged, 0));
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
