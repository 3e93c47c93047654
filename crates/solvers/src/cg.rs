//! Conjugate Gradient (CG) — Hestenes & Stiefel, the first Krylov solver evaluated in
//! the paper.
//!
//! CG performs exactly one operator application per iteration (plus one for the initial
//! residual), which is the `1 SpMV / iteration` count the paper's performance model uses
//! for the CG rows of Fig. 8.

use crate::operator::LinearOperator;
use crate::result::{SolveResult, SolverConfig, StopReason};
use refloat_sparse::vecops;

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

    let mut x = vec![0.0; n];
    // x0 = 0, so r0 = b.  Without a preconditioner z = r: CG reads `r` where it would
    // read `z`, which is never filled, and rᵀz is the rᵀr the residual norm was taken
    // from — the same bits, one copy and one dot fewer per iteration.
    let mut r = b.to_vec();
    let mut z = vec![0.0; inv_diag.map_or(0, |_| n)];
    let rr = vecops::dot(&r, &r);
    let mut rz_old = precondition(inv_diag, &r, &mut z, rr);
    let mut p = match inv_diag {
        Some(_) => z.clone(),
        None => r.clone(),
    };
    let mut ap = vec![0.0; n];
    let mut spmv_count = 0usize;

    let mut res_norm = rr.sqrt();
    if config.record_trace {
        trace.push(res_norm);
    }
    if res_norm < threshold {
        return SolveResult {
            x,
            iterations: 0,
            spmv_count,
            final_residual: res_norm,
            trace,
            stop: StopReason::Converged,
        };
    }

    for k in 1..=config.max_iterations {
        a.apply(&p, &mut ap);
        spmv_count += 1;

        let p_ap = vecops::dot(&p, &ap);
        if !p_ap.is_finite() || p_ap <= 0.0 {
            return SolveResult {
                x,
                iterations: k,
                spmv_count,
                final_residual: res_norm,
                trace,
                stop: StopReason::Breakdown(format!("pᵀAp = {p_ap} is not positive")),
            };
        }
        let alpha = rz_old / p_ap;
        vecops::axpy(alpha, &p, &mut x);
        vecops::axpy(-alpha, &ap, &mut r);

        let rr = vecops::dot(&r, &r);
        res_norm = rr.sqrt();
        if config.record_trace {
            trace.push(res_norm);
        }
        if !res_norm.is_finite() {
            return SolveResult {
                x,
                iterations: k,
                spmv_count,
                final_residual: res_norm,
                trace,
                stop: StopReason::Breakdown("residual norm is not finite".into()),
            };
        }
        if res_norm < threshold {
            return SolveResult {
                x,
                iterations: k,
                spmv_count,
                final_residual: res_norm,
                trace,
                stop: StopReason::Converged,
            };
        }

        let rz_new = precondition(inv_diag, &r, &mut z, rr);
        if rz_new == 0.0 || !rz_new.is_finite() {
            return SolveResult {
                x,
                iterations: k,
                spmv_count,
                final_residual: res_norm,
                trace,
                stop: StopReason::Breakdown(format!("rᵀz = {rz_new}")),
            };
        }
        let beta = rz_new / rz_old;
        let z = match inv_diag {
            Some(_) => &z,
            None => &r,
        };
        vecops::xpby(z, beta, &mut p);
        rz_old = rz_new;
    }

    SolveResult {
        x,
        iterations: config.max_iterations,
        spmv_count,
        final_residual: res_norm,
        trace,
        stop: StopReason::MaxIterations,
    }
}

/// `rᵀz` for the preconditioned residual `z = M⁻¹ r`, written into `z`.  Without a
/// preconditioner it is `rr`, the caller's `rᵀr`, and `z` is left alone.
fn precondition(inv_diag: Option<&[f64]>, r: &[f64], z: &mut [f64], rr: f64) -> f64 {
    let Some(m) = inv_diag else {
        return rr;
    };
    for ((zi, ri), mi) in z.iter_mut().zip(r.iter()).zip(m.iter()) {
        *zi = ri * mi;
    }
    vecops::dot(r, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::DiagonalOperator;
    use refloat_matgen::generators;
    use refloat_sparse::CsrMatrix;

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

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = generators::laplacian_2d(5, 5, 0.1).to_csr();
        let r = solve_reference(&a, &[0.0; 25], &SolverConfig::default());
        assert!(r.converged());
        assert_eq!(r.iterations, 0);
        assert!(r.x.iter().all(|&v| v == 0.0));
    }
}
