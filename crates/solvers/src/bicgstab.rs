//! Stabilized bi-conjugate gradient (BiCGSTAB) — van der Vorst, the second Krylov solver
//! evaluated in the paper.
//!
//! BiCGSTAB performs two operator applications per iteration, which is why the paper's
//! Fig. 8 treats one BiCGSTAB iteration as two SpMVs when converting iteration counts
//! into accelerator time.

use crate::operator::LinearOperator;
use crate::result::{reached, SolveResult, SolverConfig, StopReason};
use refloat_sparse::vecops;

/// Residual growth beyond this factor over the best iterate triggers a restart: the
/// recurrence has left the region where its recursive residual tracks the true one.
const DIVERGENCE_FACTOR: f64 = 1e4;

/// Solves `A x = b` with BiCGSTAB starting from `x₀ = 0`.
///
/// Unlike CG, BiCGSTAB does not require symmetry, so it also covers the non-symmetric
/// convection–diffusion example workloads.
///
/// The recurrence is guarded against its two classic failure modes: when the shadow
/// residual loses bi-orthogonality (`ρ = r̂ᵀr` collapses toward zero) or the recursive
/// residual diverges from the best iterate, the solve *restarts* from the best iterate
/// with a fresh shadow (`r̂ ← r`, a recomputed true residual) instead of silently
/// blowing up; a restart that makes no progress ends the solve at the best iterate.
pub fn bicgstab<A: LinearOperator + ?Sized>(
    a: &mut A,
    b: &[f64],
    config: &SolverConfig,
) -> SolveResult {
    let n = b.len();
    assert_eq!(
        a.nrows(),
        n,
        "bicgstab: operator rows must match rhs length"
    );
    assert_eq!(a.ncols(), n, "bicgstab: operator must be square");

    let threshold = config.threshold(vecops::norm2(b));
    let mut trace = Vec::new();

    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // r0 = b - A·0 = b
    let mut r_hat = r.clone(); // shadow residual, fixed between restarts
    let mut p = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut t = vec![0.0; n];

    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut spmv_count = 0usize;

    let mut res_norm = vecops::norm2(&r);
    // The best iterate seen so far by the *recursive* residual — what restarts resume
    // from, so divergence can never lose an already-good trajectory point.
    let mut best_x = x.clone();
    let mut best_norm = res_norm;
    // The last iterate whose residual was *measured* (`‖b − A·x‖`, recomputed at each
    // restart): what a stalled solve returns.  Recursive norms can drift from the
    // truth (e.g. on quantized operators, whose apply is weakly input-dependent), so
    // only measured residuals are trusted for progress decisions and final answers.
    let mut anchor_x = x.clone();
    let mut anchor_norm = res_norm;
    if config.record_trace {
        trace.push(res_norm);
    }
    if reached(res_norm, threshold) {
        return SolveResult {
            x,
            iterations: 0,
            spmv_count,
            final_residual: res_norm,
            trace,
            stop: StopReason::Converged,
        };
    }

    let breakdown = |what: String,
                     x: Vec<f64>,
                     iterations: usize,
                     spmv_count: usize,
                     final_residual: f64,
                     trace: Vec<f64>| SolveResult {
        x,
        iterations,
        spmv_count,
        final_residual,
        trace,
        stop: StopReason::Breakdown(what),
    };

    let mut r_hat_norm = res_norm;
    let mut restart = false;
    for k in 1..=config.max_iterations {
        if restart {
            restart = false;
            // Resume from the best trajectory point with its *measured* residual and
            // a fresh shadow; the Krylov recurrence starts over.
            x.copy_from_slice(&best_x);
            a.apply(&x, &mut t);
            spmv_count += 1;
            for i in 0..n {
                r[i] = b[i] - t[i];
            }
            res_norm = vecops::norm2(&r);
            if config.record_trace {
                trace.push(res_norm);
            }
            if reached(res_norm, threshold) {
                return SolveResult {
                    x,
                    iterations: k,
                    spmv_count,
                    final_residual: res_norm,
                    trace,
                    stop: StopReason::Converged,
                };
            }
            // A restart that cannot beat the previously *measured* residual would
            // replay a known-bad trajectory: stop at the measured-best iterate.
            // (NaN residuals land here too: `res_norm < anchor_norm` is then false.)
            if !matches!(
                res_norm.partial_cmp(&anchor_norm),
                Some(std::cmp::Ordering::Less)
            ) {
                return breakdown(
                    format!("restart made no progress (residual stalled at {anchor_norm:.3e})"),
                    anchor_x,
                    k,
                    spmv_count,
                    anchor_norm,
                    trace,
                );
            }
            anchor_norm = res_norm;
            anchor_x.copy_from_slice(&x);
            best_norm = res_norm;
            best_x.copy_from_slice(&x);
            r_hat.copy_from_slice(&r);
            r_hat_norm = res_norm;
            rho = 1.0;
            alpha = 1.0;
            omega = 1.0;
            vecops::zero(&mut p);
            vecops::zero(&mut v);
        }

        let rho_new = vecops::dot(&r_hat, &r);
        if !rho_new.is_finite() {
            return breakdown(
                format!("rho = {rho_new}"),
                x,
                k,
                spmv_count,
                res_norm,
                trace,
            );
        }
        // The shadow residual has (numerically) lost bi-orthogonality: the recurrence
        // scalars are about to be dominated by rounding noise.  Restart.
        if rho_new.abs() < f64::EPSILON * r_hat_norm * res_norm {
            restart = true;
            continue;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        if !beta.is_finite() {
            return breakdown(format!("beta = {beta}"), x, k, spmv_count, res_norm, trace);
        }
        // p = r + beta (p - omega v)
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        a.apply(&p, &mut v);
        spmv_count += 1;

        let r_hat_v = vecops::dot(&r_hat, &v);
        if r_hat_v == 0.0 || !r_hat_v.is_finite() {
            return breakdown(
                format!("r̂ᵀv = {r_hat_v}"),
                x,
                k,
                spmv_count,
                res_norm,
                trace,
            );
        }
        alpha = rho_new / r_hat_v;
        // s = r - alpha v
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        let s_norm = vecops::norm2(&s);
        if reached(s_norm, threshold) {
            vecops::axpy(alpha, &p, &mut x);
            res_norm = s_norm;
            if config.record_trace {
                trace.push(res_norm);
            }
            return SolveResult {
                x,
                iterations: k,
                spmv_count,
                final_residual: res_norm,
                trace,
                stop: StopReason::Converged,
            };
        }
        a.apply(&s, &mut t);
        spmv_count += 1;

        let t_t = vecops::dot(&t, &t);
        if !t_t.is_finite() {
            return breakdown(format!("tᵀt = {t_t}"), x, k, spmv_count, res_norm, trace);
        }
        omega = if t_t == 0.0 {
            0.0
        } else {
            vecops::dot(&t, &s) / t_t
        };
        if !omega.is_finite() {
            return breakdown(
                format!("omega = {omega}"),
                x,
                k,
                spmv_count,
                res_norm,
                trace,
            );
        }
        if omega == 0.0 {
            // A stagnated stabilizer step; the next beta would divide by it.
            restart = true;
            continue;
        }
        // x = x + alpha p + omega s
        for i in 0..n {
            x[i] += alpha * p[i] + omega * s[i];
        }
        // r = s - omega t
        for i in 0..n {
            r[i] = s[i] - omega * t[i];
        }
        rho = rho_new;

        res_norm = vecops::norm2(&r);
        if config.record_trace {
            trace.push(res_norm);
        }
        if !res_norm.is_finite() || res_norm > DIVERGENCE_FACTOR * best_norm {
            // The recursive residual no longer tracks reality — resume from the best
            // iterate rather than riding the blow-up (or returning garbage).
            restart = true;
            continue;
        }
        if reached(res_norm, threshold) {
            return SolveResult {
                x,
                iterations: k,
                spmv_count,
                final_residual: res_norm,
                trace,
                stop: StopReason::Converged,
            };
        }
        if res_norm < best_norm {
            best_norm = res_norm;
            best_x.copy_from_slice(&x);
        }
    }

    // Out of iterations: report the best iterate seen, not whatever state the
    // recurrence happened to end in (a NaN final residual counts as worse-than-best).
    if best_norm < res_norm || res_norm.is_nan() {
        x = best_x;
        res_norm = best_norm;
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

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::generators;
    use refloat_sparse::CsrMatrix;

    fn solve(a: &CsrMatrix, b: &[f64], cfg: &SolverConfig) -> SolveResult {
        let mut op = a.clone();
        bicgstab(&mut op, b, cfg)
    }

    #[test]
    fn solves_spd_laplacian() {
        let a = generators::laplacian_2d(16, 16, 0.2).to_csr();
        let x_star: Vec<f64> = (0..a.nrows())
            .map(|i| ((i * 7 % 13) as f64) / 13.0)
            .collect();
        let b = a.spmv(&x_star);
        let r = solve(&a, &b, &SolverConfig::relative(1e-10));
        assert!(r.converged(), "stop = {:?}", r.stop);
        assert!(vecops::rel_err(&r.x, &x_star) < 1e-6);
    }

    #[test]
    fn solves_nonsymmetric_convection_diffusion() {
        let a = generators::convection_diffusion_2d(20, 20, 15.0).to_csr();
        assert!(!a.is_symmetric(1e-12));
        let x_star: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.01).cos()).collect();
        let b = a.spmv(&x_star);
        let r = solve(
            &a,
            &b,
            &SolverConfig::relative(1e-10).with_max_iterations(2000),
        );
        assert!(r.converged(), "stop = {:?}", r.stop);
        assert!(vecops::rel_err(&r.x, &x_star) < 1e-6);
    }

    #[test]
    fn uses_two_spmv_per_full_iteration() {
        let a = generators::laplacian_2d(12, 12, 0.4).to_csr();
        let b = vec![1.0; 144];
        let r = solve(&a, &b, &SolverConfig::relative(1e-9));
        assert!(r.converged());
        // Early exit on the s-norm check can save the final SpMV, hence the ≤.
        assert!(r.spmv_count <= 2 * r.iterations);
        assert!(r.spmv_count >= 2 * r.iterations - 1);
    }

    #[test]
    fn typically_needs_fewer_iterations_than_cg_on_spd_systems() {
        // The paper's Table VI shows BiCGSTAB iteration counts below CG's on all 12
        // matrices (each BiCGSTAB iteration does twice the work).
        let a = generators::laplacian_2d(24, 24, 0.05).to_csr();
        let b = vec![1.0; a.nrows()];
        let cfg = SolverConfig::relative(1e-9);
        let r_bi = solve(&a, &b, &cfg);
        let mut op = a.clone();
        let r_cg = crate::cg::cg(&mut op, &b, &cfg);
        assert!(r_bi.converged() && r_cg.converged());
        assert!(r_bi.iterations <= r_cg.iterations);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = generators::laplacian_2d(5, 5, 0.1).to_csr();
        let r = solve(&a, &[0.0; 25], &SolverConfig::default());
        assert!(r.converged());
        assert_eq!(r.iterations, 0);
        assert_eq!(r.spmv_count, 0);
    }

    #[test]
    fn an_exact_iterate_converges_at_tolerance_zero() {
        // The exact iterate appears at the `s` step, where `s = 0`.
        let exact = SolverConfig::relative(0.0);
        let mut a = crate::operator::DiagonalOperator::new(vec![2.0; 50]);
        let r = bicgstab(&mut a, &[4.0; 50], &exact);
        assert_eq!((r.stop, r.iterations), (StopReason::Converged, 1));
        assert_eq!(r.final_residual, 0.0);
        assert!(r.x.iter().all(|&v| v == 2.0));
        let r = bicgstab(&mut a, &[0.0; 50], &exact);
        assert_eq!((r.stop, r.iterations), (StopReason::Converged, 0));
    }

    #[test]
    fn reports_nc_when_iteration_budget_is_too_small() {
        let a = generators::logspace_diagonal(300, 1.0, 1e9).to_csr();
        let b = vec![1.0; 300];
        let r = solve(
            &a,
            &b,
            &SolverConfig::relative(1e-12).with_max_iterations(2),
        );
        assert!(!r.converged());
        assert_eq!(r.stop, StopReason::MaxIterations);
    }

    #[test]
    fn trace_records_initial_plus_per_iteration_residuals() {
        let a = generators::laplacian_2d(10, 10, 0.5).to_csr();
        let b = vec![1.0; 100];
        let r = solve(&a, &b, &SolverConfig::relative(1e-9));
        assert!(r.converged());
        assert_eq!(r.trace.len(), r.iterations + 1);
    }
}
