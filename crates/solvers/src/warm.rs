//! Warm-started solves for sequences of closely-related systems.
//!
//! Transient workloads (time-stepping, parameter continuation) solve a chain of
//! systems `Aₖ xₖ = bₖ` where consecutive operators and right-hand sides differ only
//! slightly; the previous solution is then an excellent initial guess for the next
//! step.  The Krylov solvers in this crate deliberately start from `x₀ = 0` — that
//! keeps every one-shot solve bitwise reproducible — so warm starting is layered on
//! top in *correction form*: solve `A·d = b − A·x₀` from zero and return `x₀ + d`.
//! This reuses the existing solvers unchanged and keeps their breakdown detection.
//!
//! The guess is **measured-residual-guarded**: the wrapper spends one operator
//! application on `r₀ = b − A·x₀` and only commits to the warm path when the guess is
//! finite and strictly closer than the zero vector (`‖r₀‖ < ‖b‖`).  Otherwise it falls
//! back to the plain zero-start solve, bitwise identical to never having offered a
//! guess.  The correction solve runs under the *absolute* threshold
//! [`SolverConfig::threshold`]`(‖b‖)` so the stopping criterion — final true residual
//! `‖b − A·x‖` — is the same one the cold solve uses; warm starting changes the
//! iteration count, never the convergence target.
//!
//! [`solve_warm_split`] is built for inexact operators: the guess residual is
//! measured on a separate high-precision operator (the host's fp64 matrix) while the
//! correction still runs on the inexact one (the quantized chip).
//! Measuring `r₀` through a quantized apply pollutes it at the format's noise floor —
//! a broad-spectrum perturbation far above the stopping threshold that makes the
//! correction *slower* than a cold solve — whereas the fp64 residual of a good guess
//! is small and as smooth as the underlying time step.

use crate::operator::LinearOperator;
use crate::result::{reached, SolveResult, SolverConfig, StopReason};
use crate::SolverKind;
use refloat_sparse::vecops;

/// How a warm-started solve actually ran (for telemetry and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmPath {
    /// No guess was offered (or it had the wrong length); plain zero-start solve.
    Cold,
    /// A guess was offered but failed the residual guard; plain zero-start solve.
    GuardRejected,
    /// The guess already met the convergence criterion; no iterations were run.
    AlreadyConverged,
    /// The guess was accepted and the correction system was solved.
    Correction,
}

impl WarmPath {
    /// `true` when the initial guess was actually used.
    pub fn used(&self) -> bool {
        matches!(self, WarmPath::AlreadyConverged | WarmPath::Correction)
    }
}

/// Outcome of [`solve_warm_split`]: the solve result plus how the guess fared.
#[derive(Debug, Clone)]
pub struct WarmSolve {
    /// The solve result; `x` is the full solution (guess plus correction on the warm
    /// path), `spmv_count` includes the one residual-guard application when a guess
    /// was offered.
    pub result: SolveResult,
    /// Which path the solve took.
    pub path: WarmPath,
    /// `‖b − R·x₀‖` measured for the guard, when a guess was offered.
    pub initial_residual: Option<f64>,
}

/// Solves `A x = b`, optionally warm-started from `x0`, with the guess residual
/// measured on a *separate* operator `R`.
///
/// With `x0 = None` (or a guess of the wrong length) this is exactly
/// [`SolverKind::solve`] on `a`.  With a guess it measures `r₀ = b − R·x₀` (one
/// application of `residual_op`), rejects non-finite or not-strictly-better guesses
/// (falling back to the zero-start solve on `a`), short-circuits when the guess
/// already satisfies the convergence criterion, and otherwise solves the correction
/// system `A·d = r₀` on `a` to the same absolute threshold the cold solve would use
/// and returns `x₀ + d`.
///
/// `residual_op` is typically the raw fp64 matrix on the host while `a` is the chip
/// operator.  When `a`'s apply is inexact (quantized), measuring the residual through
/// it drowns a good guess in broad-spectrum quantization noise at the format's floor;
/// the fp64 residual keeps `r₀` small and smooth, so the correction genuinely starts
/// decades ahead of a cold solve.  With `residual_op` exact this also makes
/// [`WarmPath::AlreadyConverged`] a statement about the *true* residual.  Pass a copy
/// of `a` as `residual_op` to measure the guess on the operator itself.
///
/// `&CsrMatrix` implements [`LinearOperator`], so a shared borrow of the host
/// matrix can be passed directly: `solve_warm_split(kind, &mut chip, &mut &csr, …)`.
///
/// # Panics
/// Panics if the operators' and right-hand side's dimensions disagree.
pub fn solve_warm_split<A: LinearOperator + ?Sized, R: LinearOperator + ?Sized>(
    kind: SolverKind,
    a: &mut A,
    residual_op: &mut R,
    b: &[f64],
    x0: Option<&[f64]>,
    config: &SolverConfig,
) -> WarmSolve {
    let n = b.len();
    assert_eq!(
        a.nrows(),
        n,
        "solve_warm_split: operator rows must match rhs length"
    );
    assert_eq!(a.ncols(), n, "solve_warm_split: operator must be square");
    assert_eq!(
        residual_op.nrows(),
        n,
        "solve_warm_split: residual operator rows must match rhs length"
    );
    assert_eq!(
        residual_op.ncols(),
        n,
        "solve_warm_split: residual operator must be square"
    );

    let guess = match x0 {
        Some(g) if g.len() == n => g,
        _ => {
            return WarmSolve {
                result: kind.solve(a, b, config),
                path: WarmPath::Cold,
                initial_residual: None,
            }
        }
    };

    // One operator application measuring the guess: r0 = b − R·x0.
    let mut r0 = vec![0.0; n];
    residual_op.apply(guess, &mut r0);
    for (ri, bi) in r0.iter_mut().zip(b.iter()) {
        *ri = bi - *ri;
    }
    let r0_norm = vecops::norm2(&r0);
    let b_norm = vecops::norm2(b);
    let threshold = config.threshold(b_norm);

    if !r0_norm.is_finite() || r0_norm >= b_norm {
        // The guess is no better than starting from zero; run the plain solve so the
        // result is bitwise identical to never having offered a guess.
        let mut result = kind.solve(a, b, config);
        result.spmv_count += 1;
        return WarmSolve {
            result,
            path: WarmPath::GuardRejected,
            initial_residual: Some(r0_norm),
        };
    }

    if reached(r0_norm, threshold) {
        let trace = if config.record_trace {
            vec![r0_norm]
        } else {
            Vec::new()
        };
        return WarmSolve {
            result: SolveResult {
                x: guess.to_vec(),
                iterations: 0,
                spmv_count: 1,
                final_residual: r0_norm,
                trace,
                stop: StopReason::Converged,
            },
            path: WarmPath::AlreadyConverged,
            initial_residual: Some(r0_norm),
        };
    }

    // Correction solve A·d = r0 under the *absolute* threshold of the original
    // system, so ‖b − A·(x0+d)‖ = ‖r0 − A·d‖ meets the same criterion a cold solve
    // targets.
    let correction_config = SolverConfig {
        tolerance: threshold,
        relative: false,
        ..config.clone()
    };
    let mut result = kind.solve(a, &r0, &correction_config);
    for (xi, gi) in result.x.iter_mut().zip(guess.iter()) {
        *xi += gi;
    }
    result.spmv_count += 1;
    WarmSolve {
        result,
        path: WarmPath::Correction,
        initial_residual: Some(r0_norm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::transient::{TransientChain, TransientSpec};
    use refloat_sparse::{CooMatrix, CsrMatrix};

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut a = CooMatrix::new(n, n);
        for i in 0..n {
            a.push(i, i, 2.0);
            if i + 1 < n {
                a.push(i, i + 1, -1.0);
                a.push(i + 1, i, -1.0);
            }
        }
        a.to_csr()
    }

    /// A warm CG solve on a copy of `a`, the guess measured on `a` itself.
    fn cg_on(a: &CsrMatrix, b: &[f64], x0: Option<&[f64]>, config: &SolverConfig) -> WarmSolve {
        let mut exact = a;
        solve_warm_split(SolverKind::Cg, &mut a.clone(), &mut exact, b, x0, config)
    }

    #[test]
    fn no_guess_is_bitwise_identical_to_plain_solve() {
        let mut a = laplacian_1d(64);
        let b = vec![1.0; 64];
        let config = SolverConfig::relative(1e-10);
        let cold = SolverKind::Cg.solve(&mut a, &b, &config);
        let warm = cg_on(&a, &b, None, &config);
        assert_eq!(warm.path, WarmPath::Cold);
        assert_eq!(warm.initial_residual, None);
        assert_eq!(warm.result.iterations, cold.iterations);
        assert!(warm
            .result
            .x
            .iter()
            .zip(cold.x.iter())
            .all(|(w, c)| w.to_bits() == c.to_bits()));
    }

    #[test]
    fn hopeless_guess_is_rejected_and_falls_back_to_the_cold_solution() {
        let mut a = laplacian_1d(64);
        let b = vec![1.0; 64];
        let config = SolverConfig::relative(1e-10);
        let cold = SolverKind::Cg.solve(&mut a, &b, &config);
        let bad = vec![1.0e6; 64];
        let warm = cg_on(&a, &b, Some(&bad), &config);
        assert_eq!(warm.path, WarmPath::GuardRejected);
        assert!(warm.initial_residual.unwrap() >= vecops::norm2(&b));
        // Fallback is the plain zero-start solve, bit for bit, plus the one guard SpMV.
        assert_eq!(warm.result.spmv_count, cold.spmv_count + 1);
        assert!(warm
            .result
            .x
            .iter()
            .zip(cold.x.iter())
            .all(|(w, c)| w.to_bits() == c.to_bits()));
    }

    #[test]
    fn exact_guess_converges_in_zero_iterations() {
        let mut a = laplacian_1d(48);
        let b = vec![1.0; 48];
        let config = SolverConfig::relative(1e-10);
        let exact = SolverKind::Cg.solve(&mut a, &b, &config).x;
        let warm = cg_on(&a, &b, Some(&exact), &config);
        assert_eq!(warm.path, WarmPath::AlreadyConverged);
        assert_eq!(warm.result.iterations, 0);
        assert!(warm.result.converged());
        assert!(warm
            .result
            .x
            .iter()
            .zip(exact.iter())
            .all(|(w, c)| w.to_bits() == c.to_bits()));
    }

    #[test]
    fn an_exact_guess_or_a_zero_rhs_converges_at_tolerance_zero() {
        let exact = SolverConfig::relative(0.0);
        let mut a = crate::operator::DiagonalOperator::new(vec![2.0; 50]);
        let mut r = a.clone();
        for kind in [SolverKind::Cg, SolverKind::BiCgStab] {
            let warm = solve_warm_split(kind, &mut a, &mut r, &[4.0; 50], Some(&[2.0; 50]), &exact);
            assert_eq!(warm.path, WarmPath::AlreadyConverged, "{kind:?}");
            assert_eq!(warm.result.stop, StopReason::Converged, "{kind:?}");
            let warm = solve_warm_split(kind, &mut a, &mut r, &[0.0; 50], Some(&[0.0; 50]), &exact);
            assert_eq!(warm.path, WarmPath::GuardRejected, "{kind:?}");
            assert_eq!(warm.result.stop, StopReason::Converged, "{kind:?}");
            assert_eq!(warm.result.iterations, 0, "{kind:?}");
        }
    }

    #[test]
    fn warm_solution_meets_the_same_true_residual_criterion() {
        let mut a = laplacian_1d(96);
        let b: Vec<f64> = (0..96).map(|i| 1.0 + 0.01 * i as f64).collect();
        let config = SolverConfig::relative(1e-9);
        let threshold = config.threshold(vecops::norm2(&b));
        // A decent but inexact guess: the exact solution with a small smooth
        // perturbation, so the guard residual sits strictly between the convergence
        // threshold and ‖b‖.
        let mut guess = SolverKind::Cg.solve(&mut a, &b, &config).x;
        for (i, gi) in guess.iter_mut().enumerate() {
            *gi += 1e-4 * (0.2 * i as f64).sin();
        }
        let warm = cg_on(&a, &b, Some(&guess), &config);
        assert_eq!(warm.path, WarmPath::Correction);
        assert!(warm.result.converged());
        let mut ax = vec![0.0; 96];
        a.spmv_into(&warm.result.x, &mut ax);
        let true_res: f64 = vecops::norm2(
            &b.iter()
                .zip(ax.iter())
                .map(|(bi, yi)| bi - yi)
                .collect::<Vec<_>>(),
        );
        assert!(
            true_res <= threshold * (1.0 + 1e-12),
            "{true_res} vs {threshold}"
        );
    }

    #[test]
    fn a_warm_solve_is_the_correction_solve_from_the_guess() {
        let a = laplacian_1d(64);
        let b: Vec<f64> = (0..64).map(|i| 1.0 + 0.02 * i as f64).collect();
        let config = SolverConfig::relative(1e-9);
        let mut guess = SolverKind::Cg.solve(&mut a.clone(), &b, &config).x;
        for (i, gi) in guess.iter_mut().enumerate() {
            *gi += 1e-4 * (0.3 * i as f64).cos();
        }
        let split = cg_on(&a, &b, Some(&guess), &config);
        // By hand: r0 = b - A x0, solve A d = r0 to the cold solve's absolute
        // threshold, x = x0 + d.
        let mut r0 = vec![0.0; 64];
        a.spmv_into(&guess, &mut r0);
        for (ri, bi) in r0.iter_mut().zip(&b) {
            *ri = bi - *ri;
        }
        let absolute = SolverConfig {
            tolerance: config.threshold(vecops::norm2(&b)),
            relative: false,
            ..config.clone()
        };
        let d = SolverKind::Cg.solve(&mut a.clone(), &r0, &absolute);
        assert_eq!(split.path, WarmPath::Correction);
        assert_eq!(split.initial_residual, Some(vecops::norm2(&r0)));
        assert_eq!(split.result.iterations, d.iterations);
        assert_eq!(split.result.spmv_count, d.spmv_count + 1);
        assert!(split
            .result
            .x
            .iter()
            .zip(d.x.iter().zip(&guess))
            .all(|(s, (di, gi))| s.to_bits() == (di + gi).to_bits()));
    }

    /// A deterministic stand-in for the quantized chip: exact SpMV plus a smooth
    /// multiplicative output perturbation well above the solver threshold.
    #[derive(Clone)]
    struct NoisyOperator {
        csr: CsrMatrix,
        relative_noise: f64,
    }

    impl LinearOperator for NoisyOperator {
        fn nrows(&self) -> usize {
            self.csr.nrows()
        }

        fn ncols(&self) -> usize {
            self.csr.ncols()
        }

        fn apply(&mut self, x: &[f64], y: &mut [f64]) {
            self.csr.spmv_into(x, y);
            for (i, yi) in y.iter_mut().enumerate() {
                *yi *= 1.0 + self.relative_noise * (0.7 * i as f64).sin();
            }
        }
    }

    #[test]
    fn split_sees_through_an_inexact_operators_noise_floor() {
        let n = 64;
        let csr = laplacian_1d(n);
        let b: Vec<f64> = (0..n).map(|i| 1.0 + 0.02 * i as f64).collect();
        let config = SolverConfig::relative(1e-6).with_max_iterations(2_000);
        let exact = SolverKind::Cg.solve(&mut laplacian_1d(n), &b, &config).x;

        // Measured through the noisy operator, an (essentially) exact guess looks
        // ~1e-3 away from convergence; measured in fp64 it is already converged.
        let mut noisy = NoisyOperator {
            csr: laplacian_1d(n),
            relative_noise: 1e-3,
        };
        let polluted = solve_warm_split(
            SolverKind::Cg,
            &mut noisy.clone(),
            &mut noisy,
            &b,
            Some(&exact),
            &config,
        );
        assert_eq!(polluted.path, WarmPath::Correction);
        let mut noisy = NoisyOperator {
            csr: laplacian_1d(n),
            relative_noise: 1e-3,
        };
        let split = solve_warm_split(
            SolverKind::Cg,
            &mut noisy,
            &mut &csr,
            &b,
            Some(&exact),
            &config,
        );
        assert_eq!(split.path, WarmPath::AlreadyConverged);
        assert_eq!(split.result.iterations, 0);
        assert!(split.initial_residual.unwrap() < polluted.initial_residual.unwrap());
    }

    #[test]
    fn warm_start_never_increases_iterations_on_an_spd_time_step_chain() {
        let base = refloat_matgen::fem::poisson_2d(13, 11, 0.15, 7);
        let spec = TransientSpec::default()
            .with_steps(12)
            .with_seed(41)
            .with_drift(0.03, 0.25)
            .with_mass(0.6, 0.1);
        let config = SolverConfig::relative(1e-8);
        let mut previous: Option<Vec<f64>> = None;
        let mut warm_hits = 0usize;
        for step in TransientChain::new(base, spec) {
            let mut cold_op = step.matrix.clone();
            let cold = SolverKind::Cg.solve(&mut cold_op, &step.rhs, &config);
            let mut warm_op = step.matrix.clone();
            let warm = solve_warm_split(
                SolverKind::Cg,
                &mut warm_op,
                &mut &step.matrix,
                &step.rhs,
                previous.as_deref(),
                &config,
            );
            assert!(cold.converged() && warm.result.converged());
            assert!(
                warm.result.iterations <= cold.iterations,
                "step {}: warm {} > cold {}",
                step.index,
                warm.result.iterations,
                cold.iterations
            );
            if warm.path.used() {
                warm_hits += 1;
            }
            previous = Some(warm.result.x.clone());
        }
        // Every step after the first should have benefited from the previous solution.
        assert!(warm_hits >= 11, "only {warm_hits} warm hits");
    }
}
