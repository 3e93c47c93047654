//! Mixed-precision iterative refinement (defect correction) around a low-precision
//! inner solver.
//!
//! The paper's premise is that low-bit ReFloat operators keep Krylov solvers
//! converging; Le Gallo et al.'s *Mixed-Precision In-Memory Computing* shows the
//! production-grade form of that idea: run the cheap low-precision operator in the
//! inner loop and recover full fp64 accuracy with an outer refinement loop.  This
//! module implements that outer loop over any inner solver:
//!
//! ```text
//! x ← 0
//! repeat
//!     r ← b − A·x            (exact, fp64)
//!     solve  Ã·d ≈ r         (low precision: CG/BiCGSTAB on a quantized operator)
//!     x ← x + d              (fp64 accumulation)
//! until ‖r‖ ≤ target·‖b‖
//! ```
//!
//! Because the residual and the solution accumulate in fp64, the attainable accuracy
//! is set by fp64 — not by the inner format — as long as each outer pass contracts the
//! residual at all.  When an inner format is *too* coarse to contract (the pass
//! "stalls"), the driver escalates to the next rung of a [`PrecisionLadder`] —
//! typically a widened `ReFloat(b, e, f)` format, with full fp64 as the final rung —
//! so every solve either converges to the fp64 target or honestly reports
//! [`RefinementStop::Stalled`] at the top of the ladder.
//!
//! An inner solve only has to reduce its residual by the factor its rung can turn
//! into true progress: past the rung's quantization floor, extra inner digits are
//! thrown away by the next fp64 residual.  So the driver sizes each ask from the
//! contraction `ρ = after / before` the rung just delivered, measured by the fp64
//! residual it evaluates anyway.  The first pass on a rung asks
//! [`RefinementConfig::inner`]'s tolerance; after an accepted, non-stalled pass the
//! next asks `max(inner.tolerance, ρ / 10)`, one digit past what the rung proved it
//! can deliver; an escalation resets the ask, because a new rung has a new floor.
//! Since `ρ ≤ min_reduction ≤ 1`, an ask never exceeds 0.1.
//!
//! The driver is deliberately generic: it only needs an exact [`LinearOperator`] for
//! the fp64 residual and a [`PrecisionLadder`] for the inner solves, so the quantized
//! operators of `refloat-core`, the cache-backed ladders of `refloat-runtime`, and
//! plain test operators all plug in unchanged.

use crate::operator::LinearOperator;
use crate::result::{SolveResult, SolverConfig, StopReason};
use crate::warm::WarmPath;
use crate::SolverKind;
use refloat_sparse::vecops;

/// A ladder of inner solvers at increasing precision.
///
/// Level 0 is the cheapest (coarsest) rung; the refinement driver walks upward only
/// when a rung stops contracting the outer residual.  Implementations own whatever
/// operator state each rung needs (encoded matrices, caches, scratch buffers).
pub trait PrecisionLadder {
    /// Number of rungs; must be at least 1.
    fn levels(&self) -> usize;

    /// Human-readable name of a rung (used in reports and telemetry).
    fn level_name(&self, level: usize) -> String;

    /// Runs the inner solver at `level` on `rhs` (from `x₀ = 0`), returning the
    /// correction-solve result.
    fn solve(&mut self, level: usize, rhs: &[f64], config: &SolverConfig) -> SolveResult;
}

/// The simplest [`PrecisionLadder`]: a vector of ready-made operators (coarsest
/// first), all solved with the same Krylov method.
///
/// Heterogeneous rungs are the point — e.g. two quantized operators at widening bit
/// widths followed by the exact fp64 matrix — hence the boxed trait objects.
pub struct OperatorLadder {
    rungs: Vec<Box<dyn LinearOperator + Send>>,
    solver: SolverKind,
}

impl OperatorLadder {
    /// An empty ladder solving every rung with `solver`.
    pub fn new(solver: SolverKind) -> Self {
        OperatorLadder {
            rungs: Vec::new(),
            solver,
        }
    }

    /// Builder: append the next-finer rung.
    pub fn with_rung(mut self, op: Box<dyn LinearOperator + Send>) -> Self {
        self.rungs.push(op);
        self
    }

    /// Appends the next-finer rung.
    pub fn push(&mut self, op: Box<dyn LinearOperator + Send>) {
        self.rungs.push(op);
    }
}

impl PrecisionLadder for OperatorLadder {
    fn levels(&self) -> usize {
        self.rungs.len()
    }

    fn level_name(&self, level: usize) -> String {
        self.rungs[level].name()
    }

    fn solve(&mut self, level: usize, rhs: &[f64], config: &SolverConfig) -> SolveResult {
        self.solver.solve(&mut *self.rungs[level], rhs, config)
    }
}

/// Knobs of the outer refinement loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementConfig {
    /// Target relative residual `‖b − A·x‖₂ / ‖b‖₂` of the *outer* (fp64) loop.
    pub target: f64,
    /// Maximum outer passes before declaring non-convergence.
    pub max_outer: usize,
    /// Configuration of each inner correction solve.  Its tolerance is interpreted
    /// relative to the pass residual (the driver forces `relative = true`), so inner
    /// solves need far fewer digits than `target` — that is the entire economy of
    /// mixed precision.  The tolerance is the tightest ask: it is the first pass's,
    /// and each fresh rung's, ask; later passes ask one digit past the last pass's
    /// contraction (see the module docs).
    pub inner: SolverConfig,
    /// A pass must shrink the outer residual by at least this factor
    /// (`after < min_reduction · before`), otherwise it counts as a stall and the
    /// driver escalates to the next rung.
    pub min_reduction: f64,
    /// Record per-pass details in [`RefinementResult::passes`].
    pub record_passes: bool,
}

impl Default for RefinementConfig {
    fn default() -> Self {
        RefinementConfig {
            target: 1e-12,
            max_outer: 40,
            inner: SolverConfig::relative(1e-6)
                .with_max_iterations(5_000)
                .with_trace(false),
            min_reduction: 0.5,
            record_passes: true,
        }
    }
}

impl RefinementConfig {
    /// A config targeting the given outer relative residual.
    pub fn to_target(target: f64) -> Self {
        RefinementConfig {
            target,
            ..RefinementConfig::default()
        }
    }

    /// Builder-style setter for the outer pass cap.
    pub fn with_max_outer(mut self, max_outer: usize) -> Self {
        self.max_outer = max_outer;
        self
    }

    /// Builder-style setter for the inner solve configuration.
    pub fn with_inner(mut self, inner: SolverConfig) -> Self {
        self.inner = inner;
        self
    }
}

/// Why the refinement loop terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementStop {
    /// The outer residual criterion was met.
    Converged,
    /// The top rung of the ladder stopped contracting the residual.
    Stalled,
    /// The outer pass limit was reached first.
    MaxOuter,
}

impl RefinementStop {
    /// `true` when the outer residual criterion was met.
    pub fn converged(&self) -> bool {
        matches!(self, RefinementStop::Converged)
    }
}

/// One outer pass: which rung ran, what it cost, what it achieved.
#[derive(Debug, Clone)]
pub struct RefinementPass {
    /// Rung the correction was solved on.
    pub level: usize,
    /// The rung's name.
    pub level_name: String,
    /// The relative tolerance this pass's inner solve was given.
    pub inner_tolerance: f64,
    /// Inner solver iterations of this pass.
    pub inner_iterations: usize,
    /// Inner operator applications of this pass.
    pub inner_spmvs: usize,
    /// Why the inner solve stopped.
    pub inner_stop: StopReason,
    /// Outer relative residual before the pass.
    pub residual_before: f64,
    /// Outer relative residual after the pass (after a rejected pass this equals
    /// `residual_before`: the correction was rolled back).
    pub residual_after: f64,
    /// Whether the correction was rolled back (it grew the residual or produced
    /// non-finite values).
    pub rejected: bool,
    /// Whether the driver escalated to the next rung after this pass.
    pub escalated: bool,
}

/// The outcome of a refinement solve.
#[derive(Debug, Clone)]
pub struct RefinementResult {
    /// How the initial guess fared ([`WarmPath::Cold`] when none was offered; see
    /// [`refine_warm`]).
    pub warm_path: WarmPath,
    /// `‖b − A·x₀‖₂` measured in fp64 for the guard, when a guess was offered.
    pub initial_residual: Option<f64>,
    /// The final (fp64-accumulated) solution iterate.
    pub x: Vec<f64>,
    /// Outer passes executed.
    pub outer_iterations: usize,
    /// Total inner solver iterations across all passes.
    pub inner_iterations: usize,
    /// Total inner operator applications across all passes.
    pub inner_spmvs: usize,
    /// Exact fp64 operator applications (one per outer residual evaluation).
    pub fp64_spmvs: usize,
    /// Rungs skipped due to stalls (0 = the base format was enough).
    pub escalations: usize,
    /// The rung the loop ended on.
    pub final_level: usize,
    /// Final outer relative residual `‖b − A·x‖₂ / ‖b‖₂`.
    pub final_relative_residual: f64,
    /// Final outer absolute residual `‖b − A·x‖₂`.
    pub final_residual: f64,
    /// Per-pass details (empty unless [`RefinementConfig::record_passes`]).
    pub passes: Vec<RefinementPass>,
    /// Why the loop stopped.
    pub stop: RefinementStop,
}

impl RefinementResult {
    /// `true` when the outer residual criterion was met.
    pub fn converged(&self) -> bool {
        self.stop.converged()
    }

    /// Collapses the refined solve into the [`SolveResult`] shape the rest of the
    /// stack (runtime telemetry, experiment tables) consumes: iterations are the total
    /// inner iterations, the trace is the outer residual history, and the stop reason
    /// maps `Stalled` to a labelled breakdown.
    pub fn into_solve_result(self) -> SolveResult {
        let stop = match self.stop {
            RefinementStop::Converged => StopReason::Converged,
            RefinementStop::MaxOuter => StopReason::MaxIterations,
            RefinementStop::Stalled => StopReason::Breakdown(format!(
                "refinement stalled at rung {} with relative residual {:.3e}",
                self.final_level, self.final_relative_residual
            )),
        };
        let mut trace: Vec<f64> = Vec::with_capacity(self.passes.len() + 1);
        if let Some(first) = self.passes.first() {
            trace.push(first.residual_before);
        }
        trace.extend(self.passes.iter().map(|p| p.residual_after));
        SolveResult {
            x: self.x,
            iterations: self.inner_iterations,
            spmv_count: self.inner_spmvs + self.fp64_spmvs,
            final_residual: self.final_residual,
            trace,
            stop,
        }
    }
}

/// How far past its rung's last true contraction `ρ` an inner solve asks: the next
/// pass's relative tolerance is `max(inner.tolerance, ρ / ASK_PAST_CONTRACTION)`, one
/// digit past what the rung just delivered.  Asking for `ρ` itself cost the refined
/// benchmark solves about 1 % of their true digits; one digit more kept them all.
const ASK_PAST_CONTRACTION: f64 = 10.0;

/// The inner tolerance of the pass after one that asked `ask` and contracted the true
/// residual by `contraction`.  A fresh rung starts from the `configured` ask again; an
/// accepted, non-stalled pass moves the ask one digit past its contraction, never
/// tighter than configured; a stalled pass (a rejected one is stalled) keeps it.
fn next_ask(configured: f64, ask: f64, contraction: f64, stalled: bool, escalated: bool) -> f64 {
    if escalated {
        configured
    } else if stalled {
        ask
    } else {
        configured.max(contraction / ASK_PAST_CONTRACTION)
    }
}

/// Solves `A x = b` to fp64 accuracy by defect correction: exact fp64 residuals
/// around low-precision correction solves drawn from `ladder`, escalating rungs when
/// passes stall, optionally warm-started from an initial guess `x0`.  See the module
/// docs for the loop and its guarantees.
///
/// `a_fp64` must be the *exact* operator (the fp64 ground truth the quantized rungs
/// approximate); it is applied once per outer pass.
///
/// With `x0 = None` (or a guess of the wrong length) the loop starts from zero.  A
/// guess gets the guard semantics of [`solve_warm_split`](crate::solve_warm_split):
/// one exact fp64 application measures `r₀ = b − A·x₀`; a finite,
/// strictly-better-than-zero guess becomes the starting iterate (the outer loop is
/// defect correction already, so no separate correction system is needed), anything
/// else falls back to the zero start bitwise identically to never having offered a
/// guess.
///
/// Because the guard residual is *exact*, warm starting composes cleanly with the
/// quantized ladder: a guess carried over from the previous step of a transient
/// chain typically starts the outer loop several decades below `‖b‖`, skipping most
/// of the cold solve's passes — and [`WarmPath::AlreadyConverged`] (zero passes) is
/// a statement about the true fp64 residual.
///
/// # Panics
/// Panics if the ladder is empty, if dimensions disagree, or if the configuration is
/// degenerate (`target` or `inner.tolerance` not positive and finite,
/// `min_reduction` outside `(0, 1]`).
pub fn refine_warm<A, L>(
    a_fp64: &mut A,
    b: &[f64],
    x0: Option<&[f64]>,
    ladder: &mut L,
    config: &RefinementConfig,
) -> RefinementResult
where
    A: LinearOperator + ?Sized,
    L: PrecisionLadder + ?Sized,
{
    let n = b.len();
    assert_eq!(a_fp64.nrows(), n, "refine: operator rows must match rhs");
    assert_eq!(a_fp64.ncols(), n, "refine: operator must be square");
    assert!(ladder.levels() >= 1, "refine: ladder must have a rung");
    assert!(
        config.target > 0.0 && config.target.is_finite(),
        "refine: target must be a positive finite tolerance"
    );
    assert!(
        config.inner.tolerance > 0.0 && config.inner.tolerance.is_finite(),
        "refine: inner.tolerance must be a positive finite tolerance"
    );
    assert!(
        config.min_reduction > 0.0 && config.min_reduction <= 1.0,
        "refine: min_reduction must be in (0, 1]"
    );

    let b_norm = vecops::norm2(b);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut r_new = vec![0.0; n];
    let mut ax = vec![0.0; n];
    let mut passes = Vec::new();
    let mut level = 0usize;
    let mut outer = 0usize;
    let mut escalations = 0usize;
    let mut inner_iterations = 0usize;
    let mut inner_spmvs = 0usize;
    let mut fp64_spmvs = 0usize;

    // x₀ = 0, so the initial residual is b itself — no fp64 apply needed yet.
    let mut rel = if b_norm > 0.0 { 1.0 } else { 0.0 };
    let mut abs = b_norm;

    // A guess replaces the zero start only when its exact residual is finite and
    // strictly better; otherwise the loop below is bitwise identical to a cold
    // start (the measurement costs one fp64 SpMV either way).
    let mut warm_path = WarmPath::Cold;
    let mut initial_residual = None;
    if let Some(guess) = x0.filter(|g| g.len() == n) {
        a_fp64.apply(guess, &mut ax);
        fp64_spmvs += 1;
        vecops::sub_into(b, &ax, &mut r_new);
        let r0_norm = vecops::norm2(&r_new);
        initial_residual = Some(r0_norm);
        if r0_norm.is_finite() && r0_norm < b_norm {
            warm_path = WarmPath::Correction;
            x.copy_from_slice(guess);
            std::mem::swap(&mut r, &mut r_new);
            abs = r0_norm;
            rel = if b_norm > 0.0 { r0_norm / b_norm } else { 0.0 };
        } else {
            warm_path = WarmPath::GuardRejected;
        }
    }

    // The inner tolerance is relative to each pass's rhs (the current residual);
    // absolute inner tolerances would become unreachable as the residual shrinks.
    let mut inner_config = config.inner.clone();
    inner_config.relative = true;

    let mut stop = RefinementStop::MaxOuter;
    if rel <= config.target {
        stop = RefinementStop::Converged; // zero rhs, or an already-converged guess
        if warm_path == WarmPath::Correction {
            warm_path = WarmPath::AlreadyConverged;
        }
    } else {
        for _ in 0..config.max_outer {
            outer += 1;
            let inner_tolerance = inner_config.tolerance;
            let correction = ladder.solve(level, &r, &inner_config);
            inner_iterations += correction.iterations;
            inner_spmvs += correction.spmv_count;

            // Tentatively accept: x' = x + d, then measure the *exact* residual.
            vecops::axpy(1.0, &correction.x, &mut x);
            a_fp64.apply(&x, &mut ax);
            fp64_spmvs += 1;
            vecops::sub_into(b, &ax, &mut r_new);
            let new_abs = vecops::norm2(&r_new);
            let new_rel = if b_norm > 0.0 { new_abs / b_norm } else { 0.0 };

            // A pass that grows the residual (or corrupts it) is rolled back — the
            // previous residual buffer is still intact — so the loop never ends worse
            // than its best iterate.
            let rejected = !new_rel.is_finite() || new_rel > rel;
            if rejected {
                vecops::axpy(-1.0, &correction.x, &mut x);
            } else {
                std::mem::swap(&mut r, &mut r_new);
                abs = new_abs;
            }
            let after = if rejected { rel } else { new_rel };
            let stalled = rejected || after > config.min_reduction * rel;
            let can_escalate = level + 1 < ladder.levels();
            let escalate = stalled && after > config.target && can_escalate;

            if config.record_passes {
                passes.push(RefinementPass {
                    level,
                    level_name: ladder.level_name(level),
                    inner_tolerance,
                    inner_iterations: correction.iterations,
                    inner_spmvs: correction.spmv_count,
                    inner_stop: correction.stop,
                    residual_before: rel,
                    residual_after: after,
                    rejected,
                    escalated: escalate,
                });
            }

            inner_config.tolerance = next_ask(
                config.inner.tolerance,
                inner_tolerance,
                after / rel,
                stalled,
                escalate,
            );
            rel = after;
            if rel <= config.target {
                stop = RefinementStop::Converged;
                break;
            }
            if escalate {
                level += 1;
                escalations += 1;
            } else if stalled {
                // Already at the top rung and still not contracting: give up honestly
                // rather than burning the remaining outer passes.
                stop = RefinementStop::Stalled;
                break;
            }
        }
    }

    RefinementResult {
        warm_path,
        initial_residual,
        x,
        outer_iterations: outer,
        inner_iterations,
        inner_spmvs,
        fp64_spmvs,
        escalations,
        final_level: level,
        final_relative_residual: rel,
        final_residual: abs,
        passes,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::DiagonalOperator;
    use refloat_matgen::generators;
    use refloat_sparse::CsrMatrix;

    /// An operator that perturbs a CSR matrix's action by a fixed relative amount —
    /// a stand-in for a quantized operator with controllable "precision".
    struct PerturbedOperator {
        csr: CsrMatrix,
        rel_error: f64,
    }

    impl LinearOperator for PerturbedOperator {
        fn nrows(&self) -> usize {
            self.csr.nrows()
        }
        fn ncols(&self) -> usize {
            self.csr.ncols()
        }
        fn apply(&mut self, x: &[f64], y: &mut [f64]) {
            self.csr.spmv_into(x, y);
            for (i, yi) in y.iter_mut().enumerate() {
                // Deterministic sign-alternating perturbation proportional to |y|.
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                *yi *= 1.0 + sign * self.rel_error;
            }
        }
        fn name(&self) -> String {
            format!("perturbed (rel {:.1e})", self.rel_error)
        }
    }

    fn poisson(n: usize) -> CsrMatrix {
        generators::laplacian_2d(n, n, 0.4).to_csr()
    }

    #[test]
    fn refinement_reaches_fp64_accuracy_with_a_coarse_inner_operator() {
        let a = poisson(16);
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut ladder =
            OperatorLadder::new(SolverKind::Cg).with_rung(Box::new(PerturbedOperator {
                csr: a.clone(),
                rel_error: 1e-3,
            }));
        let config = RefinementConfig::to_target(1e-12);
        let result = refine_warm(&mut a.clone(), &b, None, &mut ladder, &config);
        assert!(result.converged(), "stop = {:?}", result.stop);
        assert!(result.final_relative_residual <= 1e-12);
        assert!(result.outer_iterations >= 2, "one pass cannot be enough");
        assert_eq!(result.escalations, 0);
    }

    fn perturbed_ladder(a: &CsrMatrix, rel_error: f64) -> OperatorLadder {
        OperatorLadder::new(SolverKind::Cg).with_rung(Box::new(PerturbedOperator {
            csr: a.clone(),
            rel_error,
        }))
    }

    /// Refines `a x = b` from `x0` over a one-rung ladder perturbed by `rel_error`.
    fn refine_perturbed(
        a: &CsrMatrix,
        b: &[f64],
        x0: Option<&[f64]>,
        rel_error: f64,
        config: &RefinementConfig,
    ) -> RefinementResult {
        refine_warm(
            &mut a.clone(),
            b,
            x0,
            &mut perturbed_ladder(a, rel_error),
            config,
        )
    }

    #[test]
    fn the_laned_exact_operator_refines_and_guards_as_the_csr_matrix_bit_for_bit() {
        use crate::operator::LanedCsr;
        use crate::{solve_warm_split, SolverConfig};
        use refloat_sparse::parallel::{Lanes, MIN_NNZ_PER_LANE};
        use std::sync::Arc;
        let a = poisson(96);
        assert!(a.nnz() >= 4 * MIN_NNZ_PER_LANE);
        let shared = Arc::new(a.clone());
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + ((i % 5) as f64)).collect();
        let config = RefinementConfig::to_target(1e-10);
        let solver = SolverConfig::relative(1e-8).with_trace(false);
        // A guess decades below ‖b‖ but short of the target takes the warm path.
        let cold = refine_perturbed(&a, &b, None, 1e-3, &config);
        let guess: Vec<f64> = (cold.x.iter().enumerate())
            .map(|(i, v)| v * (1.0 + 1e-6 * (i % 3) as f64))
            .collect();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let residuals = |r: &RefinementResult| {
            let pass =
                |p: &RefinementPass| (p.residual_before.to_bits(), p.residual_after.to_bits());
            let initial = r.initial_residual.map(f64::to_bits);
            (initial, r.passes.iter().map(pass).collect::<Vec<_>>())
        };
        let lane_sets: Vec<_> = (1..=4)
            .map(|count| Arc::new(Lanes::new(count).unwrap()))
            .collect();
        for x0 in [None, Some(&guess[..])] {
            let refined = refine_warm(&mut &a, &b, x0, &mut perturbed_ladder(&a, 1e-3), &config);
            let guarded =
                solve_warm_split(SolverKind::Cg, &mut a.clone(), &mut &a, &b, x0, &solver);
            assert_eq!(refined.warm_path == WarmPath::Cold, x0.is_none());
            for lanes in &lane_sets {
                let mut laned = LanedCsr::new(Arc::clone(&shared), lanes);
                assert_eq!(laned.bands(), lanes.count());
                let mut ladder = perturbed_ladder(&a, 1e-3);
                let got = refine_warm(&mut laned, &b, x0, &mut ladder, &config);
                let context = format!("{} lanes, guess {}", lanes.count(), x0.is_some());
                assert_eq!(bits(&got.x), bits(&refined.x), "{context}");
                assert_eq!(got.fp64_spmvs, refined.fp64_spmvs, "{context}");
                assert_eq!(residuals(&got), residuals(&refined), "{context}");
                assert_eq!(got.warm_path, refined.warm_path, "{context}");
                let got =
                    solve_warm_split(SolverKind::Cg, &mut a.clone(), &mut laned, &b, x0, &solver);
                assert_eq!(bits(&got.result.x), bits(&guarded.result.x), "{context}");
                assert_eq!(got.path, guarded.path, "{context}");
                let initial = |w: &crate::WarmSolve| w.initial_residual.map(f64::to_bits);
                assert_eq!(initial(&got), initial(&guarded), "{context}");
                assert_eq!(
                    got.result.spmv_count, guarded.result.spmv_count,
                    "{context}"
                );
            }
        }
    }

    #[test]
    fn no_guess_or_a_wrong_length_guess_is_the_cold_solve_bit_for_bit() {
        let a = poisson(14);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + ((i % 5) as f64)).collect();
        let config = RefinementConfig::to_target(1e-11);
        let cold = refine_perturbed(&a, &b, None, 1e-3, &config);
        assert_eq!(cold.warm_path, WarmPath::Cold);
        assert_eq!(cold.initial_residual, None);
        assert_eq!(cold.fp64_spmvs, cold.outer_iterations);
        // A guess of the wrong length is ignored: no guard SpMV, the same iterates.
        let short = vec![1.0; a.nrows() - 1];
        let warm = refine_perturbed(&a, &b, Some(&short), 1e-3, &config);
        assert_eq!(warm.warm_path, WarmPath::Cold);
        assert_eq!(warm.initial_residual, None);
        assert_eq!(warm.fp64_spmvs, cold.fp64_spmvs);
        assert!(warm
            .x
            .iter()
            .zip(cold.x.iter())
            .all(|(w, c)| w.to_bits() == c.to_bits()));
    }

    #[test]
    fn refine_warm_skips_most_passes_with_a_close_guess() {
        let a = poisson(14);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + ((i % 5) as f64)).collect();
        let config = RefinementConfig::to_target(1e-11);
        let cold = refine_perturbed(&a, &b, None, 1e-3, &config);
        assert!(cold.converged());
        // A slightly perturbed converged solution: decades below ‖b‖ but not at the
        // target, like a transient chain's previous step.
        let mut guess = cold.x.clone();
        for (i, gi) in guess.iter_mut().enumerate() {
            *gi += 1e-7 * (0.4 * i as f64).sin();
        }
        let warm = refine_perturbed(&a, &b, Some(&guess), 1e-3, &config);
        assert_eq!(warm.warm_path, WarmPath::Correction);
        assert!(warm.converged());
        assert!(
            warm.outer_iterations < cold.outer_iterations,
            "warm {} vs cold {} passes",
            warm.outer_iterations,
            cold.outer_iterations
        );
        assert!(warm.inner_iterations < cold.inner_iterations);

        // The converged solution itself short-circuits: zero passes, and the claim
        // is about the *true* fp64 residual.
        let short = refine_perturbed(&a, &b, Some(&cold.x), 1e-3, &config);
        assert_eq!(short.warm_path, WarmPath::AlreadyConverged);
        assert_eq!(short.outer_iterations, 0);
        assert!(short.converged());
        assert!(short
            .x
            .iter()
            .zip(cold.x.iter())
            .all(|(s, c)| s.to_bits() == c.to_bits()));
    }

    #[test]
    fn refine_warm_rejects_a_hopeless_guess_and_falls_back_bitwise() {
        let a = poisson(12);
        let b = vec![1.0; a.nrows()];
        let config = RefinementConfig::to_target(1e-10);
        let cold = refine_perturbed(&a, &b, None, 1e-3, &config);
        let bad = vec![1.0e9; a.nrows()];
        let warm = refine_perturbed(&a, &b, Some(&bad), 1e-3, &config);
        assert_eq!(warm.warm_path, WarmPath::GuardRejected);
        assert!(warm.initial_residual.unwrap() >= vecops::norm2(&b));
        assert_eq!(warm.fp64_spmvs, cold.fp64_spmvs + 1);
        assert!(warm
            .x
            .iter()
            .zip(cold.x.iter())
            .all(|(w, c)| w.to_bits() == c.to_bits()));
    }

    #[test]
    fn stalling_rung_escalates_and_then_converges() {
        let a = poisson(12);
        let b = vec![1.0; a.nrows()];
        // Rung 0 is far too coarse to contract; rung 1 is fine; rung 2 is exact.
        let mut ladder = OperatorLadder::new(SolverKind::Cg)
            .with_rung(Box::new(PerturbedOperator {
                csr: a.clone(),
                rel_error: 0.9,
            }))
            .with_rung(Box::new(PerturbedOperator {
                csr: a.clone(),
                rel_error: 1e-4,
            }))
            .with_rung(Box::new(a.clone()));
        let config = RefinementConfig::to_target(1e-12).with_max_outer(60);
        let result = refine_warm(&mut a.clone(), &b, None, &mut ladder, &config);
        assert!(result.converged(), "stop = {:?}", result.stop);
        assert!(result.escalations >= 1, "coarse rung should stall");
        assert!(result.final_level >= 1);
        // The pass log names the stalling rung and marks the escalation.
        assert!(result.passes.iter().any(|p| p.escalated && p.level == 0));
    }

    #[test]
    fn top_rung_stall_reports_stalled_not_maxouter() {
        let a = poisson(10);
        let b = vec![1.0; a.nrows()];
        // A single hopeless rung: the driver must give up via Stalled, quickly.
        let mut ladder =
            OperatorLadder::new(SolverKind::Cg).with_rung(Box::new(PerturbedOperator {
                csr: a.clone(),
                rel_error: 0.95,
            }));
        let config = RefinementConfig::to_target(1e-14).with_max_outer(50);
        let result = refine_warm(&mut a.clone(), &b, None, &mut ladder, &config);
        assert_eq!(result.stop, RefinementStop::Stalled);
        assert!(result.outer_iterations < 50, "stall must short-circuit");
        // Rolled-back or stalled passes never leave the iterate worse than before.
        for pair in result.passes.windows(2) {
            assert!(pair[1].residual_after <= pair[0].residual_after * (1.0 + 1e-12));
        }
    }

    /// Asserts every pass after the first asks what the rule derives from the pass
    /// before it: `max(τ, ρ / 10)` after progress, τ after an escalation.
    fn assert_asks_follow_the_rule(result: &RefinementResult, tau: f64) {
        for pair in result.passes.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            let contraction = prev.residual_after / prev.residual_before;
            let expected = if prev.escalated {
                tau
            } else {
                tau.max(contraction / 10.0)
            };
            assert_eq!(
                next.inner_tolerance.to_bits(),
                expected.to_bits(),
                "pass after {prev:?}"
            );
        }
    }

    #[test]
    fn each_pass_asks_one_digit_past_the_last_contraction() {
        let a = poisson(16);
        let b: Vec<f64> = (0..a.nrows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let config = RefinementConfig::to_target(1e-12);
        let tau = config.inner.tolerance;
        for rel_error in [1e-3, 1e-2, 5e-2] {
            let result = refine_perturbed(&a, &b, None, rel_error, &config);
            assert!(result.converged(), "stop = {:?}", result.stop);
            assert_eq!(result.escalations, 0);
            assert_eq!(result.passes[0].inner_tolerance, tau);
            assert_asks_follow_the_rule(&result, tau);
            // These rungs never contract by more than 1e-5 (ρ > 10·τ), so every
            // later pass asks for fewer digits than the configured τ.
            assert!(
                result.passes[1..].iter().all(|p| p.inner_tolerance > tau),
                "{rel_error}: {:?}",
                result.passes
            );
            // The ask never exceeds one digit past `min_reduction`.
            assert!(result
                .passes
                .iter()
                .all(|p| p.inner_tolerance <= config.min_reduction / 10.0));
        }
    }

    #[test]
    fn the_ask_is_never_looser_than_configured_nor_past_a_stall() {
        // A contraction tighter than 10·τ leaves the configured ask in place.
        assert_eq!(next_ask(1e-6, 1e-6, 1e-9, false, false), 1e-6);
        assert_eq!(next_ask(1e-6, 1e-6, 3e-3, false, false), 3e-3 / 10.0);
        // A rejected (hence stalled) pass keeps the ask it ran with; an escalation
        // resets it whatever the pass did.
        assert_eq!(next_ask(1e-6, 3e-4, 1.0, true, false), 3e-4);
        assert_eq!(next_ask(1e-6, 3e-4, 1.0, true, true), 1e-6);
        assert_eq!(next_ask(1e-6, 3e-4, 0.7, true, true), 1e-6);
    }

    /// A ladder whose coarse rung turns hostile after `good_passes` solves: from then
    /// on it returns the negated correction, which grows the residual and is rolled
    /// back.  Every other rung, and every earlier solve, is the wrapped ladder's.
    struct TurningLadder {
        inner: OperatorLadder,
        good_passes: usize,
        coarse_solves: usize,
    }

    impl PrecisionLadder for TurningLadder {
        fn levels(&self) -> usize {
            self.inner.levels()
        }
        fn level_name(&self, level: usize) -> String {
            self.inner.level_name(level)
        }
        fn solve(&mut self, level: usize, rhs: &[f64], config: &SolverConfig) -> SolveResult {
            let mut result = self.inner.solve(level, rhs, config);
            if level == 0 {
                self.coarse_solves += 1;
                if self.coarse_solves > self.good_passes {
                    result.x.iter_mut().for_each(|v| *v = -*v);
                }
            }
            result
        }
    }

    fn turning_ladder(a: &CsrMatrix, good_passes: usize) -> TurningLadder {
        TurningLadder {
            inner: perturbed_ladder(a, 1e-2).with_rung(Box::new(a.clone())),
            good_passes,
            coarse_solves: 0,
        }
    }

    #[test]
    fn a_rejected_pass_runs_with_the_last_ask_and_the_next_rung_starts_afresh() {
        let a = poisson(12);
        let b = vec![1.0; a.nrows()];
        let config = RefinementConfig::to_target(1e-12);
        let tau = config.inner.tolerance;
        let result = refine_warm(
            &mut a.clone(),
            &b,
            None,
            &mut turning_ladder(&a, 2),
            &config,
        );
        assert!(result.converged(), "stop = {:?}", result.stop);
        assert_eq!(result.escalations, 1);
        let passes = &result.passes;
        assert!(!passes[0].rejected && !passes[1].rejected);
        // The rejected pass asked what the accepted pass before it earned.
        let rejected = &passes[2];
        assert!(rejected.rejected && rejected.escalated && rejected.level == 0);
        let earned = tau.max(passes[1].residual_after / passes[1].residual_before / 10.0);
        assert!(earned > tau);
        assert_eq!(rejected.inner_tolerance, earned);
        // The fresh rung's first pass asks τ, and its later passes follow the rule.
        assert_eq!(passes[3].level, 1);
        assert_eq!(passes[3].inner_tolerance, tau);
        assert_asks_follow_the_rule(&result, tau);
    }

    #[test]
    fn an_escalation_resets_the_ask() {
        let a = poisson(12);
        let b = vec![1.0; a.nrows()];
        let mut ladder = OperatorLadder::new(SolverKind::Cg)
            .with_rung(Box::new(PerturbedOperator {
                csr: a.clone(),
                rel_error: 0.9,
            }))
            .with_rung(Box::new(PerturbedOperator {
                csr: a.clone(),
                rel_error: 1e-4,
            }))
            .with_rung(Box::new(a.clone()));
        let config = RefinementConfig::to_target(1e-12).with_max_outer(60);
        let result = refine_warm(&mut a.clone(), &b, None, &mut ladder, &config);
        assert!(result.converged(), "stop = {:?}", result.stop);
        assert!(result.escalations >= 1);
        for pair in result.passes.windows(2) {
            if pair[0].escalated {
                assert_eq!(pair[1].inner_tolerance, config.inner.tolerance);
                assert_eq!(pair[1].level, pair[0].level + 1);
            }
        }
        assert_asks_follow_the_rule(&result, config.inner.tolerance);
    }

    #[test]
    fn a_warm_start_first_asks_the_configured_tolerance() {
        let a = poisson(14);
        let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + ((i % 5) as f64)).collect();
        let config = RefinementConfig::to_target(1e-12);
        let cold = refine_perturbed(&a, &b, None, 1e-2, &config);
        // A guess part-way down: the cold solve's iterate with a visible error.
        let mut guess = cold.x.clone();
        for (i, gi) in guess.iter_mut().enumerate() {
            *gi += 1e-5 * (0.4 * i as f64).sin();
        }
        let warm = refine_perturbed(&a, &b, Some(&guess), 1e-2, &config);
        assert_eq!(warm.warm_path, WarmPath::Correction);
        assert!(warm.converged());
        assert!(warm.outer_iterations >= 2);
        assert_eq!(warm.passes[0].inner_tolerance, config.inner.tolerance);
        assert_asks_follow_the_rule(&warm, config.inner.tolerance);
    }

    proptest::proptest! {
        // Over random SPD matrices and coarse rungs from 1e-4 to 1e-1 relative error,
        // with an exact rung on top, the looser asks never cost the target.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn looser_asks_still_reach_the_target(
            n in 8usize..160,
            degree in 2usize..9,
            dominance in 1.05f64..3.0,
            log_scale in -3.0f64..3.0,
            log_error in -4.0f64..-1.0,
            seed in 0u64..1_000_000,
        ) {
            let a = generators::random_spd_graph(n, degree, dominance, 10f64.powf(log_scale), seed)
                .to_csr();
            let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7 % 11) as f64) / 5.0).collect();
            let mut ladder = perturbed_ladder(&a, 10f64.powf(log_error))
                .with_rung(Box::new(a.clone()));
            let config = RefinementConfig::to_target(1e-12);
            let result = refine_warm(&mut a.clone(), &b, None, &mut ladder, &config);
            proptest::prop_assert!(result.converged(), "stop = {:?}", result.stop);
            proptest::prop_assert!(a.relative_residual(&b, &result.x) <= 1e-12);
            assert_asks_follow_the_rule(&result, config.inner.tolerance);
        }
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = poisson(6);
        let mut ladder = OperatorLadder::new(SolverKind::Cg).with_rung(Box::new(a.clone()));
        let result = refine_warm(
            &mut a.clone(),
            &vec![0.0; 36],
            None,
            &mut ladder,
            &RefinementConfig::default(),
        );
        assert!(result.converged());
        assert_eq!(result.outer_iterations, 0);
        assert_eq!(result.fp64_spmvs, 0);
        assert!(result.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn into_solve_result_preserves_the_outer_story() {
        let a = poisson(8);
        let b = vec![1.0; a.nrows()];
        let mut ladder =
            OperatorLadder::new(SolverKind::Cg).with_rung(Box::new(PerturbedOperator {
                csr: a.clone(),
                rel_error: 1e-2,
            }));
        let config = RefinementConfig::to_target(1e-12);
        let result = refine_warm(&mut a.clone(), &b, None, &mut ladder, &config);
        assert!(result.converged());
        let outer = result.outer_iterations;
        let solve = result.into_solve_result();
        assert_eq!(solve.stop, StopReason::Converged);
        assert_eq!(solve.trace.len(), outer + 1);
        assert!(solve.iterations > 0);
        assert!(solve.final_residual <= 1e-12 * vecops::norm2(&b));
    }

    #[test]
    fn diagonal_ladder_with_bicgstab_also_refines() {
        let n = 40;
        let diag: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64) * 0.25).collect();
        let coarse: Vec<f64> = diag.iter().map(|d| d * 1.001).collect();
        let mut ladder = OperatorLadder::new(SolverKind::BiCgStab)
            .with_rung(Box::new(DiagonalOperator::new(coarse)));
        let b = vec![3.0; n];
        let mut exact = DiagonalOperator::new(diag.clone());
        let result = refine_warm(
            &mut exact,
            &b,
            None,
            &mut ladder,
            &RefinementConfig::to_target(1e-13),
        );
        assert!(result.converged(), "stop = {:?}", result.stop);
        for (xi, di) in result.x.iter().zip(diag.iter()) {
            assert!((xi - 3.0 / di).abs() < 1e-10);
        }
    }
}
