//! Solver configuration and result types shared by CG and BiCGSTAB.

/// Why a solve terminated.
#[derive(Debug, Clone, PartialEq)]
pub enum StopReason {
    /// The residual criterion was met.
    Converged,
    /// The iteration limit was reached before convergence (the paper's "NC").
    MaxIterations,
    /// A scalar in the recurrence became zero, non-finite, or negative where positivity
    /// is required (e.g. `pᵀAp ≤ 0` in CG); the message names the culprit.
    Breakdown(String),
}

impl StopReason {
    /// `true` when the solve met its residual criterion.
    pub fn converged(&self) -> bool {
        matches!(self, StopReason::Converged)
    }
}

/// Configuration for an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    /// Maximum number of iterations before declaring non-convergence.
    pub max_iterations: usize,
    /// Residual tolerance `τ`; the paper uses `‖r‖₂ < 1e-8`.
    pub tolerance: f64,
    /// If `true`, the tolerance is relative to `‖b‖₂` (i.e. stop when
    /// `‖r‖₂ < τ·‖b‖₂`); if `false` it is the absolute criterion of the paper.
    pub relative: bool,
    /// Record the residual after every iteration (needed for the Fig. 9 traces).
    pub record_trace: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_iterations: 20_000,
            tolerance: 1e-8,
            relative: false,
            record_trace: true,
        }
    }
}

impl SolverConfig {
    /// The paper's convergence criterion: absolute residual below `1e-8`.
    pub fn paper_default() -> Self {
        SolverConfig::default()
    }

    /// A relative-residual variant (`‖r‖ < tol·‖b‖`), the convention used by the
    /// experiment harness so that workloads whose right-hand sides are far from unit
    /// norm remain meaningful.
    pub fn relative(tol: f64) -> Self {
        SolverConfig {
            tolerance: tol,
            relative: true,
            ..SolverConfig::default()
        }
    }

    /// Builder-style setter for the iteration limit.
    pub fn with_max_iterations(mut self, max: usize) -> Self {
        self.max_iterations = max;
        self
    }

    /// Builder-style setter for trace recording.
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// The absolute residual threshold for a particular right-hand-side norm.
    pub fn threshold(&self, b_norm: f64) -> f64 {
        if self.relative {
            self.tolerance * b_norm
        } else {
            self.tolerance
        }
    }
}

/// The one stop test of every solve: a residual norm `res` meets `threshold` when it is
/// below it, or exactly zero — an exact iterate has converged, a tolerance of 0
/// included.  Below any positive threshold a zero residual already is.
pub(crate) fn reached(res: f64, threshold: f64) -> bool {
    res < threshold || res == 0.0
}

/// The outcome of an iterative solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// The final solution iterate.
    pub x: Vec<f64>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Number of operator applications (SpMVs) performed; CG uses 1 + 1 per iteration,
    /// BiCGSTAB 1 + 2 per iteration.  The accelerator timing model multiplies this by
    /// the per-SpMV latency.
    pub spmv_count: usize,
    /// Final residual 2-norm (as tracked by the solver recurrence).
    pub final_residual: f64,
    /// Residual 2-norm after each iteration (empty if trace recording was disabled).
    pub trace: Vec<f64>,
    /// Why the solve stopped.
    pub stop: StopReason,
}

impl SolveResult {
    /// `true` when the solve met its residual criterion.
    pub fn converged(&self) -> bool {
        self.stop.converged()
    }

    /// Convenience label used by the experiment harness: the iteration count when
    /// converged, or `"NC"` (the paper's notation) otherwise.
    pub fn iterations_label(&self) -> String {
        if self.converged() {
            self.iterations.to_string()
        } else {
            "NC".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_criterion() {
        let c = SolverConfig::paper_default();
        assert_eq!(c.tolerance, 1e-8);
        assert!(!c.relative);
        assert_eq!(c.threshold(123.0), 1e-8);
    }

    #[test]
    fn relative_threshold_scales_with_rhs() {
        let c = SolverConfig::relative(1e-8);
        assert_eq!(c.threshold(100.0), 1e-6);
    }

    #[test]
    fn builders_update_fields() {
        let c = SolverConfig::default()
            .with_max_iterations(7)
            .with_trace(false);
        assert_eq!(c.max_iterations, 7);
        assert!(!c.record_trace);
    }

    #[test]
    fn stop_reason_and_label() {
        assert!(StopReason::Converged.converged());
        assert!(!StopReason::MaxIterations.converged());
        assert!(!StopReason::Breakdown("pAp".into()).converged());

        let ok = SolveResult {
            x: vec![],
            iterations: 42,
            spmv_count: 43,
            final_residual: 1e-9,
            trace: vec![],
            stop: StopReason::Converged,
        };
        assert_eq!(ok.iterations_label(), "42");
        let nc = SolveResult {
            stop: StopReason::MaxIterations,
            ..ok
        };
        assert_eq!(nc.iterations_label(), "NC");
    }
}
