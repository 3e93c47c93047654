//! The validated solve-request API: [`SolvePlan`], its builder, and the typed
//! [`PlanError`] every invalid combination resolves to.
//!
//! The old `SolveJob::with_*` lattice was order-dependent and panicking: each
//! builder asserted against the options set *so far*, so the same invalid
//! combination either panicked on the submitting thread or slipped through to a
//! worker depending on call order.  [`SolvePlanBuilder`] records every selection
//! without judging it and validates the *whole* plan once, in
//! [`build`](SolvePlanBuilder::build) — returning **all** conflicting selections as
//! [`PlanViolation`]s instead of panicking on the first.

use std::sync::Arc;
use std::time::Duration;

use refloat_core::ReFloatConfig;
use refloat_solvers::SolverConfig;
use reram_sim::SolverKind;

use crate::job::{AutoFormatSpec, MatrixHandle, RefinementSpec, SolveJob};
use crate::sched::Priority;

/// One invalid selection (or combination of selections) in a plan under
/// construction.  [`SolvePlanBuilder::build`] reports every violation it finds,
/// not just the first.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanViolation {
    /// `sharding(0)` — a job spans at least one chip.
    ZeroShards,
    /// Both [`rhs`](SolvePlanBuilder::rhs) and
    /// [`rhs_batch`](SolvePlanBuilder::rhs_batch) were set; a plan has exactly one
    /// source of right-hand sides.
    RhsConflict,
    /// [`rhs_batch`](SolvePlanBuilder::rhs_batch) with an empty batch.
    EmptyRhsBatch,
    /// A right-hand side whose length does not match the matrix.
    RhsLengthMismatch {
        /// Index of the offending RHS within the batch (0 for a single RHS).
        index: usize,
        /// Matrix row count.
        expected: usize,
        /// Offending RHS length.
        got: usize,
    },
    /// Refinement and auto-format together: auto-format jobs arm their own
    /// refinement fallback.
    RefinementWithAutoFormat,
    /// A refined job spanning more than one chip: refined jobs are single-chip.
    RefinedJobSharded {
        /// Requested chip span.
        shards: usize,
    },
    /// A refined job with a multi-RHS batch: refined jobs are single-RHS.
    RefinedJobBatched {
        /// Requested RHS count.
        rhs_count: usize,
    },
    /// An auto-format job with a multi-RHS batch: the refinement fallback cannot
    /// run batched.
    AutoFormatBatched {
        /// Requested RHS count.
        rhs_count: usize,
    },
    /// An auto-format tolerance that is not positive and finite.
    InvalidTolerance {
        /// The offending tolerance.
        tolerance: f64,
    },
    /// A refinement spec (the plan's, or an auto-format fallback's) whose outer loop
    /// cannot run: a `target` or `inner.tolerance` that is not positive and finite,
    /// or a `min_reduction` outside `(0, 1]`.
    InvalidRefinement {
        /// The offending field, as a path from the builder call
        /// (`refinement.config.target`, `auto_format.fallback.config.min_reduction`, ...).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A right-hand side holding NaN or ±Inf: no solver can return a meaningful
    /// answer for it, so it never reaches a worker.
    NonFiniteRhs {
        /// Index of the offending RHS within the batch (0 for a single RHS).
        index: usize,
    },
    /// A matrix holding NaN or ±Inf among its stored values.
    NonFiniteMatrix,
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanViolation::ZeroShards => write!(f, "shards must be at least 1"),
            PlanViolation::RhsConflict => {
                write!(f, "rhs and rhs_batch are mutually exclusive")
            }
            PlanViolation::EmptyRhsBatch => write!(f, "rhs batch must be non-empty"),
            PlanViolation::RhsLengthMismatch {
                index,
                expected,
                got,
            } => write!(f, "rhs {index} has length {got}, matrix expects {expected}"),
            PlanViolation::RefinementWithAutoFormat => write!(
                f,
                "auto-format jobs arm their own refinement fallback; drop refinement or auto_format"
            ),
            PlanViolation::RefinedJobSharded { shards } => write!(
                f,
                "refined jobs are single-chip; drop refinement or the {shards}-chip sharding"
            ),
            PlanViolation::RefinedJobBatched { rhs_count } => write!(
                f,
                "refined jobs are single-RHS; split the {rhs_count}-RHS batch into separate plans"
            ),
            PlanViolation::AutoFormatBatched { rhs_count } => write!(
                f,
                "auto-format jobs are single-RHS (the refinement fallback cannot run batched); \
                 split the {rhs_count}-RHS batch into separate plans"
            ),
            PlanViolation::InvalidTolerance { tolerance } => write!(
                f,
                "auto-format tolerance must be positive and finite, got {tolerance}"
            ),
            PlanViolation::InvalidRefinement { field, value } => {
                write!(f, "{field} is out of range, got {value}")
            }
            PlanViolation::NonFiniteRhs { index } => {
                write!(f, "rhs {index} holds a NaN or infinite value")
            }
            PlanViolation::NonFiniteMatrix => {
                write!(f, "the matrix holds a NaN or infinite value")
            }
        }
    }
}

/// Everything wrong with a plan, reported at once by
/// [`SolvePlanBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    /// Every violation found, in a fixed check order.
    pub violations: Vec<PlanViolation>,
}

impl PlanError {
    /// Whether a specific violation was reported.
    pub fn contains(&self, violation: &PlanViolation) -> bool {
        self.violations.contains(violation)
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid solve plan ({} violation{}):",
            self.violations.len(),
            if self.violations.len() == 1 { "" } else { "s" }
        )?;
        for v in &self.violations {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlanError {}

/// A validated, immutable solve request: matrix + right-hand side(s) + format +
/// solver + QoS class, ready for [`SolveClient::submit`](crate::SolveClient::submit)
/// or [`SolveRuntime::run_batch`](crate::SolveRuntime::run_batch).
///
/// Built exclusively through [`SolvePlan::new`] → [`SolvePlanBuilder::build`];
/// every invalid combination of selections is a typed [`PlanError`], never a
/// panic.
#[derive(Debug, Clone)]
pub struct SolvePlan {
    pub(crate) job: SolveJob,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Duration>,
}

impl SolvePlan {
    /// Starts a plan for a CG solve with the harness defaults: all-ones right-hand
    /// side, relative `1e-8` tolerance, no residual trace, standard priority.
    ///
    /// Deliberately returns the builder (not `Self`): a `SolvePlan` only exists
    /// once [`SolvePlanBuilder::build`] has validated every selection.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        tenant: impl Into<String>,
        matrix: MatrixHandle,
        format: ReFloatConfig,
    ) -> SolvePlanBuilder {
        SolvePlanBuilder {
            tenant: tenant.into(),
            matrix,
            format,
            solver: SolverKind::Cg,
            solver_config: None,
            rhs: None,
            rhs_batch: None,
            shards: 1,
            refinement: None,
            auto_format: None,
            priority: Priority::Standard,
            deadline: None,
        }
    }

    /// Submitting tenant.
    pub fn tenant(&self) -> &str {
        &self.job.tenant
    }

    /// The matrix the plan solves against.
    pub fn matrix(&self) -> &MatrixHandle {
        &self.job.matrix
    }

    /// The ReFloat format (base rung for refined jobs; blocking source for
    /// auto-format jobs).
    pub fn format(&self) -> ReFloatConfig {
        self.job.format
    }

    /// Which Krylov solver the plan runs.
    pub fn solver(&self) -> SolverKind {
        self.job.solver
    }

    /// The solver stopping criterion.
    pub fn solver_config(&self) -> &SolverConfig {
        &self.job.solver_config
    }

    /// The explicit primary right-hand side (`None` = the all-ones vector).
    pub fn rhs(&self) -> Option<&Arc<Vec<f64>>> {
        self.job.rhs.as_ref()
    }

    /// Right-hand sides this plan solves (primary + extras).
    pub fn rhs_count(&self) -> usize {
        self.job.rhs_count()
    }

    /// Chips the plan spans (1 = unsharded).
    pub fn shards(&self) -> usize {
        self.job.shards
    }

    /// The QoS class the scheduler orders by.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The soft deadline (relative to submission), if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }
}

/// Order-independent builder for a [`SolvePlan`]; see [`SolvePlan::new`].
///
/// Setters never panic and never inspect each other — all validation happens at
/// once in [`build`](Self::build), which reports *every* conflicting selection.
#[derive(Debug, Clone)]
pub struct SolvePlanBuilder {
    tenant: String,
    matrix: MatrixHandle,
    format: ReFloatConfig,
    solver: SolverKind,
    solver_config: Option<SolverConfig>,
    rhs: Option<Arc<Vec<f64>>>,
    rhs_batch: Option<Vec<Arc<Vec<f64>>>>,
    shards: usize,
    refinement: Option<RefinementSpec>,
    auto_format: Option<AutoFormatSpec>,
    priority: Priority,
    deadline: Option<Duration>,
}

impl SolvePlanBuilder {
    /// Use BiCGSTAB (or switch back to CG).
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Override the solver configuration.
    ///
    /// On an auto-format plan only the iteration cap and trace flag survive: the
    /// tolerance is re-coupled to the [`AutoFormatSpec`] target so the solve
    /// criterion and the auto-format contract can never drift apart.
    pub fn solver_config(mut self, config: SolverConfig) -> Self {
        self.solver_config = Some(config);
        self
    }

    /// Use an explicit right-hand side (mutually exclusive with
    /// [`rhs_batch`](Self::rhs_batch)).
    pub fn rhs(mut self, rhs: Arc<Vec<f64>>) -> Self {
        self.rhs = Some(rhs);
        self
    }

    /// Solve against a batch of right-hand sides sharing one chip programming
    /// (mutually exclusive with [`rhs`](Self::rhs)).
    pub fn rhs_batch(mut self, batch: Vec<Arc<Vec<f64>>>) -> Self {
        self.rhs_batch = Some(batch);
        self
    }

    /// Span the job across `shards` accelerator chips (block-row sharding).
    pub fn sharding(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Run the job in mixed-precision refinement mode.
    pub fn refinement(mut self, spec: RefinementSpec) -> Self {
        self.refinement = Some(spec);
        self
    }

    /// Auto-tune the format, targeting the given *true* relative residual.
    pub fn auto_format(self, tolerance: f64) -> Self {
        self.auto_format_spec(AutoFormatSpec::to_target(tolerance))
    }

    /// Auto-tune the format with an explicit [`AutoFormatSpec`] (custom fallback
    /// escalation).
    pub fn auto_format_spec(mut self, spec: AutoFormatSpec) -> Self {
        self.auto_format = Some(spec);
        self
    }

    /// Set the QoS class (default [`Priority::Standard`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set a soft deadline relative to submission: within one priority class the
    /// scheduler runs deadline jobs earliest-deadline-first ahead of
    /// deadline-free peers.  Soft means best-effort — a missed deadline is
    /// telemetry, not an error.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Validates every selection at once.  On success the plan is immutable and a
    /// worker can never reject it; on failure [`PlanError::violations`] lists
    /// **all** conflicting selections, in a fixed check order.
    pub fn build(self) -> Result<SolvePlan, PlanError> {
        let mut violations = Vec::new();
        let n = self.matrix.csr().nrows();

        if self.shards == 0 {
            violations.push(PlanViolation::ZeroShards);
        }
        if self.rhs.is_some() && self.rhs_batch.is_some() {
            violations.push(PlanViolation::RhsConflict);
        }
        if self
            .rhs_batch
            .as_ref()
            .is_some_and(|batch| batch.is_empty())
        {
            violations.push(PlanViolation::EmptyRhsBatch);
        }
        // Hostile values get a typed error here, not a NaN-poisoned solve on a worker.
        if !self.matrix.is_finite() {
            violations.push(PlanViolation::NonFiniteMatrix);
        }
        let batch = self.rhs_batch.iter().flatten().enumerate();
        for (index, rhs) in batch.chain(self.rhs.iter().map(|rhs| (0, rhs))) {
            if rhs.len() != n {
                violations.push(PlanViolation::RhsLengthMismatch {
                    index,
                    expected: n,
                    got: rhs.len(),
                });
            }
            if !rhs.iter().all(|v| v.is_finite()) {
                violations.push(PlanViolation::NonFiniteRhs { index });
            }
        }
        let rhs_count = self.rhs_batch.as_ref().map(Vec::len).unwrap_or(1);
        if self.refinement.is_some() && self.auto_format.is_some() {
            violations.push(PlanViolation::RefinementWithAutoFormat);
        }
        if self.refinement.is_some() && self.shards > 1 {
            violations.push(PlanViolation::RefinedJobSharded {
                shards: self.shards,
            });
        }
        if self.refinement.is_some() && rhs_count > 1 {
            violations.push(PlanViolation::RefinedJobBatched { rhs_count });
        }
        if self.auto_format.is_some() && rhs_count > 1 {
            violations.push(PlanViolation::AutoFormatBatched { rhs_count });
        }
        if let Some(spec) = &self.auto_format {
            if !(spec.tolerance > 0.0 && spec.tolerance.is_finite()) {
                violations.push(PlanViolation::InvalidTolerance {
                    tolerance: spec.tolerance,
                });
            }
        }
        if let Some(spec) = &self.refinement {
            violations.extend(refinement_violations(spec, REFINEMENT_FIELDS));
        }
        if let Some(spec) = &self.auto_format {
            // `auto_format(tol)` makes `tol` the fallback's target too; a bad one is
            // reported once, as `InvalidTolerance`.
            let restates_tolerance = |v: &PlanViolation| {
                matches!(v, PlanViolation::InvalidRefinement { field, value }
                    if *field == FALLBACK_FIELDS[0] && value.to_bits() == spec.tolerance.to_bits())
            };
            violations.extend(
                refinement_violations(&spec.fallback, FALLBACK_FIELDS)
                    .filter(|v| !restates_tolerance(v)),
            );
        }
        if !violations.is_empty() {
            return Err(PlanError { violations });
        }

        let mut solver_config = self
            .solver_config
            .unwrap_or_else(|| SolverConfig::relative(1e-8).with_trace(false));
        if let Some(spec) = &self.auto_format {
            // Re-couple the solve criterion to the auto-format target (only the
            // iteration cap and trace flag of an explicit config survive).
            solver_config = SolverConfig::relative(spec.tolerance)
                .with_max_iterations(solver_config.max_iterations)
                .with_trace(false);
        }
        let (rhs, extra_rhs) = match self.rhs_batch {
            Some(batch) => {
                let mut batch = batch.into_iter();
                (batch.next(), batch.collect())
            }
            None => (self.rhs, Vec::new()),
        };
        Ok(SolvePlan {
            job: SolveJob {
                tenant: self.tenant.into(),
                matrix: self.matrix,
                rhs,
                extra_rhs,
                format: self.format,
                shards: self.shards,
                solver: self.solver,
                solver_config,
                refinement: self.refinement,
                auto_format: self.auto_format,
                sequence: None,
            },
            priority: self.priority,
            deadline: self.deadline,
        })
    }
}

/// Paths of a plan's refinement knobs: target, inner tolerance, stall threshold.
const REFINEMENT_FIELDS: [&str; 3] = [
    "refinement.config.target",
    "refinement.config.inner.tolerance",
    "refinement.config.min_reduction",
];

/// The same knobs of an auto-format plan's refinement fallback.
const FALLBACK_FIELDS: [&str; 3] = [
    "auto_format.fallback.config.target",
    "auto_format.fallback.config.inner.tolerance",
    "auto_format.fallback.config.min_reduction",
];

/// Every knob of `spec` the refinement driver cannot run with, under its path in
/// `fields`: tolerances must be positive and finite, the stall threshold in `(0, 1]`.
fn refinement_violations(
    spec: &RefinementSpec,
    fields: [&'static str; 3],
) -> impl Iterator<Item = PlanViolation> {
    let config = &spec.config;
    let tolerance_ok = |t: f64| t > 0.0 && t.is_finite();
    let knobs = [
        (config.target, tolerance_ok(config.target)),
        (config.inner.tolerance, tolerance_ok(config.inner.tolerance)),
        (
            config.min_reduction,
            config.min_reduction > 0.0 && config.min_reduction <= 1.0,
        ),
    ];
    fields
        .into_iter()
        .zip(knobs)
        .filter(|(_, (_, ok))| !ok)
        .map(|(field, (value, _))| PlanViolation::InvalidRefinement { field, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(n: usize) -> MatrixHandle {
        MatrixHandle::new(
            format!("p{n}"),
            refloat_matgen::generators::laplacian_2d(n, n, 0.1).to_csr(),
        )
    }

    fn fmt() -> ReFloatConfig {
        ReFloatConfig::new(3, 3, 8, 3, 8)
    }

    #[test]
    fn a_default_plan_builds() {
        let plan = SolvePlan::new("t", handle(4), fmt()).build().unwrap();
        assert_eq!(plan.tenant(), "t");
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.rhs_count(), 1);
        assert_eq!(plan.priority(), Priority::Standard);
        assert!(plan.deadline().is_none());
    }

    #[test]
    fn zero_shards_is_a_violation_not_a_panic() {
        let err = SolvePlan::new("t", handle(4), fmt())
            .sharding(0)
            .build()
            .unwrap_err();
        assert!(err.contains(&PlanViolation::ZeroShards));
    }

    #[test]
    fn refinement_conflicts_are_order_independent() {
        // Old API: with_refinement().with_sharding(2) panicked in with_sharding,
        // with_sharding(2).with_refinement() panicked in with_refinement — and a
        // direct struct literal slipped through to the worker.  The plan reports
        // the same violation for every order.
        let spec = RefinementSpec::to_target(1e-10);
        let a = SolvePlan::new("t", handle(4), fmt())
            .refinement(spec.clone())
            .sharding(2)
            .build()
            .unwrap_err();
        let b = SolvePlan::new("t", handle(4), fmt())
            .sharding(2)
            .refinement(spec)
            .build()
            .unwrap_err();
        assert_eq!(a, b);
        assert!(a.contains(&PlanViolation::RefinedJobSharded { shards: 2 }));
    }

    #[test]
    fn all_violations_are_reported_at_once() {
        let h = handle(4);
        let n = h.csr().nrows();
        let err = SolvePlan::new("t", h, fmt())
            .sharding(0)
            .rhs(Arc::new(vec![1.0; n]))
            .rhs_batch(vec![Arc::new(vec![1.0; 3]), Arc::new(vec![1.0; n])])
            .refinement(RefinementSpec::to_target(1e-10))
            .auto_format(-1.0)
            .build()
            .unwrap_err();
        assert!(err.contains(&PlanViolation::ZeroShards));
        assert!(err.contains(&PlanViolation::RhsConflict));
        assert!(err.contains(&PlanViolation::RhsLengthMismatch {
            index: 0,
            expected: n,
            got: 3
        }));
        assert!(err.contains(&PlanViolation::RefinementWithAutoFormat));
        assert!(err.contains(&PlanViolation::RefinedJobBatched { rhs_count: 2 }));
        assert!(err.contains(&PlanViolation::AutoFormatBatched { rhs_count: 2 }));
        assert!(err.contains(&PlanViolation::InvalidTolerance { tolerance: -1.0 }));
        assert!(err.violations.len() >= 7);
        let rendered = err.to_string();
        assert!(rendered.contains("violations"));
        assert!(rendered.contains("tolerance"));
    }

    #[test]
    fn empty_rhs_batch_and_bad_tolerances_are_violations() {
        let err = SolvePlan::new("t", handle(4), fmt())
            .rhs_batch(Vec::new())
            .build()
            .unwrap_err();
        assert_eq!(err.violations, vec![PlanViolation::EmptyRhsBatch]);
        for bad in [0.0, -1e-8, f64::NAN, f64::INFINITY] {
            let err = SolvePlan::new("t", handle(4), fmt())
                .auto_format(bad)
                .build()
                .unwrap_err();
            assert!(
                matches!(
                    err.violations.as_slice(),
                    [PlanViolation::InvalidTolerance { .. }]
                ),
                "tolerance {bad}: {err}"
            );
        }
    }

    #[test]
    fn a_refinement_spec_the_driver_cannot_run_is_a_violation() {
        let bad_tolerances = [0.0, -1e-8, f64::NAN, f64::INFINITY];
        let bad_reductions = [0.0, -0.5, 1.5, f64::NAN];
        let mut cases: Vec<(&str, f64, RefinementSpec)> = Vec::new();
        for bad in bad_tolerances {
            cases.push((
                "refinement.config.target",
                bad,
                RefinementSpec::to_target(bad),
            ));
            let mut spec = RefinementSpec::to_target(1e-10);
            spec.config.inner.tolerance = bad;
            cases.push(("refinement.config.inner.tolerance", bad, spec));
        }
        for bad in bad_reductions {
            let mut spec = RefinementSpec::to_target(1e-10);
            spec.config.min_reduction = bad;
            cases.push(("refinement.config.min_reduction", bad, spec));
        }
        for (path, bad, spec) in cases {
            let err = SolvePlan::new("t", handle(4), fmt())
                .refinement(spec)
                .build()
                .unwrap_err();
            match err.violations.as_slice() {
                [PlanViolation::InvalidRefinement { field, value }] => {
                    assert_eq!(*field, path);
                    assert_eq!(value.to_bits(), bad.to_bits());
                }
                other => panic!("{path} = {bad}: {other:?}"),
            }
            assert!(err.to_string().contains(path), "{err}");
        }

        // Every bad knob is reported, and a fallback's under its own path.
        let mut fallback = AutoFormatSpec::to_target(1e-8);
        fallback.fallback.config.target = 0.0;
        fallback.fallback.config.inner.tolerance = f64::NAN;
        fallback.fallback.config.min_reduction = 2.0;
        let err = SolvePlan::new("t", handle(4), fmt())
            .auto_format_spec(fallback)
            .build()
            .unwrap_err();
        let fields: Vec<&str> = err
            .violations
            .iter()
            .map(|v| match v {
                PlanViolation::InvalidRefinement { field, .. } => *field,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(fields, FALLBACK_FIELDS);

        // The boundary values build: min_reduction = 1 accepts any non-growing pass.
        let mut edge = RefinementSpec::to_target(f64::MIN_POSITIVE);
        edge.config.min_reduction = 1.0;
        assert!(SolvePlan::new("t", handle(4), fmt())
            .refinement(edge)
            .build()
            .is_ok());
    }

    #[test]
    fn non_finite_values_are_violations_and_never_reach_a_worker() {
        let h = handle(4);
        let n = h.csr().nrows();
        let poisoned = |bad: f64| {
            let mut rhs = vec![1.0; n];
            rhs[n / 2] = bad;
            Arc::new(rhs)
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = SolvePlan::new("t", h.clone(), fmt())
                .rhs(poisoned(bad))
                .build()
                .unwrap_err();
            assert_eq!(
                err.violations,
                vec![PlanViolation::NonFiniteRhs { index: 0 }]
            );
            // The offending batch member is named by its index.
            let err = SolvePlan::new("t", h.clone(), fmt())
                .rhs_batch(vec![Arc::new(vec![1.0; n]), poisoned(bad)])
                .build()
                .unwrap_err();
            assert_eq!(
                err.violations,
                vec![PlanViolation::NonFiniteRhs { index: 1 }]
            );
            // A poisoned matrix value: checked once on the handle, reported per plan.
            let mut a = h.csr().clone();
            a.values_mut()[3] = bad;
            let hostile = MatrixHandle::new("hostile", a);
            assert!(!hostile.is_finite());
            let err = SolvePlan::new("t", hostile, fmt()).build().unwrap_err();
            assert_eq!(err.violations, vec![PlanViolation::NonFiniteMatrix]);
            assert!(err.to_string().contains("NaN or infinite"));
        }
        assert!(h.is_finite());
    }

    #[test]
    fn valid_combinations_still_build() {
        let h = handle(6);
        let n = h.csr().nrows();
        // Sharded multi-RHS.
        let plan = SolvePlan::new("t", h.clone(), fmt())
            .rhs_batch(vec![Arc::new(vec![1.0; n]), Arc::new(vec![2.0; n])])
            .sharding(4)
            .build()
            .unwrap();
        assert_eq!(plan.rhs_count(), 2);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.rhs().unwrap()[0], 1.0);
        // Auto-format composed with sharding, at a non-default priority.
        let plan = SolvePlan::new("t", h.clone(), fmt())
            .auto_format(1e-6)
            .sharding(2)
            .priority(Priority::Interactive)
            .deadline(Duration::from_millis(50))
            .build()
            .unwrap();
        assert_eq!(plan.priority(), Priority::Interactive);
        assert_eq!(plan.deadline(), Some(Duration::from_millis(50)));
        // The auto-format target re-couples the solver criterion.
        assert_eq!(plan.solver_config().tolerance, 1e-6);
        assert!(plan.solver_config().relative);
        // Refined single-chip single-RHS.
        let plan = SolvePlan::new("t", h, fmt())
            .refinement(RefinementSpec::to_target(1e-12))
            .build()
            .unwrap();
        assert!(plan.job.refinement.is_some());
    }

    #[test]
    fn solver_config_iteration_cap_survives_auto_format_in_any_order() {
        let h = handle(4);
        let before = SolvePlan::new("t", h.clone(), fmt())
            .solver_config(SolverConfig::relative(1e-3).with_max_iterations(123))
            .auto_format(1e-6)
            .build()
            .unwrap();
        let after = SolvePlan::new("t", h, fmt())
            .auto_format(1e-6)
            .solver_config(SolverConfig::relative(1e-3).with_max_iterations(123))
            .build()
            .unwrap();
        for plan in [&before, &after] {
            assert_eq!(plan.solver_config().max_iterations, 123);
            assert_eq!(plan.solver_config().tolerance, 1e-6);
        }
    }
}
