//! Shared matrix handles, job specs (the internal execution record behind a
//! validated [`SolvePlan`](crate::SolvePlan)), and per-job outcomes.

use std::sync::Arc;

use refloat_core::{EscalationPolicy, ReFloatConfig};
use refloat_solvers::{RefinementConfig, SolveResult, SolverConfig};
use refloat_sparse::CsrMatrix;
use reram_sim::SolverKind;

use crate::fingerprint::{hash_csr, ContentHash};
use crate::sched::Priority;
use crate::telemetry::JobTelemetry;

/// A cheaply-cloneable reference to a matrix a tenant wants solves against.
///
/// One pass over the CSR arrays at construction ([`fingerprint_csr`]'s) yields three
/// things, so no job rescans the matrix:
///
/// * the **fingerprint**, a content hash of the dimensions, structure and value bits;
///   together with the per-job [`ReFloatConfig`] it keys the encoded-matrix cache, so
///   two handles wrapping equal matrices share cache entries;
/// * the **structure hash**, of the dimensions, `row_ptr` and `col_idx` only.  The
///   block-major layout is a function of the structure and `b` alone, so a node whose
///   cache misses on a matrix looks up a live encoding of the same structure hash and
///   `b`, and encodes over its layout instead of blocking again — after checking that
///   the structures are equal, never on the hash alone;
/// * whether every stored value is finite.
///
/// The pass folds one 64-bit word per multiply over four lanes: 2.2 ns per non-zero
/// on `mass_matrix_3d(24³)` on a 2-core x86-64 host, where the byte-wise FNV-1a it
/// replaced took 23–24 ns.
///
/// [`fingerprint_csr`]: crate::fingerprint_csr
#[derive(Debug, Clone)]
pub struct MatrixHandle {
    name: Arc<str>,
    csr: Arc<CsrMatrix>,
    hash: ContentHash,
}

impl MatrixHandle {
    /// Wraps a matrix, computing its hashes (one pass over the CSR arrays).
    pub fn new(name: impl Into<String>, csr: CsrMatrix) -> Self {
        Self::from_arc(name, Arc::new(csr))
    }

    /// Wraps an already-shared matrix.  The fingerprint, the structure hash and the
    /// finiteness of the stored values are computed here, in one pass, so plans never
    /// rescan the matrix.
    pub fn from_arc(name: impl Into<String>, csr: Arc<CsrMatrix>) -> Self {
        MatrixHandle {
            name: name.into().into(),
            hash: hash_csr(&csr),
            csr,
        }
    }

    /// Human-readable matrix name (used in telemetry).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying matrix.
    pub fn csr(&self) -> &CsrMatrix {
        &self.csr
    }

    /// The content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.hash.fingerprint
    }

    /// The structure hash: equal for every matrix of one sparsity pattern.
    pub(crate) fn structure_hash(&self) -> u64 {
        self.hash.structure
    }

    /// Whether every stored value is finite.  A plan over a matrix holding NaN or
    /// ±Inf is rejected with
    /// [`PlanViolation::NonFiniteMatrix`](crate::PlanViolation::NonFiniteMatrix).
    pub fn is_finite(&self) -> bool {
        self.hash.finite
    }

    /// This handle with its structure hash replaced: a forged collision.
    #[cfg(test)]
    pub(crate) fn with_structure_hash(mut self, structure: u64) -> Self {
        self.hash.structure = structure;
        self
    }

    /// The shared matrix itself (sequence steps keep it as the next step's
    /// predecessor source without copying the CSR arrays).
    pub(crate) fn csr_arc(&self) -> Arc<CsrMatrix> {
        Arc::clone(&self.csr)
    }
}

/// The previous step of a solve sequence, as seen by the worker: enough to attempt an
/// incremental re-encode of the current matrix against the predecessor's cached
/// encoding (the raw CSR is needed because encoded blocks store only quantized
/// values).
#[derive(Debug, Clone)]
pub(crate) struct SequencePredecessor {
    /// Fingerprint of the previous step's matrix (keys its cache entries).
    pub fingerprint: u64,
    /// The previous step's raw matrix.
    pub csr: Arc<CsrMatrix>,
}

/// Sequence context a [`SolveSequence`](crate::SolveSequence) attaches to a job.
/// Jobs without it (`SolveJob::sequence == None`) run the exact pre-sequence code
/// paths, bit for bit.
#[derive(Debug, Clone, Default)]
pub(crate) struct SequenceSpec {
    /// The previous step, when its encoding/decision may be reusable.
    pub predecessor: Option<SequencePredecessor>,
    /// Warm-start guess: the previous step's solution (residual-guarded by the
    /// worker, so a stale guess can only cost one SpMV, never accuracy).
    pub initial_guess: Option<Arc<Vec<f64>>>,
}

/// Mixed-precision refinement settings for a plan (see
/// [`SolvePlanBuilder::refinement`](crate::SolvePlanBuilder::refinement)).
///
/// A refined job wraps its inner solver (CG/BiCGSTAB at the job's base format) in the
/// outer fp64 defect-correction loop of `refloat_solvers::refinement`: exact residuals
/// on the host, low-precision correction solves on the simulated chip, and a
/// format-escalation ladder for inner formats that stall.  All the encoded rungs flow
/// through the runtime's encoded-matrix cache, so escalation re-uses encodings across
/// jobs and tenants.
#[derive(Debug, Clone, Default)]
pub struct RefinementSpec {
    /// The outer-loop knobs (target, pass cap, inner solve settings, stall
    /// threshold), shared verbatim with `refloat_solvers::refinement`.
    pub config: RefinementConfig,
    /// How stalled formats widen (and whether fp64 is the final rung).
    pub escalation: EscalationPolicy,
}

impl RefinementSpec {
    /// A spec targeting the given outer relative residual, with the default
    /// escalation policy.
    pub fn to_target(target: f64) -> Self {
        RefinementSpec {
            config: RefinementConfig::to_target(target),
            ..RefinementSpec::default()
        }
    }

    /// Builder: override the escalation policy.
    pub fn with_escalation(mut self, escalation: EscalationPolicy) -> Self {
        self.escalation = escalation;
        self
    }

    /// Builder: override the inner solve settings.
    pub fn with_inner(mut self, inner: SolverConfig) -> Self {
        self.config.inner = inner;
        self
    }

    /// The solver-side [`RefinementConfig`] this spec drives.  Pass recording is
    /// forced on: the worker prices each pass on the simulated chip from the pass
    /// log, so a spec must not be able to turn it off.
    pub fn refinement_config(&self) -> RefinementConfig {
        RefinementConfig {
            record_passes: true,
            ..self.config.clone()
        }
    }
}

/// Auto-format settings for a plan (see
/// [`SolvePlanBuilder::auto_format`](crate::SolvePlanBuilder::auto_format)).
///
/// The worker resolves the job's format through `refloat_core::autotune` — memoized in
/// the runtime's [`FormatDecisionCache`](crate::decision::FormatDecisionCache) under
/// the matrix fingerprint, so repeat tenants skip the analysis — and, when the chosen
/// format still stalls above `tolerance` in *true* residual, falls back to the
/// mixed-precision refinement ladder described by `fallback`.
#[derive(Debug, Clone)]
pub struct AutoFormatSpec {
    /// Target true relative residual `‖b − A·x‖₂ / ‖b‖₂` the solve must reach.
    /// Must be positive and finite — validated by
    /// [`SolvePlanBuilder::build`](crate::SolvePlanBuilder::build), which reports
    /// [`PlanViolation::InvalidTolerance`](crate::PlanViolation::InvalidTolerance)
    /// otherwise.
    pub tolerance: f64,
    /// The refinement ladder armed when the auto-tuned format stalls (its outer
    /// target is `tolerance`; the escalation policy defaults to
    /// [`EscalationPolicy::widen_then_fp64`]).
    pub fallback: RefinementSpec,
}

impl AutoFormatSpec {
    /// A spec targeting `tolerance` with the default escalation fallback.  The
    /// tolerance is validated when the plan is built, not here.
    pub fn to_target(tolerance: f64) -> Self {
        AutoFormatSpec {
            tolerance,
            fallback: RefinementSpec::to_target(tolerance),
        }
    }

    /// Builder: override the fallback escalation policy.
    pub fn with_escalation(mut self, escalation: EscalationPolicy) -> Self {
        self.fallback.escalation = escalation;
        self
    }
}

/// The internal, already-validated execution record of one solve request.
///
/// Constructed exclusively by
/// [`SolvePlanBuilder::build`](crate::SolvePlanBuilder::build) — every invariant
/// the worker relies on (refined jobs are single-RHS, auto-format
/// jobs are single-RHS, RHS lengths match the matrix, `shards >= 1`) is
/// established there, as typed [`PlanError`](crate::PlanError)s rather than
/// worker-side panics.
#[derive(Debug, Clone)]
pub(crate) struct SolveJob {
    /// Who submitted the job (telemetry/reporting label).
    pub tenant: Arc<str>,
    /// The matrix to solve against.
    pub matrix: MatrixHandle,
    /// The right-hand side; `None` means the all-ones vector (the experiment-harness
    /// convention).
    pub rhs: Option<Arc<Vec<f64>>>,
    /// Additional right-hand sides of a batched multi-RHS job.  All RHS of one job
    /// share the programmed operator.
    pub extra_rhs: Vec<Arc<Vec<f64>>>,
    /// The ReFloat format to encode (or fetch) the matrix in.  For refined jobs this
    /// is the *base* rung of the escalation ladder.
    pub format: ReFloatConfig,
    /// How many accelerator chips the job spans (1 = a single chip).
    pub shards: usize,
    /// Which Krylov solver to run.
    pub solver: SolverKind,
    /// Tolerance / iteration cap for the solve (plain jobs) or for nothing at all
    /// (refined jobs override it with the inner settings of [`RefinementSpec`]).
    pub solver_config: SolverConfig,
    /// When set, run the job in mixed-precision refinement mode.
    pub refinement: Option<RefinementSpec>,
    /// When set, the worker auto-tunes the format: `format` only contributes its
    /// blocking `b`, while `(e, f)(ev, fv)` come from the memoized per-matrix
    /// analysis.
    pub auto_format: Option<AutoFormatSpec>,
    /// Sequence context attached by a [`SolveSequence`](crate::SolveSequence):
    /// predecessor (for incremental re-encode / decision reuse) and warm-start guess.
    /// `None` for every job submitted outside a sequence.
    pub sequence: Option<SequenceSpec>,
}

impl SolveJob {
    /// Number of right-hand sides this job solves (primary + extras).
    pub fn rhs_count(&self) -> usize {
        1 + self.extra_rhs.len()
    }
}

/// A job with its submission envelope, as handed to a worker.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub id: u64,
    pub job: SolveJob,
    pub priority: Priority,
    /// Submission time in the runtime clock's seconds (see `telemetry::clock`).
    pub submitted_at_s: f64,
}

/// The result of one job: the raw solver outcome plus its telemetry.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Submission-order id.
    pub job_id: u64,
    /// The solver's result for the primary right-hand side (solution iterate,
    /// iterations, stop reason).
    pub result: SolveResult,
    /// Results for the extra right-hand sides of a batched job, in batch order
    /// (empty for single-RHS jobs).
    pub extra_results: Vec<SolveResult>,
    /// Per-job measurements.
    pub telemetry: JobTelemetry,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SolvePlan;

    #[test]
    fn equal_matrices_share_a_fingerprint_distinct_ones_do_not() {
        let a = refloat_matgen::generators::laplacian_2d(6, 6, 0.1).to_csr();
        let b = refloat_matgen::generators::laplacian_2d(6, 6, 0.1).to_csr();
        let c = refloat_matgen::generators::laplacian_2d(6, 6, 0.2).to_csr();
        let (ha, hb, hc) = (
            MatrixHandle::new("a", a),
            MatrixHandle::new("b", b),
            MatrixHandle::new("c", c),
        );
        assert_eq!(ha.fingerprint(), hb.fingerprint());
        assert_ne!(ha.fingerprint(), hc.fingerprint());
    }

    #[test]
    fn cache_key_distinguishes_formats() {
        let a = refloat_matgen::generators::laplacian_2d(6, 6, 0.1).to_csr();
        let handle = MatrixHandle::new("a", a);
        let j1 = SolvePlan::new("t", handle.clone(), ReFloatConfig::new(4, 3, 3, 3, 8))
            .build()
            .unwrap();
        let j2 = SolvePlan::new("t", handle, ReFloatConfig::new(4, 3, 8, 3, 8))
            .build()
            .unwrap();
        let key = |plan: &SolvePlan| {
            crate::cache::CacheKey::new(plan.matrix().fingerprint(), plan.format())
        };
        assert_ne!(key(&j1), key(&j2));
        assert_eq!(key(&j1).fingerprint, key(&j2).fingerprint);
    }

    #[test]
    fn rhs_batch_splits_into_primary_and_extras() {
        let a = refloat_matgen::generators::laplacian_2d(4, 4, 0.1).to_csr();
        let n = a.nrows();
        let handle = MatrixHandle::new("a", a);
        let plan = SolvePlan::new("t", handle, ReFloatConfig::new(3, 3, 8, 3, 8))
            .rhs_batch(vec![
                Arc::new(vec![1.0; n]),
                Arc::new(vec![2.0; n]),
                Arc::new(vec![3.0; n]),
            ])
            .sharding(4)
            .build()
            .unwrap();
        assert_eq!(plan.rhs_count(), 3);
        assert_eq!(plan.job.extra_rhs.len(), 2);
        assert_eq!(plan.shards(), 4);
        assert_eq!(plan.job.rhs.as_ref().unwrap()[0], 1.0);
    }
}
