//! The execution pipeline: the one path every job takes from a dequeued plan to a
//! [`JobOutcome`].
//!
//! The paper's accelerator has a single dataflow — program the encoded blocks once,
//! run the crossbar MVM every iteration, rewrite clusters only when the resident
//! matrix changes — so the worker has a single pipeline of five stages, each
//! implemented once:
//!
//! 1. **context** — [`JobContext`] borrows everything a job touches; an auto-format
//!    job first resolves its format through the decision cache.
//! 2. **resolve encoding** — `resolve_encoding` owns the encode-cache lookup and the
//!    incremental re-encode against a sequence predecessor.  A matrix has one
//!    encoding per format, whatever the chip count, and every refinement rung goes
//!    through it too.
//! 3. **program operator** — `program_operator` builds this job's operator over the
//!    cached encoding, which it shares rather than copies: the matrix itself, or the
//!    matrix on faulty hardware.  However many chips a job spans, the host applies the
//!    one encoding; the chips' row bands are a property of the [`Residency`] the chip
//!    model prices.  What the chip holds between jobs is recorded in one place, the
//!    [`SimulatedAccelerator`]'s resident record.
//! 4. **solve strategy** — a plain batch with an optionally warm-started first
//!    right-hand side, or the refinement ladder (whose rung fetch is stages 2 + 3).
//! 5. **charge** — one [`SimulatedAccelerator::charge`] call describing what ran.
//!
//! The fault policy's probe → re-encode → degrade loop wraps stages 3–5, and an
//! auto-format job whose format stalls runs the refined strategy on the same context.

use std::sync::Arc;

use refloat_core::autotune::{self, AutotuneConfig};
use refloat_core::incremental::{reencode_incremental_on, IncrementalStats};
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_solvers::{
    refine_warm, solve_warm_split, LanedCsr, LinearOperator, PrecisionLadder, RefinementStop,
    SolveResult, SolverConfig,
};
use refloat_sparse::parallel::Lanes;
use refloat_telemetry::SpanKind;
use reram_sim::FaultyReFloatOperator;

use crate::accel::{
    Charge, DeltaProgramming, HostWork, Phase, Residency, SimulatedAccelerator, SimulatedRun,
};
use crate::cache::CacheKey;
use crate::decision::DecisionKey;
use crate::health::FaultPolicy;
use crate::job::{
    JobOutcome, MatrixHandle, QueuedJob, RefinementSpec, SequencePredecessor, SolveJob,
};
use crate::node::NodeCore;
use crate::telemetry::{
    AutotuneTelemetry, CacheOutcomeKind, JobOutcomeKind, JobTelemetry, RefinementTelemetry,
    SequenceTelemetry,
};
use crate::trace_job::JobTrace;

/// Stage 1: everything one job's stages borrow — the node's shared state (caches,
/// clock, fault policy, health ledger), this worker's accelerator and lanes, and the
/// job's trace.
pub(crate) struct JobContext<'a> {
    pub core: &'a NodeCore,
    pub accelerator: &'a mut SimulatedAccelerator,
    pub lanes: &'a Arc<Lanes>,
    pub trace: JobTrace<'a>,
}

/// The operator a job solves on.
enum ChipOperator {
    /// The cached encoding, on one chip or spread over several.
    Clean(ReFloatMatrix),
    /// The whole matrix behind the worker chip's persistent fault state (spare
    /// remapping, residual corruption, drift, optional ABFT): every faulty job
    /// samples the fault map afresh.
    Faulty(Box<FaultyReFloatOperator>),
}

impl ChipOperator {
    fn as_operator(&mut self) -> &mut dyn LinearOperator {
        match self {
            ChipOperator::Clean(op) => op,
            ChipOperator::Faulty(op) => op.as_mut(),
        }
    }

    /// ABFT checksum failures so far (always 0 on clean hardware).
    fn detections(&self) -> u64 {
        match self {
            ChipOperator::Faulty(op) => op.detections(),
            _ => 0,
        }
    }
}

/// One `resolve_encoding` call's result.
struct Resolved {
    encoded: Arc<ReFloatMatrix>,
    cache: CacheOutcomeKind,
    /// Seconds this job spent encoding (0 unless `cache` is a miss).
    encode_s: f64,
    /// Set when the miss was served by an incremental re-encode.
    incremental: Option<IncrementalStats>,
}

/// Stage 2's product for one operator: what stage 3 programs and stage 5 charges.
struct Target {
    /// The encoding's key and its row bands, one per chip (one band on one chip).
    resident: Residency,
    /// The cached encoding every band reads.
    encoded: Arc<ReFloatMatrix>,
    /// Set when the encoding was diffed against the sequence predecessor: only the
    /// touched crossbar ranges are rewritten while the chip still holds that operator.
    delta: Option<DeltaProgramming>,
}

/// What a job's stages report back to [`JobContext::execute`], accumulated as they
/// run: every strategy fills the same record.
#[derive(Default)]
struct Solved {
    /// One result per right-hand side, primary first.
    results: Vec<SolveResult>,
    simulated: SimulatedRun,
    /// Cache outcome of the job's *primary* encoding — the matrix's, or a ladder's
    /// base rung; escalation rungs do not count.
    cache: Option<CacheOutcomeKind>,
    encode_s: f64,
    /// Seconds inside the solver, net of rung fetches.
    solve_s: f64,
    /// Chips the job actually spanned (the partitioner may return fewer shards than
    /// requested for small matrices).
    shards: usize,
    refinement: Option<RefinementTelemetry>,
    /// What the job reused from its sequence predecessor (attached to the telemetry
    /// row only when the job was a sequence step).
    sequence: SequenceTelemetry,
    /// ABFT checksum failures observed (probes and the committed solve).
    faults_detected: u64,
    /// Re-encode retries paid after a detected corruption.
    fault_retries: u64,
    /// The retry budget ran out with ABFT still detecting: the results are
    /// best-effort and the ticket must resolve as `Degraded`.
    degraded: bool,
}

impl Solved {
    /// Folds one resolved encoding into the job-level record.
    fn absorb_lookup(&mut self, resolved: &Resolved, primary: bool) {
        self.encode_s += resolved.encode_s;
        if primary {
            self.cache = Some(resolved.cache);
        }
        if let Some(stats) = resolved.incremental {
            self.sequence.incremental = true;
            self.sequence.blocks_reencoded += stats.blocks_reencoded() as u64;
            self.sequence.blocks_reused += stats.blocks_reused as u64;
        }
    }

    /// The job's cache-lookup span (from `anchor_s`) and, when it encoded, the
    /// encode span backdated by the seconds the misses measured.
    fn trace_lookup(&self, trace: &mut JobTrace<'_>, anchor_s: f64, scope: &dyn Fn() -> String) {
        trace.span(SpanKind::CacheLookup, anchor_s, || {
            let outcome = self.cache.unwrap_or(CacheOutcomeKind::Hit);
            format!("outcome={} {}", outcome.label(), scope())
        });
        if self.encode_s > 0.0 {
            trace.span_backdated(SpanKind::Encode, self.encode_s, scope);
        }
    }
}

impl JobContext<'_> {
    /// Runs one job through the pipeline.
    pub(crate) fn execute(mut self, queued: QueuedJob) -> JobOutcome {
        let QueuedJob {
            id,
            mut job,
            priority,
            submitted_at_s,
        } = queued;
        let queue_wait_s = (self.core.clock.now_s() - submitted_at_s).max(0.0);
        self.trace
            .span_backdated(SpanKind::QueueWait, queue_wait_s, || {
                format!("priority={}", priority.label())
            });
        self.trace.instant(SpanKind::Dequeue, || {
            format!("tenant={} matrix={}", job.tenant, job.matrix.name())
        });

        let (mut autotune, decision_reused) = self.resolve_format(&mut job);
        let job = job;
        let csr = job.matrix.csr();
        let ones;
        let rhs: &[f64] = match &job.rhs {
            Some(b) => b,
            None => {
                ones = vec![1.0; csr.nrows()];
                &ones
            }
        };
        let rhss: Vec<&[f64]> = std::iter::once(rhs)
            .chain(job.extra_rhs.iter().map(|b| b.as_slice()))
            .collect();

        let mut solved = match &job.refinement {
            Some(spec) => {
                // SolvePlanBuilder::build rejects these combinations with a typed
                // PlanError before submission; this only guards in-crate bugs.
                debug_assert!(
                    job.extra_rhs.is_empty(),
                    "refined jobs are single-RHS; the plan validator must have rejected this"
                );
                self.solve_refined(&job, spec, rhs)
            }
            None => self.solve_on_chip(&job, &rhss),
        };
        let mut converged = solved.results.iter().all(SolveResult::converged);

        // Auto-format epilogue: measure the *true* residual (the exact fp64 SpMV was
        // charged to the host by the plain attempt), and when the chosen format
        // stalled above the tolerance, fall back to the refinement ladder on the
        // same chips: its rungs are priced over the job's bands too.
        if let (Some(tele), Some(spec)) = (autotune.as_mut(), job.auto_format.as_ref()) {
            tele.achieved_iterations = solved.results[0].iterations as u64;
            let check_anchor = self.trace.now_s();
            tele.achieved_relative_residual = csr.relative_residual(rhs, &solved.results[0].x);
            self.trace.span(SpanKind::HostFp64, check_anchor, || {
                let host_fp64_s = solved.simulated.host_fp64_s;
                format!("true-residual-check host_fp64_s={host_fp64_s:e}")
            });
            converged = tele.achieved_relative_residual <= spec.tolerance;
            if !converged {
                let refined = self.solve_refined(&job, &spec.fallback, rhs);
                tele.fell_back = true;
                converged = refined.results[0].converged();
                // The plain attempt keeps the job-level cache outcome, shard count and
                // sequence row; the ladder contributes its answer and its costs.
                solved.simulated.absorb(&refined.simulated);
                solved.encode_s += refined.encode_s;
                solved.solve_s += refined.solve_s;
                solved.results = refined.results;
                solved.refinement = refined.refinement;
                if let Some(refinement) = &solved.refinement {
                    tele.achieved_relative_residual = refinement.final_relative_residual;
                }
            }
        }

        // The job's final simulated cost attribution, one instant per nonzero phase.
        if self.trace.enabled() {
            for event in solved.simulated.cycle_events() {
                self.trace.instant(SpanKind::ChipPhase, || {
                    format!(
                        "phase={} cycles={} simulated_s={:e}",
                        event.phase.label(),
                        event.cycles,
                        event.seconds
                    )
                });
            }
        }
        self.trace.flush();

        let mut results = solved.results.into_iter();
        // refloat-analysis: allow(panic-in-service-path) — every strategy returns one
        // result per RHS by contract; an empty batch cannot pass the plan validator.
        let result = results.next().expect("one result per RHS");
        let telemetry = JobTelemetry {
            job_id: id,
            outcome: match solved.degraded {
                true => JobOutcomeKind::Degraded,
                false => JobOutcomeKind::Completed,
            },
            tenant: job.tenant.to_string(),
            matrix: job.matrix.name().to_string(),
            worker: self.accelerator.worker_id(),
            // The pipeline is node-agnostic; worker_loop stamps the owning node's id.
            node: 0,
            solver: job.solver,
            priority,
            shards: solved.shards,
            rhs_count: job.rhs_count(),
            cache: solved.cache.unwrap_or(CacheOutcomeKind::Hit),
            queue_wait_s,
            encode_s: solved.encode_s,
            solve_s: solved.solve_s,
            latency_s: (self.core.clock.now_s() - submitted_at_s).max(0.0),
            iterations: result.iterations,
            converged,
            simulated: solved.simulated,
            refinement: solved.refinement,
            autotune,
            faults_detected: solved.faults_detected,
            fault_retries: solved.fault_retries,
            // Even a step that reused nothing (first step of a chain, or a shape that
            // ignores the sequence context) counts toward the sequence metrics.
            sequence: job.sequence.as_ref().map(|_| SequenceTelemetry {
                decision_cache_hit: decision_reused,
                ..solved.sequence
            }),
        };
        JobOutcome {
            job_id: id,
            result,
            extra_results: results.collect(),
            telemetry,
        }
    }

    /// Resolves an auto-format job's actual format before anything touches the
    /// encode cache: the decision is memoized under (fingerprint, b, tolerance, chip),
    /// so repeat tenants skip the analysis entirely.  Returns the autotune telemetry
    /// and whether a sequence step inherited its predecessor's decision.
    fn resolve_format(&mut self, job: &mut SolveJob) -> (Option<AutotuneTelemetry>, bool) {
        let Some(spec) = job.auto_format.clone() else {
            return (None, false);
        };
        // A sharded job spreads its clusters over `shards` chips, so the streaming
        // rounds the cost model charges must be computed against the pooled capacity
        // (the makespan chip holds ~1/shards of the blocks).
        let chip = self
            .core
            .chip_crossbars
            .unwrap_or(autotune::TABLE_IV_CROSSBARS)
            .saturating_mul(job.shards.max(1) as u64);
        let key_for = |fingerprint| {
            DecisionKey::new(fingerprint, job.format.b, spec.tolerance, chip, job.solver)
        };
        // A sequence step may inherit its predecessor's decision: consecutive
        // matrices differ by a small perturbation, so the analysis verdict rarely
        // changes — and the true-residual epilogue re-verifies the chosen format
        // against *this* matrix, falling back to refinement if the reused decision no
        // longer holds.  The inherited decision is published under this step's key so
        // the next step can chain off it.
        let predecessor_decision = job
            .sequence
            .as_ref()
            .and_then(|s| s.predecessor.as_ref())
            .and_then(|p| self.core.decisions.peek(&key_for(p.fingerprint)));
        let mut decision_reused = false;
        let analysis_anchor = self.trace.now_s();
        let (decision, outcome, analysis_s) = self.core.decisions.get_or_analyse(
            key_for(job.matrix.fingerprint()),
            self.core.clock.as_ref(),
            || match predecessor_decision {
                Some(reused) => {
                    decision_reused = true;
                    reused
                }
                None => autotune::plan_format(
                    job.matrix.csr(),
                    &AutotuneConfig::new(spec.tolerance, job.format.b)
                        .with_chip_crossbars(chip)
                        .with_solver(job.solver),
                )
                .decision(),
            },
        );
        let decision_cached = outcome != CacheOutcomeKind::Miss;
        self.trace
            .span(SpanKind::AutotuneAnalysis, analysis_anchor, || {
                format!("cached={decision_cached} format={}", decision.format)
            });
        job.format = decision.format;
        // Re-couple the solver criterion to the auto-format tolerance: a
        // with_solver_config applied after with_auto_format may have overwritten it,
        // and a plain attempt that stops short of the tolerance would force a
        // needless refinement fallback.
        job.solver_config.tolerance = spec.tolerance;
        job.solver_config.relative = true;
        // Cap the plain attempt near the predicted iteration count: if the chosen
        // format is going to stall anyway, burn bounded work before the refinement
        // fallback engages.
        let cap = decision
            .predicted_iterations
            .saturating_mul(4)
            .saturating_add(100)
            .min(usize::MAX as u64) as usize;
        job.solver_config.max_iterations = job.solver_config.max_iterations.min(cap);
        let telemetry = AutotuneTelemetry {
            chosen_format: decision.format,
            tolerance: spec.tolerance,
            decision_cached,
            analysis_s,
            kappa: decision.kappa,
            degraded_confidence: decision.degraded_confidence,
            predicted_convergent: decision.predicted_convergent,
            predicted_iterations: decision.predicted_iterations,
            predicted_cycles_per_spmv: decision.predicted_cycles_per_spmv,
            achieved_iterations: 0,
            achieved_relative_residual: f64::NAN,
            fell_back: false,
        };
        (Some(telemetry), decision_reused)
    }

    /// Stage 2: the encoding of `matrix` under `key`, through the shared cache.  With
    /// a sequence `predecessor`, a miss first looks for the predecessor's encoding in
    /// the same format and re-encodes against it, reusing its layout and diffing for
    /// the delta charge — bitwise identical to encoding from scratch.  Any other miss
    /// encodes over the layout of a live encoding of the same structure and `b`, when
    /// the node holds one whose structure really is equal, and registers what it
    /// encoded as the next miss's donor.  Every encode runs on the worker's lanes, idle
    /// between solves, in block-row bands.
    fn resolve_encoding(
        &self,
        key: CacheKey,
        matrix: &MatrixHandle,
        predecessor: Option<&SequencePredecessor>,
    ) -> Resolved {
        let mut incremental = None;
        let (cache, clock) = (&self.core.cache, self.core.clock.as_ref());
        let (csr, donor_key) = (matrix.csr_arc(), (matrix.structure_hash(), key.format.b));
        // The closure runs outside the cache lock, so the nested peek cannot
        // deadlock.  A hit on `key` itself still wins outright — the closure never
        // runs and the step pays nothing.
        let (encoded, outcome, encode_s) = cache.get_or_encode(key, clock, || {
            let previous = predecessor.and_then(|pred| {
                let key = CacheKey {
                    fingerprint: pred.fingerprint,
                    ..key
                };
                Some((cache.peek(&key)?, pred))
            });
            if let Some((previous, pred)) = previous {
                let inc = reencode_incremental_on(&previous, &pred.csr, &csr, self.lanes);
                incremental = Some(inc.stats);
                return inc.matrix;
            }
            match self.core.donors.find(donor_key) {
                Some(donor) => {
                    ReFloatMatrix::from_csr_over_on(&csr, key.format, &donor, self.lanes)
                }
                None => ReFloatMatrix::from_csr_on(&csr, key.format, self.lanes),
            }
        });
        if outcome == CacheOutcomeKind::Miss {
            self.core.donors.register(donor_key, &encoded);
        }
        Resolved {
            encoded,
            cache: outcome,
            encode_s,
            incremental,
        }
    }

    /// Stage 2 for one operator: resolves the matrix's one encoding in `format`, prices
    /// it over at most the job's chip count ([`Residency::over`]), and folds the lookup
    /// into `solved` (`primary` marks the encoding the job-level cache outcome is about).
    fn resolve_target(
        &self,
        job: &SolveJob,
        format: ReFloatConfig,
        predecessor: Option<&SequencePredecessor>,
        (solved, primary): (&mut Solved, bool),
    ) -> Target {
        let key = CacheKey::new(job.matrix.fingerprint(), format);
        let resolved = self.resolve_encoding(key, &job.matrix, predecessor);
        solved.absorb_lookup(&resolved, primary);
        let delta = predecessor
            .zip(resolved.incremental)
            .map(|(pred, stats)| DeltaProgramming {
                predecessor: CacheKey::new(pred.fingerprint, format),
                reprogram_fraction: stats.reprogram_fraction(),
                touched_blocks: stats.blocks_reencoded() as u64,
            });
        Target {
            resident: Residency::over(key, &resolved.encoded, job.shards),
            encoded: resolved.encoded,
            delta,
        }
    }

    /// Stage 3: the operator to solve on.
    ///
    /// The worker needs a mutable operator (applying it mutates the conversion
    /// scratch), while the cache entries are shared and immutable — so the operator
    /// is a `ReFloatMatrix::clone` of the cached entry: a reference to the same
    /// encoding plus an empty scratch, sized on the first apply.  It is the same
    /// operator on one chip or many (the target's residency carries the bands), and it
    /// carries the worker's lanes, so with spare cores a large enough CG solve keeps
    /// its vectors on them.  The numerics are bit-identical to the serial path: same
    /// encoding, same row loop, each row summed whole by one lane.
    ///
    /// With `fault = (policy, attempt)` the operator is wrapped in a
    /// [`FaultyReFloatOperator`] whose block *i* sits on crossbar
    /// `i + attempt·blocks`: a fresh draw of the chip's persistent fault map (defects
    /// are monotone per crossbar, so retrying in place could never clear them).
    fn program_operator(
        &self,
        target: &Target,
        fault: Option<(&FaultPolicy, u32)>,
    ) -> ChipOperator {
        let matrix = ReFloatMatrix::clone(&target.encoded).with_lanes(self.lanes);
        match fault {
            Some((policy, attempt)) => {
                let state = self.accelerator.fault_state();
                // refloat-analysis: allow(panic-in-service-path) — the worker attached
                // a fault model to its accelerator whenever a policy is configured;
                // absence here is an in-crate construction bug.
                let state = state.expect("fault policy implies fault state");
                let offset = attempt as usize * matrix.num_blocks();
                ChipOperator::Faulty(Box::new(FaultyReFloatOperator::new(
                    matrix,
                    state,
                    policy.spares(),
                    policy.abft.then_some(policy.abft_threshold),
                    offset,
                )))
            }
            None => ChipOperator::Clean(matrix),
        }
    }

    /// The host's exact fp64 operator of `job`'s matrix, its rows split over the
    /// worker's lanes: a refined solve's residuals and a warm start's guard.
    fn exact(&self, job: &SolveJob) -> LanedCsr {
        LanedCsr::new(job.matrix.csr_arc(), self.lanes)
    }

    /// Stage 5: prices `phases` on the worker's chip.
    fn charge(&mut self, job: &SolveJob, phases: &[Phase<'_>]) -> SimulatedRun {
        let csr = job.matrix.csr();
        self.accelerator.charge(&Charge {
            phases,
            solver: job.solver,
            nnz: csr.nnz() as u64,
            nrows: csr.nrows() as u64,
        })
    }

    /// Stages 2–5 for a job that solves directly on the chip: resolve the matrix and
    /// its block-row bands, program them, solve every right-hand side against the
    /// same programmed operator, and charge the chip (or pool).
    ///
    /// Under a fault policy, stages 3–5 run inside the retry loop.  With ABFT on,
    /// each attempt starts with a one-SpMV *probe* against the first RHS:
    /// deterministic corruption trips the checksum immediately, so a failing attempt
    /// costs one SpMV — not a full solve — before the re-encode retry moves the
    /// encoding onto a fresh crossbar range.  When the retry budget runs out, the
    /// solve runs anyway for a best-effort answer and the job degrades.
    fn solve_on_chip(&mut self, job: &SolveJob, rhss: &[&[f64]]) -> Solved {
        let csr = job.matrix.csr();
        let sharded = job.shards > 1;
        let auto = job.auto_format.is_some();
        // The one predicate admitting a job to the fault wrapper: sharded, refined
        // and auto-format jobs always execute on clean operators (the shared cache
        // never stores a faulty encoding either way).
        let policy = self.core.fault.as_ref().filter(|_| !sharded && !auto);
        // Sharded and fault-wrapped jobs predate sequences and ignore their context.
        let seq = job.sequence.as_ref();
        let seq = seq.filter(|_| !sharded && policy.is_none());
        let predecessor = seq.and_then(|s| s.predecessor.as_ref());
        let guess = seq.and_then(|s| s.initial_guess.as_deref().map(Vec::as_slice));

        let mut solved = Solved::default();
        let lookup_anchor = self.trace.now_s();
        let fold = (&mut solved, true);
        let target = self.resolve_target(job, job.format, predecessor, fold);
        solved.shards = target.resident.chips();
        solved.trace_lookup(&mut self.trace, lookup_anchor, &|| match sharded {
            true => format!("shards={}", target.resident.chips()),
            false => format!("blocks={}", target.resident.blocks()),
        });

        let worker = self.accelerator.worker_id();
        let mut attempt: u32 = 0;
        loop {
            let fault = policy.map(|policy| (policy, attempt));
            let mut op = self.program_operator(&target, fault);
            if policy.is_some_and(|policy| policy.abft) {
                let mut probe = vec![0.0; csr.nrows()];
                op.as_operator().apply(rhss[0], &mut probe);
                let detections = op.detections();
                if detections > 0 {
                    solved.faults_detected += detections;
                    self.core.health.record_detections(worker, detections);
                    self.trace.instant(SpanKind::FaultDetect, || {
                        format!("attempt={attempt} worker={worker}")
                    });
                    // The probe still cost one SpMV's worth of chip time.
                    let probe = Phase::Chip {
                        on: &target.resident,
                        iterations: vec![1],
                        delta: None,
                    };
                    solved.simulated.absorb(&self.charge(job, &[probe]));
                    if policy.is_some_and(|policy| attempt < policy.max_retries) {
                        solved.fault_retries += 1;
                        self.core.health.record_re_encode(worker);
                        let re_encode_anchor = self.trace.now_s();
                        // Wear the chip: the next attempt re-programs (and ages) it.
                        self.accelerator.force_remap();
                        self.trace.span(SpanKind::ReEncode, re_encode_anchor, || {
                            let blocks = target.resident.blocks();
                            format!("attempt={} blocks={blocks}", attempt + 1)
                        });
                        attempt += 1;
                        continue;
                    }
                    // Retry budget exhausted: commit the solve anyway so the waiter
                    // gets a best-effort answer inside its typed Degraded outcome.
                    solved.degraded = true;
                }
            }

            // Stage 4.  A sequence step warm-starts its primary right-hand side from
            // the previous solution.  The guess residual is measured on the host's
            // fp64 matrix (solve_warm_split): through the quantized operator a good
            // guess drowns in the format's noise floor, while the fp64 residual stays
            // small and smooth so the correction solve genuinely starts decades
            // ahead.  The guard falls back to the plain zero-start solve (bit for
            // bit) when the guess does not help — and without a guess this *is* the
            // plain zero-start solve.
            let counted = op.detections();
            let solve_anchor = self.trace.now_s();
            let solve_started_s = self.core.clock.now_s();
            let operator = op.as_operator();
            let (mut exact, config) = (self.exact(job), &job.solver_config);
            let first = solve_warm_split(job.solver, operator, &mut exact, rhss[0], guess, config);
            solved.sequence.warm_start_used = first.path.used();
            solved.sequence.initial_residual = first.initial_residual;
            solved.results = vec![first.result];
            let rest = job.solver.solve_batch(operator, &rhss[1..], config);
            solved.results.extend(rest);
            solved.solve_s = (self.core.clock.now_s() - solve_started_s).max(0.0);
            // Mid-solve detections (corruption is input-dependent, so a clean probe
            // does not guarantee a clean iteration history) are recorded but not
            // retried — the solve already committed.
            let late = op.detections() - counted;
            solved.faults_detected += late;
            self.core.health.record_detections(worker, late);
            let iterations: Vec<u64> = solved.results.iter().map(|r| r.iterations as u64).collect();
            self.trace.span(SpanKind::Execute, solve_anchor, || {
                let detail = format!("rhs={} iterations={:?}", rhss.len(), iterations);
                let (detections, retries) = (solved.faults_detected, solved.fault_retries);
                match policy {
                    Some(_) => format!("{detail} detections={detections} retries={retries}"),
                    None => detail,
                }
            });
            self.trace_shards(job, &target.resident);

            // Stage 5.  The warm-start guard and an auto-format job's true-residual
            // check are exact SpMVs on the host's fp64 matrix, not chip work.
            let mut phases = vec![Phase::Chip {
                on: &target.resident,
                iterations,
                delta: target.delta,
            }];
            let host_spmvs = usize::from(first.initial_residual.is_some()) + usize::from(auto);
            phases.extend((0..host_spmvs).map(|_| Phase::Host(HostWork::Spmvs(1))));
            solved.simulated.absorb(&self.charge(job, &phases));
            drop(phases);
            if policy.is_some() {
                // The chip holds a faulty operator now, so the accelerator's resident
                // key must drop: every faulty job writes a fresh (re-sampled) encoding
                // into the crossbars, and the next one re-programs and ages the chip
                // rather than riding a phantom clean residency.
                self.accelerator.force_remap();
            }
            return solved;
        }
    }

    /// One `shard_execute` instant per chip band of `resident` when `job` spans chips:
    /// which chip held which band.
    fn trace_shards(&mut self, job: &SolveJob, resident: &Residency) {
        if job.shards > 1 {
            let shards = resident.shard_blocks.iter().zip(&resident.shard_rows);
            for (index, (blocks, rows)) in shards.enumerate() {
                self.trace.instant(SpanKind::ShardExecute, || {
                    format!("shard={index} blocks={blocks} rows={rows}")
                });
            }
        }
    }

    /// Stages 2–5 for a refined job: the outer fp64 defect-correction loop over the
    /// cache-backed ladder, then one charge listing every inner pass (and the
    /// host-side fp64 work).  Every rung keeps the job's `b`, so every rung shares the
    /// layout and is priced over the same chips' bands.
    fn solve_refined(&mut self, job: &SolveJob, spec: &RefinementSpec, rhs: &[f64]) -> Solved {
        let mut exact = self.exact(job);
        let seq = job.sequence.as_ref();
        let formats = spec.escalation.ladder(job.format);
        let config = spec.refinement_config();
        let solve_anchor = self.trace.now_s();
        let solve_started_s = self.core.clock.now_s();
        let mut ladder = CachedLadder {
            rungs: formats.iter().map(|_| None).collect(),
            formats: &formats,
            fp64_fallback: spec.escalation.fp64_fallback,
            job,
            predecessor: seq.and_then(|s| s.predecessor.as_ref()),
            solved: Solved::default(),
            fetch_s: 0.0,
            ctx: self,
        };
        // A sequence step warm-starts the outer loop from the previous solution; the
        // guard residual is exact (one extra fp64 SpMV, counted in `fp64_spmvs`), so
        // a carried-over iterate typically starts decades below ‖b‖ and skips most of
        // the cold passes.
        let guess = seq.and_then(|s| s.initial_guess.as_deref().map(Vec::as_slice));
        let refined = refine_warm(&mut exact, rhs, guess, &mut ladder, &config);
        let CachedLadder {
            rungs,
            mut solved,
            fetch_s,
            ..
        } = ladder;
        // Rung fetches (encode / coalesced wait) interleave with the solve; keep
        // solver time clean of them.
        solved.solve_s = (self.core.clock.now_s() - solve_started_s - fetch_s).max(0.0);
        self.trace.span(SpanKind::Execute, solve_anchor, || {
            format!(
                "refined outer={} inner={} escalations={}",
                refined.outer_iterations, refined.inner_iterations, refined.escalations
            )
        });
        let lookup_anchor = self.trace.now_s();
        solved.trace_lookup(&mut self.trace, lookup_anchor, &|| "rung=base".to_string());
        for pass in &refined.passes {
            self.trace.instant(SpanKind::RefinementPass, || {
                let level = level_name(&formats, pass.level);
                format!("level={level} inner_iterations={}", pass.inner_iterations)
            });
        }
        // Every rung is priced over the base rung's bands.
        if let Some((resident, _)) = rungs.first().and_then(Option::as_ref) {
            self.trace_shards(job, resident);
        }

        // A pass beyond the quantized rungs ran the fp64 rung on the host; the outer
        // loop's exact residual evaluations are host work too.
        let passes = refined.passes.iter().map(|pass| {
            let iterations = pass.inner_iterations as u64;
            match rungs.get(pass.level).and_then(Option::as_ref) {
                Some((resident, _)) => Phase::Chip {
                    on: resident,
                    iterations: vec![iterations],
                    delta: None,
                },
                None => Phase::Host(HostWork::SolverIterations(iterations)),
            }
        });
        let residuals = Phase::Host(HostWork::Spmvs(refined.fp64_spmvs as u64));
        let phases: Vec<Phase<'_>> = passes.chain([residuals]).collect();
        solved.simulated = self.charge(job, &phases);
        drop(phases);

        // The chips the base rung spanned (one when the warm start left no pass to run).
        solved.shards = rungs
            .first()
            .and_then(Option::as_ref)
            .map_or(1, |(on, _)| on.chips());
        solved.refinement = Some(RefinementTelemetry {
            outer_iterations: refined.outer_iterations,
            inner_iterations: refined.inner_iterations,
            escalations: refined.escalations,
            final_level: level_name(&formats, refined.final_level),
            fp64_spmvs: refined.fp64_spmvs,
            final_relative_residual: refined.final_relative_residual,
            stalled: refined.stop == RefinementStop::Stalled,
        });
        solved.sequence.warm_start_used = refined.warm_path.used();
        solved.sequence.initial_residual = refined.initial_residual;
        solved.results = vec![refined.into_solve_result()];
        solved
    }
}

/// Name of a ladder level: a quantized rung's format, or the exact fp64 rung.
fn level_name(formats: &[ReFloatConfig], level: usize) -> String {
    match formats.get(level) {
        Some(format) => format.to_string(),
        None => "fp64 (exact)".to_string(),
    }
}

/// The runtime's [`PrecisionLadder`]: quantized rungs fetched lazily through stages
/// 2 and 3 (so escalation re-uses encodings across jobs and tenants and concurrent
/// first touches coalesce), with the exact CSR matrix as the optional final fp64 rung.
struct CachedLadder<'l, 'c> {
    ctx: &'l mut JobContext<'c>,
    job: &'l SolveJob,
    formats: &'l [ReFloatConfig],
    fp64_fallback: bool,
    /// The sequence predecessor rung misses diff against (sequence steps only).
    predecessor: Option<&'l SequencePredecessor>,
    /// What the chip holds and the operator solved on, per quantized rung, fetched
    /// on first use.
    rungs: Vec<Option<(Residency, ChipOperator)>>,
    /// The job's record; rung fetches fold their lookups into it.
    solved: Solved,
    /// Seconds spent obtaining rung operators in total: encoding or waiting on a
    /// concurrent encode.
    fetch_s: f64,
}

impl PrecisionLadder for CachedLadder<'_, '_> {
    fn levels(&self) -> usize {
        self.formats.len() + usize::from(self.fp64_fallback)
    }

    fn level_name(&self, level: usize) -> String {
        level_name(self.formats, level)
    }

    fn solve(&mut self, level: usize, rhs: &[f64], config: &SolverConfig) -> SolveResult {
        let Some(&format) = self.formats.get(level) else {
            let mut exact = self.job.matrix.csr();
            return self.job.solver.solve(&mut exact, rhs, config);
        };
        let (_, op) = match &mut self.rungs[level] {
            Some(rung) => rung,
            unfetched => {
                let fetch_started_s = self.ctx.core.clock.now_s();
                // The job-level cache outcome is the base rung's.
                let fold = (&mut self.solved, level == 0);
                let target = self
                    .ctx
                    .resolve_target(self.job, format, self.predecessor, fold);
                let op = self.ctx.program_operator(&target, None);
                self.fetch_s += (self.ctx.core.clock.now_s() - fetch_started_s).max(0.0);
                unfetched.insert((target.resident, op))
            }
        };
        self.job.solver.solve(op.as_operator(), rhs, config)
    }
}
