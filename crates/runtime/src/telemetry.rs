//! Per-job telemetry and batch-level aggregation.
//!
//! Aggregation is *backed by the metrics registry*: the counters and histograms a
//! live worker streams into ([`JobMetricHandles::record`]) are the same recording
//! path [`RuntimeReport::aggregate`] replays over a batch's telemetry rows, so a
//! live [`metrics_snapshot`](crate::SolveClient::metrics_snapshot) and a post-drain
//! report can never disagree about what a completed job counts as.
//!
//! # Which clock is which
//!
//! Wall-clock fields (`queue_wait_s`, `encode_s`, `solve_s`, `latency_s`, every
//! percentile) are host measurements and vary run to run; the [`SimulatedRun`]
//! fields are deterministic simulated seconds from the Eq. 2/3 cost model.  See the
//! deterministic-clock contract in `refloat_telemetry::clock`.

use std::sync::Arc;

use refloat_core::ReFloatConfig;
use refloat_telemetry::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use reram_sim::SolverKind;
use serde::{Serialize, Value};

use crate::accel::SimulatedRun;
use crate::cache::{CacheOutcome, CacheStats};
use crate::decision::DecisionStats;
use crate::sched::Priority;

/// The metric names under which the runtime records job completions — the stable
/// vocabulary shared by live snapshots, report aggregation, and dashboards.
pub mod metric_names {
    /// Counter: jobs completed (cancelled jobs never reach it).
    pub const JOBS_COMPLETED: &str = "jobs_completed";
    /// Counter: completed jobs whose solve met its residual criterion.
    pub const JOBS_CONVERGED: &str = "jobs_converged";
    /// Counter: jobs cancelled before any worker started them.
    pub const JOBS_CANCELLED: &str = "jobs_cancelled";
    /// Counter: jobs whose encoded matrix was a cache hit.
    pub const CACHE_HITS: &str = "cache_hits";
    /// Counter: jobs that encoded their matrix (cache miss).
    pub const CACHE_MISSES: &str = "cache_misses";
    /// Counter: jobs that waited on a concurrent encode of the same key.
    pub const CACHE_COALESCED: &str = "cache_coalesced";
    /// Counter: total simulated accelerator cycles.
    pub const SIMULATED_CYCLES: &str = "simulated_cycles";
    /// Counter: jobs that re-programmed their chip.
    pub const REMAPS: &str = "remaps";
    /// Counter: jobs spanning more than one chip.
    pub const SHARDED_JOBS: &str = "sharded_jobs";
    /// Counter: right-hand sides solved (≥ jobs; batched jobs contribute several).
    pub const RHS_TOTAL: &str = "rhs_total";
    /// Counter: jobs that ran in mixed-precision refinement mode.
    pub const REFINED_JOBS: &str = "refined_jobs";
    /// Counter: format escalations across refined jobs.
    pub const ESCALATIONS: &str = "escalations";
    /// Counter: jobs that ran in auto-format mode.
    pub const AUTOTUNED_JOBS: &str = "autotuned_jobs";
    /// Counter: auto-format jobs served from the decision cache.
    pub const AUTOTUNE_DECISION_HITS: &str = "autotune_decision_hits";
    /// Counter: auto-format jobs that fell back to the refinement ladder.
    pub const AUTOTUNE_FALLBACKS: &str = "autotune_fallbacks";
    /// Histogram (wall seconds): submission → dequeue.
    pub const QUEUE_WAIT_S: &str = "queue_wait_s";
    /// Histogram (wall seconds): submission → completion.
    pub const LATENCY_S: &str = "latency_s";
    /// Histogram (wall seconds): time inside the solver.
    pub const SOLVE_S: &str = "solve_s";
    /// Histogram (wall seconds): encode time, observed only for jobs that paid any
    /// encoding (whole-matrix misses, shard misses, refinement-rung misses).
    pub const ENCODE_S: &str = "encode_s";
    /// Histogram (simulated seconds): per-job simulated chip time.
    pub const SIMULATED_S: &str = "simulated_s";
    /// Histogram (simulated seconds): inter-chip gather time of sharded jobs.
    pub const REDUCTION_S: &str = "reduction_s";
    /// Histogram (simulated seconds): host-side fp64 work.
    pub const HOST_FP64_S: &str = "host_fp64_s";
    /// Histogram (wall seconds): autotune analysis time, observed on decision-cache
    /// misses only.
    pub const ANALYSIS_S: &str = "analysis_s";
    /// Gauge: scheduler queue-depth high-water mark.
    pub const QUEUE_DEPTH_PEAK: &str = "queue_depth_peak";
    /// Gauge: worker threads serving the client.
    pub const WORKERS: &str = "workers";
    /// Counter: jobs the cluster router placed on a node (single-node runtimes
    /// never touch it).
    pub const JOBS_ROUTED: &str = "jobs_routed";
    /// Counter: routed jobs placed on the node already holding their encodings
    /// (the fingerprint-affinity placement key won).
    pub const ROUTE_AFFINITY_HITS: &str = "route_affinity_hits";
    /// Counter: routed jobs whose affinity node was too loaded, spilling to the
    /// least-loaded node instead (the sticky mapping moves with them).
    pub const ROUTE_SPILLS: &str = "route_spills";
    /// Counter: submissions shed by admission control because the cluster-wide
    /// in-system bound was reached ([`SubmitError::Overloaded`](crate::SubmitError)).
    pub const JOBS_SHED_OVERLOAD: &str = "jobs_shed_overload";
    /// Counter: submissions shed because the tenant's fair-share quota was full
    /// ([`SubmitError::QuotaExceeded`](crate::SubmitError)).
    pub const JOBS_SHED_QUOTA: &str = "jobs_shed_quota";
    /// Gauge: nodes serving the cluster (1 for a single-node runtime).
    pub const NODES: &str = "nodes";
    /// Gauge: tenants currently holding at least one admitted, unfinished job.
    pub const TENANTS_ACTIVE: &str = "tenants_active";
    /// Counter: ABFT checksum failures detected across all solves (0 unless a fault
    /// model with ABFT is configured).
    pub const FAULTS_DETECTED: &str = "faults_detected";
    /// Counter: detected-corruption retries that re-encoded a job onto spare
    /// resources.
    pub const FAULT_RETRIES: &str = "fault_retries";
    /// Counter: jobs that resolved with a typed `Degraded` outcome instead of a
    /// clean completion (corruption unresolved after retries, or a chip killed with
    /// no live worker left to take the job).
    pub const JOBS_DEGRADED: &str = "jobs_degraded";
    /// Counter: queued jobs re-routed off a killed chip onto a surviving worker.
    pub const JOBS_REROUTED: &str = "jobs_rerouted";
    /// Counter: chips administratively killed mid-trace.
    pub const CHIPS_KILLED: &str = "chips_killed";
    /// Counter: cluster placements steered away from the health-blind choice
    /// because a node looked degraded (dead workers or detection-heavy chips).
    pub const ROUTE_HEALTH_STEERS: &str = "route_health_steers";
    /// Counter: jobs submitted through a [`SolveSequence`](crate::SolveSequence)
    /// step (they carry predecessor context the worker can exploit).
    pub const SEQ_STEPS: &str = "seq_steps";
    /// Counter: sequence steps whose warm-start guess passed the residual guard
    /// (zero-iteration short-circuit or correction solve; rejected guesses fall
    /// back to the plain zero-start solve).
    pub const WARM_START_HITS: &str = "warm_start_hits";
    /// Counter: blocks re-quantized by incremental sequence re-encodes (partial or
    /// full crossbar rewrites).
    pub const BLOCKS_REENCODED: &str = "blocks_reencoded";
    /// Counter: blocks reused verbatim from the predecessor's encoding by
    /// incremental sequence re-encodes (no quantization, no device writes).
    pub const BLOCKS_REUSED: &str = "blocks_reused";
    /// Counter: sequence steps that reused the predecessor's format decision
    /// instead of re-running the auto-format analysis.
    pub const SEQ_DECISION_CACHE_HITS: &str = "seq_decision_cache_hits";

    /// The per-node completion counter's name (`node<i>_jobs_completed`), one per
    /// node, registered when the node's workers spawn.
    pub fn node_jobs_completed(node: usize) -> String {
        format!("node{node}_jobs_completed")
    }
}

/// Pre-fetched handles on every job-completion metric.
///
/// Workers create one set at startup and record through it, so the per-job hot path
/// is atomic increments only — the registry's name-lookup locks are never touched
/// after registration.  Registration also *creates* every metric, so a snapshot
/// taken before the first job still carries the full (all-zero) vocabulary and
/// dashboards never key-error on missing fields.
#[derive(Debug)]
pub struct JobMetricHandles {
    jobs: Arc<Counter>,
    converged: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_coalesced: Arc<Counter>,
    simulated_cycles: Arc<Counter>,
    remaps: Arc<Counter>,
    sharded_jobs: Arc<Counter>,
    rhs_total: Arc<Counter>,
    refined_jobs: Arc<Counter>,
    escalations: Arc<Counter>,
    autotuned_jobs: Arc<Counter>,
    autotune_decision_hits: Arc<Counter>,
    autotune_fallbacks: Arc<Counter>,
    queue_wait_s: Arc<Histogram>,
    latency_s: Arc<Histogram>,
    solve_s: Arc<Histogram>,
    encode_s: Arc<Histogram>,
    simulated_s: Arc<Histogram>,
    reduction_s: Arc<Histogram>,
    host_fp64_s: Arc<Histogram>,
    analysis_s: Arc<Histogram>,
    faults_detected: Arc<Counter>,
    fault_retries: Arc<Counter>,
    seq_steps: Arc<Counter>,
    warm_start_hits: Arc<Counter>,
    blocks_reencoded: Arc<Counter>,
    blocks_reused: Arc<Counter>,
    seq_decision_cache_hits: Arc<Counter>,
}

impl JobMetricHandles {
    /// Fetches (creating if needed) every job-completion metric of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        use metric_names as m;
        // Ensure the counters incremented outside the per-completed-job path exist
        // too (cancellation by the client; degraded/rerouted/killed by the worker
        // loop and kill path), so a live snapshot carries the full vocabulary.
        let _ = registry.counter(m::JOBS_CANCELLED);
        let _ = registry.counter(m::JOBS_DEGRADED);
        let _ = registry.counter(m::JOBS_REROUTED);
        let _ = registry.counter(m::CHIPS_KILLED);
        JobMetricHandles {
            jobs: registry.counter(m::JOBS_COMPLETED),
            converged: registry.counter(m::JOBS_CONVERGED),
            cache_hits: registry.counter(m::CACHE_HITS),
            cache_misses: registry.counter(m::CACHE_MISSES),
            cache_coalesced: registry.counter(m::CACHE_COALESCED),
            simulated_cycles: registry.counter(m::SIMULATED_CYCLES),
            remaps: registry.counter(m::REMAPS),
            sharded_jobs: registry.counter(m::SHARDED_JOBS),
            rhs_total: registry.counter(m::RHS_TOTAL),
            refined_jobs: registry.counter(m::REFINED_JOBS),
            escalations: registry.counter(m::ESCALATIONS),
            autotuned_jobs: registry.counter(m::AUTOTUNED_JOBS),
            autotune_decision_hits: registry.counter(m::AUTOTUNE_DECISION_HITS),
            autotune_fallbacks: registry.counter(m::AUTOTUNE_FALLBACKS),
            queue_wait_s: registry.histogram_seconds(m::QUEUE_WAIT_S),
            latency_s: registry.histogram_seconds(m::LATENCY_S),
            solve_s: registry.histogram_seconds(m::SOLVE_S),
            encode_s: registry.histogram_seconds(m::ENCODE_S),
            simulated_s: registry.histogram_seconds(m::SIMULATED_S),
            reduction_s: registry.histogram_seconds(m::REDUCTION_S),
            host_fp64_s: registry.histogram_seconds(m::HOST_FP64_S),
            analysis_s: registry.histogram_seconds(m::ANALYSIS_S),
            faults_detected: registry.counter(m::FAULTS_DETECTED),
            fault_retries: registry.counter(m::FAULT_RETRIES),
            seq_steps: registry.counter(m::SEQ_STEPS),
            warm_start_hits: registry.counter(m::WARM_START_HITS),
            blocks_reencoded: registry.counter(m::BLOCKS_REENCODED),
            blocks_reused: registry.counter(m::BLOCKS_REUSED),
            seq_decision_cache_hits: registry.counter(m::SEQ_DECISION_CACHE_HITS),
        }
    }

    /// Streams one executed job's row into the metrics (atomic operations only).
    ///
    /// Fault counters sum over every row; everything else — completions, latency,
    /// cycles, cache outcomes — counts [`JobOutcomeKind::Completed`] rows only, so a
    /// best-effort `Degraded` solve never inflates the clean-completion numbers.
    pub fn record(&self, job: &JobTelemetry) {
        self.faults_detected.add(job.faults_detected);
        self.fault_retries.add(job.fault_retries);
        if job.outcome == JobOutcomeKind::Degraded {
            return;
        }
        self.jobs.inc();
        if job.converged {
            self.converged.inc();
        }
        match job.cache {
            CacheOutcomeKind::Hit => self.cache_hits.inc(),
            CacheOutcomeKind::Miss => self.cache_misses.inc(),
            CacheOutcomeKind::Coalesced => self.cache_coalesced.inc(),
        }
        self.simulated_cycles.add(job.simulated.cycles);
        if job.simulated.remapped {
            self.remaps.inc();
        }
        if job.shards > 1 {
            self.sharded_jobs.inc();
            self.reduction_s.observe(job.simulated.reduction_s);
        }
        self.rhs_total.add(job.rhs_count as u64);
        if let Some(refinement) = &job.refinement {
            self.refined_jobs.inc();
            self.escalations.add(refinement.escalations as u64);
        }
        if let Some(autotune) = &job.autotune {
            self.autotuned_jobs.inc();
            if autotune.decision_cached {
                self.autotune_decision_hits.inc();
            }
            if autotune.fell_back {
                self.autotune_fallbacks.inc();
            }
            if autotune.analysis_s > 0.0 {
                self.analysis_s.observe(autotune.analysis_s);
            }
        }
        self.queue_wait_s.observe(job.queue_wait_s);
        self.latency_s.observe(job.latency_s);
        self.solve_s.observe(job.solve_s);
        // A refined job can pay rung encodes even when its *base* rung was a hit, so
        // key on the time actually spent, not on the job-level cache outcome.
        if job.encode_s > 0.0 {
            self.encode_s.observe(job.encode_s);
        }
        self.simulated_s.observe(job.simulated.total_s);
        if job.simulated.host_fp64_s > 0.0 {
            self.host_fp64_s.observe(job.simulated.host_fp64_s);
        }
        if let Some(seq) = &job.sequence {
            self.seq_steps.inc();
            if seq.warm_start_used {
                self.warm_start_hits.inc();
            }
            self.blocks_reencoded.add(seq.blocks_reencoded);
            self.blocks_reused.add(seq.blocks_reused);
            if seq.decision_cache_hit {
                self.seq_decision_cache_hits.inc();
            }
        }
    }
}

/// The cache outcome without the embedded timing (telemetry keeps timing separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcomeKind {
    /// Encoded matrix found in the cache.
    Hit,
    /// This job encoded the matrix.
    Miss,
    /// This job waited for a concurrent encode of the same key.
    Coalesced,
}

impl CacheOutcomeKind {
    /// A stable lowercase label for trace details and exports.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcomeKind::Hit => "hit",
            CacheOutcomeKind::Miss => "miss",
            CacheOutcomeKind::Coalesced => "coalesced",
        }
    }
}

impl From<CacheOutcome> for CacheOutcomeKind {
    fn from(outcome: CacheOutcome) -> Self {
        match outcome {
            CacheOutcome::Hit => CacheOutcomeKind::Hit,
            CacheOutcome::Miss { .. } => CacheOutcomeKind::Miss,
            CacheOutcome::Coalesced => CacheOutcomeKind::Coalesced,
        }
    }
}

/// What the outer refinement loop of a refined job did (absent for plain jobs).
#[derive(Debug, Clone)]
pub struct RefinementTelemetry {
    /// Outer defect-correction passes executed.
    pub outer_iterations: usize,
    /// Total inner solver iterations across all passes.
    pub inner_iterations: usize,
    /// Format escalations (rungs climbed because a pass stalled).
    pub escalations: usize,
    /// Name of the rung the solve finished on.
    pub final_level: String,
    /// Exact fp64 operator applications (one per outer residual evaluation).
    pub fp64_spmvs: usize,
    /// Final outer relative residual `‖b − A·x‖₂/‖b‖₂`.
    pub final_relative_residual: f64,
    /// `true` when the top rung stopped contracting before the target was met.
    pub stalled: bool,
}

/// What the format auto-tuner did for a job (absent unless the plan used
/// [`SolvePlanBuilder::auto_format`](crate::SolvePlanBuilder::auto_format)).
#[derive(Debug, Clone)]
pub struct AutotuneTelemetry {
    /// The format the tuner chose (blocking `b` inherited from the job).
    pub chosen_format: ReFloatConfig,
    /// The requested true relative residual.
    pub tolerance: f64,
    /// `true` when the decision came out of the format-decision cache (hit or
    /// coalesced) instead of running the analysis.
    pub decision_cached: bool,
    /// Seconds this job spent in `plan_format` (0 unless it ran the analysis).
    pub analysis_s: f64,
    /// Condition-number estimate the decision used.
    pub kappa: f64,
    /// `true` when the eigen estimation behind κ reported degraded confidence.
    pub degraded_confidence: bool,
    /// `false` when no candidate survived the analysis and the chosen format is a
    /// best-effort fallback (the refinement ladder is then expected to engage).
    pub predicted_convergent: bool,
    /// Iterations the analysis predicted (measured by its verification solve when one
    /// ran, the √κ bound otherwise).
    pub predicted_iterations: u64,
    /// Model cycles per SpMV the analysis predicted for the chosen format.
    pub predicted_cycles_per_spmv: u64,
    /// Iterations the plain solve at the chosen format actually took.
    pub achieved_iterations: u64,
    /// True relative residual after the job finished (post-fallback if one ran).
    pub achieved_relative_residual: f64,
    /// `true` when the chosen format stalled above the tolerance and the job fell
    /// back to the mixed-precision refinement ladder.
    pub fell_back: bool,
}

/// What the sequence machinery did for a job (absent unless the job was submitted
/// through a [`SolveSequence`](crate::SolveSequence) step).  The default is a step
/// that reused nothing.
#[derive(Debug, Clone, Default)]
pub struct SequenceTelemetry {
    /// `true` when the warm-start guess passed the residual guard (the solve ran in
    /// correction form, or the guess already met the criterion).
    pub warm_start_used: bool,
    /// `‖b − A·x₀‖` measured by the guard, when a guess was offered.
    pub initial_residual: Option<f64>,
    /// `true` when the encoding came from an incremental re-encode against the
    /// predecessor (rather than a from-scratch encode or a plain cache hit).
    pub incremental: bool,
    /// Blocks re-quantized by the incremental re-encode (0 when `incremental` is
    /// false).
    pub blocks_reencoded: u64,
    /// Blocks reused verbatim from the predecessor's encoding.
    pub blocks_reused: u64,
    /// `true` when an auto-format step reused the predecessor's format decision
    /// instead of re-running the analysis.
    pub decision_cache_hit: bool,
}

/// How an executed job's ticket resolved.  Every job a worker *ran* leaves a
/// telemetry row; jobs that never ran (cancelled, shed, stranded on a dead node,
/// panicked) do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcomeKind {
    /// The ticket resolved `Completed`.
    Completed,
    /// The solve ran, but ABFT kept detecting corruption after the retry budget:
    /// the ticket resolved `Degraded` around a best-effort result.
    Degraded,
}

/// Everything measured about one job.
#[derive(Debug, Clone)]
pub struct JobTelemetry {
    /// Submission-order id.
    pub job_id: u64,
    /// How the job's ticket resolved.
    pub outcome: JobOutcomeKind,
    /// Submitting tenant.
    pub tenant: String,
    /// Matrix name (from the handle).
    pub matrix: String,
    /// Worker that executed the job (pool-global: a cluster numbers its workers
    /// contiguously across nodes, so the index is unique fleet-wide).
    pub worker: usize,
    /// Node that executed the job (0 for a single-node runtime).
    pub node: usize,
    /// Solver kind.
    pub solver: SolverKind,
    /// QoS class the job was scheduled under.
    pub priority: Priority,
    /// Chips the job spanned (1 = unsharded).
    pub shards: usize,
    /// Right-hand sides solved under the one chip programming (1 = single RHS).
    pub rhs_count: usize,
    /// How the encoded matrix was obtained.
    pub cache: CacheOutcomeKind,
    /// Seconds between submission and a worker dequeuing the job.
    pub queue_wait_s: f64,
    /// Seconds spent quantizing the matrix (0 unless `cache` is `Miss`).
    pub encode_s: f64,
    /// Seconds in the solver itself (functional simulation wall-clock).
    pub solve_s: f64,
    /// Seconds from submission to completion.
    pub latency_s: f64,
    /// Solver iterations executed.
    pub iterations: usize,
    /// Whether the solve met its residual criterion.
    pub converged: bool,
    /// The simulated-chip cost of the job.
    pub simulated: SimulatedRun,
    /// Outer-loop details when the job ran in mixed-precision refinement mode (also
    /// populated when an auto-format job fell back to the refinement ladder).
    pub refinement: Option<RefinementTelemetry>,
    /// Format auto-tuning details when the job ran in auto-format mode.
    pub autotune: Option<AutotuneTelemetry>,
    /// ABFT checksum failures detected while solving this job (0 without a fault
    /// model).
    pub faults_detected: u64,
    /// Detected-corruption retries this job paid (each one re-encoded onto spare
    /// resources and re-ran the solve).
    pub fault_retries: u64,
    /// Sequence-step details when the job was submitted through a
    /// [`SolveSequence`](crate::SolveSequence) (`None` for all other jobs).
    pub sequence: Option<SequenceTelemetry>,
}

/// Everything [`RuntimeReport::aggregate`] needs besides the telemetry rows: the
/// batch wall time, the cache/decision counter deltas, the pool shape, and the
/// cluster-level counts the rows themselves cannot carry (cancelled and shed jobs
/// never produce telemetry).
#[derive(Debug, Clone)]
pub struct AggregateContext {
    /// Batch wall-clock seconds (first submission to last completion).
    pub wall_s: f64,
    /// Encode-cache counter increments during the batch.
    pub cache: CacheStats,
    /// Decision-cache counter increments during the batch.
    pub decisions: DecisionStats,
    /// Worker threads that served the batch (cluster: total across nodes).
    pub workers: usize,
    /// Nodes that served the batch (1 for the single-node runtime).
    pub nodes: usize,
    /// Scheduler queue-depth high-water mark (cluster: the worst node).
    pub queue_depth_peak: usize,
    /// Jobs cancelled before a worker started them.
    pub cancelled_jobs: usize,
    /// Submissions shed because the cluster-wide in-system bound was reached.
    pub shed_overloaded: u64,
    /// Submissions shed because a tenant's fair-share quota was full.
    pub shed_quota: u64,
    /// Jobs that resolved with a typed `Degraded` outcome, whether the solve ran
    /// (a `Degraded` telemetry row) or the chip died first (no row).
    pub degraded_jobs: u64,
    /// Queued jobs re-routed off a killed chip onto a surviving worker.
    pub rerouted_jobs: u64,
    /// Chips administratively killed during the batch.
    pub chips_killed: u64,
}

impl Default for AggregateContext {
    fn default() -> Self {
        AggregateContext {
            wall_s: 0.0,
            cache: CacheStats::default(),
            decisions: DecisionStats::default(),
            workers: 1,
            nodes: 1,
            queue_depth_peak: 0,
            cancelled_jobs: 0,
            shed_overloaded: 0,
            shed_quota: 0,
            degraded_jobs: 0,
            rerouted_jobs: 0,
            chips_killed: 0,
        }
    }
}

/// Aggregated statistics for one batch.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Jobs completed.
    pub jobs: usize,
    /// Jobs that converged.
    pub converged: usize,
    /// Worker threads that served the batch.
    pub workers: usize,
    /// Nodes that served the batch (1 for the single-node runtime).
    pub nodes: usize,
    /// Batch wall-clock seconds (submission of the first job to completion of the
    /// last).
    pub wall_s: f64,
    /// Jobs per wall-clock second.
    pub throughput_jobs_per_s: f64,
    /// Median job latency (submit → done), seconds.
    pub latency_p50_s: f64,
    /// 99th-percentile job latency, seconds.
    pub latency_p99_s: f64,
    /// Mean job latency, seconds.
    pub latency_mean_s: f64,
    /// Worst job latency, seconds.
    pub latency_max_s: f64,
    /// Median queue wait, seconds.
    pub queue_wait_p50_s: f64,
    /// 99th-percentile queue wait, seconds.
    pub queue_wait_p99_s: f64,
    /// Most jobs ever pending in the scheduler at once (high-water mark).
    pub queue_depth_peak: usize,
    /// Jobs cancelled before a worker started them (they contribute nothing to any
    /// other counter: no cycles, no cache traffic, no latency samples).
    pub cancelled_jobs: usize,
    /// Per-priority queue-wait statistics.  Every class is always present (empty
    /// lanes report 0 jobs and 0.0 waits), so dashboards keyed on a lane never
    /// key-error when a class saw no traffic.
    pub per_priority: Vec<PriorityLane>,
    /// Cache counter increments during the batch.
    pub cache: CacheStats,
    /// Total seconds spent encoding matrices (paid by cache misses).
    pub encode_total_s: f64,
    /// Total seconds spent inside solvers.
    pub solve_total_s: f64,
    /// Total simulated accelerator cycles.
    pub simulated_cycles: u64,
    /// Total simulated accelerator seconds.
    pub simulated_total_s: f64,
    /// Chip re-programming events across the pool.
    pub remaps: u64,
    /// Jobs that spanned more than one chip.
    pub sharded_jobs: usize,
    /// Total right-hand sides solved (≥ `jobs`; batched jobs contribute several).
    pub rhs_total: usize,
    /// Total simulated seconds spent in inter-chip gathers of sharded jobs.
    pub reduction_total_s: f64,
    /// Jobs per worker (index = pool-global worker id).
    pub per_worker_jobs: Vec<u64>,
    /// Jobs per node (index = node id; a single-node runtime reports one entry).
    pub per_node_jobs: Vec<u64>,
    /// Submissions shed with [`SubmitError::Overloaded`](crate::SubmitError) (they
    /// never entered a queue: no telemetry row, no cycles, no cache traffic).
    pub shed_overloaded: u64,
    /// Submissions shed with [`SubmitError::QuotaExceeded`](crate::SubmitError).
    pub shed_quota: u64,
    /// Jobs whose telemetry named a worker outside the pool (should be 0; counted so
    /// `per_worker_jobs` totals plus this always sum to `jobs`).
    pub unattributed_jobs: u64,
    /// Jobs that ran in mixed-precision refinement mode.
    pub refined_jobs: usize,
    /// Format escalations across all refined jobs.
    pub escalations: u64,
    /// Total host-side fp64 seconds (residual evaluations + fp64 fallback solves) of
    /// refined jobs, under the GPU model.
    pub host_fp64_total_s: f64,
    /// Jobs that ran in auto-format mode.
    pub autotuned_jobs: usize,
    /// Auto-format jobs whose decision came out of the decision cache.
    pub autotune_decision_hits: u64,
    /// Auto-format jobs that stalled and fell back to the refinement ladder.
    pub autotune_fallbacks: u64,
    /// Total seconds spent in format analyses (paid by decision-cache misses).
    pub analysis_total_s: f64,
    /// ABFT checksum failures detected across all solves (0 without a fault model).
    pub faults_detected: u64,
    /// Detected-corruption retries that re-encoded a job onto spare resources.
    pub fault_retries: u64,
    /// Jobs that resolved with a typed `Degraded` outcome.
    pub degraded_jobs: u64,
    /// Queued jobs re-routed off a killed chip onto a surviving worker.
    pub rerouted_jobs: u64,
    /// Chips administratively killed during the batch.
    pub chips_killed: u64,
    /// Jobs submitted through a [`SolveSequence`](crate::SolveSequence) step.
    pub seq_steps: usize,
    /// Sequence steps whose warm-start guess passed the residual guard.
    pub warm_start_hits: u64,
    /// Blocks re-quantized by incremental sequence re-encodes.
    pub blocks_reencoded: u64,
    /// Blocks reused verbatim from predecessor encodings.
    pub blocks_reused: u64,
    /// Sequence steps that reused the predecessor's format decision.
    pub seq_decision_cache_hits: u64,
    /// Decision-cache counter increments during the batch.
    pub decisions: DecisionStats,
    /// The full metrics snapshot the aggregation was derived from (the same
    /// vocabulary [`SolveClient::metrics_snapshot`](crate::SolveClient::metrics_snapshot)
    /// serves live).
    pub metrics: MetricsSnapshot,
}

/// Queue-wait statistics of one priority class.
#[derive(Debug, Clone)]
pub struct PriorityLane {
    /// The class.
    pub priority: Priority,
    /// Jobs completed in this class.
    pub jobs: usize,
    /// Median queue wait, seconds.
    pub queue_wait_p50_s: f64,
    /// 99th-percentile queue wait, seconds.
    pub queue_wait_p99_s: f64,
}

/// `q`-quantile of an unsorted sample using the nearest-rank method.
///
/// Robust by construction: `q` is clamped into `[0, 1]` (a debug assertion flags
/// out-of-range or NaN quantiles) and non-finite samples are ignored rather than
/// poisoning the sort.  Returns 0.0 when no finite sample remains.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    debug_assert!(
        (0.0..=1.0).contains(&q),
        "percentile: quantile {q} outside [0, 1]"
    );
    // In release, out-of-range quantiles clamp; a NaN quantile falls through the
    // saturating cast below to rank 1 (the minimum) instead of panicking.
    let q = q.clamp(0.0, 1.0);
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl RuntimeReport {
    /// Aggregates the telemetry rows of a finished batch (or of everything a
    /// [`SolveClient`](crate::SolveClient) has executed so far).  `jobs`, latency,
    /// throughput and attribution cover [`JobOutcomeKind::Completed`] rows; the
    /// fault counters sum over every row.
    pub fn aggregate(jobs: &[JobTelemetry], ctx: AggregateContext) -> Self {
        let AggregateContext {
            wall_s,
            cache,
            decisions,
            workers,
            nodes,
            queue_depth_peak,
            cancelled_jobs,
            shed_overloaded,
            shed_quota,
            degraded_jobs,
            rerouted_jobs,
            chips_killed,
        } = ctx;
        // Replay every row through the same recording path live workers use, so the
        // report's totals are *derived from* the metrics registry rather than being
        // a second, independently maintained accumulation that could drift from it.
        let registry = MetricsRegistry::new();
        let handles = JobMetricHandles::register(&registry);
        for job in jobs {
            handles.record(job);
        }
        // Latency, throughput and attribution describe clean completions only.
        let jobs: Vec<&JobTelemetry> = jobs
            .iter()
            .filter(|j| j.outcome == JobOutcomeKind::Completed)
            .collect();
        registry
            .counter(metric_names::JOBS_CANCELLED)
            .add(cancelled_jobs as u64);
        registry
            .counter(metric_names::JOBS_SHED_OVERLOAD)
            .add(shed_overloaded);
        registry
            .counter(metric_names::JOBS_SHED_QUOTA)
            .add(shed_quota);
        registry
            .counter(metric_names::JOBS_DEGRADED)
            .add(degraded_jobs);
        registry
            .counter(metric_names::JOBS_REROUTED)
            .add(rerouted_jobs);
        registry
            .counter(metric_names::CHIPS_KILLED)
            .add(chips_killed);
        registry
            .gauge(metric_names::QUEUE_DEPTH_PEAK)
            .set(queue_depth_peak as f64);
        registry.gauge(metric_names::WORKERS).set(workers as f64);
        registry.gauge(metric_names::NODES).set(nodes as f64);

        let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
        let queue_waits: Vec<f64> = jobs.iter().map(|j| j.queue_wait_s).collect();
        let mut per_worker_jobs = vec![0u64; workers];
        let mut per_node_jobs = vec![0u64; nodes.max(1)];
        let mut unattributed_jobs = 0u64;
        for job in &jobs {
            match per_worker_jobs.get_mut(job.worker) {
                Some(slot) => *slot += 1,
                None => {
                    // A worker index outside the pool means the telemetry and the
                    // runtime configuration disagree — never drop the job silently,
                    // or per-worker totals stop summing to `jobs`.
                    debug_assert!(
                        false,
                        "job {} attributed to worker {} of a {}-worker pool",
                        job.job_id, job.worker, workers
                    );
                    unattributed_jobs += 1;
                }
            }
            if let Some(slot) = per_node_jobs.get_mut(job.node) {
                *slot += 1;
            } else {
                debug_assert!(
                    false,
                    "job {} attributed to node {} of a {}-node cluster",
                    job.job_id, job.node, nodes
                );
            }
        }
        // The per-node completion counters workers stream into live are replayed
        // here too, so a report's metrics snapshot carries the node dimension.
        for (node, count) in per_node_jobs.iter().enumerate() {
            registry
                .counter(&metric_names::node_jobs_completed(node))
                .add(*count);
        }
        let metrics = registry.snapshot();
        let counter = |name: &str| metrics.counter(name).unwrap_or(0);
        let hist_sum = |name: &str| metrics.histogram(name).map(|h| h.sum).unwrap_or(0.0);
        // Every class gets a lane, traffic or not — consumers index by class.
        let per_priority = Priority::ALL
            .into_iter()
            .map(|priority| {
                let waits: Vec<f64> = jobs
                    .iter()
                    .filter(|j| j.priority == priority)
                    .map(|j| j.queue_wait_s)
                    .collect();
                PriorityLane {
                    priority,
                    jobs: waits.len(),
                    queue_wait_p50_s: percentile(&waits, 0.50),
                    queue_wait_p99_s: percentile(&waits, 0.99),
                }
            })
            .collect();
        RuntimeReport {
            jobs: counter(metric_names::JOBS_COMPLETED) as usize,
            converged: counter(metric_names::JOBS_CONVERGED) as usize,
            workers,
            nodes: nodes.max(1),
            wall_s,
            throughput_jobs_per_s: if wall_s > 0.0 {
                jobs.len() as f64 / wall_s
            } else {
                0.0
            },
            latency_p50_s: percentile(&latencies, 0.50),
            latency_p99_s: percentile(&latencies, 0.99),
            latency_mean_s: if latencies.is_empty() {
                0.0
            } else {
                // Pairwise accumulation (vecops::sum) keeps report means stable and
                // shard-order independent even over long traffic logs.
                refloat_sparse::vecops::sum(&latencies) / latencies.len() as f64
            },
            latency_max_s: latencies.iter().cloned().fold(0.0, f64::max),
            queue_wait_p50_s: percentile(&queue_waits, 0.50),
            queue_wait_p99_s: percentile(&queue_waits, 0.99),
            queue_depth_peak,
            cancelled_jobs,
            per_priority,
            cache,
            encode_total_s: hist_sum(metric_names::ENCODE_S),
            solve_total_s: hist_sum(metric_names::SOLVE_S),
            simulated_cycles: counter(metric_names::SIMULATED_CYCLES),
            simulated_total_s: hist_sum(metric_names::SIMULATED_S),
            remaps: counter(metric_names::REMAPS),
            sharded_jobs: counter(metric_names::SHARDED_JOBS) as usize,
            rhs_total: counter(metric_names::RHS_TOTAL) as usize,
            reduction_total_s: hist_sum(metric_names::REDUCTION_S),
            per_worker_jobs,
            per_node_jobs,
            shed_overloaded,
            shed_quota,
            unattributed_jobs,
            refined_jobs: counter(metric_names::REFINED_JOBS) as usize,
            escalations: counter(metric_names::ESCALATIONS),
            host_fp64_total_s: hist_sum(metric_names::HOST_FP64_S),
            autotuned_jobs: counter(metric_names::AUTOTUNED_JOBS) as usize,
            autotune_decision_hits: counter(metric_names::AUTOTUNE_DECISION_HITS),
            autotune_fallbacks: counter(metric_names::AUTOTUNE_FALLBACKS),
            analysis_total_s: hist_sum(metric_names::ANALYSIS_S),
            faults_detected: counter(metric_names::FAULTS_DETECTED),
            fault_retries: counter(metric_names::FAULT_RETRIES),
            degraded_jobs,
            rerouted_jobs,
            chips_killed,
            seq_steps: counter(metric_names::SEQ_STEPS) as usize,
            warm_start_hits: counter(metric_names::WARM_START_HITS),
            blocks_reencoded: counter(metric_names::BLOCKS_REENCODED),
            blocks_reused: counter(metric_names::BLOCKS_REUSED),
            seq_decision_cache_hits: counter(metric_names::SEQ_DECISION_CACHE_HITS),
            decisions,
            metrics,
        }
    }

    /// The batch cache hit rate (hits + coalesced over lookups).
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// A human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "jobs            {} ({} converged) on {} workers\n",
            self.jobs, self.converged, self.workers
        ));
        out.push_str(&format!(
            "throughput      {:.1} jobs/s over {:.3} s wall\n",
            self.throughput_jobs_per_s, self.wall_s
        ));
        out.push_str(&format!(
            "latency         p50 {:.2} ms   p99 {:.2} ms   mean {:.2} ms   max {:.2} ms\n",
            self.latency_p50_s * 1e3,
            self.latency_p99_s * 1e3,
            self.latency_mean_s * 1e3,
            self.latency_max_s * 1e3,
        ));
        out.push_str(&format!(
            "queue wait      p50 {:.2} ms   p99 {:.2} ms   peak depth {}\n",
            self.queue_wait_p50_s * 1e3,
            self.queue_wait_p99_s * 1e3,
            self.queue_depth_peak,
        ));
        // Every lane prints, traffic or not — a dashboard scraping this output sees
        // the same lines whether or not a class happened to receive jobs.
        for lane in &self.per_priority {
            out.push_str(&format!(
                "  {:<13} {} jobs, wait p50 {:.2} ms   p99 {:.2} ms\n",
                lane.priority.label(),
                lane.jobs,
                lane.queue_wait_p50_s * 1e3,
                lane.queue_wait_p99_s * 1e3,
            ));
        }
        out.push_str(&format!(
            "cancelled       {} jobs dequeued before starting (no chip time charged)\n",
            self.cancelled_jobs
        ));
        if self.shed_overloaded + self.shed_quota > 0 {
            out.push_str(&format!(
                "shed            {} overloaded, {} over-quota (typed rejections, never queued)\n",
                self.shed_overloaded, self.shed_quota
            ));
        }
        out.push_str(&format!(
            "encode cache    {:.1}% hit rate ({} hits, {} coalesced, {} misses, {} evictions), {:.3} s encoding\n",
            self.hit_rate() * 100.0,
            self.cache.hits,
            self.cache.coalesced,
            self.cache.misses,
            self.cache.evictions,
            self.encode_total_s,
        ));
        out.push_str(&format!(
            "simulated chip  {:.3e} cycles, {:.6} s total, {} remaps\n",
            self.simulated_cycles as f64, self.simulated_total_s, self.remaps
        ));
        // Always printed, zero-fault runs included: report snapshots stay
        // schema-stable whether or not a fault model is configured.
        out.push_str(&format!(
            "reliability     {} faults detected, {} retries, {} degraded, {} rerouted, {} chips killed\n",
            self.faults_detected,
            self.fault_retries,
            self.degraded_jobs,
            self.rerouted_jobs,
            self.chips_killed,
        ));
        if self.refined_jobs > 0 {
            out.push_str(&format!(
                "refinement      {} refined jobs, {} escalations, {:.6} s host fp64\n",
                self.refined_jobs, self.escalations, self.host_fp64_total_s
            ));
        }
        if self.sharded_jobs > 0 {
            out.push_str(&format!(
                "sharding        {} sharded jobs, {:.6} s inter-chip reduction\n",
                self.sharded_jobs, self.reduction_total_s
            ));
        }
        if self.autotuned_jobs > 0 {
            out.push_str(&format!(
                "autotune        {} autotuned jobs ({} decision-cache hits, {} fallbacks), {:.3} s analysing\n",
                self.autotuned_jobs,
                self.autotune_decision_hits,
                self.autotune_fallbacks,
                self.analysis_total_s,
            ));
        }
        if self.rhs_total > self.jobs {
            out.push_str(&format!(
                "multi-rhs       {} right-hand sides across {} jobs\n",
                self.rhs_total, self.jobs
            ));
        }
        if self.seq_steps > 0 {
            out.push_str(&format!(
                "sequences       {} steps ({} warm-start hits, {} decision reuses), blocks {} reused / {} re-encoded\n",
                self.seq_steps,
                self.warm_start_hits,
                self.seq_decision_cache_hits,
                self.blocks_reused,
                self.blocks_reencoded,
            ));
        }
        out.push_str(&format!("worker load     {:?}\n", self.per_worker_jobs));
        if self.nodes > 1 {
            out.push_str(&format!(
                "node load       {:?} across {} nodes\n",
                self.per_node_jobs, self.nodes
            ));
        }
        if self.unattributed_jobs > 0 {
            out.push_str(&format!(
                "WARNING         {} jobs attributed to workers outside the pool\n",
                self.unattributed_jobs
            ));
        } else {
            out.push_str("unattributed    0 jobs\n");
        }
        out
    }
}

impl Serialize for PriorityLane {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "priority".to_string(),
                Value::Str(self.priority.label().to_string()),
            ),
            ("jobs".to_string(), Value::Num(self.jobs as f64)),
            (
                "queue_wait_p50_s".to_string(),
                Value::Num(self.queue_wait_p50_s),
            ),
            (
                "queue_wait_p99_s".to_string(),
                Value::Num(self.queue_wait_p99_s),
            ),
        ])
    }
}

impl Serialize for RuntimeReport {
    fn to_value(&self) -> Value {
        let cache_stats = |hits: u64, misses: u64, coalesced: u64, evictions: u64| {
            Value::Object(vec![
                ("hits".to_string(), Value::Num(hits as f64)),
                ("misses".to_string(), Value::Num(misses as f64)),
                ("coalesced".to_string(), Value::Num(coalesced as f64)),
                ("evictions".to_string(), Value::Num(evictions as f64)),
            ])
        };
        Value::Object(vec![
            ("jobs".to_string(), Value::Num(self.jobs as f64)),
            ("converged".to_string(), Value::Num(self.converged as f64)),
            ("workers".to_string(), Value::Num(self.workers as f64)),
            ("nodes".to_string(), Value::Num(self.nodes as f64)),
            ("wall_s".to_string(), Value::Num(self.wall_s)),
            (
                "throughput_jobs_per_s".to_string(),
                Value::Num(self.throughput_jobs_per_s),
            ),
            ("latency_p50_s".to_string(), Value::Num(self.latency_p50_s)),
            ("latency_p99_s".to_string(), Value::Num(self.latency_p99_s)),
            (
                "latency_mean_s".to_string(),
                Value::Num(self.latency_mean_s),
            ),
            ("latency_max_s".to_string(), Value::Num(self.latency_max_s)),
            (
                "queue_wait_p50_s".to_string(),
                Value::Num(self.queue_wait_p50_s),
            ),
            (
                "queue_wait_p99_s".to_string(),
                Value::Num(self.queue_wait_p99_s),
            ),
            (
                "queue_depth_peak".to_string(),
                Value::Num(self.queue_depth_peak as f64),
            ),
            (
                "cancelled_jobs".to_string(),
                Value::Num(self.cancelled_jobs as f64),
            ),
            (
                "unattributed_jobs".to_string(),
                Value::Num(self.unattributed_jobs as f64),
            ),
            (
                "per_priority".to_string(),
                Value::Array(self.per_priority.iter().map(|l| l.to_value()).collect()),
            ),
            (
                "cache".to_string(),
                cache_stats(
                    self.cache.hits,
                    self.cache.misses,
                    self.cache.coalesced,
                    self.cache.evictions,
                ),
            ),
            (
                "decisions".to_string(),
                cache_stats(
                    self.decisions.hits,
                    self.decisions.misses,
                    self.decisions.coalesced,
                    self.decisions.evictions,
                ),
            ),
            (
                "encode_total_s".to_string(),
                Value::Num(self.encode_total_s),
            ),
            ("solve_total_s".to_string(), Value::Num(self.solve_total_s)),
            (
                "simulated_cycles".to_string(),
                Value::Num(self.simulated_cycles as f64),
            ),
            (
                "simulated_total_s".to_string(),
                Value::Num(self.simulated_total_s),
            ),
            ("remaps".to_string(), Value::Num(self.remaps as f64)),
            (
                "sharded_jobs".to_string(),
                Value::Num(self.sharded_jobs as f64),
            ),
            ("rhs_total".to_string(), Value::Num(self.rhs_total as f64)),
            (
                "reduction_total_s".to_string(),
                Value::Num(self.reduction_total_s),
            ),
            (
                "per_worker_jobs".to_string(),
                Value::Array(
                    self.per_worker_jobs
                        .iter()
                        .map(|&n| Value::Num(n as f64))
                        .collect(),
                ),
            ),
            (
                "per_node_jobs".to_string(),
                Value::Array(
                    self.per_node_jobs
                        .iter()
                        .map(|&n| Value::Num(n as f64))
                        .collect(),
                ),
            ),
            (
                "shed_overloaded".to_string(),
                Value::Num(self.shed_overloaded as f64),
            ),
            ("shed_quota".to_string(), Value::Num(self.shed_quota as f64)),
            (
                "refined_jobs".to_string(),
                Value::Num(self.refined_jobs as f64),
            ),
            (
                "escalations".to_string(),
                Value::Num(self.escalations as f64),
            ),
            (
                "host_fp64_total_s".to_string(),
                Value::Num(self.host_fp64_total_s),
            ),
            (
                "autotuned_jobs".to_string(),
                Value::Num(self.autotuned_jobs as f64),
            ),
            (
                "autotune_decision_hits".to_string(),
                Value::Num(self.autotune_decision_hits as f64),
            ),
            (
                "autotune_fallbacks".to_string(),
                Value::Num(self.autotune_fallbacks as f64),
            ),
            (
                "analysis_total_s".to_string(),
                Value::Num(self.analysis_total_s),
            ),
            (
                "faults_detected".to_string(),
                Value::Num(self.faults_detected as f64),
            ),
            (
                "fault_retries".to_string(),
                Value::Num(self.fault_retries as f64),
            ),
            (
                "degraded_jobs".to_string(),
                Value::Num(self.degraded_jobs as f64),
            ),
            (
                "rerouted_jobs".to_string(),
                Value::Num(self.rerouted_jobs as f64),
            ),
            (
                "chips_killed".to_string(),
                Value::Num(self.chips_killed as f64),
            ),
            ("seq_steps".to_string(), Value::Num(self.seq_steps as f64)),
            (
                "warm_start_hits".to_string(),
                Value::Num(self.warm_start_hits as f64),
            ),
            (
                "blocks_reencoded".to_string(),
                Value::Num(self.blocks_reencoded as f64),
            ),
            (
                "blocks_reused".to_string(),
                Value::Num(self.blocks_reused as f64),
            ),
            (
                "seq_decision_cache_hits".to_string(),
                Value::Num(self.seq_decision_cache_hits as f64),
            ),
            ("metrics".to_string(), self.metrics.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_edge_cases_are_robust() {
        // Empty and single-sample inputs.
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
        assert_eq!(percentile(&[3.5], 0.0), 3.5);
        assert_eq!(percentile(&[3.5], 0.5), 3.5);
        assert_eq!(percentile(&[3.5], 1.0), 3.5);
        // Non-finite samples are filtered instead of panicking the sort.
        assert_eq!(percentile(&[f64::NAN, 2.0, 1.0], 1.0), 2.0);
        assert_eq!(percentile(&[f64::INFINITY, 2.0, 1.0], 0.0), 1.0);
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 0.5), 0.0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn percentile_clamps_out_of_range_quantiles_in_release() {
        let samples = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, -0.5), 1.0);
        assert_eq!(percentile(&samples, 7.0), 3.0);
        assert_eq!(percentile(&samples, f64::NAN), 1.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_flags_out_of_range_quantiles_in_debug() {
        let _ = percentile(&[1.0], 1.5);
    }

    fn telemetry(job_id: u64, worker: usize, refined: bool) -> JobTelemetry {
        let simulated = SimulatedRun {
            cycles: 100,
            compute_s: 1e-6,
            stream_write_s: 0.0,
            program_s: 0.0,
            reduction_s: 0.0,
            host_fp64_s: if refined { 2e-6 } else { 0.0 },
            total_s: 3e-6,
            remapped: false,
        };
        let refinement = refined.then(|| RefinementTelemetry {
            outer_iterations: 3,
            inner_iterations: 30,
            escalations: 1,
            final_level: "fp64 (exact)".to_string(),
            fp64_spmvs: 3,
            final_relative_residual: 1e-13,
            stalled: false,
        });
        JobTelemetry {
            job_id,
            outcome: JobOutcomeKind::Completed,
            tenant: "t".to_string(),
            matrix: "m".to_string(),
            worker,
            node: 0,
            solver: SolverKind::Cg,
            priority: Priority::Standard,
            shards: 1,
            rhs_count: 1,
            cache: CacheOutcomeKind::Hit,
            queue_wait_s: 1e-4 * (job_id + 1) as f64,
            encode_s: 0.0,
            solve_s: 1e-3,
            latency_s: 2e-3,
            iterations: 10,
            converged: true,
            simulated,
            refinement,
            autotune: None,
            faults_detected: 0,
            fault_retries: 0,
            sequence: None,
        }
    }

    #[test]
    fn render_always_prints_the_reliability_line() {
        // Zero-fault run: the line is present with all-zero counters, so report
        // snapshots keep a stable schema whether or not a fault model is on.
        let jobs = vec![telemetry(0, 0, false)];
        let clean = RuntimeReport::aggregate(
            &jobs,
            AggregateContext {
                wall_s: 0.1,
                ..Default::default()
            },
        );
        assert!(clean.render().contains(
            "reliability     0 faults detected, 0 retries, 0 degraded, 0 rerouted, 0 chips killed"
        ));

        // Faulty run: the same line carries the counts.
        let mut faulty_job = telemetry(1, 0, false);
        faulty_job.faults_detected = 12;
        faulty_job.fault_retries = 2;
        let faulty = RuntimeReport::aggregate(
            &[faulty_job],
            AggregateContext {
                wall_s: 0.1,
                degraded_jobs: 1,
                rerouted_jobs: 3,
                chips_killed: 1,
                ..Default::default()
            },
        );
        let rendered = faulty.render();
        assert!(rendered.contains(
            "reliability     12 faults detected, 2 retries, 1 degraded, 3 rerouted, 1 chips killed"
        ));
        assert_eq!(faulty.faults_detected, 12);
        assert_eq!(faulty.fault_retries, 2);
        assert_eq!(
            faulty.metrics.counter(metric_names::FAULTS_DETECTED),
            Some(12)
        );
        assert_eq!(faulty.metrics.counter(metric_names::JOBS_DEGRADED), Some(1));
        assert_eq!(faulty.metrics.counter(metric_names::JOBS_REROUTED), Some(3));
        assert_eq!(faulty.metrics.counter(metric_names::CHIPS_KILLED), Some(1));
    }

    #[test]
    fn aggregate_worker_attribution_sums_to_jobs() {
        let jobs = vec![
            telemetry(0, 0, false),
            telemetry(1, 1, true),
            telemetry(2, 1, false),
        ];
        let report = RuntimeReport::aggregate(
            &jobs,
            AggregateContext {
                wall_s: 0.1,
                workers: 2,
                queue_depth_peak: 3,
                ..Default::default()
            },
        );
        let attributed: u64 = report.per_worker_jobs.iter().sum();
        assert_eq!(attributed + report.unattributed_jobs, report.jobs as u64);
        assert_eq!(report.unattributed_jobs, 0);
        assert_eq!(report.refined_jobs, 1);
        assert_eq!(report.escalations, 1);
        assert!((report.host_fp64_total_s - 2e-6).abs() < 1e-18);
        assert!(report.render().contains("1 refined jobs"));
    }

    #[test]
    fn degraded_rows_feed_the_fault_counters_but_not_the_completion_numbers() {
        let mut clean = telemetry(0, 0, false);
        clean.faults_detected = 2;
        clean.fault_retries = 1;
        let mut degraded = telemetry(1, 0, false);
        degraded.outcome = JobOutcomeKind::Degraded;
        degraded.faults_detected = 40;
        degraded.fault_retries = 2;
        degraded.latency_s = 99.0;
        let ctx = || AggregateContext {
            wall_s: 0.5,
            degraded_jobs: 1,
            ..Default::default()
        };
        let with_row = RuntimeReport::aggregate(&[clean.clone(), degraded], ctx());
        let without = RuntimeReport::aggregate(&[clean], ctx());
        // Fault counters sum over every row ...
        assert_eq!(with_row.faults_detected, 42);
        assert_eq!(with_row.fault_retries, 3);
        assert_eq!(with_row.degraded_jobs, 1);
        // ... everything else is exactly what the completed rows alone report.
        assert_eq!(with_row.jobs, 1);
        assert_eq!(with_row.per_worker_jobs, without.per_worker_jobs);
        assert_eq!(with_row.latency_max_s, without.latency_max_s);
        assert_eq!(
            with_row.throughput_jobs_per_s,
            without.throughput_jobs_per_s
        );
        assert_eq!(with_row.simulated_cycles, without.simulated_cycles);
        assert_eq!(
            with_row.metrics.counter(metric_names::JOBS_DEGRADED),
            Some(1)
        );
    }

    #[test]
    fn aggregate_reports_queue_wait_tails_depth_and_priority_lanes() {
        let mut jobs: Vec<JobTelemetry> = (0..10).map(|i| telemetry(i, 0, false)).collect();
        jobs[9].priority = Priority::Interactive;
        jobs[9].queue_wait_s = 1e-6;
        let report = RuntimeReport::aggregate(
            &jobs,
            AggregateContext {
                wall_s: 0.1,
                workers: 1,
                queue_depth_peak: 7,
                cancelled_jobs: 2,
                ..Default::default()
            },
        );
        // Nearest-rank p99 of 10 samples is the maximum standard-lane wait (1 ms).
        assert!(report.queue_wait_p99_s >= report.queue_wait_p50_s);
        assert!((report.queue_wait_p99_s - 9e-4).abs() < 1e-12);
        assert_eq!(report.queue_depth_peak, 7);
        assert_eq!(report.cancelled_jobs, 2);
        // All three lanes are always present; the batch lane saw no traffic.
        assert_eq!(report.per_priority.len(), 3);
        let interactive = &report.per_priority[0];
        assert_eq!(interactive.priority, Priority::Interactive);
        assert_eq!(interactive.jobs, 1);
        assert!((interactive.queue_wait_p99_s - 1e-6).abs() < 1e-15);
        let standard = &report.per_priority[1];
        assert_eq!(standard.priority, Priority::Standard);
        assert_eq!(standard.jobs, 9);
        let batch = &report.per_priority[2];
        assert_eq!(batch.priority, Priority::Batch);
        assert_eq!(batch.jobs, 0);
        assert_eq!(batch.queue_wait_p99_s, 0.0);
        // The metrics snapshot backs the aggregation and agrees with it.
        assert_eq!(
            report.metrics.counter(metric_names::JOBS_COMPLETED),
            Some(report.jobs as u64)
        );
        assert_eq!(
            report.metrics.counter(metric_names::JOBS_CANCELLED),
            Some(2)
        );
        let rendered = report.render();
        assert!(rendered.contains("p99"));
        assert!(rendered.contains("peak depth 7"));
        assert!(rendered.contains("interactive"));
        assert!(rendered.contains("batch"));
        assert!(rendered.contains("cancelled       2 jobs"));
        assert!(rendered.contains("unattributed    0 jobs"));
    }

    /// A report whose rows exercise every optional section: refined, autotuned,
    /// sharded, multi-RHS, sequence and degraded.
    fn report_with_every_section() -> RuntimeReport {
        let refined = telemetry(0, 0, true);
        let mut autotuned = telemetry(1, 1, false);
        autotuned.cache = CacheOutcomeKind::Miss;
        autotuned.encode_s = 4e-3;
        autotuned.autotune = Some(AutotuneTelemetry {
            chosen_format: ReFloatConfig::new(4, 3, 8, 3, 8),
            tolerance: 1e-8,
            decision_cached: false,
            analysis_s: 7e-3,
            kappa: 50.0,
            degraded_confidence: false,
            predicted_convergent: true,
            predicted_iterations: 20,
            predicted_cycles_per_spmv: 40,
            achieved_iterations: 22,
            achieved_relative_residual: 1e-9,
            fell_back: true,
        });
        let mut sharded = telemetry(2, 0, false);
        sharded.cache = CacheOutcomeKind::Coalesced;
        sharded.shards = 2;
        sharded.rhs_count = 3;
        sharded.simulated.reduction_s = 5e-7;
        sharded.simulated.remapped = true;
        sharded.priority = Priority::Interactive;
        let mut step = telemetry(3, 1, false);
        step.autotune = autotuned.autotune.clone().map(|tune| AutotuneTelemetry {
            decision_cached: true,
            analysis_s: 0.0,
            fell_back: false,
            ..tune
        });
        step.sequence = Some(SequenceTelemetry {
            warm_start_used: true,
            initial_residual: Some(1e-3),
            incremental: true,
            blocks_reencoded: 6,
            blocks_reused: 30,
            decision_cache_hit: true,
        });
        let mut degraded = telemetry(4, 0, false);
        degraded.outcome = JobOutcomeKind::Degraded;
        degraded.faults_detected = 9;
        degraded.fault_retries = 2;
        RuntimeReport::aggregate(
            &[refined, autotuned, sharded, step, degraded],
            AggregateContext {
                wall_s: 0.25,
                cache: CacheStats {
                    hits: 5,
                    misses: 2,
                    coalesced: 1,
                    evictions: 3,
                },
                decisions: DecisionStats {
                    hits: 1,
                    misses: 1,
                    coalesced: 0,
                    evictions: 0,
                },
                workers: 2,
                nodes: 1,
                queue_depth_peak: 4,
                cancelled_jobs: 2,
                shed_overloaded: 3,
                shed_quota: 1,
                degraded_jobs: 1,
                rerouted_jobs: 2,
                chips_killed: 1,
            },
        )
    }

    fn sorted_keys(value: &Value) -> Vec<&str> {
        let Value::Object(fields) = value else {
            panic!("expected an object, got {}", value.kind());
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn serialized_report_keeps_its_key_set_and_every_number_equals_its_field() {
        let r = report_with_every_section();
        let value = r.to_value();
        // Every scalar field, by wire key, with the value the struct holds.
        let numbers = [
            ("analysis_total_s", r.analysis_total_s),
            ("autotune_decision_hits", r.autotune_decision_hits as f64),
            ("autotune_fallbacks", r.autotune_fallbacks as f64),
            ("autotuned_jobs", r.autotuned_jobs as f64),
            ("blocks_reencoded", r.blocks_reencoded as f64),
            ("blocks_reused", r.blocks_reused as f64),
            ("cancelled_jobs", r.cancelled_jobs as f64),
            ("chips_killed", r.chips_killed as f64),
            ("converged", r.converged as f64),
            ("degraded_jobs", r.degraded_jobs as f64),
            ("encode_total_s", r.encode_total_s),
            ("escalations", r.escalations as f64),
            ("fault_retries", r.fault_retries as f64),
            ("faults_detected", r.faults_detected as f64),
            ("host_fp64_total_s", r.host_fp64_total_s),
            ("jobs", r.jobs as f64),
            ("latency_max_s", r.latency_max_s),
            ("latency_mean_s", r.latency_mean_s),
            ("latency_p50_s", r.latency_p50_s),
            ("latency_p99_s", r.latency_p99_s),
            ("nodes", r.nodes as f64),
            ("queue_depth_peak", r.queue_depth_peak as f64),
            ("queue_wait_p50_s", r.queue_wait_p50_s),
            ("queue_wait_p99_s", r.queue_wait_p99_s),
            ("reduction_total_s", r.reduction_total_s),
            ("refined_jobs", r.refined_jobs as f64),
            ("remaps", r.remaps as f64),
            ("rerouted_jobs", r.rerouted_jobs as f64),
            ("rhs_total", r.rhs_total as f64),
            ("seq_decision_cache_hits", r.seq_decision_cache_hits as f64),
            ("seq_steps", r.seq_steps as f64),
            ("sharded_jobs", r.sharded_jobs as f64),
            ("shed_overloaded", r.shed_overloaded as f64),
            ("shed_quota", r.shed_quota as f64),
            ("simulated_cycles", r.simulated_cycles as f64),
            ("simulated_total_s", r.simulated_total_s),
            ("solve_total_s", r.solve_total_s),
            ("throughput_jobs_per_s", r.throughput_jobs_per_s),
            ("unattributed_jobs", r.unattributed_jobs as f64),
            ("wall_s", r.wall_s),
            ("warm_start_hits", r.warm_start_hits as f64),
            ("workers", r.workers as f64),
        ];
        // The rows above reach every optional section, so no pinned number is a
        // vacuous zero-equals-zero.
        for (key, field) in numbers {
            assert!(
                field > 0.0 || key == "unattributed_jobs",
                "{key} not exercised"
            );
            assert_eq!(value.field(key).unwrap(), &Value::Num(field), "{key}");
        }
        // (a) The key sets: the scalars plus the six structured fields.
        let mut expected: Vec<&str> = numbers.iter().map(|(k, _)| *k).collect();
        expected.extend([
            "cache",
            "decisions",
            "metrics",
            "per_node_jobs",
            "per_priority",
            "per_worker_jobs",
        ]);
        expected.sort_unstable();
        assert_eq!(sorted_keys(&value), expected);
        // (b) ... and nothing numeric hides outside the pinned list.
        let Value::Object(fields) = &value else {
            unreachable!("sorted_keys checked the shape");
        };
        let numeric = fields.iter().filter(|(_, v)| matches!(v, Value::Num(_)));
        assert_eq!(numeric.count(), numbers.len());

        let stats_keys = ["coalesced", "evictions", "hits", "misses"];
        assert_eq!(sorted_keys(value.field("cache").unwrap()), stats_keys);
        assert_eq!(sorted_keys(value.field("decisions").unwrap()), stats_keys);
        assert_eq!(
            value.field("cache").unwrap().field("evictions").unwrap(),
            &Value::Num(3.0)
        );
        let Value::Array(lanes) = value.field("per_priority").unwrap() else {
            panic!("per_priority serialises as an array");
        };
        assert_eq!(lanes.len(), 3);
        assert_eq!(
            sorted_keys(&lanes[0]),
            ["jobs", "priority", "queue_wait_p50_s", "queue_wait_p99_s"]
        );
        assert_eq!(
            lanes[0].field("priority").unwrap(),
            &Value::Str("interactive".to_string())
        );
        assert_eq!(lanes[0].field("jobs").unwrap(), &Value::Num(1.0));
        assert_eq!(
            value.field("per_worker_jobs").unwrap(),
            &Value::Array(vec![Value::Num(2.0), Value::Num(2.0)])
        );
        assert_eq!(
            sorted_keys(value.field("metrics").unwrap()),
            ["counters", "gauges", "histograms"]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "attributed to worker")]
    fn aggregate_flags_out_of_range_worker_indices_in_debug() {
        let jobs = vec![telemetry(0, 5, false)];
        let _ = RuntimeReport::aggregate(
            &jobs,
            AggregateContext {
                wall_s: 0.1,
                workers: 2,
                queue_depth_peak: 1,
                ..Default::default()
            },
        );
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn aggregate_counts_unattributed_jobs_in_release() {
        let jobs = vec![telemetry(0, 5, false), telemetry(1, 0, false)];
        let report = RuntimeReport::aggregate(
            &jobs,
            AggregateContext {
                wall_s: 0.1,
                workers: 2,
                queue_depth_peak: 2,
                ..Default::default()
            },
        );
        assert_eq!(report.unattributed_jobs, 1);
        let attributed: u64 = report.per_worker_jobs.iter().sum();
        assert_eq!(attributed + report.unattributed_jobs, report.jobs as u64);
        assert!(report.render().contains("WARNING"));
    }
}
