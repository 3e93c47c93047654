//! Per-job telemetry, the runtime's metric table, and batch-level aggregation.
//!
//! Every metric is declared **once**, as a row of [`METRIC_TABLE`]: constant in
//! [`metric_names`], wire name, doc and [`MetricSource`].  Spawn-time registration
//! of the whole vocabulary, [`JobMetricHandles::record`] on the worker hot path and
//! the replay inside [`RuntimeReport::aggregate`] are loops over that table, so
//! adding a metric is adding a row (plus a report field, if it should have one).
//!
//! Aggregation is *backed by the metrics registry*: the recording path live workers
//! stream into is the one [`RuntimeReport::aggregate`] replays over a batch's
//! telemetry rows, so a live
//! [`metrics_snapshot`](crate::SolveClient::metrics_snapshot) and a post-drain report
//! can never disagree about what a completed job counts as.
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
use serde::Serialize;

use crate::accel::SimulatedRun;
use crate::sched::Priority;
pub use crate::single_flight::CacheOutcomeKind;
use crate::single_flight::CacheStats;

/// Which telemetry rows feed a per-row metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowScope {
    /// [`JobOutcomeKind::Completed`] rows only, so a best-effort `Degraded` solve
    /// never inflates the clean-completion numbers (latency, cycles, cache outcomes).
    Completed,
    /// Every executed row, whatever its outcome (the fault counters).
    EveryRow,
}

/// A per-row counter's extractor: what one telemetry row adds to it.
pub type RowCount = fn(&JobTelemetry) -> u64;
/// A per-row histogram's extractor: the sample one telemetry row observes, if any.
pub type RowSample = fn(&JobTelemetry) -> Option<f64>;

/// Where a metric's value comes from, which also fixes its kind.
#[derive(Debug, Clone, Copy)]
pub enum MetricSource {
    /// A counter fed by telemetry rows: each row in scope adds the extractor's value.
    RowCounter(RowScope, RowCount),
    /// A seconds histogram fed by telemetry rows: each row in scope observes the
    /// extractor's sample, when it yields one.
    RowSeconds(RowScope, RowSample),
    /// A counter the service increments where a ticket resolves or the router places
    /// a job — events that leave no telemetry row.
    ServiceCounter,
    /// A gauge the service sets (pool shape, queue depth, occupancy).
    ServiceGauge,
}

/// Declares every runtime metric once — `/// doc`, `CONSTANT = "wire_name" => source;`
/// — and expands to the [`metric_names`] constants and [`METRIC_TABLE`].
macro_rules! metric_table {
    ($($(#[$doc:meta])* $konst:ident = $name:literal => $source:expr;)*) => {
        /// The metric names under which the runtime records job completions — the
        /// stable vocabulary shared by live snapshots, report aggregation, and
        /// dashboards.
        pub mod metric_names {
            $($(#[$doc])* pub const $konst: &str = $name;)*

            /// The per-node completion counter's name (`node<i>_jobs_completed`), one
            /// per node, registered when the node's workers spawn.
            pub fn node_jobs_completed(node: usize) -> String {
                format!("node{node}_jobs_completed")
            }
        }

        /// The runtime's whole metric vocabulary: one `(wire name, source)` row per
        /// metric.  Every name is registered when a node spawns, single-node runtime
        /// and cluster alike, so a snapshot taken before the first job already carries
        /// it at zero and dashboards never key-error on missing fields.
        pub static METRIC_TABLE: &[(&str, MetricSource)] = {
            use CacheOutcomeKind::{Coalesced, Hit, Miss};
            use MetricSource::{RowCounter, RowSeconds, ServiceCounter, ServiceGauge};
            use RowScope::{Completed, EveryRow};
            &[$(($name, $source)),*]
        };
    };
}

metric_table! {
    /// Counter: jobs completed (cancelled jobs never reach it).
    JOBS_COMPLETED = "jobs_completed" => RowCounter(Completed, |_| 1);
    /// Counter: completed jobs whose solve met its residual criterion.
    JOBS_CONVERGED = "jobs_converged" => RowCounter(Completed, |j| j.converged as u64);
    /// Counter: jobs cancelled before any worker started them.
    JOBS_CANCELLED = "jobs_cancelled" => ServiceCounter;
    /// Counter: jobs whose encoded matrix was a cache hit.
    CACHE_HITS = "cache_hits" => RowCounter(Completed, |j| (j.cache == Hit) as u64);
    /// Counter: jobs that encoded their matrix (cache miss).
    CACHE_MISSES = "cache_misses" => RowCounter(Completed, |j| (j.cache == Miss) as u64);
    /// Counter: jobs that waited on a concurrent encode of the same key.
    CACHE_COALESCED = "cache_coalesced" => RowCounter(Completed, |j| (j.cache == Coalesced) as u64);
    /// Counter: total simulated accelerator cycles.
    SIMULATED_CYCLES = "simulated_cycles" => RowCounter(Completed, |j| j.simulated.cycles);
    /// Counter: jobs that re-programmed their chip.
    REMAPS = "remaps" => RowCounter(Completed, |j| j.simulated.remapped as u64);
    /// Counter: jobs spanning more than one chip.
    SHARDED_JOBS = "sharded_jobs" => RowCounter(Completed, |j| (j.shards > 1) as u64);
    /// Counter: right-hand sides solved (≥ jobs; batched jobs contribute several).
    RHS_TOTAL = "rhs_total" => RowCounter(Completed, |j| j.rhs_count as u64);
    /// Counter: jobs that ran in mixed-precision refinement mode.
    REFINED_JOBS = "refined_jobs" => RowCounter(Completed, |j| j.refinement.is_some() as u64);
    /// Counter: format escalations across refined jobs.
    ESCALATIONS = "escalations" =>
        RowCounter(Completed, |j| j.refinement.as_ref().map_or(0, |r| r.escalations as u64));
    /// Counter: jobs that ran in auto-format mode.
    AUTOTUNED_JOBS = "autotuned_jobs" => RowCounter(Completed, |j| j.autotune.is_some() as u64);
    /// Counter: auto-format jobs served from the decision cache.
    AUTOTUNE_DECISION_HITS = "autotune_decision_hits" =>
        RowCounter(Completed, |j| j.autotune.as_ref().is_some_and(|a| a.decision_cached) as u64);
    /// Counter: auto-format jobs that fell back to the refinement ladder.
    AUTOTUNE_FALLBACKS = "autotune_fallbacks" =>
        RowCounter(Completed, |j| j.autotune.as_ref().is_some_and(|a| a.fell_back) as u64);
    /// Histogram (wall seconds): submission → dequeue.
    QUEUE_WAIT_S = "queue_wait_s" => RowSeconds(Completed, |j| Some(j.queue_wait_s));
    /// Histogram (wall seconds): submission → completion.
    LATENCY_S = "latency_s" => RowSeconds(Completed, |j| Some(j.latency_s));
    /// Histogram (wall seconds): time inside the solver.
    SOLVE_S = "solve_s" => RowSeconds(Completed, |j| Some(j.solve_s));
    /// Histogram (wall seconds): encode time, observed only for jobs that paid any
    /// encoding (whole-matrix misses, shard misses, refinement-rung misses).  A
    /// refined job can pay rung encodes even when its *base* rung was a hit, so the
    /// row keys on the time actually spent, not on the job-level cache outcome.
    ENCODE_S = "encode_s" => RowSeconds(Completed, |j| (j.encode_s > 0.0).then_some(j.encode_s));
    /// Histogram (simulated seconds): per-job simulated chip time.
    SIMULATED_S = "simulated_s" => RowSeconds(Completed, |j| Some(j.simulated.total_s));
    /// Histogram (simulated seconds): inter-chip gather time of sharded jobs.
    REDUCTION_S = "reduction_s" =>
        RowSeconds(Completed, |j| (j.shards > 1).then_some(j.simulated.reduction_s));
    /// Histogram (simulated seconds): host-side fp64 work, observed for jobs that
    /// did any.
    HOST_FP64_S = "host_fp64_s" => RowSeconds(Completed, |j| {
        (j.simulated.host_fp64_s > 0.0).then_some(j.simulated.host_fp64_s)
    });
    /// Histogram (wall seconds): autotune analysis time, observed on decision-cache
    /// misses only.
    ANALYSIS_S = "analysis_s" => RowSeconds(Completed, |j| {
        j.autotune.as_ref().map(|a| a.analysis_s).filter(|s| *s > 0.0)
    });
    /// Gauge: scheduler queue-depth high-water mark.
    QUEUE_DEPTH_PEAK = "queue_depth_peak" => ServiceGauge;
    /// Gauge: worker threads serving the client.
    WORKERS = "workers" => ServiceGauge;
    /// Counter: jobs the router placed on a node — every admitted submission, at
    /// every fleet size.
    JOBS_ROUTED = "jobs_routed" => ServiceCounter;
    /// Counter: routed jobs placed on the node already holding their encodings
    /// (the fingerprint-affinity placement key won).
    ROUTE_AFFINITY_HITS = "route_affinity_hits" => ServiceCounter;
    /// Counter: routed jobs whose affinity node was too loaded, spilling to the
    /// least-loaded node instead (the sticky mapping moves with them).
    ROUTE_SPILLS = "route_spills" => ServiceCounter;
    /// Counter: submissions shed by admission control because the cluster-wide
    /// in-system bound was reached ([`SubmitError::Overloaded`](crate::SubmitError)).
    JOBS_SHED_OVERLOAD = "jobs_shed_overload" => ServiceCounter;
    /// Counter: submissions shed because the tenant's fair-share quota was full
    /// ([`SubmitError::QuotaExceeded`](crate::SubmitError)).
    JOBS_SHED_QUOTA = "jobs_shed_quota" => ServiceCounter;
    /// Gauge: nodes in the client's fleet (1 for a single-node runtime).
    NODES = "nodes" => ServiceGauge;
    /// Gauge: tenants currently holding at least one admitted, unfinished job.
    TENANTS_ACTIVE = "tenants_active" => ServiceGauge;
    /// Counter: ABFT checksum failures detected across all solves (0 unless a fault
    /// model with ABFT is configured).
    FAULTS_DETECTED = "faults_detected" => RowCounter(EveryRow, |j| j.faults_detected);
    /// Counter: detected-corruption retries that re-encoded a job onto spare
    /// resources.
    FAULT_RETRIES = "fault_retries" => RowCounter(EveryRow, |j| j.fault_retries);
    /// Counter: jobs that resolved with a typed `Degraded` outcome instead of a
    /// clean completion (corruption unresolved after retries, or a chip killed with
    /// no live worker left to take the job).
    JOBS_DEGRADED = "jobs_degraded" => ServiceCounter;
    /// Counter: jobs that panicked inside a worker and resolved `Failed` (the panic
    /// is contained; they leave no telemetry row).
    JOBS_FAILED = "jobs_failed" => ServiceCounter;
    /// Counter: queued jobs re-routed off a killed chip onto a surviving worker.
    JOBS_REROUTED = "jobs_rerouted" => ServiceCounter;
    /// Counter: chips administratively killed mid-trace.
    CHIPS_KILLED = "chips_killed" => ServiceCounter;
    /// Counter: cluster placements steered away from the health-blind choice
    /// because a node looked degraded (dead workers or detection-heavy chips).
    ROUTE_HEALTH_STEERS = "route_health_steers" => ServiceCounter;
    /// Counter: jobs submitted through a [`SolveSequence`](crate::SolveSequence)
    /// step (they carry predecessor context the worker can exploit).
    SEQ_STEPS = "seq_steps" => RowCounter(Completed, |j| j.sequence.is_some() as u64);
    /// Counter: sequence steps whose warm-start guess passed the residual guard
    /// (zero-iteration short-circuit or correction solve; rejected guesses fall
    /// back to the plain zero-start solve).
    WARM_START_HITS = "warm_start_hits" =>
        RowCounter(Completed, |j| j.sequence.as_ref().is_some_and(|s| s.warm_start_used) as u64);
    /// Counter: blocks whose encoding an incremental sequence re-encode changed (partial or
    /// full crossbar rewrites).
    BLOCKS_REENCODED = "blocks_reencoded" =>
        RowCounter(Completed, |j| j.sequence.as_ref().map_or(0, |s| s.blocks_reencoded));
    /// Counter: blocks reused verbatim from the predecessor's encoding by
    /// incremental sequence re-encodes (no quantization, no device writes).
    BLOCKS_REUSED = "blocks_reused" =>
        RowCounter(Completed, |j| j.sequence.as_ref().map_or(0, |s| s.blocks_reused));
    /// Counter: sequence steps that reused the predecessor's format decision
    /// instead of re-running the auto-format analysis.
    SEQ_DECISION_CACHE_HITS = "seq_decision_cache_hits" => RowCounter(Completed, |j| {
        j.sequence.as_ref().is_some_and(|s| s.decision_cache_hit) as u64
    });
}

/// Pre-fetched handles on every per-row metric, paired with the table's extractors.
///
/// Workers create one set at startup and record through it, so the per-job hot path
/// is atomic increments only — the registry's name-lookup locks are never touched
/// after registration.  Registration also *creates* every metric of the table,
/// service-level ones included.
#[derive(Debug, Default)]
pub struct JobMetricHandles {
    counters: Vec<(RowScope, Arc<Counter>, RowCount)>,
    seconds: Vec<(RowScope, Arc<Histogram>, RowSample)>,
}

impl JobMetricHandles {
    /// Fetches (creating if needed) every metric of [`METRIC_TABLE`] in `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        let mut handles = JobMetricHandles::default();
        for &(name, source) in METRIC_TABLE {
            match source {
                MetricSource::RowCounter(scope, extract) => {
                    handles
                        .counters
                        .push((scope, registry.counter(name), extract))
                }
                MetricSource::RowSeconds(scope, extract) => {
                    let histogram = registry.histogram_seconds(name);
                    handles.seconds.push((scope, histogram, extract))
                }
                MetricSource::ServiceCounter => drop(registry.counter(name)),
                MetricSource::ServiceGauge => drop(registry.gauge(name)),
            }
        }
        handles
    }

    /// Streams one executed job's row into the metrics (atomic operations only):
    /// every per-row metric whose [`RowScope`] covers the row's outcome.
    pub fn record(&self, job: &JobTelemetry) {
        let covers = |scope: &RowScope| {
            *scope == RowScope::EveryRow || job.outcome == JobOutcomeKind::Completed
        };
        for (scope, counter, extract) in &self.counters {
            if covers(scope) {
                counter.add(extract(job));
            }
        }
        for (scope, histogram, extract) in &self.seconds {
            if let Some(sample) = extract(job).filter(|_| covers(scope)) {
                histogram.observe(sample);
            }
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
    /// Blocks whose encoding the incremental re-encode changed (0 when `incremental` is
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

/// Everything [`RuntimeReport::aggregate`] needs besides the telemetry rows.
#[derive(Debug, Clone, Default)]
pub struct AggregateContext {
    /// Batch wall-clock seconds (first submission to last completion).
    pub wall_s: f64,
    /// Encode-cache counter increments during the batch.
    pub cache: CacheStats,
    /// Decision-cache counter increments during the batch.
    pub decisions: CacheStats,
    /// A snapshot of the live registry, read for its service-level rows only: the
    /// counts telemetry rows cannot carry (cancelled, shed, failed and stranded jobs
    /// never produce one), the pool shape (`workers`, `nodes`; absent means one worker
    /// on one node) and the queue-depth peak.  Per-row metrics in it are ignored —
    /// the report replays those from the rows.
    pub service: MetricsSnapshot,
}

/// Aggregated statistics for one batch.
#[derive(Debug, Clone, Serialize)]
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
    /// Jobs that panicked inside a worker and resolved `Failed`.
    pub failed_jobs: u64,
    /// Jobs submitted through a [`SolveSequence`](crate::SolveSequence) step.
    pub seq_steps: usize,
    /// Sequence steps whose warm-start guess passed the residual guard.
    pub warm_start_hits: u64,
    /// Blocks whose encoding incremental sequence re-encodes changed.
    pub blocks_reencoded: u64,
    /// Blocks reused verbatim from predecessor encodings.
    pub blocks_reused: u64,
    /// Sequence steps that reused the predecessor's format decision.
    pub seq_decision_cache_hits: u64,
    /// Decision-cache counter increments during the batch.
    pub decisions: CacheStats,
    /// The full metrics snapshot the aggregation was derived from (the same
    /// vocabulary [`SolveClient::metrics_snapshot`](crate::SolveClient::metrics_snapshot)
    /// serves live).
    pub metrics: MetricsSnapshot,
}

/// Queue-wait statistics of one priority class.
#[derive(Debug, Clone, Serialize)]
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
        let gauge = |name: &str| ctx.service.gauge(name).unwrap_or(0.0) as usize;
        let workers = gauge(metric_names::WORKERS).max(1);
        let nodes = gauge(metric_names::NODES).max(1);
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
        // Service-level metrics have no rows to replay: carry the live values over.
        for &(name, source) in METRIC_TABLE {
            match source {
                MetricSource::ServiceCounter => registry
                    .counter(name)
                    .add(ctx.service.counter(name).unwrap_or(0)),
                MetricSource::ServiceGauge => registry
                    .gauge(name)
                    .set(ctx.service.gauge(name).unwrap_or(0.0)),
                MetricSource::RowCounter(..) | MetricSource::RowSeconds(..) => {}
            }
        }

        let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
        let queue_waits: Vec<f64> = jobs.iter().map(|j| j.queue_wait_s).collect();
        let mut per_worker_jobs = vec![0u64; workers];
        let mut per_node_jobs = vec![0u64; nodes];
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
            nodes,
            wall_s: ctx.wall_s,
            throughput_jobs_per_s: if ctx.wall_s > 0.0 {
                jobs.len() as f64 / ctx.wall_s
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
            queue_depth_peak: gauge(metric_names::QUEUE_DEPTH_PEAK),
            cancelled_jobs: counter(metric_names::JOBS_CANCELLED) as usize,
            per_priority,
            cache: ctx.cache,
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
            shed_overloaded: counter(metric_names::JOBS_SHED_OVERLOAD),
            shed_quota: counter(metric_names::JOBS_SHED_QUOTA),
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
            degraded_jobs: counter(metric_names::JOBS_DEGRADED),
            rerouted_jobs: counter(metric_names::JOBS_REROUTED),
            chips_killed: counter(metric_names::CHIPS_KILLED),
            failed_jobs: counter(metric_names::JOBS_FAILED),
            seq_steps: counter(metric_names::SEQ_STEPS) as usize,
            warm_start_hits: counter(metric_names::WARM_START_HITS),
            blocks_reencoded: counter(metric_names::BLOCKS_REENCODED),
            blocks_reused: counter(metric_names::BLOCKS_REUSED),
            seq_decision_cache_hits: counter(metric_names::SEQ_DECISION_CACHE_HITS),
            decisions: ctx.decisions,
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
            "reliability     {} faults detected, {} retries, {} degraded, {} rerouted, {} chips killed, {} failed\n",
            self.faults_detected,
            self.fault_retries,
            self.degraded_jobs,
            self.rerouted_jobs,
            self.chips_killed,
            self.failed_jobs,
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

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// A live-registry snapshot of a one-node pool of `workers` whose queue peaked
    /// at `peak`, carrying the given service-level counts.
    fn service(workers: usize, peak: usize, counts: &[(&str, u64)]) -> MetricsSnapshot {
        let registry = MetricsRegistry::new();
        registry.gauge(metric_names::WORKERS).set(workers as f64);
        registry.gauge(metric_names::NODES).set(1.0);
        registry
            .gauge(metric_names::QUEUE_DEPTH_PEAK)
            .set(peak as f64);
        for (name, count) in counts {
            registry.counter(name).add(*count);
        }
        registry.snapshot()
    }

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
            "reliability     0 faults detected, 0 retries, 0 degraded, 0 rerouted, 0 chips killed, 0 failed"
        ));

        // Faulty run: the same line carries the counts.
        let mut faulty_job = telemetry(1, 0, false);
        faulty_job.faults_detected = 12;
        faulty_job.fault_retries = 2;
        let faulty = RuntimeReport::aggregate(
            &[faulty_job],
            AggregateContext {
                wall_s: 0.1,
                service: service(
                    1,
                    0,
                    &[
                        (metric_names::JOBS_DEGRADED, 1),
                        (metric_names::JOBS_REROUTED, 3),
                        (metric_names::CHIPS_KILLED, 1),
                        (metric_names::JOBS_FAILED, 4),
                    ],
                ),
                ..Default::default()
            },
        );
        let rendered = faulty.render();
        assert!(rendered.contains(
            "reliability     12 faults detected, 2 retries, 1 degraded, 3 rerouted, 1 chips killed, 4 failed"
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
                service: service(2, 3, &[]),
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
            service: service(1, 0, &[(metric_names::JOBS_DEGRADED, 1)]),
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
                service: service(1, 7, &[(metric_names::JOBS_CANCELLED, 2)]),
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
                decisions: CacheStats {
                    hits: 1,
                    misses: 1,
                    coalesced: 0,
                    evictions: 0,
                },
                service: service(
                    2,
                    4,
                    &[
                        (metric_names::JOBS_CANCELLED, 2),
                        (metric_names::JOBS_SHED_OVERLOAD, 3),
                        (metric_names::JOBS_SHED_QUOTA, 1),
                        (metric_names::JOBS_DEGRADED, 1),
                        (metric_names::JOBS_REROUTED, 2),
                        (metric_names::CHIPS_KILLED, 1),
                        (metric_names::JOBS_FAILED, 2),
                    ],
                ),
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
            ("failed_jobs", r.failed_jobs as f64),
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
                service: service(2, 1, &[]),
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
                service: service(2, 2, &[]),
                ..Default::default()
            },
        );
        assert_eq!(report.unattributed_jobs, 1);
        let attributed: u64 = report.per_worker_jobs.iter().sum();
        assert_eq!(attributed + report.unattributed_jobs, report.jobs as u64);
        assert!(report.render().contains("WARNING"));
    }
}
