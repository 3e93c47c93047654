//! `refloat-runtime` — a persistent, multi-tenant solve service over a pool of
//! simulated ReFloat accelerators.
//!
//! The rest of the workspace drives *one* matrix through *one* solver on *one*
//! simulated chip at a time.  This crate adds the serving layer the ROADMAP's
//! production north-star asks for, in the spirit of the distributed in-memory-computing
//! line of work (Vo et al.) and the mixed-precision offload model of Le Gallo et al.:
//! many independent solves, admitted and scheduled against accelerator capacity by a
//! long-lived service, with per-job precision (the `ReFloatConfig`) and urgency (the
//! [`Priority`] class) chosen by the tenant.
//!
//! The moving parts:
//!
//! * [`SolvePlan`] / [`MatrixHandle`] (`plan`, `job`) — the submission API: a shared
//!   matrix handle, right-hand side(s), a ReFloat format, a solver, a QoS class and
//!   an optional soft deadline, validated *as a whole* by
//!   [`SolvePlanBuilder::build`] into either an immutable plan or a typed
//!   [`PlanError`] listing **every** conflicting selection (no panicking builder
//!   paths);
//! * [`SolveClient`] / [`SolveTicket`] (`client`) — the service handle, always in
//!   front of a fleet of ≥ 1 [`Node`]s: [`SolveClient::submit`] is the one path every
//!   job enters by (id → admission → router → the chosen node's scheduler),
//!   non-blocking modulo capacity backpressure, and returns a ticket with
//!   `wait`/`try_get`/`wait_timeout`/`cancel`; `drain` and `shutdown` finish
//!   gracefully;
//! * [`sched`] — the QoS scheduler: priority classes, earliest-deadline-first within
//!   a class, age-based anti-starvation promotion, deterministic tie-breaking by
//!   submission id (see the module docs for the determinism contract);
//! * [`EncodedMatrixCache`] (`cache`) — an LRU cache of encoded
//!   [`ReFloatMatrix`](refloat_core::ReFloatMatrix) operators keyed by
//!   (matrix fingerprint, format) — one entry per matrix and format, whatever the chip
//!   count — with in-flight deduplication so concurrent jobs on the same matrix
//!   encode it once — an instantiation of [`SingleFlightLru`] (`single_flight`), like
//!   the format-decision cache beside it;
//! * the execution pipeline (`pipeline`, private) — the one path every job takes
//!   inside a worker, as five stages with one implementation each: a per-job
//!   context, *resolve encoding* (cache ∘ incremental re-encode, for a matrix on any
//!   number of chips and each refinement rung alike), *program operator* (a
//!   per-job operator sharing the cached, immutable encoding — no copy; optionally
//!   wrapped in the fault model), *solve strategy* (plain batch / warm-started first RHS /
//!   refinement ladder) and *charge*;
//! * [`SimulatedAccelerator`] (`accel`) — the per-worker chip model behind that last
//!   stage: one [`charge`](SimulatedAccelerator::charge) method prices a
//!   description of what ran (chip passes and host-fp64 phases) into simulated
//!   cycles/seconds (Eq. 2/3 via `reram-sim`), including crossbar re-programming
//!   when the resident matrix changes;
//! * [`JobTelemetry`] / [`RuntimeReport`] (`telemetry`) — per-job measurements (queue
//!   wait, encode time, solve time, iterations, simulated cycles, cache outcome,
//!   priority class) and their aggregation (throughput, p50/p99 latency, p50/p99
//!   queue wait, peak queue depth, per-priority wait lanes, cache hit rate), backed
//!   by a `refloat-telemetry` [`MetricsRegistry`]: workers stream every completion
//!   into shared counters/histograms, so
//!   [`SolveClient::metrics_snapshot`] observes a *live* (undrained) service and
//!   [`RuntimeReport::aggregate`] derives its totals from the same recording path.
//!   Every metric is one row of [`METRIC_TABLE`];
//! * span tracing — set [`RuntimeConfig::trace`] to a shared
//!   [`TraceSink`] and every job emits queue-wait / dequeue / cache-lookup / encode /
//!   execute / per-shard / refinement-pass / autotune-analysis / host-fp64 /
//!   chip-phase events, exportable as JSON-lines (see the `trace` module of
//!   `refloat-telemetry` and its deterministic-clock contract);
//! * [`RefinementSpec`] / [`AutoFormatSpec`] (`job`) — opt-in mixed-precision
//!   refinement and per-matrix format auto-tuning, both resolved through the shared
//!   caches;
//! * [`SolveSequence`] (`sequence`) — transient solve chains: each step reuses the
//!   previous step's cached encoding (incremental re-encode, charged only for the
//!   touched crossbar fraction), solution (residual-guarded warm start) and format
//!   decision, while jobs submitted outside a sequence stay bit-identical to the
//!   pre-sequence runtime;
//! * [`SolveRuntime`] (here) — the one-node factory: [`SolveRuntime::start`] is
//!   `ClusterRuntime::start(ClusterConfig::uniform(1, cfg))`; a [`SolveRuntime`]
//!   value additionally owns caches that outlive its clients
//!   ([`SolveRuntime::client`]), and [`run_batch`](SolveRuntime::run_batch) survives
//!   as a thin deterministic wrapper over one such client;
//! * [`Node`] (`node`) — the serving unit everything above runs on: one worker pool
//!   plus its QoS scheduler, caches, and telemetry log.  Every client wraps ≥ 1.
//!   Each worker also owns *lanes*: `max(1, cores / (nodes × workers))` threads,
//!   itself and persistent helpers, fixed once when the client starts from
//!   `std::thread::available_parallelism`.  The pipeline attaches them to every clean
//!   operator it programs (ladder rungs included) and encodes on them, so a worker
//!   with spare cores splits each large encode and re-encode into block-row bands, and
//!   each large CG solve keeps its vectors on the lanes: an iteration's `p` update,
//!   vector conversion, row loop and vector updates run band by band, one band per
//!   lane (see `refloat_core::matrix`).  A fleet with a worker per core runs all of it
//!   on its worker thread, as before.  Helpers park when idle, and the numerics do not
//!   depend on the lane count;
//! * [`ClusterRuntime`] / [`ClusterConfig`] (`cluster`) — the fleet's shape and the
//!   two policies in front of it, an affinity-aware router and typed admission
//!   control: repeat fingerprints land on the node already holding their encodings,
//!   sharded jobs go where they fit, and past a configured bound the client *sheds*
//!   with [`SubmitError::Overloaded`]/[`SubmitError::QuotaExceeded`] instead of
//!   queueing toward collapse — one client/ticket surface, one submit path, same
//!   numerics at every fleet size.
//!
//! # Service mode
//!
//! ```
//! use refloat_core::ReFloatConfig;
//! use refloat_runtime::{MatrixHandle, Priority, RuntimeConfig, SolvePlan, SolveRuntime};
//!
//! let a = refloat_matgen::generators::laplacian_2d(16, 16, 0.3).to_csr();
//! let handle = MatrixHandle::new("poisson-16", a);
//!
//! let client = SolveRuntime::start(RuntimeConfig { workers: 2, ..RuntimeConfig::default() });
//! let urgent = client
//!     .submit(
//!         SolvePlan::new("alice", handle.clone(), ReFloatConfig::paper_default())
//!             .priority(Priority::Interactive)
//!             .build()
//!             .expect("valid plan"),
//!     )
//!     .expect("client accepts while open");
//! let background = client
//!     .submit(
//!         SolvePlan::new("bob", handle, ReFloatConfig::paper_default())
//!             .priority(Priority::Batch)
//!             .build()
//!             .expect("valid plan"),
//!     )
//!     .expect("client accepts while open");
//!
//! let outcome = urgent.wait().completed().expect("ran, not cancelled");
//! assert!(outcome.result.converged());
//! background.wait();
//! let report = client.shutdown();
//! assert_eq!(report.jobs, 2);
//! ```
//!
//! # The shard → chip → reduction pipeline
//!
//! A plan built with [`SolvePlanBuilder::sharding`]`(c)` spans `c` chips of a
//! simulated multi-chip accelerator instead of streaming an oversized matrix through
//! one chip:
//!
//! 1. **shard** — the matrix's one encoding, cached under
//!    [`CacheKey`] `(fingerprint, format)` like an unsharded job's, has its rows cut
//!    into `c` nnz-balanced bands on `2^b` block-row boundaries
//!    (`refloat_sparse::shard`, reusing `balance_by_weight`), so every band holds
//!    whole blocks of it;
//! 2. **chip** — each band is programmed onto its own chip; per SpMV the chips run
//!    in parallel, so the simulated cost is the *makespan* (the slowest shard), not
//!    the sum (`reram_sim::AcceleratorConfig::spmv_price`, where one chip is the pool
//!    of one).  A chip holds a band, not the matrix, so the
//!    same encoding on another chip count re-programs the chips;
//! 3. **reduction** — each SpMV ends with a fixed-order gather of the disjoint
//!    per-chip output bands to the host, charged as link latency + bandwidth.
//!
//! Batched **multi-RHS** plans ([`SolvePlanBuilder::rhs_batch`]) push `k` right-hand
//! sides through the same pipeline: the chips are programmed once and every column
//! solve amortizes that programming (and the cache traffic) across the batch.
//!
//! # Determinism
//!
//! Every job is a pure function of its matrix, right-hand side(s) and configuration:
//! the encoded operator a worker solves with shares the blocks of the same
//! `ReFloatMatrix` the serial path would build, so **numeric results are bit-identical to serial
//! execution regardless of worker count, lane count, scheduling policy, or cache
//! state**.  Only
//! wall-clock telemetry varies between runs.  The QoS scheduler reorders *when* jobs
//! run, never *what* they compute; equal-priority traffic additionally keeps the
//! submission-id dequeue order of the old FIFO path (see [`sched`]).
//!
//! The contract extends across **shard counts**: a sharded solve is bitwise identical
//! to the unsharded solve for every `c`, because the host runs the same encoding's
//! apply: the input vector is converted once, every output row is accumulated whole
//! by the one row loop (by whichever lane holds its band), and the chips' bands only
//! price the model — the inter-shard "reduction" they stand for is a gather of
//! disjoint bands, which reorders no floating-point operation.  (The level-1 kernels underneath — `vecops::dot`/`norm2` — use pairwise
//! summation whose split points depend only on vector length, so residual tests and
//! stopping decisions are also independent of sharding and stable at large `n`.)
//!
//! # Batch wrapper
//!
//! ```
//! use refloat_core::ReFloatConfig;
//! use refloat_runtime::{MatrixHandle, RuntimeConfig, SolvePlan, SolveRuntime};
//!
//! let a = refloat_matgen::generators::laplacian_2d(16, 16, 0.3).to_csr();
//! let handle = MatrixHandle::new("poisson-16", a);
//! let plans: Vec<SolvePlan> = (0..8)
//!     .map(|t| {
//!         SolvePlan::new(format!("tenant-{t}"), handle.clone(), ReFloatConfig::paper_default())
//!             .build()
//!             .expect("valid plan")
//!     })
//!     .collect();
//!
//! let runtime = SolveRuntime::new(RuntimeConfig { workers: 4, ..RuntimeConfig::default() });
//! let outcome = runtime.run_batch(plans);
//! assert_eq!(outcome.jobs.len(), 8);
//! assert!(outcome.jobs.iter().all(|j| j.result.converged()));
//! // 8 jobs on one matrix+format: a single encode, 7 cache hits.
//! assert!(outcome.report.cache.hits + outcome.report.cache.coalesced >= 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accel;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod decision;
pub mod fingerprint;
pub mod health;
pub mod job;
pub mod node;
mod pipeline;
pub mod plan;
pub mod sched;
pub mod sequence;
pub mod single_flight;
pub mod telemetry;
mod trace_job;
mod worker;

pub use accel::{SimulatedAccelerator, SimulatedRun};
pub use cache::{CacheKey, CacheStats, EncodedMatrixCache};
pub use client::{
    DegradedJob, DegradedReason, SolveClient, SolveTicket, SubmitError, TicketOutcome,
};
pub use cluster::{
    AdmissionConfig, ClusterConfig, ClusterRuntime, Placement, RouteKind, Router, RouterPolicy,
};
pub use decision::{DecisionKey, DecisionStats, FormatDecisionCache};
pub use fingerprint::fingerprint_csr;
pub use health::{ChipHealthRecord, FaultPolicy, HealthTracker, NodeHealthSignal};
pub use job::{AutoFormatSpec, JobOutcome, MatrixHandle, RefinementSpec};
pub use node::Node;
pub use plan::{PlanError, PlanViolation, SolvePlan, SolvePlanBuilder};
pub use sched::{JobScheduler, Popped, Priority, SchedulerPolicy, SchedulerStats, SchedulingMode};
pub use sequence::SolveSequence;
pub use single_flight::SingleFlightLru;
pub use telemetry::{
    metric_names, AggregateContext, AutotuneTelemetry, CacheOutcomeKind, JobMetricHandles,
    JobOutcomeKind, JobTelemetry, MetricSource, PriorityLane, RefinementTelemetry, RowScope,
    RuntimeReport, SequenceTelemetry, METRIC_TABLE,
};
// Re-export the observability vocabulary so service users need only this crate.
pub use refloat_telemetry::{
    parse_jsonl, Clock, ManualClock, MetricsRegistry, MetricsSnapshot, SpanKind, TraceEvent,
    TraceSink, WallClock,
};

use std::sync::Arc;

/// Sizing and scheduling knobs for a [`SolveRuntime`] / [`SolveClient`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads; each owns one simulated accelerator (pool).
    pub workers: usize,
    /// Pending-job capacity (submission blocks when full — backpressure).
    pub queue_capacity: usize,
    /// Encoded-matrix cache capacity, in entries.
    pub cache_capacity: usize,
    /// Crossbars per simulated chip (`None` = the Table IV 2^18).  Smaller chips push
    /// matrices past the single-chip budget, the regime where sharded plans
    /// ([`SolvePlanBuilder::sharding`]) pay off.
    pub chip_crossbars: Option<u64>,
    /// Dequeue policy: priority scheduling with anti-starvation promotion by
    /// default; [`SchedulerPolicy::fifo`] restores strict arrival order.
    pub scheduler: SchedulerPolicy,
    /// Optional span-trace sink.  `None` (the default) disables tracing entirely —
    /// workers skip event construction, so the hot path pays nothing.  With a sink
    /// every job flushes its events in one batch; solve numerics are unaffected
    /// either way (tracing only observes wall-clock time, see the
    /// deterministic-clock contract in `refloat-telemetry`).
    pub trace: Option<Arc<TraceSink>>,
    /// Optional device fault injection ([`FaultPolicy`]): every worker chip gets a
    /// persistent stuck-cell/drift/wear model, and plain unsharded solves run the
    /// pipeline's program / solve / charge stages inside the probe → re-encode →
    /// degrade retry loop, on the faulty operator with spare remapping and
    /// (optionally) ABFT detection.  `None` — the default — leaves every job
    /// bit-identical to the fault-free runtime.
    pub fault: Option<FaultPolicy>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 32,
            chip_crossbars: None,
            scheduler: SchedulerPolicy::default(),
            trace: None,
            fault: None,
        }
    }
}

/// Everything a finished batch reports: per-job outcomes (in submission order) and the
/// aggregated [`RuntimeReport`].
#[derive(Debug)]
pub struct RuntimeOutcome {
    /// One outcome per submitted job, sorted by submission order.
    pub jobs: Vec<JobOutcome>,
    /// Aggregated batch statistics.
    pub report: RuntimeReport,
}

/// The multi-tenant solve service factory.
///
/// Owns the encoded-matrix and format-decision caches, which persist across every
/// client and batch it serves — a tenant resubmitting the same matrix + format later
/// skips quantization entirely.
pub struct SolveRuntime {
    config: RuntimeConfig,
    cache: Arc<EncodedMatrixCache>,
    decisions: Arc<FormatDecisionCache>,
}

impl SolveRuntime {
    /// Creates a runtime; workers are spawned per client (or per batch), the caches
    /// are created once here.  The format-decision cache shares the encode cache's
    /// capacity (decisions are tiny; the capacity only bounds distinct
    /// matrix × tolerance × chip combinations remembered).
    pub fn new(config: RuntimeConfig) -> Self {
        assert!(config.workers >= 1, "runtime needs at least one worker");
        assert!(
            config.queue_capacity >= 1,
            "queue capacity must be at least 1"
        );
        let cache = Arc::new(EncodedMatrixCache::new(config.cache_capacity));
        let decisions = Arc::new(FormatDecisionCache::new(config.cache_capacity));
        SolveRuntime {
            config,
            cache,
            decisions,
        }
    }

    /// Starts a self-contained one-node service and returns its long-lived
    /// [`SolveClient`] handle (the one-call entry point for service mode): exactly
    /// `ClusterRuntime::start(ClusterConfig::uniform(1, config))`.  The caches live
    /// as long as the client.
    pub fn start(config: RuntimeConfig) -> SolveClient {
        ClusterRuntime::start(ClusterConfig::uniform(1, config))
    }

    /// Spawns a one-node fleet whose node uses this runtime's caches and returns
    /// its client.
    ///
    /// Several sequential clients of one runtime share encoded matrices and format
    /// decisions; each client's report covers its own jobs (cache counters are
    /// deltas since the client's node spawned).
    pub fn client(&self) -> SolveClient {
        SolveClient::start(
            ClusterConfig::uniform(1, self.config.clone()),
            Some((Arc::clone(&self.cache), Arc::clone(&self.decisions))),
        )
    }

    /// The runtime's sizing configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The shared encoded-matrix cache.
    pub fn cache(&self) -> &EncodedMatrixCache {
        &self.cache
    }

    /// The shared format-decision cache (auto-format jobs).
    pub fn decisions(&self) -> &FormatDecisionCache {
        &self.decisions
    }

    /// Convenience: submit a batch and wait for all results.
    ///
    /// A thin deterministic wrapper over [`client`](Self::client): plans are drawn
    /// from the iterator and submitted on the calling thread (so a lazy iterator
    /// observes queue backpressure), and outcomes come back in submission order
    /// whatever the scheduler did.
    pub fn run_batch(&self, plans: impl IntoIterator<Item = SolvePlan>) -> RuntimeOutcome {
        let client = self.client();
        let tickets: Vec<SolveTicket> = plans
            .into_iter()
            .map(|plan| {
                client
                    .submit(plan)
                    .expect("the batch client admits until the batch is in")
            })
            .collect();
        // Nothing can cancel these tickets (they never leave this function), so
        // every one completes or failed.  A failed (panicked) job re-panics here:
        // a batch caller gets the panic, a service client gets the typed ticket.
        let jobs: Vec<JobOutcome> = tickets
            .into_iter()
            .filter_map(|t| match t.wait() {
                TicketOutcome::Completed(outcome) => Some(*outcome),
                TicketOutcome::Cancelled => None,
                TicketOutcome::Failed(message) => {
                    panic!("runtime job panicked: {message}")
                }
                TicketOutcome::Degraded(degraded) => {
                    panic!(
                        "runtime job {} degraded ({:?}); the batch wrapper expects clean \
                         completions — use the service client to receive typed \
                         Degraded outcomes",
                        degraded.job_id, degraded.reason
                    )
                }
            })
            .collect();
        let report = client.shutdown();
        RuntimeOutcome { jobs, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_core::ReFloatConfig;

    fn poisson_handle(n: usize, name: &str) -> MatrixHandle {
        MatrixHandle::new(
            name,
            refloat_matgen::generators::laplacian_2d(n, n, 0.3).to_csr(),
        )
    }

    fn plan(tenant: &str, handle: &MatrixHandle, format: ReFloatConfig) -> SolvePlan {
        SolvePlan::new(tenant, handle.clone(), format)
            .build()
            .expect("valid plan")
    }

    #[test]
    fn batch_results_arrive_in_submission_order() {
        let handle = poisson_handle(8, "p8");
        let plans: Vec<SolvePlan> = (0..10)
            .map(|i| plan(&format!("t{i}"), &handle, ReFloatConfig::new(4, 3, 8, 3, 8)))
            .collect();
        let runtime = SolveRuntime::new(RuntimeConfig {
            workers: 3,
            ..Default::default()
        });
        let outcome = runtime.run_batch(plans);
        let ids: Vec<u64> = outcome.jobs.iter().map(|j| j.job_id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
        for (i, job) in outcome.jobs.iter().enumerate() {
            assert_eq!(job.telemetry.tenant, format!("t{i}"));
            assert!(job.result.converged());
        }
    }

    #[test]
    fn cache_persists_across_batches() {
        let handle = poisson_handle(8, "p8");
        let format = ReFloatConfig::new(4, 3, 8, 3, 8);
        let runtime = SolveRuntime::new(RuntimeConfig {
            workers: 2,
            ..Default::default()
        });

        let first = runtime.run_batch(vec![plan("a", &handle, format)]);
        assert_eq!(first.report.cache.misses, 1);

        // The second client's node took its baseline from the shared cache's history
        // (one miss) when it spawned, so its report is its own traffic only.
        let second = runtime.run_batch(vec![plan("b", &handle, format)]);
        assert_eq!(second.report.cache.misses, 0);
        assert_eq!(second.report.cache.hits, 1);
        assert_eq!(second.jobs[0].telemetry.encode_s, 0.0);
        let history = runtime.cache().stats();
        assert_eq!((history.misses, history.hits), (1, 1));
        let idle = runtime.client().shutdown();
        assert_eq!((idle.cache.misses, idle.cache.hits), (0, 0));
    }

    #[test]
    fn a_structure_hash_collision_encodes_afresh_and_keeps_the_bits() {
        let format = ReFloatConfig::new(3, 3, 8, 3, 8);
        let gen = refloat_matgen::generators::laplacian_2d;
        // Both 64 × 64, of different structures; `collider` claims `donor`'s hash.
        let donor = MatrixHandle::new("8x8", gen(8, 8, 0.3).to_csr());
        let collider = MatrixHandle::new("4x16", gen(4, 16, 0.3).to_csr());
        let cold = SolveRuntime::new(RuntimeConfig::default())
            .run_batch(vec![plan("cold", &collider, format)]);
        let collider = collider.with_structure_hash(donor.structure_hash());
        let runtime = SolveRuntime::new(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let outcome = runtime.run_batch(vec![
            plan("donor", &donor, format),
            plan("collider", &collider, format),
        ]);
        let cached = |handle: &MatrixHandle| {
            let key = CacheKey::whole(handle.fingerprint(), format);
            runtime
                .cache()
                .peek(&key)
                .expect("both encodings are cached")
        };
        assert!(!cached(&collider).shares_layout_with(&cached(&donor)));
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (got, want) = (&outcome.jobs[1].result, &cold.jobs[0].result);
        assert_eq!(bits(&got.x), bits(&want.x));
        assert_eq!(got.iterations, want.iterations);
    }

    #[test]
    fn streaming_submission_observes_backpressure_and_completes() {
        let handle = poisson_handle(6, "p6");
        let format = ReFloatConfig::new(3, 3, 8, 3, 8);
        let runtime = SolveRuntime::new(RuntimeConfig {
            workers: 2,
            queue_capacity: 2,
            cache_capacity: 4,
            ..Default::default()
        });
        let outcome = runtime.run_batch((0..24).map(|i| plan(&format!("t{i}"), &handle, format)));
        assert_eq!(outcome.jobs.len(), 24);
        assert!(outcome.report.throughput_jobs_per_s > 0.0);
        assert!(outcome.report.queue_depth_peak >= 1);
        assert!(outcome.report.queue_depth_peak <= 2);
    }
}
