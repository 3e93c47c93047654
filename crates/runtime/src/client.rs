//! The service-mode API: a long-lived [`SolveClient`] whose non-blocking
//! [`submit`](SolveClient::submit) returns a [`SolveTicket`], plus graceful
//! [`drain`](SolveClient::drain)/[`shutdown`](SolveClient::shutdown).
//!
//! Every client fronts a fleet of [`crate::node::Node`]s — one for
//! [`SolveRuntime::start`](crate::SolveRuntime::start), N for
//! [`ClusterRuntime::start`](crate::cluster::ClusterRuntime::start) — and every
//! submission takes the same path through it: id, admission, router, the chosen
//! node's scheduler (see [`SolveClient::submit`]).  Without admission bounds (the
//! default) a submission blocks while that node's pending set is at capacity
//! (backpressure); with them, over-capacity traffic is *shed* with the typed
//! [`SubmitError::Overloaded`]/[`SubmitError::QuotaExceeded`] (see
//! [`crate::cluster::admission`]).
//!
//! Cancellation is *dequeue-only*: a job that no worker has started is removed
//! from its node's scheduler and its ticket resolves to
//! [`TicketOutcome::Cancelled`] without ever touching a chip (no simulated
//! cycles, no cache traffic); a job already in flight runs to completion and
//! `cancel` reports `false`.  The ticket remembers its node, so the refund is one
//! path: the scheduler hands the queued payload back and dropping it releases the
//! tenant's admission permit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use refloat_telemetry::{
    sync, Clock, Counter, MetricsRegistry, MetricsSnapshot, SpanKind, TraceEvent, TraceSink,
    WallClock,
};

use crate::cache::{CacheStats, EncodedMatrixCache};
use crate::cluster::admission::{AdmissionPermit, AdmissionReject, TenantLedger};
use crate::cluster::router::{RouteKind, Router};
use crate::cluster::{AdmissionConfig, ClusterConfig, DEFAULT_NODE_CHIPS};
use crate::decision::{DecisionStats, FormatDecisionCache};
use crate::health::{HealthTracker, NodeHealthSignal};
use crate::job::JobOutcome;
use crate::node::{lanes_per_worker, Node, NodeCore};
use crate::plan::SolvePlan;
use crate::telemetry::{metric_names, AggregateContext, JobTelemetry, RuntimeReport};

/// Why a submission was not admitted.  Every variant hands the plan back intact —
/// nothing is ever silently dropped.
#[derive(Debug)]
pub enum SubmitError {
    /// The client is draining or shut down.
    Closed(Box<SolvePlan>),
    /// Admission control shed the job: the fleet-wide in-system bound
    /// was already full.  Shedding is deliberate — a typed rejection the caller
    /// can retry against, instead of an unbounded queue collapsing every
    /// tenant's latency at once.
    Overloaded {
        /// The rejected plan, handed back intact.
        plan: Box<SolvePlan>,
        /// Jobs admitted and unfinished when the submission arrived.
        in_system: usize,
        /// The configured cluster-wide bound.
        capacity: usize,
    },
    /// Admission control shed the job: this tenant's fair-share quota of
    /// in-system jobs was already full (other tenants are unaffected).
    QuotaExceeded {
        /// The rejected plan, handed back intact.
        plan: Box<SolvePlan>,
        /// This tenant's admitted-and-unfinished jobs at submission time.
        in_system: usize,
        /// The configured per-tenant bound.
        quota: usize,
    },
}

impl SubmitError {
    /// Recovers the rejected plan (every variant carries it back).
    pub fn into_plan(self) -> SolvePlan {
        match self {
            SubmitError::Closed(plan)
            | SubmitError::Overloaded { plan, .. }
            | SubmitError::QuotaExceeded { plan, .. } => *plan,
        }
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed(plan) => write!(
                f,
                "solve client is closed; plan from tenant {:?} was not admitted",
                plan.tenant()
            ),
            SubmitError::Overloaded {
                plan,
                in_system,
                capacity,
            } => write!(
                f,
                "cluster overloaded ({in_system}/{capacity} jobs in system); plan from \
                 tenant {:?} was shed",
                plan.tenant()
            ),
            SubmitError::QuotaExceeded {
                plan,
                in_system,
                quota,
            } => write!(
                f,
                "tenant {:?} is over its fair-share quota ({in_system}/{quota} jobs in \
                 system); plan was shed",
                plan.tenant()
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a job resolved as [`TicketOutcome::Degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedReason {
    /// The worker's chip was killed and no live worker remained on the node to
    /// re-route to.
    ChipKilled,
    /// ABFT kept detecting corruption after exhausting the re-encode retry
    /// budget; the attached outcome is the best-effort solve on the faulty chip.
    AbftUnresolved,
}

/// A job that could not complete cleanly but was never lost: the typed payload
/// of [`TicketOutcome::Degraded`].
#[derive(Debug)]
pub struct DegradedJob {
    /// The job's submission id.
    pub job_id: u64,
    /// The submitting tenant.
    pub tenant: String,
    /// Why the job degraded.
    pub reason: DegradedReason,
    /// Best-effort outcome when the job still ran (always present for
    /// [`DegradedReason::AbftUnresolved`]; `None` when the chip died before the
    /// solve could run anywhere).
    pub outcome: Option<JobOutcome>,
}

/// How a ticket resolved.
#[derive(Debug)]
pub enum TicketOutcome {
    /// The job ran; the full per-job outcome (solution, telemetry).
    Completed(Box<JobOutcome>),
    /// The job was cancelled before any worker started it.  It never touched a
    /// chip: no simulated cycles, no cache traffic, no telemetry row.
    Cancelled,
    /// The job panicked inside the worker.  The panic is contained so the service
    /// stays alive (the worker keeps serving, drain/shutdown still complete);
    /// failed jobs carry no telemetry row but count in `jobs_failed` /
    /// [`RuntimeReport::failed_jobs`].  The payload is the panic message.
    Failed(String),
    /// The job could not complete cleanly under the fault policy — its chip was
    /// killed with nowhere to re-route, or ABFT detections survived every
    /// re-encode retry.  The payload says which and carries any best-effort
    /// result.  A degraded solve that ran leaves a telemetry row marked
    /// [`JobOutcomeKind::Degraded`](crate::JobOutcomeKind); a job stranded on a
    /// dead chip never ran and leaves none.
    Degraded(Box<DegradedJob>),
}

impl TicketOutcome {
    /// The job outcome, if the job ran to completion.
    pub fn completed(self) -> Option<JobOutcome> {
        match self {
            TicketOutcome::Completed(outcome) => Some(*outcome),
            TicketOutcome::Cancelled | TicketOutcome::Failed(_) | TicketOutcome::Degraded(_) => {
                None
            }
        }
    }

    /// Whether the job was cancelled before starting.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, TicketOutcome::Cancelled)
    }

    /// Whether the job resolved as degraded under the fault policy.
    pub fn is_degraded(&self) -> bool {
        matches!(self, TicketOutcome::Degraded(_))
    }
}

enum TicketSlot {
    Pending,
    Ready(TicketOutcome),
}

/// The completion cell a ticket and its worker share.
pub(crate) struct TicketShared {
    slot: Mutex<TicketSlot>,
    ready: Condvar,
}

impl TicketShared {
    pub(crate) fn new() -> Self {
        TicketShared {
            slot: Mutex::new(TicketSlot::Pending),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn complete(&self, outcome: TicketOutcome) {
        let mut slot = sync::lock(&self.slot);
        debug_assert!(
            matches!(*slot, TicketSlot::Pending),
            "a ticket resolves exactly once"
        );
        *slot = TicketSlot::Ready(outcome);
        drop(slot);
        self.ready.notify_all();
    }

    fn take_ready(slot: &mut TicketSlot) -> Option<TicketOutcome> {
        match std::mem::replace(slot, TicketSlot::Pending) {
            TicketSlot::Ready(outcome) => Some(outcome),
            TicketSlot::Pending => None,
        }
    }
}

/// A submitted job's payload while it waits in a node's scheduler.
pub(crate) struct QueuedTicket {
    pub plan: SolvePlan,
    /// Submission time in the runtime clock's seconds (see `telemetry::clock`).
    pub submitted_at_s: f64,
    pub ticket: Arc<TicketShared>,
    /// The tenant's admission permit.  Dropping the payload — on completion,
    /// cancellation, or a panicked worker — refunds the quota exactly once.
    pub permit: AdmissionPermit,
    /// First trace `seq` the next worker may use for this job: past the submit
    /// side's admit/route events, and past one reroute event per killed chip
    /// that handed the job on.
    pub trace_seq_base: u32,
}

/// The handle on one queued (or running, or finished) job.
///
/// Obtained from [`SolveClient::submit`].  Dropping a ticket does not cancel the
/// job — it merely discards the outcome.
pub struct SolveTicket {
    id: u64,
    shared: Arc<TicketShared>,
    /// The node the job was placed on — cancel goes straight to its scheduler.
    node: Arc<NodeCore>,
}

impl SolveTicket {
    pub(crate) fn new(id: u64, shared: Arc<TicketShared>, node: Arc<NodeCore>) -> Self {
        SolveTicket { id, shared, node }
    }

    /// The job's submission id (its position in submission order; equal-priority
    /// traffic is also dequeued in this order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the job completes (or resolves as cancelled).
    pub fn wait(self) -> TicketOutcome {
        let mut slot = sync::lock(&self.shared.slot);
        loop {
            if let Some(outcome) = TicketShared::take_ready(&mut slot) {
                return outcome;
            }
            slot = sync::wait(&self.shared.ready, slot);
        }
    }

    /// Returns the outcome if the job already resolved, or hands the ticket back.
    pub fn try_get(self) -> Result<TicketOutcome, SolveTicket> {
        let taken = {
            let mut slot = sync::lock(&self.shared.slot);
            TicketShared::take_ready(&mut slot)
        };
        taken.ok_or(self)
    }

    /// Blocks up to `timeout` for the outcome, or hands the ticket back.
    pub fn wait_timeout(self, timeout: Duration) -> Result<TicketOutcome, SolveTicket> {
        // A blocking timeout is a host-side liveness bound, not telemetry: it must
        // track real time even under a ManualClock (which would never advance here).
        // refloat-analysis: allow(wall-clock-in-deterministic-path)
        let deadline = Instant::now() + timeout;
        let taken = {
            let mut slot = sync::lock(&self.shared.slot);
            loop {
                if let Some(outcome) = TicketShared::take_ready(&mut slot) {
                    break Some(outcome);
                }
                // refloat-analysis: allow(wall-clock-in-deterministic-path)
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break None;
                }
                let (guard, _timed_out) = sync::wait_timeout(&self.shared.ready, slot, remaining);
                slot = guard;
            }
        };
        taken.ok_or(self)
    }

    /// Attempts to dequeue the job before any worker starts it.
    ///
    /// Returns `true` when the job was still pending: it is removed from its
    /// node's scheduler, the ticket resolves to [`TicketOutcome::Cancelled`], and
    /// the job is refunded entirely — no simulated cycles, no cache traffic, no
    /// telemetry row, and the tenant's admission quota slot is released.
    /// Returns `false` when a worker already picked the job up (it
    /// will run to completion) or it already resolved.
    pub fn cancel(&self) -> bool {
        match self.node.sched.cancel(self.id) {
            Some(queued) => {
                self.node
                    .metrics
                    .counter(metric_names::JOBS_CANCELLED)
                    .inc();
                queued.ticket.complete(TicketOutcome::Cancelled);
                // Dropping the payload releases the tenant's admission permit.
                drop(queued);
                true
            }
            None => false,
        }
    }
}

impl std::fmt::Debug for SolveTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveTicket").field("id", &self.id).finish()
    }
}

/// Leading trace slots of every job, taken by the submit-side [`SpanKind::Admit`]
/// and [`SpanKind::Route`] instants; the worker's own events start after them.
const SUBMIT_SPANS: u32 = 2;

/// A long-lived handle on a running solve service: a fleet of one or more
/// [`Node`]s (each a worker pool with its QoS scheduler and caches) behind one
/// admission ledger and one router.
///
/// Created by [`SolveRuntime::start`](crate::SolveRuntime::start) (one node),
/// [`SolveRuntime::client`](crate::SolveRuntime::client) (one node, sharing the
/// runtime's caches) or [`ClusterRuntime::start`](crate::cluster::ClusterRuntime::start)
/// (N nodes) — one node is the N = 1 fleet, not a second kind of client.  Dropping
/// the client shuts it down gracefully: admission closes, accepted jobs finish,
/// workers join.
pub struct SolveClient {
    nodes: Vec<Node>,
    chips_per_node: Vec<usize>,
    router: Router,
    admission: AdmissionConfig,
    ledger: Arc<TenantLedger>,
    /// The fleet's one id allocator: ids are unique and equal to submission order
    /// across every node.
    next_id: AtomicU64,
    /// The fleet's one metrics registry (per-node dimensions are separate names).
    metrics: Arc<MetricsRegistry>,
    trace: Option<Arc<TraceSink>>,
    clock: Arc<dyn Clock>,
    /// One fleet-wide health ledger (workers feed it, the router reads per-node
    /// signals out of it, `kill_chip` writes to it).
    health: Arc<HealthTracker>,
    // Pre-fetched so the submit path is atomic increments only.
    jobs_routed: Arc<Counter>,
    affinity_hits: Arc<Counter>,
    spills: Arc<Counter>,
    shed_overload: Arc<Counter>,
    shed_quota: Arc<Counter>,
    route_health_steers: Arc<Counter>,
    /// Start time in the fleet clock's seconds (for report wall-time deltas).
    started_s: f64,
}

impl SolveClient {
    /// Spawns every node's worker pool.  `shared_caches` go to node 0 (a
    /// [`SolveRuntime`](crate::SolveRuntime) keeps its one node's caches alive
    /// across clients); every other node creates its own — affinity routing keeps
    /// repeat traffic on the node whose caches are already warm.  Every worker gets
    /// the lanes [`lanes_per_worker`] gives the machine's cores and the fleet's
    /// workers.
    pub(crate) fn start(
        config: ClusterConfig,
        mut shared_caches: Option<(Arc<EncodedMatrixCache>, Arc<FormatDecisionCache>)>,
    ) -> Self {
        assert!(config.nodes >= 1, "a cluster needs at least one node");
        let chips_per_node = if config.chips_per_node.is_empty() {
            vec![DEFAULT_NODE_CHIPS; config.nodes]
        } else {
            assert_eq!(
                config.chips_per_node.len(),
                config.nodes,
                "chips_per_node must have one entry per node"
            );
            config.chips_per_node
        };
        let mut node_config = config.node;
        // The router decides placement; a node's queue must never block the
        // router's push (that would re-create the collapse shedding exists to
        // avoid), so when an in-system bound exists the per-node queue is sized to
        // hold every admitted job in the worst all-on-one-node case.  Without one,
        // a full queue blocks the submitter: backpressure.
        if let Some(max) = config.admission.max_in_system {
            node_config.queue_capacity = node_config.queue_capacity.max(max);
        }
        let metrics = Arc::new(MetricsRegistry::new());
        metrics
            .gauge(metric_names::WORKERS)
            .set((config.nodes * node_config.workers) as f64);
        metrics.gauge(metric_names::NODES).set(config.nodes as f64);
        let ledger = Arc::new(TenantLedger::new(Some(
            metrics.gauge(metric_names::TENANTS_ACTIVE),
        )));
        // Sourced from the trace sink when tracing is configured, so a
        // `ManualClock` sink pins *all* host-time fields, not just trace timestamps.
        let clock: Arc<dyn Clock> = match &node_config.trace {
            Some(sink) => sink.clock(),
            None => Arc::new(WallClock::new()),
        };
        let health = Arc::new(HealthTracker::new());
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let lanes = lanes_per_worker(cores, config.nodes * node_config.workers);
        let nodes: Vec<Node> = (0..config.nodes)
            .map(|node_id| {
                let caches = shared_caches.take().unwrap_or_else(|| {
                    (
                        Arc::new(EncodedMatrixCache::new(node_config.cache_capacity)),
                        Arc::new(FormatDecisionCache::new(node_config.cache_capacity)),
                    )
                });
                Node::spawn(
                    node_id,
                    &node_config,
                    lanes,
                    caches,
                    Arc::clone(&metrics),
                    Arc::clone(&health),
                    Arc::clone(&clock),
                )
            })
            .collect();
        SolveClient {
            nodes,
            chips_per_node,
            router: Router::new(config.router),
            admission: config.admission,
            ledger,
            next_id: AtomicU64::new(0),
            jobs_routed: metrics.counter(metric_names::JOBS_ROUTED),
            affinity_hits: metrics.counter(metric_names::ROUTE_AFFINITY_HITS),
            spills: metrics.counter(metric_names::ROUTE_SPILLS),
            shed_overload: metrics.counter(metric_names::JOBS_SHED_OVERLOAD),
            shed_quota: metrics.counter(metric_names::JOBS_SHED_QUOTA),
            route_health_steers: metrics.counter(metric_names::ROUTE_HEALTH_STEERS),
            metrics,
            trace: node_config.trace,
            started_s: clock.now_s(),
            clock,
            health,
        }
    }

    /// Admits, routes, and enqueues one plan without blocking on its execution —
    /// the one path every submission takes, whatever the fleet size:
    ///
    /// ```text
    /// id ──► admission (tenant ledger, typed shed) ──► router (fit / health /
    /// affinity / load) ──► node scheduler (QoS) ──► worker ──► ticket resolves
    /// ```
    ///
    /// Past a configured admission bound the submission is *shed* with
    /// [`SubmitError::Overloaded`] / [`SubmitError::QuotaExceeded`]; without one
    /// (the default) it blocks only while the chosen node's pending set is at
    /// capacity (backpressure).  Returns the job's ticket, or
    /// [`SubmitError::Closed`] when the client is draining or shut down.  Every
    /// error hands the plan back.
    pub fn submit(&self, plan: SolvePlan) -> Result<SolveTicket, SubmitError> {
        // The id is allocated before admission so shed submissions still get a real
        // job id in traces, and `submitted()` counts every attempt.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = Arc::clone(&plan.job.tenant);
        let permit = match self.ledger.try_admit(&tenant, &self.admission) {
            Ok(permit) => permit,
            Err(reject) => {
                let plan = Box::new(plan);
                let (reason, counter, error) = match reject {
                    AdmissionReject::Overloaded {
                        in_system,
                        capacity,
                    } => (
                        "overloaded",
                        &self.shed_overload,
                        SubmitError::Overloaded {
                            plan,
                            in_system,
                            capacity,
                        },
                    ),
                    AdmissionReject::QuotaExceeded { in_system, quota } => (
                        "quota",
                        &self.shed_quota,
                        SubmitError::QuotaExceeded {
                            plan,
                            in_system,
                            quota,
                        },
                    ),
                };
                counter.inc();
                if let Some(sink) = &self.trace {
                    let now = sink.now_s();
                    sink.record(TraceEvent {
                        job_id: id,
                        seq: 0,
                        worker: None,
                        kind: SpanKind::Shed,
                        start_s: now,
                        end_s: now,
                        detail: format!("reason={reason} tenant={tenant}"),
                    });
                }
                return Err(error);
            }
        };
        let loads: Vec<usize> = self.nodes.iter().map(Node::load).collect();
        // Health signals are read strictly *before* the router takes its
        // `placement` lock ("health" precedes "placement" in the declared lock
        // order).
        let signals: Vec<NodeHealthSignal> = self
            .nodes
            .iter()
            .map(|node| {
                let core = node.core();
                self.health.node_signal(core.worker_id_base, core.workers)
            })
            .collect();
        let (placement, steered) = self.router.place_with_health(
            plan.job.matrix.fingerprint(),
            plan.shards(),
            &loads,
            &self.chips_per_node,
            &signals,
        );
        self.jobs_routed.inc();
        if steered {
            self.route_health_steers.inc();
        }
        match placement.kind {
            RouteKind::Affinity => self.affinity_hits.inc(),
            RouteKind::Spill => self.spills.inc(),
            RouteKind::LeastLoaded | RouteKind::Overflow => {}
        }
        let core = self.nodes[placement.node].core();
        let submitted_at_s = self.clock.now_s();
        if let Some(sink) = &self.trace {
            let instant = |seq, kind, detail| TraceEvent {
                job_id: id,
                seq,
                worker: None,
                kind,
                start_s: submitted_at_s,
                end_s: submitted_at_s,
                detail,
            };
            sink.record_batch(vec![
                instant(0, SpanKind::Admit, format!("tenant={tenant}")),
                instant(
                    1,
                    SpanKind::Route,
                    format!("node={} key={}", placement.node, placement.kind.label()),
                ),
            ]);
        }
        let priority = plan.priority;
        let deadline = plan.deadline.map(|d| submitted_at_s + d.as_secs_f64());
        let shared = Arc::new(TicketShared::new());
        let queued = QueuedTicket {
            plan,
            submitted_at_s,
            ticket: Arc::clone(&shared),
            permit,
            trace_seq_base: SUBMIT_SPANS,
        };
        match core.sched.push(id, priority, deadline, queued) {
            Ok(()) => Ok(SolveTicket::new(id, shared, Arc::clone(core))),
            Err(queued) => Err(SubmitError::Closed(Box::new(queued.plan))),
        }
    }

    /// Jobs submitted so far (admitted or not — shed and closed submissions
    /// consume an id too).
    pub fn submitted(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Jobs cancelled before a worker started them.
    pub fn cancelled(&self) -> u64 {
        self.metrics.counter(metric_names::JOBS_CANCELLED).get()
    }

    /// Nodes serving this client.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// A point-in-time view of the live metrics registry.
    ///
    /// Unlike [`report`](Self::report) this does not lock the telemetry log —
    /// workers stream completions into the registry with atomic operations, so the
    /// snapshot is cheap and safe to poll **mid-traffic** on an undrained client.
    /// The vocabulary (see [`metric_names`]) is registered at startup, so every
    /// counter — the routing/shedding counters and the per-node completion counters
    /// included — is present (zero-valued) from the first call.
    ///
    /// ```
    /// use refloat_runtime::{metric_names, RuntimeConfig, SolvePlan, SolveRuntime};
    ///
    /// let a = refloat_matgen::generators::laplacian_2d(8, 8, 0.3).to_csr();
    /// let handle = refloat_runtime::MatrixHandle::new("m", a);
    /// let format = refloat_core::ReFloatConfig::new(4, 3, 8, 3, 8);
    /// let client = SolveRuntime::start(RuntimeConfig { workers: 1, ..Default::default() });
    ///
    /// let ticket = client
    ///     .submit(SolvePlan::new("tenant", handle, format).build().unwrap())
    ///     .unwrap();
    /// assert!(ticket.wait().completed().is_some());
    ///
    /// // The client is still live (no drain/shutdown) and already serves counters.
    /// let snapshot = client.metrics_snapshot();
    /// assert_eq!(snapshot.counter(metric_names::JOBS_COMPLETED), Some(1));
    /// assert_eq!(snapshot.counter(metric_names::JOBS_ROUTED), Some(1));
    /// assert_eq!(snapshot.counter(metric_names::JOBS_CANCELLED), Some(0));
    /// assert!(snapshot.histogram(metric_names::LATENCY_S).unwrap().count >= 1);
    /// client.shutdown();
    /// ```
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        // The queue-depth high-water mark lives in the schedulers; refresh the
        // gauge so polls see the current peak (the fleet reports its worst node).
        let peak = self
            .nodes
            .iter()
            .map(|n| n.core().sched.stats().peak_depth)
            .max()
            .unwrap_or(0);
        self.metrics
            .gauge(metric_names::QUEUE_DEPTH_PEAK)
            .set(peak as f64);
        self.metrics.snapshot()
    }

    /// The trace sink this client records spans into, when tracing is enabled.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// The fleet health ledger (shared by every node).  Always present; without a
    /// fault policy it simply stays pristine.
    pub fn health(&self) -> &Arc<HealthTracker> {
        &self.health
    }

    /// Administratively kills one worker's chip (pool-global worker id).
    ///
    /// Idempotent; returns `true` on the first kill.  A killed chip never loses
    /// or corrupts a job: in-flight and queued work re-routes to surviving
    /// workers, or resolves with the typed [`TicketOutcome::Degraded`] when the
    /// whole node is dead (see [`crate::health`]).
    pub fn kill_chip(&self, worker: usize) -> bool {
        let newly = self.health.kill_chip(worker);
        if newly {
            self.metrics.counter(metric_names::CHIPS_KILLED).inc();
        }
        newly
    }

    /// Stops admission and blocks until every accepted job has resolved its
    /// ticket.
    ///
    /// Draining is terminal: once the backlog empties each worker exits its loop,
    /// so the client can afterwards only hand out tickets/reports — further
    /// submissions fail with [`SubmitError::Closed`], and the only remaining
    /// lifecycle step is [`shutdown`](Self::shutdown) (or `Drop`), which joins the
    /// worker threads.
    pub fn drain(&self) {
        // Close every node first so the whole fleet stops admitting at once, then
        // wait for each backlog to empty.
        for node in &self.nodes {
            node.close();
        }
        for node in &self.nodes {
            node.wait_idle();
        }
    }

    /// Drains and joins the worker pools, returning the final report.
    pub fn shutdown(mut self) -> RuntimeReport {
        self.drain();
        for node in &mut self.nodes {
            node.join_workers();
        }
        self.report()
    }

    /// A report over everything completed so far: every node's completions merged
    /// by job id, with cache/decision counters summed over the fleet as deltas since
    /// each node spawned.  The pool shape, the queue-depth peak and every count that
    /// leaves no telemetry row (cancelled, shed, degraded, ...) come from the same
    /// live registry [`metrics_snapshot`](Self::metrics_snapshot) serves.
    pub fn report(&self) -> RuntimeReport {
        let service = self.metrics_snapshot();
        let mut completed: Vec<JobTelemetry> = Vec::new();
        let mut cache = CacheStats::default();
        let mut decisions = DecisionStats::default();
        for node in &self.nodes {
            let core = node.core();
            completed.extend(sync::lock(&core.completed).iter().cloned());
            cache.merge(&core.cache.stats().delta_since(&core.cache_baseline));
            decisions.merge(&core.decisions.stats().delta_since(&core.decision_baseline));
        }
        completed.sort_by_key(|t| t.job_id);
        RuntimeReport::aggregate(
            &completed,
            AggregateContext {
                wall_s: (self.clock.now_s() - self.started_s).max(0.0),
                cache,
                decisions,
                service,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SolvePlan;
    use crate::MatrixHandle;
    use refloat_core::ReFloatConfig;

    #[test]
    fn a_panicking_job_fails_its_ticket_without_hanging_the_service() {
        // Regression: a panic inside a worker used to skip both finish_one and the
        // ticket resolution, deadlocking drain/shutdown and the waiter forever.
        // Force a panic the validator cannot catch by corrupting an already-built
        // plan in-crate (a wrong-length RHS trips the solver's dimension assert).
        let a = refloat_matgen::generators::laplacian_2d(8, 8, 0.3).to_csr();
        let handle = MatrixHandle::new("p8", a);
        let format = ReFloatConfig::new(4, 3, 8, 3, 8);
        let mut poisoned = SolvePlan::new("poisoned", handle.clone(), format)
            .build()
            .unwrap();
        poisoned.job.rhs = Some(std::sync::Arc::new(vec![1.0; 3]));

        let client = crate::SolveRuntime::start(crate::RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let failed =
            |client: &SolveClient| client.metrics_snapshot().counter(metric_names::JOBS_FAILED);
        assert_eq!(failed(&client), Some(0), "registered at spawn");
        let bad = client.submit(poisoned).unwrap();
        match bad.wait() {
            TicketOutcome::Failed(message) => {
                assert!(
                    message.contains("must match rhs length"),
                    "unexpected message {message:?}"
                )
            }
            other => panic!("poisoned job must fail its ticket, got {other:?}"),
        }
        // The failure is visible live, on the undrained client ...
        assert_eq!(failed(&client), Some(1));
        // ... and the worker survived the panic and keeps serving.
        let good = client
            .submit(SolvePlan::new("good", handle, format).build().unwrap())
            .unwrap();
        assert!(good.wait().completed().expect("runs").result.converged());
        // drain/shutdown complete instead of hanging on the lost in-flight count.
        let report = client.shutdown();
        assert_eq!(report.jobs, 1, "failed jobs carry no telemetry row");
        assert_eq!(report.converged, 1);
        assert_eq!(report.failed_jobs, 1);
        assert!(report.render().contains("0 chips killed, 1 failed"));
    }

    #[test]
    fn every_refusal_hands_the_plan_back_intact() {
        let a = refloat_matgen::generators::laplacian_2d(8, 8, 0.3).to_csr();
        let handle = MatrixHandle::new("p8", a);
        let format = ReFloatConfig::new(4, 3, 8, 3, 8);
        let rhs = std::sync::Arc::new(vec![2.0; 64]);
        let plan = SolvePlan::new("tenant-7", handle.clone(), format)
            .rhs(rhs.clone())
            .sharding(2)
            .priority(crate::Priority::Interactive)
            .deadline(std::time::Duration::from_millis(40))
            .build()
            .unwrap();
        let refusals = [
            SubmitError::Closed(Box::new(plan.clone())),
            SubmitError::Overloaded {
                plan: Box::new(plan.clone()),
                in_system: 9,
                capacity: 8,
            },
            SubmitError::QuotaExceeded {
                plan: Box::new(plan.clone()),
                in_system: 3,
                quota: 3,
            },
        ];
        for refusal in refusals {
            let label = format!("{refusal:?}");
            let back = refusal.into_plan();
            assert_eq!(back.tenant(), "tenant-7", "{label}");
            assert_eq!(back.matrix().fingerprint(), handle.fingerprint(), "{label}");
            assert_eq!(back.format(), format, "{label}");
            assert!(std::sync::Arc::ptr_eq(back.rhs().unwrap(), &rhs), "{label}");
            assert_eq!(back.shards(), 2, "{label}");
            assert_eq!(back.priority(), crate::Priority::Interactive, "{label}");
            assert_eq!(back.deadline(), plan.deadline(), "{label}");
        }
    }
}
