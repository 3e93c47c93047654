//! The service-mode API: a long-lived [`SolveClient`] whose non-blocking
//! [`submit`](SolveClient::submit) returns a [`SolveTicket`], plus graceful
//! [`drain`](SolveClient::drain)/[`shutdown`](SolveClient::shutdown).
//!
//! A client fronts either a single [`crate::node::Node`] (the worker pool,
//! QoS scheduler, and caches of [`crate::node`]) or a whole
//! [`ClusterRuntime`](crate::cluster::ClusterRuntime) of them — the ticket surface
//! (`wait`/`try_get`/`wait_timeout`/`cancel`) and the lifecycle
//! (`drain`/`shutdown`) are identical either way.  Submission applies
//! backpressure when a single node's pending set is at capacity; a cluster
//! instead *sheds* over-capacity traffic with the typed
//! [`SubmitError::Overloaded`]/[`SubmitError::QuotaExceeded`] (see
//! [`crate::cluster::admission`]).
//!
//! Cancellation is *dequeue-only*: a job that no worker has started is removed
//! from its node's scheduler and its ticket resolves to
//! [`TicketOutcome::Cancelled`] without ever touching a chip (no simulated
//! cycles, no cache traffic); a job already in flight runs to completion and
//! `cancel` reports `false`.  On a cluster the cancel refund crosses the router
//! boundary exactly like the in-node path: the scheduler hands the queued payload
//! back and dropping it releases the tenant's admission permit.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use refloat_telemetry::{sync, MetricsRegistry, MetricsSnapshot, TraceSink};

use crate::cache::{CacheStats, EncodedMatrixCache};
use crate::cluster::admission::AdmissionPermit;
use crate::cluster::ClusterBackend;
use crate::decision::{DecisionStats, FormatDecisionCache};
use crate::health::HealthTracker;
use crate::job::JobOutcome;
use crate::node::{Node, NodeCore};
use crate::plan::SolvePlan;
use crate::telemetry::{metric_names, AggregateContext, RuntimeReport};
use crate::RuntimeConfig;

/// Why a submission was not admitted.  Every variant hands the plan back intact —
/// nothing is ever silently dropped.
#[derive(Debug)]
pub enum SubmitError {
    /// The client is draining or shut down.
    Closed(Box<SolvePlan>),
    /// Cluster admission control shed the job: the cluster-wide in-system bound
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
    /// Cluster admission control shed the job: this tenant's fair-share quota of
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
    /// The tenant's admission permit when the job was routed by a cluster
    /// (`None` on the single-node path).  Dropping the payload — on completion,
    /// cancellation, or a panicked worker — refunds the quota exactly once.
    pub permit: Option<AdmissionPermit>,
    /// First trace `seq` the worker may use for this job (a cluster reserves the
    /// leading slots for its admit/route events; 0 on the single-node path).
    pub trace_seq_base: u32,
}

/// The handle on one queued (or running, or finished) job.
///
/// Obtained from [`SolveClient::submit`].  Dropping a ticket does not cancel the
/// job — it merely discards the outcome.
pub struct SolveTicket {
    id: u64,
    shared: Arc<TicketShared>,
    /// The node the job was placed on — cancel goes straight to its scheduler,
    /// so the refund path is identical for single-node and routed submissions.
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
    /// telemetry row, and (on a cluster) the tenant's admission quota slot is
    /// released.  Returns `false` when a worker already picked the job up (it
    /// will run to completion) or it already resolved.
    pub fn cancel(&self) -> bool {
        match self.node.sched.cancel(self.id) {
            Some(queued) => {
                self.node
                    .metrics
                    .counter(metric_names::JOBS_CANCELLED)
                    .inc();
                queued.ticket.complete(TicketOutcome::Cancelled);
                // Dropping the payload here releases the admission permit of a
                // routed job — the cross-router refund mirrors the in-node one.
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

/// What a client fronts: one node, or a routed cluster of them.
enum Backend {
    Single {
        node: Node,
        cache_baseline: CacheStats,
        decision_baseline: DecisionStats,
    },
    Cluster(ClusterBackend),
}

/// A long-lived handle on a running solve service: one worker pool (plus shared
/// caches and the QoS scheduler in front of it), or a whole routed cluster —
/// same submit/wait/cancel/drain/shutdown surface either way.
///
/// Created by [`SolveRuntime::start`](crate::SolveRuntime::start) (one node),
/// [`SolveRuntime::client`](crate::SolveRuntime::client) (one node, sharing the
/// runtime's caches) or [`ClusterRuntime::start`](crate::cluster::ClusterRuntime::start)
/// (N nodes behind the router).  Dropping the client shuts it down gracefully:
/// admission closes, accepted jobs finish, workers join.
pub struct SolveClient {
    backend: Backend,
    /// Start time in the runtime clock's seconds (for report wall-time deltas).
    started_s: f64,
}

impl SolveClient {
    pub(crate) fn spawn(
        config: &RuntimeConfig,
        cache: Arc<EncodedMatrixCache>,
        decisions: Arc<FormatDecisionCache>,
    ) -> Self {
        let cache_baseline = cache.stats();
        let decision_baseline = decisions.stats();
        let metrics = Arc::new(MetricsRegistry::new());
        metrics
            .gauge(metric_names::WORKERS)
            .set(config.workers as f64);
        metrics.gauge(metric_names::NODES).set(1.0);
        let health = Arc::new(HealthTracker::new());
        let node = Node::spawn(0, 0, config, cache, decisions, metrics, health);
        let started_s = node.core().clock.now_s();
        SolveClient {
            backend: Backend::Single {
                node,
                cache_baseline,
                decision_baseline,
            },
            started_s,
        }
    }

    pub(crate) fn from_cluster(cluster: ClusterBackend) -> Self {
        let started_s = cluster.clock.now_s();
        SolveClient {
            backend: Backend::Cluster(cluster),
            started_s,
        }
    }

    /// Submits a plan without blocking on its execution.  On a single node,
    /// submission blocks only while the pending set is at capacity
    /// (backpressure); a cluster never queues past its admission bound and
    /// instead sheds with [`SubmitError::Overloaded`] /
    /// [`SubmitError::QuotaExceeded`].  Returns the job's ticket, or
    /// [`SubmitError::Closed`] with the plan handed back when the client is
    /// draining or shut down.
    pub fn submit(&self, plan: SolvePlan) -> Result<SolveTicket, SubmitError> {
        match &self.backend {
            Backend::Single { node, .. } => {
                let core = node.core();
                let id = core.next_id.fetch_add(1, Ordering::Relaxed);
                let priority = plan.priority;
                let submitted_at_s = core.clock.now_s();
                let deadline = plan.deadline.map(|d| submitted_at_s + d.as_secs_f64());
                let shared = Arc::new(TicketShared::new());
                let queued = QueuedTicket {
                    plan,
                    submitted_at_s,
                    ticket: Arc::clone(&shared),
                    permit: None,
                    trace_seq_base: 0,
                };
                match core.sched.push(id, priority, deadline, queued) {
                    Ok(()) => Ok(SolveTicket::new(id, shared, Arc::clone(core))),
                    Err(queued) => Err(SubmitError::Closed(Box::new(queued.plan))),
                }
            }
            Backend::Cluster(cluster) => cluster.submit(plan),
        }
    }

    /// Jobs submitted so far (admitted or not — shed and closed submissions
    /// consume an id too).
    pub fn submitted(&self) -> u64 {
        match &self.backend {
            Backend::Single { node, .. } => node.core().next_id.load(Ordering::Relaxed),
            Backend::Cluster(cluster) => cluster.submitted(),
        }
    }

    /// Jobs cancelled before a worker started them.
    pub fn cancelled(&self) -> u64 {
        self.registry().counter(metric_names::JOBS_CANCELLED).get()
    }

    /// The live metrics registry (one per client; a cluster's nodes share it).
    fn registry(&self) -> &MetricsRegistry {
        match &self.backend {
            Backend::Single { node, .. } => &node.core().metrics,
            Backend::Cluster(cluster) => &cluster.metrics,
        }
    }

    /// Nodes serving this client (1 unless it fronts a cluster).
    pub fn nodes(&self) -> usize {
        match &self.backend {
            Backend::Single { .. } => 1,
            Backend::Cluster(cluster) => cluster.nodes.len(),
        }
    }

    /// A point-in-time view of the live metrics registry.
    ///
    /// Unlike [`report`](Self::report) this does not lock the telemetry log —
    /// workers stream completions into the registry with atomic operations, so the
    /// snapshot is cheap and safe to poll **mid-traffic** on an undrained client.
    /// The vocabulary (see [`metric_names`]) is registered at
    /// startup, so every counter is present (zero-valued) from the first call; a
    /// cluster client additionally carries the routing/shedding counters and
    /// per-node completion counters.
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
    /// assert_eq!(snapshot.counter(metric_names::JOBS_CANCELLED), Some(0));
    /// assert!(snapshot.histogram(metric_names::LATENCY_S).unwrap().count >= 1);
    /// client.shutdown();
    /// ```
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        // The queue-depth high-water mark lives in the scheduler(s); refresh the
        // gauge so polls see the current peak (a cluster reports its worst node).
        match &self.backend {
            Backend::Single { node, .. } => {
                let core = node.core();
                core.metrics
                    .gauge(metric_names::QUEUE_DEPTH_PEAK)
                    .set(core.sched.stats().peak_depth as f64);
                core.metrics.snapshot()
            }
            Backend::Cluster(cluster) => {
                let peak = cluster
                    .nodes
                    .iter()
                    .map(|n| n.core().sched.stats().peak_depth)
                    .max()
                    .unwrap_or(0);
                cluster
                    .metrics
                    .gauge(metric_names::QUEUE_DEPTH_PEAK)
                    .set(peak as f64);
                cluster.metrics.snapshot()
            }
        }
    }

    /// The trace sink this client records spans into, when tracing is enabled.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        match &self.backend {
            Backend::Single { node, .. } => node.core().trace.as_ref(),
            Backend::Cluster(cluster) => cluster.trace.as_ref(),
        }
    }

    /// The fleet health ledger (shared across every node on a cluster).  Always
    /// present; without a fault policy it simply stays pristine.
    pub fn health(&self) -> &Arc<HealthTracker> {
        match &self.backend {
            Backend::Single { node, .. } => &node.core().health,
            Backend::Cluster(cluster) => &cluster.health,
        }
    }

    /// Administratively kills one worker's chip (pool-global worker id).
    ///
    /// Idempotent; returns `true` on the first kill.  A killed chip never loses
    /// or corrupts a job: in-flight and queued work re-routes to surviving
    /// workers, or resolves with the typed [`TicketOutcome::Degraded`] when the
    /// whole node is dead (see [`crate::health`]).
    pub fn kill_chip(&self, worker: usize) -> bool {
        let newly = self.health().kill_chip(worker);
        if newly {
            self.registry().counter(metric_names::CHIPS_KILLED).inc();
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
        match &self.backend {
            Backend::Single { node, .. } => {
                node.close();
                node.wait_idle();
            }
            Backend::Cluster(cluster) => {
                // Close every node first so the whole fleet stops admitting at
                // once, then wait for each backlog to empty.
                for node in &cluster.nodes {
                    node.close();
                }
                for node in &cluster.nodes {
                    node.wait_idle();
                }
            }
        }
    }

    /// Drains and joins the worker pool(s), returning the final report.
    pub fn shutdown(mut self) -> RuntimeReport {
        self.drain();
        match &mut self.backend {
            Backend::Single { node, .. } => node.join_workers(),
            Backend::Cluster(cluster) => {
                for node in &mut cluster.nodes {
                    node.join_workers();
                }
            }
        }
        self.report()
    }

    /// A report over everything completed so far (cache/decision counters are
    /// deltas since this client started; a cluster sums them over its nodes).  The
    /// pool shape, the queue-depth peak and every count that leaves no telemetry row
    /// (cancelled, shed, degraded, ...) come from the same live registry
    /// [`metrics_snapshot`](Self::metrics_snapshot) serves.
    pub fn report(&self) -> RuntimeReport {
        let service = self.metrics_snapshot();
        match &self.backend {
            Backend::Single {
                node,
                cache_baseline,
                decision_baseline,
            } => {
                let core = node.core();
                let completed = sync::lock(&core.completed);
                RuntimeReport::aggregate(
                    &completed,
                    AggregateContext {
                        wall_s: (core.clock.now_s() - self.started_s).max(0.0),
                        cache: core.cache.stats().delta_since(cache_baseline),
                        decisions: core.decisions.stats().delta_since(decision_baseline),
                        service,
                    },
                )
            }
            Backend::Cluster(cluster) => cluster.report(self.started_s, service),
        }
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
}
