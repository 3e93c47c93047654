//! The multi-node cluster layer: N [`Node`]s behind an affinity-aware
//! [`Router`], fronted by the same [`SolveClient`] surface as a single node.
//!
//! A [`ClusterRuntime::start`] spins up `nodes` identical serving units (each with
//! its **own** encoded-matrix and format-decision caches — affinity routing is what
//! makes private caches pay, see [`router`]) sharing one metrics registry, and
//! returns a [`SolveClient`] whose submissions flow:
//!
//! ```text
//! submit(plan) ──► admission (tenant ledger, typed shed) ──► router (fit /
//! affinity / load) ──► node scheduler (QoS) ──► worker ──► ticket resolves
//! ```
//!
//! Everything downstream of the router is exactly the single-node runtime, so the
//! determinism contract carries over unchanged: numerics are a pure function of the
//! plan, bit-identical whatever node or worker executes it.  Only placement,
//! timing, and telemetry attribution vary with the cluster shape.
//!
//! Cancellation crosses the router boundary transparently: the ticket remembers its
//! node, `cancel` dequeues there, and dropping the queued payload releases the
//! tenant's admission slot — the same single-refund permit path every other job
//! exit uses (see [`admission`]).

pub mod admission;
pub mod router;

pub use admission::{AdmissionConfig, AdmissionPermit, AdmissionReject, TenantLedger};
pub use router::{Placement, RouteKind, Router, RouterPolicy};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use refloat_telemetry::{
    sync, Clock, Counter, MetricsRegistry, MetricsSnapshot, SpanKind, TraceEvent, TraceSink,
    WallClock,
};

use crate::cache::{CacheStats, EncodedMatrixCache};
use crate::client::{QueuedTicket, SolveClient, SolveTicket, SubmitError, TicketShared};
use crate::decision::FormatDecisionCache;
use crate::health::{HealthTracker, NodeHealthSignal};
use crate::node::Node;
use crate::plan::SolvePlan;
use crate::telemetry::{metric_names, AggregateContext, JobTelemetry, RuntimeReport};
use crate::RuntimeConfig;

/// Simulated chips per node when [`ClusterConfig::chips_per_node`] is left empty —
/// matches the deepest sharding the test matrices exercise.
pub const DEFAULT_NODE_CHIPS: usize = 8;

/// Shape and policy of a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node sizing (workers, queue, caches, scheduler, trace) — every node is
    /// built from this one config.
    pub node: RuntimeConfig,
    /// Simulated-chip capacity per node (the router's shard-fit signal).  Empty
    /// means [`DEFAULT_NODE_CHIPS`] everywhere; otherwise must have one entry per
    /// node.
    pub chips_per_node: Vec<usize>,
    /// Admission bounds (default: admit everything).
    pub admission: AdmissionConfig,
    /// Routing policy (default: affinity on, spill margin 8).
    pub router: RouterPolicy,
}

impl ClusterConfig {
    /// A cluster of `nodes` identical nodes with default chips, admission, and
    /// routing.
    pub fn uniform(nodes: usize, node: RuntimeConfig) -> Self {
        ClusterConfig {
            nodes,
            node,
            chips_per_node: Vec::new(),
            admission: AdmissionConfig::default(),
            router: RouterPolicy::default(),
        }
    }
}

/// Factory for a multi-node cluster fronted by a [`SolveClient`].
///
/// ```
/// use refloat_core::ReFloatConfig;
/// use refloat_runtime::cluster::{ClusterConfig, ClusterRuntime};
/// use refloat_runtime::{MatrixHandle, RuntimeConfig, SolvePlan};
///
/// let a = refloat_matgen::generators::laplacian_2d(8, 8, 0.3).to_csr();
/// let handle = MatrixHandle::new("p8", a);
/// let client = ClusterRuntime::start(ClusterConfig::uniform(
///     2,
///     RuntimeConfig { workers: 1, ..Default::default() },
/// ));
/// let ticket = client
///     .submit(SolvePlan::new("t", handle, ReFloatConfig::new(4, 3, 8, 3, 8)).build().unwrap())
///     .unwrap();
/// assert!(ticket.wait().completed().unwrap().result.converged());
/// let report = client.shutdown();
/// assert_eq!(report.nodes, 2);
/// assert_eq!(report.jobs, 1);
/// ```
pub struct ClusterRuntime;

impl ClusterRuntime {
    /// Spawns every node's worker pool and returns the cluster's client.
    pub fn start(config: ClusterConfig) -> SolveClient {
        SolveClient::from_cluster(ClusterBackend::start(config))
    }
}

/// The routed multi-node backend behind a [`SolveClient`].
pub(crate) struct ClusterBackend {
    pub(crate) nodes: Vec<Node>,
    chips_per_node: Vec<usize>,
    router: Router,
    admission: AdmissionConfig,
    ledger: Arc<TenantLedger>,
    /// Cluster-wide id allocator (node-level allocators are bypassed so ids stay
    /// unique and equal to submission order across the whole fleet).
    next_id: AtomicU64,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) trace: Option<Arc<TraceSink>>,
    pub(crate) clock: Arc<dyn Clock>,
    /// One fleet-wide health ledger shared by every node (workers feed it, the
    /// router reads per-node signals out of it, `kill_chip` writes to it).
    pub(crate) health: Arc<HealthTracker>,
    /// Per-node worker count, for slicing the health ledger into node signals.
    workers_per_node: usize,
    jobs_routed: Arc<Counter>,
    affinity_hits: Arc<Counter>,
    spills: Arc<Counter>,
    shed_overload: Arc<Counter>,
    shed_quota: Arc<Counter>,
    route_health_steers: Arc<Counter>,
}

impl ClusterBackend {
    pub(crate) fn start(config: ClusterConfig) -> Self {
        assert!(config.nodes >= 1, "a cluster needs at least one node");
        let chips_per_node = if config.chips_per_node.is_empty() {
            vec![DEFAULT_NODE_CHIPS; config.nodes]
        } else {
            assert_eq!(
                config.chips_per_node.len(),
                config.nodes,
                "chips_per_node must have one entry per node"
            );
            config.chips_per_node.clone()
        };
        let mut node_config = config.node.clone();
        // The router decides placement; a node's queue must never block the
        // router's push (that would re-create the collapse shedding exists to
        // avoid), so when an in-system bound exists the per-node queue is sized to
        // hold every admitted job in the worst all-on-one-node case.
        if let Some(max) = config.admission.max_in_system {
            node_config.queue_capacity = node_config.queue_capacity.max(max);
        }
        let metrics = Arc::new(MetricsRegistry::new());
        // Pre-fetched so the submit path is atomic increments only.  (Registration
        // of the whole vocabulary happens when the nodes spawn.)
        let jobs_routed = metrics.counter(metric_names::JOBS_ROUTED);
        let affinity_hits = metrics.counter(metric_names::ROUTE_AFFINITY_HITS);
        let spills = metrics.counter(metric_names::ROUTE_SPILLS);
        let shed_overload = metrics.counter(metric_names::JOBS_SHED_OVERLOAD);
        let shed_quota = metrics.counter(metric_names::JOBS_SHED_QUOTA);
        let route_health_steers = metrics.counter(metric_names::ROUTE_HEALTH_STEERS);
        metrics
            .gauge(metric_names::WORKERS)
            .set((config.nodes * node_config.workers) as f64);
        metrics.gauge(metric_names::NODES).set(config.nodes as f64);
        let ledger = Arc::new(TenantLedger::new(Some(
            metrics.gauge(metric_names::TENANTS_ACTIVE),
        )));
        let clock: Arc<dyn Clock> = match &node_config.trace {
            Some(sink) => sink.clock(),
            None => Arc::new(WallClock::new()),
        };
        let health = Arc::new(HealthTracker::new());
        let nodes: Vec<Node> = (0..config.nodes)
            .map(|node_id| {
                // Private caches per node: affinity routing keeps repeat traffic on
                // the node whose caches are already warm (see the module docs).
                let cache = Arc::new(EncodedMatrixCache::new(node_config.cache_capacity));
                let decisions = Arc::new(FormatDecisionCache::new(node_config.cache_capacity));
                Node::spawn(
                    node_id,
                    node_id * node_config.workers,
                    &node_config,
                    cache,
                    decisions,
                    Arc::clone(&metrics),
                    Arc::clone(&health),
                )
            })
            .collect();
        ClusterBackend {
            nodes,
            chips_per_node,
            router: Router::new(config.router),
            admission: config.admission,
            ledger,
            next_id: AtomicU64::new(0),
            metrics,
            trace: node_config.trace.clone(),
            clock,
            health,
            workers_per_node: node_config.workers,
            jobs_routed,
            affinity_hits,
            spills,
            shed_overload,
            shed_quota,
            route_health_steers,
        }
    }

    /// Admits, routes, and enqueues one plan (the cluster half of
    /// [`SolveClient::submit`]).
    pub(crate) fn submit(&self, plan: SolvePlan) -> Result<SolveTicket, SubmitError> {
        // The id is allocated before admission so shed submissions still get a real
        // job id in traces, and `submitted()` counts every attempt (admitted or
        // not) exactly like the single-node path documents.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tenant = Arc::clone(&plan.job.tenant);
        let permit = match self.ledger.try_admit(&tenant, &self.admission) {
            Ok(permit) => permit,
            Err(reject) => {
                let (reason, counter) = match reject {
                    AdmissionReject::Overloaded { .. } => ("overloaded", &self.shed_overload),
                    AdmissionReject::QuotaExceeded { .. } => ("quota", &self.shed_quota),
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
                return Err(match reject {
                    AdmissionReject::Overloaded {
                        in_system,
                        capacity,
                    } => SubmitError::Overloaded {
                        plan: Box::new(plan),
                        in_system,
                        capacity,
                    },
                    AdmissionReject::QuotaExceeded { in_system, quota } => {
                        SubmitError::QuotaExceeded {
                            plan: Box::new(plan),
                            in_system,
                            quota,
                        }
                    }
                });
            }
        };
        let loads: Vec<usize> = self.nodes.iter().map(Node::load).collect();
        // Health signals are read strictly *before* the router takes its
        // `placement` lock ("health" precedes "placement" in the declared lock
        // order).
        let signals: Vec<NodeHealthSignal> = (0..self.nodes.len())
            .map(|node_id| {
                self.health
                    .node_signal(node_id * self.workers_per_node, self.workers_per_node)
            })
            .collect();
        let fingerprint = plan.job.matrix.fingerprint();
        let (placement, steered) = self.router.place_with_health(
            fingerprint,
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
        // Seqs 0/1 of a traced cluster job carry the submit-side admit/route
        // instants; the worker's own events start at seq 2 (`trace_seq_base`).
        let trace_seq_base = match &self.trace {
            Some(sink) => {
                sink.record_batch(vec![
                    TraceEvent {
                        job_id: id,
                        seq: 0,
                        worker: None,
                        kind: SpanKind::Admit,
                        start_s: submitted_at_s,
                        end_s: submitted_at_s,
                        detail: format!("tenant={tenant} in_system={}", self.ledger.in_system()),
                    },
                    TraceEvent {
                        job_id: id,
                        seq: 1,
                        worker: None,
                        kind: SpanKind::Route,
                        start_s: submitted_at_s,
                        end_s: submitted_at_s,
                        detail: format!("node={} key={}", placement.node, placement.kind.label()),
                    },
                ]);
                2
            }
            None => 0,
        };
        let priority = plan.priority;
        let deadline = plan.deadline.map(|d| submitted_at_s + d.as_secs_f64());
        let shared = Arc::new(TicketShared::new());
        let queued = QueuedTicket {
            plan,
            submitted_at_s,
            ticket: Arc::clone(&shared),
            permit: Some(permit),
            trace_seq_base,
        };
        match core.sched.push(id, priority, deadline, queued) {
            Ok(()) => Ok(SolveTicket::new(id, shared, Arc::clone(core))),
            Err(queued) => Err(SubmitError::Closed(Box::new(queued.plan))),
        }
    }

    pub(crate) fn submitted(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// The cluster half of [`SolveClient::report`]: every node's completions,
    /// merged by job id, with cache/decision counters summed over the fleet (node
    /// caches are created with their node, so their raw stats *are* the deltas).
    /// `service` is the fleet's live snapshot (nodes share one registry).
    pub(crate) fn report(&self, started_s: f64, service: MetricsSnapshot) -> RuntimeReport {
        let mut completed: Vec<JobTelemetry> = Vec::new();
        let mut cache = CacheStats::default();
        let mut decisions = CacheStats::default();
        for node in &self.nodes {
            let core = node.core();
            completed.extend(sync::lock(&core.completed).iter().cloned());
            cache.merge(&core.cache.stats());
            decisions.merge(&core.decisions.stats());
        }
        completed.sort_by_key(|t| t.job_id);
        RuntimeReport::aggregate(
            &completed,
            AggregateContext {
                wall_s: (self.clock.now_s() - started_s).max(0.0),
                cache,
                decisions,
                service,
            },
        )
    }
}
