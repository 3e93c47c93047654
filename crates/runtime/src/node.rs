//! The serving unit every fleet is built from.
//!
//! The QoS scheduler, the worker pool of simulated accelerators, the LRU
//! encoded-matrix cache, the format-decision cache, and the per-pool telemetry log
//! live in one [`Node`].  Every [`SolveClient`](crate::SolveClient) fronts a fleet of
//! one or more of them behind the router of [`crate::cluster`]:
//! [`SolveRuntime::start`](crate::SolveRuntime::start) is the one-node fleet,
//! [`ClusterRuntime::start`](crate::cluster::ClusterRuntime::start) the N-node one.
//!
//! A node's caches are deliberately **not** shared across the fleet: cache
//! affinity only pays off because each node keeps its own working set hot, and the
//! router's fingerprint stickiness is what keeps repeat traffic landing on the node
//! that already holds its encodings.

use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use refloat_telemetry::{Clock, Counter, MetricsRegistry, TraceSink};

use crate::cache::{CacheStats, EncodedMatrixCache, LayoutDonors};
use crate::client::QueuedTicket;
use crate::decision::{DecisionStats, FormatDecisionCache};
use crate::health::{FaultPolicy, HealthTracker};
use crate::sched::JobScheduler;
use crate::telemetry::{metric_names, JobMetricHandles, JobTelemetry};
use crate::worker;
use crate::RuntimeConfig;

/// State shared between a node's handle, its worker threads, and every ticket it
/// issued (tickets keep the core alive so `cancel` works after the handle moves).
pub(crate) struct NodeCore {
    /// This node's index in its fleet.
    pub node_id: usize,
    /// Global id of this node's first worker: worker `w` of node `n` executes as
    /// fleet-wide worker `worker_id_base + w`, so per-worker report attribution
    /// stays collision-free across nodes.
    pub worker_id_base: usize,
    pub sched: JobScheduler<QueuedTicket>,
    pub cache: Arc<EncodedMatrixCache>,
    pub decisions: Arc<FormatDecisionCache>,
    /// The encodings this node's misses made, by structure: a later miss on a matrix
    /// of the same structure and `b` encodes over one's layout instead of blocking.
    pub donors: LayoutDonors,
    /// The caches' counters when this node spawned: all zero for caches created
    /// with the node, the history so far for the caches a
    /// [`SolveRuntime`](crate::SolveRuntime) hands to one client after another.
    /// A report counts this node's cache traffic as the delta since them.
    pub cache_baseline: CacheStats,
    pub decision_baseline: DecisionStats,
    pub chip_crossbars: Option<u64>,
    pub workers: usize,
    /// Lanes per worker ([`lanes_per_worker`]): each worker splits its encodes and CG
    /// solves over this many threads, itself and `lanes − 1` persistent helpers.
    pub lanes: usize,
    /// Telemetry of every completed job, in completion order (the report source).
    pub completed: Mutex<Vec<JobTelemetry>>,
    /// The live metrics registry: workers stream job completions into it, so it is
    /// pollable mid-traffic without draining.  A fleet's nodes all share one
    /// registry (per-node dimensions are separate counter names).
    pub metrics: Arc<MetricsRegistry>,
    /// This node's completion counter (`node<i>_jobs_completed`), pre-fetched so
    /// the per-job hot path stays atomic-increments-only.
    pub node_jobs: Arc<Counter>,
    /// The trace sink, when the runtime was configured with one.
    pub trace: Option<Arc<TraceSink>>,
    /// The fault-injection policy, when the runtime was configured with one.
    pub fault: Option<FaultPolicy>,
    /// The fleet health ledger (shared across every node).
    pub health: Arc<HealthTracker>,
    /// The fleet's one clock: every wall-time telemetry field, submit side and
    /// worker side, is read from it.
    pub clock: Arc<dyn Clock>,
}

/// One serving unit: a worker pool over its own scheduler, caches, and telemetry.
///
/// Constructed by its [`SolveClient`](crate::SolveClient), which wraps one or
/// more.  Dropping a node closes its scheduler and joins its workers.
pub struct Node {
    core: Arc<NodeCore>,
    handles: Vec<JoinHandle<()>>,
}

impl Node {
    /// Spawns the node's worker pool over its encode and format-decision `caches`,
    /// each worker with `lanes` lanes.  `metrics`, `health` and `clock` are the
    /// fleet's (one of each, passed to every node); the caller is responsible for the
    /// pool-level gauges (`workers`, `nodes`) and the lane count since only it knows
    /// the fleet shape.
    pub(crate) fn spawn(
        node_id: usize,
        config: &RuntimeConfig,
        lanes: usize,
        (cache, decisions): (Arc<EncodedMatrixCache>, Arc<FormatDecisionCache>),
        metrics: Arc<MetricsRegistry>,
        health: Arc<HealthTracker>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        assert!(config.workers >= 1, "a node needs at least one worker");
        assert!(
            config.queue_capacity >= 1,
            "queue capacity must be at least 1"
        );
        // Registering up front creates the whole metric table, so a snapshot taken
        // before the first job completes already carries every (zero) metric.
        let _ = JobMetricHandles::register(&metrics);
        let node_jobs = metrics.counter(&metric_names::node_jobs_completed(node_id));
        let core = Arc::new(NodeCore {
            node_id,
            worker_id_base: node_id * config.workers,
            sched: JobScheduler::new(config.queue_capacity, config.scheduler),
            cache_baseline: cache.stats(),
            decision_baseline: decisions.stats(),
            cache,
            decisions,
            donors: LayoutDonors::default(),
            chip_crossbars: config.chip_crossbars,
            workers: config.workers,
            lanes,
            completed: Mutex::new(Vec::new()),
            metrics,
            node_jobs,
            trace: config.trace.clone(),
            fault: config.fault,
            health,
            clock,
        });
        let handles = (0..config.workers)
            .map(|local| {
                let worker_id = core.worker_id_base + local;
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("refloat-worker-{worker_id}"))
                    .spawn(move || worker::worker_loop(worker_id, &core))
                    // refloat-analysis: allow(panic-in-service-path) — thread-spawn
                    // failure at startup is unrecoverable for the pool; nothing is
                    // in flight yet, so failing fast is correct.
                    .expect("spawn worker thread")
            })
            .collect();
        Node { core, handles }
    }

    /// The shared core (scheduler, caches, telemetry).
    pub(crate) fn core(&self) -> &Arc<NodeCore> {
        &self.core
    }

    /// This node's index in its fleet.
    pub fn id(&self) -> usize {
        self.core.node_id
    }

    /// Jobs currently queued on or running inside this node — the load signal the
    /// router balances on.
    pub fn load(&self) -> usize {
        self.core.sched.load()
    }

    /// Stops admission into this node's scheduler (pending jobs still drain).
    pub(crate) fn close(&self) {
        self.core.sched.close();
    }

    /// Blocks until nothing is pending or in flight on this node.
    pub(crate) fn wait_idle(&self) {
        self.core.sched.wait_idle();
    }

    /// Joins the worker threads (call after [`close`](Self::close); idempotent).
    pub(crate) fn join_workers(&mut self) {
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.core.sched.close();
        self.join_workers();
    }
}

/// Lanes per worker for a fleet of `workers` workers on `cores` cores: the cores the
/// fleet leaves spare, shared evenly, and at least one.  A fleet with a worker per core
/// or more runs every SpMV on its worker thread alone.
pub(crate) fn lanes_per_worker(cores: usize, workers: usize) -> usize {
    (cores / workers.max(1)).max(1)
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("node_id", &self.core.node_id)
            .field("workers", &self.core.workers)
            .field("worker_id_base", &self.core.worker_id_base)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::lanes_per_worker;

    #[test]
    fn spare_cores_are_shared_evenly_and_every_worker_keeps_one_lane() {
        // (cores, fleet workers) -> lanes per worker.
        let cases = [
            ((2, 1), 2),
            ((2, 2), 1),
            ((8, 3), 2),
            ((16, 4), 4),
            ((4, 7), 1),
            ((1, 1), 1),
        ];
        for ((cores, workers), lanes) in cases {
            assert_eq!(
                lanes_per_worker(cores, workers),
                lanes,
                "{cores} cores, {workers} workers"
            );
        }
    }
}
