//! The fleet layer: the shape of a cluster ([`ClusterConfig`]) and the two policies
//! every [`SolveClient`] runs its submissions through — [`admission`] (tenant
//! ledger, typed shedding) and the affinity-aware [`router`].
//!
//! [`ClusterRuntime::start`] spins up `nodes` identical
//! [`Node`](crate::node::Node)s (each with its **own** encoded-matrix and
//! format-decision caches — affinity routing is what makes private caches pay, see
//! [`router`]) sharing one metrics registry, one health ledger and one clock, and
//! returns the [`SolveClient`] fronting them.  A single-node service is the
//! `nodes = 1` instance of the same thing, not a second code path:
//! [`SolveRuntime::start(cfg)`](crate::SolveRuntime::start) *is*
//! `ClusterRuntime::start(ClusterConfig::uniform(1, cfg))`, and every submission,
//! whatever the fleet size, takes the one path documented on
//! [`SolveClient::submit`].
//!
//! Numerics are a pure function of the plan, bit-identical whatever node or worker
//! executes it.  Only placement, timing, and telemetry attribution vary with the
//! cluster shape.

pub mod admission;
pub mod router;

pub use admission::{AdmissionConfig, AdmissionPermit, AdmissionReject, TenantLedger};
pub use router::{Placement, RouteKind, Router, RouterPolicy};

use crate::client::SolveClient;
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

/// Factory for a fleet of N nodes fronted by a [`SolveClient`].
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
        SolveClient::start(config, None)
    }
}
