//! Fault policy and fleet health tracking: the runtime half of the device fault
//! model in `reram_sim::fault`.
//!
//! A [`FaultPolicy`] on [`RuntimeConfig`](crate::RuntimeConfig) turns fault
//! injection on for every worker chip: plain unsharded solves then run through a
//! [`FaultyReFloatOperator`](reram_sim::FaultyReFloatOperator) (spare remapping,
//! residual corruption, drift, optional ABFT checksum test) instead of the clean
//! encoded operator.  `None` — the default — leaves every execution path
//! bit-identical to the fault-free runtime.
//!
//! The [`HealthTracker`] is the fleet-wide ledger those workers feed: ABFT
//! detections, re-encode retries, per-chip degradation scores, and administrative
//! chip kills.  A client owns one and shares it across all its
//! nodes so the router can fold [`NodeHealthSignal`]s into placement
//! ([`Router::place_with_health`](crate::cluster::Router::place_with_health)) and
//! steer shards away from degraded or dead nodes.
//!
//! # What a kill means to a job
//!
//! [`SolveClient::kill_chip`](crate::SolveClient::kill_chip) marks one worker's
//! chip dead.  A killed chip never loses or corrupts a job: the worker checks the
//! tracker after every dequeue and either **re-routes** the job back through its
//! scheduler to a surviving worker (counted in `jobs_rerouted`) or — when no live
//! worker remains on the node — resolves the ticket with the typed
//! [`TicketOutcome::Degraded`](crate::TicketOutcome) outcome (counted in
//! `jobs_degraded`).  Such a job never ran, so — exactly like a cancelled job — it
//! leaves no telemetry row; the report's `jobs` field counts clean completions
//! only.

use std::collections::BTreeMap;
use std::sync::Mutex;

use refloat_telemetry::sync;
use reram_sim::FaultModelConfig;

/// Crossbar grid size the runtime builds chip fault state with.  Only the health
/// probe depends on it (the faulty operator samples crossbars at the encoding's
/// own block size), so it is a fixed modeling constant, not a config knob.
pub const CROSSBAR_GRID: usize = 128;

/// Fault-injection knobs of a runtime (set [`RuntimeConfig::fault`](crate::RuntimeConfig)).
#[derive(Debug, Clone, Copy)]
pub struct FaultPolicy {
    /// The persistent device fault model (stuck cells, drift, wear).
    pub model: FaultModelConfig,
    /// Program the ABFT checksum column alongside every block and run the residual
    /// test after every SpMV (costs one extra cycle per block-MVM).
    pub abft: bool,
    /// Relative residual threshold of the ABFT test.  Clean applies sit near
    /// machine epsilon, so the 1e-8 default has huge margin on both sides.
    pub abft_threshold: f64,
    /// Spare rows per crossbar available for remapping around stuck cells.
    pub spare_rows: u16,
    /// Spare columns per crossbar available for remapping.
    pub spare_cols: u16,
    /// How many times a checksum-failing solve is retried with a fresh re-encode
    /// onto spare resources before the job resolves as `Degraded`.
    pub max_retries: u32,
}

impl FaultPolicy {
    /// A realistic policy: [`FaultModelConfig::realistic`] rates, ABFT on at 1e-8,
    /// two spare rows and columns per crossbar, two retries.
    pub fn realistic(seed: u64) -> Self {
        FaultPolicy {
            model: FaultModelConfig::realistic(seed),
            abft: true,
            abft_threshold: 1e-8,
            spare_rows: 2,
            spare_cols: 2,
            max_retries: 2,
        }
    }

    /// Builder: disable the ABFT checksum test (faults then corrupt silently — the
    /// control arm of `fig_faults`).
    pub fn without_abft(mut self) -> Self {
        self.abft = false;
        self
    }

    /// Builder: override the fault model.
    pub fn with_model(mut self, model: FaultModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Builder: override the retry budget.
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The spare budget handed to the remap planner.
    pub fn spares(&self) -> refloat_core::SpareBudget {
        refloat_core::SpareBudget {
            rows: self.spare_rows as usize,
            cols: self.spare_cols as usize,
        }
    }
}

/// Everything the tracker knows about one worker's chip.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChipHealthRecord {
    /// ABFT checksum failures detected on this chip.
    pub detections: u64,
    /// Detected-corruption retries that re-encoded onto spare resources.
    pub re_encodes: u64,
    /// The chip's last reported degradation score (see
    /// [`HealthSummary::degradation`](reram_sim::HealthSummary)).
    pub degradation: f64,
    /// Whether the chip was administratively killed.
    pub killed: bool,
}

/// The per-node health aggregate the cluster router folds into placement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeHealthSignal {
    /// Workers on the node whose chip is not killed.
    pub live_workers: usize,
    /// Workers on the node in total.
    pub workers: usize,
    /// Summed degradation score over the node's chips.
    pub degradation: f64,
    /// Summed ABFT detections over the node's chips.
    pub detections: u64,
}

impl NodeHealthSignal {
    /// Whether the node can execute anything at all.
    pub fn alive(&self) -> bool {
        self.live_workers > 0
    }
}

/// The fleet-wide health ledger, keyed by pool-global worker id.
///
/// Shared by every node of a cluster (one `Arc`), fed by workers (detections,
/// re-encodes, degradation) and the client (`kill_chip`), read by the router
/// (per-node signals) and the killed-chip protocol in the worker loop.  All
/// methods take `&self`; the map behind the single `health` mutex is only ever
/// held for the duration of one method (a leaf in the declared lock order —
/// in the cluster submit path it is read strictly before the router's
/// `placement` lock).
#[derive(Debug, Default)]
pub struct HealthTracker {
    /// Lock-order "health": declared before `placement` in `lock_order.toml`.
    health: Mutex<BTreeMap<usize, ChipHealthRecord>>,
}

impl HealthTracker {
    /// An empty ledger (every chip implicitly pristine and alive).
    pub fn new() -> Self {
        HealthTracker::default()
    }

    /// Records `count` ABFT detections on `worker`'s chip.
    pub fn record_detections(&self, worker: usize, count: u64) {
        if count == 0 {
            return;
        }
        sync::lock(&self.health)
            .entry(worker)
            .or_default()
            .detections += count;
    }

    /// Records one re-encode retry on `worker`'s chip.
    pub fn record_re_encode(&self, worker: usize) {
        sync::lock(&self.health)
            .entry(worker)
            .or_default()
            .re_encodes += 1;
    }

    /// Updates `worker`'s degradation score (from a fresh
    /// [`DeviceHealth`](reram_sim::DeviceHealth) probe).
    pub fn update_degradation(&self, worker: usize, score: f64) {
        sync::lock(&self.health)
            .entry(worker)
            .or_default()
            .degradation = score;
    }

    /// Marks `worker`'s chip dead.  Returns `true` the first time (the kill), and
    /// `false` when the chip was already dead (idempotent).
    pub fn kill_chip(&self, worker: usize) -> bool {
        let mut health = sync::lock(&self.health);
        let record = health.entry(worker).or_default();
        let newly = !record.killed;
        record.killed = true;
        newly
    }

    /// Whether `worker`'s chip was killed.
    pub fn is_killed(&self, worker: usize) -> bool {
        sync::lock(&self.health)
            .get(&worker)
            .map(|r| r.killed)
            .unwrap_or(false)
    }

    /// A copy of `worker`'s record (default/pristine when never touched).
    pub fn chip(&self, worker: usize) -> ChipHealthRecord {
        sync::lock(&self.health)
            .get(&worker)
            .copied()
            .unwrap_or_default()
    }

    /// Workers in `[base, base + count)` whose chip is not killed.
    pub fn live_workers_in(&self, base: usize, count: usize) -> usize {
        let health = sync::lock(&self.health);
        (base..base + count)
            .filter(|w| !health.get(w).map(|r| r.killed).unwrap_or(false))
            .count()
    }

    /// Aggregates the health of workers `[base, base + count)` into one node
    /// signal for the router.
    pub fn node_signal(&self, base: usize, count: usize) -> NodeHealthSignal {
        let health = sync::lock(&self.health);
        let mut signal = NodeHealthSignal {
            live_workers: 0,
            workers: count,
            degradation: 0.0,
            detections: 0,
        };
        for w in base..base + count {
            match health.get(&w) {
                Some(r) => {
                    if !r.killed {
                        signal.live_workers += 1;
                    }
                    signal.degradation += r.degradation;
                    signal.detections += r.detections;
                }
                None => signal.live_workers += 1,
            }
        }
        signal
    }

    /// Total ABFT detections across the fleet.
    pub fn total_detections(&self) -> u64 {
        let health = sync::lock(&self.health);
        let mut total = 0;
        for record in health.values() {
            total += record.detections;
        }
        total
    }

    /// Total re-encode retries across the fleet.
    pub fn total_re_encodes(&self) -> u64 {
        let health = sync::lock(&self.health);
        let mut total = 0;
        for record in health.values() {
            total += record.re_encodes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kills_are_idempotent_and_visible() {
        let tracker = HealthTracker::new();
        assert!(!tracker.is_killed(3));
        assert!(tracker.kill_chip(3), "first kill reports true");
        assert!(!tracker.kill_chip(3), "second kill is a no-op");
        assert!(tracker.is_killed(3));
        assert!(!tracker.is_killed(4));
    }

    #[test]
    fn node_signals_aggregate_only_their_worker_range() {
        let tracker = HealthTracker::new();
        // Node 0 owns workers 0..2, node 1 owns workers 2..4.
        tracker.record_detections(0, 5);
        tracker.update_degradation(1, 0.25);
        tracker.kill_chip(2);
        tracker.record_re_encode(3);

        let n0 = tracker.node_signal(0, 2);
        assert_eq!(n0.live_workers, 2);
        assert_eq!(n0.detections, 5);
        assert!((n0.degradation - 0.25).abs() < 1e-15);
        assert!(n0.alive());

        let n1 = tracker.node_signal(2, 2);
        assert_eq!(n1.live_workers, 1);
        assert_eq!(n1.detections, 0);
        assert_eq!(tracker.live_workers_in(2, 2), 1);

        tracker.kill_chip(3);
        assert!(!tracker.node_signal(2, 2).alive());
    }

    #[test]
    fn counters_accumulate_per_chip_and_fleet_wide() {
        let tracker = HealthTracker::new();
        tracker.record_detections(0, 2);
        tracker.record_detections(0, 3);
        tracker.record_detections(7, 1);
        tracker.record_re_encode(0);
        assert_eq!(tracker.chip(0).detections, 5);
        assert_eq!(tracker.chip(0).re_encodes, 1);
        assert_eq!(tracker.chip(7).detections, 1);
        assert_eq!(tracker.total_detections(), 6);
        assert_eq!(tracker.total_re_encodes(), 1);
        assert_eq!(tracker.chip(9), ChipHealthRecord::default());
    }

    #[test]
    fn policy_builders_compose() {
        let policy = FaultPolicy::realistic(11)
            .without_abft()
            .with_max_retries(0);
        assert!(!policy.abft);
        assert_eq!(policy.max_retries, 0);
        assert_eq!(policy.spares().rows, 2);
        let custom = FaultPolicy::realistic(11).with_model(FaultModelConfig::pristine(11));
        assert_eq!(custom.model.stuck_low_rate, 0.0);
    }
}
