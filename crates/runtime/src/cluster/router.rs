//! The cluster router: places each admitted plan on a node by shard-capacity fit,
//! cache affinity, and load.
//!
//! # Placement keys, in precedence order
//!
//! 1. **Shard-capacity fit** — a sharded job only fits nodes with at least
//!    `shards` simulated chips; ineligible nodes are filtered out first.  When *no*
//!    node fits, the job overflows to the largest node (the partitioner will clamp
//!    the shard count there) rather than being rejected: capacity shaping is the
//!    admission layer's job, not the router's.
//! 2. **Cache affinity** — the router remembers, per matrix fingerprint, the node
//!    it last placed that matrix on.  Repeat tenants and repeat fingerprints land
//!    on the node that already holds their encodings (per-node caches are private,
//!    so affinity is what makes them pay), *unless* the sticky node's load exceeds
//!    the least-loaded eligible node by more than
//!    [`spill_margin`](RouterPolicy::spill_margin) — then the job **spills** to the
//!    least-loaded node and the stickiness moves with it (future repeats follow the
//!    spill, warming the new node once instead of ping-ponging).  The map is
//!    bounded: past a fixed number of fingerprints the least recently placed ones
//!    are forgotten (their next placement is a first touch again).
//! 3. **Least load** — everything else goes to the eligible node with the lowest
//!    queued-plus-running count *per chip*: a node with three times the chips
//!    drains its backlog three times as fast, so heterogeneous `chips_per_node`
//!    fleets balance on `load/chips`, not raw depth (compared exactly by integer
//!    cross-multiplication; ties break to the lowest node index, which keeps
//!    placement deterministic for a fixed submission order).
//!
//! [`Router::place_with_health`] additionally folds per-node
//! [`NodeHealthSignal`]s into the decision: dead nodes (no live worker) are
//! filtered like capacity misfits, and each node's load is padded by a penalty
//! proportional to its summed degradation score, steering traffic away from
//! worn or fault-ridden chips before they start detecting corruption.

use std::collections::BTreeMap;
use std::sync::Mutex;

use refloat_telemetry::sync;

use crate::health::NodeHealthSignal;

/// Tunables for [`Router::place`].
#[derive(Debug, Clone, Copy)]
pub struct RouterPolicy {
    /// Route repeat fingerprints back to the node holding their encodings.
    pub affinity: bool,
    /// How much deeper (in queued+running jobs) the sticky node may be than the
    /// least-loaded eligible node before the job spills away from its cache.
    pub spill_margin: usize,
}

impl Default for RouterPolicy {
    fn default() -> Self {
        RouterPolicy {
            affinity: true,
            spill_margin: 8,
        }
    }
}

/// Which placement key decided a routing (exported in traces and counted in
/// metrics, so `fig_cluster` can attribute throughput to affinity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// The fingerprint's sticky node won (its encodings are already resident).
    Affinity,
    /// No stickiness applied; the least-loaded eligible node won.
    LeastLoaded,
    /// The sticky node was too deep; the job moved to the least-loaded node and
    /// took its stickiness along.
    Spill,
    /// No node had enough chips for the requested shards; the largest node won.
    Overflow,
}

impl RouteKind {
    /// Stable label used in trace details and reports.
    pub fn label(self) -> &'static str {
        match self {
            RouteKind::Affinity => "affinity",
            RouteKind::LeastLoaded => "least_loaded",
            RouteKind::Spill => "spill",
            RouteKind::Overflow => "overflow",
        }
    }
}

/// One placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The chosen node's index.
    pub node: usize,
    /// Which key decided it.
    pub kind: RouteKind,
}

/// Most fingerprints the stickiness map remembers.  Two orders of magnitude more
/// than a node's encoded-matrix cache holds by default, and an affinity for an
/// encoding its node has long evicted is worth nothing — so the bound costs no warm
/// placement, while a long-lived client (every step of a solve sequence is a fresh
/// fingerprint) no longer grows the map forever.
const MAX_TRACKED_FINGERPRINTS: usize = 4096;

/// The fingerprint→node stickiness map, bounded by least-recently-placed eviction.
#[derive(Debug, Default)]
struct Stickiness {
    /// fingerprint → (its sticky node, the tick of its last placement).
    nodes: BTreeMap<u64, (usize, u64)>,
    tick: u64,
}

impl Stickiness {
    /// Records that `fingerprint` was just placed on `node`.  Past the bound, the
    /// least recently placed half is forgotten in one pass, so a placement costs
    /// one map write and the sweep amortises to O(1) per new fingerprint.
    fn placed(&mut self, fingerprint: u64, node: usize) {
        self.tick += 1;
        self.nodes.insert(fingerprint, (node, self.tick));
        if self.nodes.len() > MAX_TRACKED_FINGERPRINTS {
            let mut ticks: Vec<u64> = self.nodes.values().map(|&(_, tick)| tick).collect();
            let (_, &mut oldest_kept, _) = ticks.select_nth_unstable(MAX_TRACKED_FINGERPRINTS / 2);
            self.nodes.retain(|_, &mut (_, tick)| tick >= oldest_kept);
        }
    }
}

/// The placement engine.  Holds only the fingerprint→node stickiness map; load and
/// chip capacities are passed per call so the router never reaches into the nodes.
#[derive(Debug)]
pub struct Router {
    policy: RouterPolicy,
    /// Lock-order leaf "placement": nothing else is ever locked while holding it.
    placement: Mutex<Stickiness>,
}

impl Router {
    /// A router with the given policy.
    pub fn new(policy: RouterPolicy) -> Self {
        Router {
            policy,
            placement: Mutex::new(Stickiness::default()),
        }
    }

    /// Places one job.  `loads[i]` is node `i`'s queued+running count and
    /// `chips[i]` its simulated-chip capacity; `shards` is the job's requested
    /// shard count and `fingerprint` its matrix identity.
    ///
    /// Deterministic: for fixed inputs (including the stickiness accumulated from
    /// prior calls) the decision is a pure function — ties always break to the
    /// lowest node index.
    pub fn place(
        &self,
        fingerprint: u64,
        shards: usize,
        loads: &[usize],
        chips: &[usize],
    ) -> Placement {
        debug_assert_eq!(loads.len(), chips.len());
        debug_assert!(!loads.is_empty(), "a cluster has at least one node");
        self.select(fingerprint, shards, loads, chips, None, true)
    }

    /// Like [`place`](Self::place), but folds per-node health into the decision:
    /// dead nodes are ineligible (unless *every* fitting node is dead, in which
    /// case the filter is dropped — the job still lands somewhere and the dead
    /// node resolves it with a typed `Degraded` rather than losing it), and each
    /// node's load is padded by `ceil(degradation × 8)` phantom jobs so worn
    /// fleets shed traffic gradually instead of at a cliff.
    ///
    /// The second return value reports whether health *changed* the decision
    /// relative to a health-blind placement over the same inputs (the
    /// `route_health_steers` counter).
    pub fn place_with_health(
        &self,
        fingerprint: u64,
        shards: usize,
        loads: &[usize],
        chips: &[usize],
        health: &[NodeHealthSignal],
    ) -> (Placement, bool) {
        debug_assert_eq!(loads.len(), chips.len());
        debug_assert_eq!(loads.len(), health.len());
        debug_assert!(!loads.is_empty(), "a cluster has at least one node");
        // What a health-blind router would do (no stickiness commit: only the
        // decision that actually routes may move the affinity map).
        let baseline = self.select(fingerprint, shards, loads, chips, None, false);
        let effective: Vec<usize> = loads
            .iter()
            .zip(health)
            .map(|(&load, h)| load.saturating_add((h.degradation * 8.0).ceil() as usize))
            .collect();
        let alive: Vec<bool> = health.iter().map(NodeHealthSignal::alive).collect();
        let actual = self.select(fingerprint, shards, &effective, chips, Some(&alive), true);
        (actual, actual.node != baseline.node)
    }

    /// The shared placement core.  `alive` masks nodes out like a capacity misfit
    /// (dropped entirely when it would empty the eligible set); `commit` gates
    /// writes to the stickiness map so speculative baselines stay side-effect
    /// free.
    fn select(
        &self,
        fingerprint: u64,
        shards: usize,
        loads: &[usize],
        chips: &[usize],
        alive: Option<&[bool]>,
        commit: bool,
    ) -> Placement {
        let fits = |i: usize| chips[i] >= shards.max(1);
        let mut eligible: Vec<usize> = (0..loads.len())
            .filter(|&i| fits(i) && alive.map(|a| a[i]).unwrap_or(true))
            .collect();
        if eligible.is_empty() && alive.is_some() {
            // Every fitting node is dead: place anyway (the dead node's drain
            // resolves the job as Degraded — typed, never lost).
            eligible = (0..loads.len()).filter(|&i| fits(i)).collect();
        }
        if eligible.is_empty() {
            // Nothing fits: overflow to the biggest node (lowest index on ties) and
            // let the partitioner clamp the shard count there.
            let node = (0..chips.len())
                .max_by_key(|&i| (chips[i], std::cmp::Reverse(i)))
                .unwrap_or(0);
            return Placement {
                node,
                kind: RouteKind::Overflow,
            };
        }
        // Least load *per chip*, compared exactly via cross-multiplication; strict
        // `<` with ascending iteration keeps ties on the lowest index.
        let mut least = eligible[0];
        for &i in &eligible[1..] {
            if loads[i] * chips[least] < loads[least] * chips[i] {
                least = i;
            }
        }
        if !self.policy.affinity {
            return Placement {
                node: least,
                kind: RouteKind::LeastLoaded,
            };
        }
        let mut sticky = sync::lock(&self.placement);
        let (node, kind) = match sticky.nodes.get(&fingerprint) {
            Some(&(node, _)) if eligible.contains(&node) => {
                if loads[node] <= loads[least].saturating_add(self.policy.spill_margin) {
                    (node, RouteKind::Affinity)
                } else {
                    // Spill: the stickiness moves with the job so future repeats
                    // warm the new node once instead of ping-ponging.
                    (least, RouteKind::Spill)
                }
            }
            _ => (least, RouteKind::LeastLoaded),
        };
        if commit {
            sticky.placed(fingerprint, node);
        }
        Placement { node, kind }
    }

    /// Distinct fingerprints with a sticky node (observability/testing).
    pub fn tracked_fingerprints(&self) -> usize {
        sync::lock(&self.placement).nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> Router {
        Router::new(RouterPolicy::default())
    }

    #[test]
    fn first_touch_goes_least_loaded_and_repeats_stick() {
        let r = router();
        let chips = [8, 8, 8];
        let first = r.place(42, 1, &[3, 1, 2], &chips);
        assert_eq!(
            first,
            Placement {
                node: 1,
                kind: RouteKind::LeastLoaded
            }
        );
        // Repeat sticks to node 1 even though node 2 is now emptier.
        let repeat = r.place(42, 1, &[3, 2, 0], &chips);
        assert_eq!(
            repeat,
            Placement {
                node: 1,
                kind: RouteKind::Affinity
            }
        );
    }

    #[test]
    fn a_deep_sticky_node_spills_and_the_stickiness_moves() {
        let r = Router::new(RouterPolicy {
            affinity: true,
            spill_margin: 2,
        });
        let chips = [8, 8];
        assert_eq!(r.place(7, 1, &[0, 5], &chips).node, 0);
        // Node 0 is now 3 deeper than node 1's 0 — past the margin of 2.
        let spilled = r.place(7, 1, &[3, 0], &chips);
        assert_eq!(
            spilled,
            Placement {
                node: 1,
                kind: RouteKind::Spill
            }
        );
        // The stickiness followed the spill.
        assert_eq!(r.place(7, 1, &[0, 1], &chips).kind, RouteKind::Affinity);
        assert_eq!(r.place(7, 1, &[0, 1], &chips).node, 1);
    }

    #[test]
    fn sharded_jobs_only_fit_nodes_with_enough_chips() {
        let r = router();
        // Node 0 is empty but only has 2 chips; the 4-shard job must go to node 1.
        let placed = r.place(9, 4, &[0, 6], &[2, 8]);
        assert_eq!(placed.node, 1);
        assert_eq!(placed.kind, RouteKind::LeastLoaded);
    }

    #[test]
    fn an_oversized_job_overflows_to_the_largest_node() {
        let r = router();
        let placed = r.place(9, 64, &[0, 0, 0], &[4, 8, 8]);
        assert_eq!(
            placed,
            Placement {
                node: 1,
                kind: RouteKind::Overflow
            },
            "ties break to the lowest index among largest nodes"
        );
    }

    #[test]
    fn ties_break_to_the_lowest_node_index() {
        let r = Router::new(RouterPolicy {
            affinity: false,
            spill_margin: 0,
        });
        assert_eq!(r.place(1, 1, &[2, 2, 2], &[8, 8, 8]).node, 0);
    }

    #[test]
    fn least_load_is_weighted_by_chip_capacity() {
        let r = router();
        // Raw depth says node 0 (4 < 6), but per-chip load says node 1
        // (4/4 = 1.0 vs 6/12 = 0.5): the bigger node drains faster.
        let placed = r.place(77, 1, &[4, 6], &[4, 12]);
        assert_eq!(placed.node, 1);
        assert_eq!(placed.kind, RouteKind::LeastLoaded);
        // Equal per-chip load ties back to the lowest index.
        assert_eq!(r.place(78, 1, &[2, 6], &[4, 12]).node, 0);
    }

    #[test]
    fn health_steers_away_from_dead_and_degraded_nodes() {
        let alive = NodeHealthSignal {
            live_workers: 2,
            workers: 2,
            degradation: 0.0,
            detections: 0,
        };
        let r = Router::new(RouterPolicy {
            affinity: false,
            spill_margin: 8,
        });
        let chips = [8, 8];

        // A dead node is ineligible even when emptier.
        let dead = NodeHealthSignal {
            live_workers: 0,
            ..alive
        };
        let (placed, steered) = r.place_with_health(1, 1, &[5, 0], &chips, &[alive, dead]);
        assert_eq!(placed.node, 0);
        assert!(steered, "a health-blind router would have picked node 1");

        // Degradation pads the load: 0.5 ⇒ 4 phantom jobs, flipping a 2-vs-5 gap.
        let worn = NodeHealthSignal {
            degradation: 0.5,
            ..alive
        };
        let (placed, steered) = r.place_with_health(2, 1, &[5, 2], &chips, &[alive, worn]);
        assert_eq!(placed.node, 0, "2 + ceil(0.5·8) = 6 > 5");
        assert!(steered);

        // Healthy fleets place exactly like the health-blind router.
        let (placed, steered) = r.place_with_health(3, 1, &[5, 2], &chips, &[alive, alive]);
        assert_eq!(placed.node, 1);
        assert!(!steered);

        // All fitting nodes dead: the filter drops so the job still lands (the
        // dead node resolves it as Degraded instead of losing it).
        let (placed, _) = r.place_with_health(4, 1, &[1, 0], &chips, &[dead, dead]);
        assert_eq!(placed.node, 1);
    }

    #[test]
    fn the_stickiness_map_is_bounded_and_keeps_what_is_hot() {
        let r = router();
        let (loads, chips) = ([0, 0], [8, 8]);
        let hot = u64::MAX;
        assert_eq!(r.place(hot, 1, &loads, &chips).kind, RouteKind::LeastLoaded);
        // Ten times the bound of one-shot fingerprints (what a long solve sequence
        // submits), the hot one coming back now and then.
        for cold in 0..10 * MAX_TRACKED_FINGERPRINTS as u64 {
            r.place(cold, 1, &loads, &chips);
            if cold % 1000 == 0 {
                assert_eq!(r.place(hot, 1, &loads, &chips).kind, RouteKind::Affinity);
            }
        }
        assert!(r.tracked_fingerprints() <= MAX_TRACKED_FINGERPRINTS);
        assert!(r.tracked_fingerprints() > MAX_TRACKED_FINGERPRINTS / 2);
        assert_eq!(r.place(hot, 1, &loads, &chips).kind, RouteKind::Affinity);
        // The oldest one-shots were forgotten; the newest are still sticky.
        assert_eq!(r.place(0, 1, &loads, &chips).kind, RouteKind::LeastLoaded);
        let newest = 10 * MAX_TRACKED_FINGERPRINTS as u64 - 1;
        assert_eq!(r.place(newest, 1, &loads, &chips).kind, RouteKind::Affinity);
    }

    #[test]
    fn disabling_affinity_never_sticks() {
        let r = Router::new(RouterPolicy {
            affinity: false,
            spill_margin: 8,
        });
        let chips = [8, 8];
        assert_eq!(r.place(5, 1, &[1, 0], &chips).node, 1);
        assert_eq!(r.place(5, 1, &[0, 1], &chips).node, 0);
        assert_eq!(r.tracked_fingerprints(), 0);
    }
}
