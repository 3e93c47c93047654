//! The format-decision cache: memoized auto-tuning verdicts keyed by
//! (matrix fingerprint, blocking, tolerance, chip capacity, solver).
//!
//! A `plan_format` analysis costs an eigen estimation plus verification solves — far
//! more than an encode — so repeat tenants must not pay it twice.  The cache is the
//! same [`SingleFlightLru`] the encoded-matrix cache uses (see
//! [`crate::single_flight`]): LRU eviction plus in-flight deduplication, so concurrent
//! first-touch jobs on the same matrix run exactly one analysis and the rest coalesce
//! onto its result.  This module owns only the key shape.

use refloat_core::autotune::FormatDecision;
use refloat_solvers::SolverKind;
use refloat_telemetry::Clock;

use crate::single_flight::{CacheOutcomeKind, CacheStats, SingleFlightLru};

/// What pins an auto-tuning decision: the matrix content, the blocking (candidates
/// share the job format's `b`), the requested tolerance, the crossbar capacity the
/// cost model ranked against, and the Krylov solver the verification trials ran
/// (CG and BiCGSTAB converge differently on the same quantized operator, so their
/// decisions must not be shared).  The analysis's safety margin and eigen seed are
/// constants of `refloat_core::autotune`, so they need no place in the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DecisionKey {
    /// Content hash of the matrix (structure + values).
    pub fingerprint: u64,
    /// Block-size exponent every candidate was constrained to.
    pub b: u32,
    /// `tolerance.to_bits()` — exact bit pattern, so keys stay `Eq + Hash`.
    pub tolerance_bits: u64,
    /// Total crossbars the ranking assumed (per chip × chips the job spans).
    pub chip_crossbars: u64,
    /// The solver the analysis verified with.
    pub solver: SolverKind,
}

impl DecisionKey {
    /// Builds the key for one job's analysis request.
    pub fn new(
        fingerprint: u64,
        b: u32,
        tolerance: f64,
        chip_crossbars: u64,
        solver: SolverKind,
    ) -> Self {
        DecisionKey {
            fingerprint,
            b,
            tolerance_bits: tolerance.to_bits(),
            chip_crossbars,
            solver,
        }
    }
}

/// Monotonic decision-cache counters: the same [`CacheStats`] every cache reports.
pub type DecisionStats = CacheStats;

/// A thread-safe LRU cache of [`FormatDecision`]s.  See the module docs.
pub type FormatDecisionCache = SingleFlightLru<DecisionKey, FormatDecision>;

impl FormatDecisionCache {
    /// [`get_or_compute`](SingleFlightLru::get_or_compute) under the name the
    /// pipeline's autotune stage calls it by.
    pub fn get_or_analyse(
        &self,
        key: DecisionKey,
        clock: &dyn Clock,
        analyse: impl FnOnce() -> FormatDecision,
    ) -> (FormatDecision, CacheOutcomeKind, f64) {
        self.get_or_compute(key, clock, analyse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_core::ReFloatConfig;
    use refloat_telemetry::WallClock;

    fn decision(e: u32) -> FormatDecision {
        FormatDecision {
            format: ReFloatConfig::new(4, e, 8, e, 13),
            kappa: 10.0,
            degraded_confidence: false,
            predicted_convergent: true,
            predicted_iterations: 25,
            predicted_cycles_per_spmv: 40,
        }
    }

    #[test]
    fn distinct_tolerances_chips_and_solvers_are_distinct_decisions() {
        let cache = FormatDecisionCache::new(8);
        let clock = WallClock::new();
        let base = DecisionKey::new(7, 4, 1e-6, 1 << 18, SolverKind::Cg);
        let keys = [
            base,
            DecisionKey::new(7, 4, 1e-8, 1 << 18, SolverKind::Cg),
            DecisionKey::new(7, 4, 1e-6, 1 << 12, SolverKind::Cg),
            DecisionKey::new(7, 4, 1e-6, 1 << 18, SolverKind::BiCgStab),
        ];
        for (e, key) in (2..).zip(keys) {
            let (_, outcome, _) = cache.get_or_analyse(key, &clock, || decision(e));
            assert_eq!(outcome, CacheOutcomeKind::Miss);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
        // Each key remembers its own verdict.
        let (again, outcome, seconds) =
            cache.get_or_analyse(base, &clock, || unreachable!("decision is cached"));
        assert_eq!((outcome, seconds), (CacheOutcomeKind::Hit, 0.0));
        assert_eq!(again, decision(2));
        assert_eq!(cache.peek(&keys[3]), Some(decision(5)));
    }
}
