//! Cost-model-driven per-matrix format auto-tuning.
//!
//! Every ReFloat result in the paper hinges on picking the per-matrix format
//! `(e, f)(ev, fv)`: Table VII hand-picks it per workload, and Fig. 3 / Eq. 2–3 give
//! the exact crossbar and cycle cost of each choice.  This module closes that loop
//! automatically, in the spirit of the workload-dependent precision selection of
//! *Mixed-Precision In-Memory Computing* (Le Gallo et al.): given a matrix and a
//! target tolerance, it returns the **cheapest format predicted — and then measured —
//! to converge**.
//!
//! The pipeline has three stages:
//!
//! 1. **Accuracy model** — the per-block exponent statistics (the Fig. 3d locality
//!    observation, [`crate::locality`]) bound the element-wise quantization error of a
//!    candidate.  Crucially the histogram used here is computed around the **actual
//!    Eq. 5 base** (the rounded *mean* element exponent, [`required_offset_histogram`]),
//!    not the optimally centred window of the locality report: a block whose exponent
//!    mass sits below its peak needs more one-sided reach than half its range, and
//!    mispredicting that is exactly the failure mode that makes a seemingly-covering
//!    window saturate.  Blocks inside the window only lose fraction bits (relative
//!    error `2^−f`); blocks that overflow it contribute an `O(1)` relative
//!    perturbation.  The vector side adds a graded window penalty
//!    ([`vector_window_penalty`]) for the solver iterates, whose exponent spread is
//!    unknowable at plan time.  Scaled by the condition number (estimated by
//!    `refloat_solvers::eigs`) and a safety margin, this yields a conservative bound
//!    on the achievable *true* relative residual — the classical `κ·‖δA‖/‖A‖`
//!    perturbation argument.
//! 2. **Cost model** — Eq. 2/3: `2^e + f + 1` crossbars per cluster and
//!    `(2^{ev} + fv + 1) + (2^e + f + 1) − 1` pipeline cycles per block MVM, together
//!    with the chip's crossbar capacity, which turns a cluster count into streaming
//!    rounds per SpMV.  The closed forms here deliberately mirror `reram_sim::cost`
//!    (the canonical implementation; `reram-sim` sits *above* this crate in the
//!    dependency graph, so the formulas are restated and pinned equal by the
//!    cross-crate consistency test in the workspace test suite).
//! 3. **Verification trials** — the model proposes, measurement disposes: the
//!    predicted-convergent candidates are tried cheapest-first with an actual
//!    quantized CG solve (all-ones right-hand side, the harness convention) until one
//!    reaches the tolerance in *true* residual against the exact matrix.  A format is
//!    only ever "chosen" after it has demonstrably converged on this matrix, and the
//!    measured iteration count becomes the prediction consumers compare their achieved
//!    counts against.
//!
//! A plan is deterministic and non-trivial to compute (eigen estimation plus up to
//! [`AutotuneConfig::max_trials`] quantized solves), so consumers that see a matrix
//! repeatedly should memoize the [`FormatDecision`] under the matrix fingerprint —
//! which is what `refloat-runtime` does for `SolveJob::with_auto_format`.  When *no*
//! candidate survives (κ unbounded, degraded eigen confidence, or a brutal tolerance)
//! the plan [falls back](FormatPlan::fallback) to the most accurate candidate and
//! consumers are expected to pair it with the
//! [`EscalationPolicy`](crate::escalation::EscalationPolicy) / mixed-precision
//! refinement ladder.

use std::collections::BTreeSet;

use crate::block::optimal_exponent_base;
use crate::format::{max_offset_for_bits, ReFloatConfig};
use crate::locality::{exponent_locality, LocalityReport};
use crate::matrix::ReFloatMatrix;
use refloat_solvers::eigs::{self, EigenConfidence, EigenEstimate};
use refloat_solvers::{SolverConfig, SolverKind};
use refloat_sparse::stats::exponent_of;
use refloat_sparse::{BlockedMatrix, CsrMatrix};

/// The Table IV chip: `2^18` compute crossbars.
pub const TABLE_IV_CROSSBARS: u64 = 1 << 18;

/// Multiplier on the predicted error floor before comparing against the tolerance
/// (the floor is a worst-case bound; the margin also guards the κ estimate).
const SAFETY: f64 = 2.0;

/// Seed of the deterministic eigen estimation.
const EIGEN_SEED: u64 = 2023;

/// What the auto-tuner is asked to optimize for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutotuneConfig {
    /// Target *true* relative residual `‖b − A·x‖₂ / ‖b‖₂` the chosen format must
    /// reach.
    pub tolerance: f64,
    /// Block-size exponent `b` of every candidate (blocks and crossbars are
    /// `2^b × 2^b`); fixing `b` keeps all candidates on the same blocking, so cached
    /// shard partitions and encodings keyed by `b` stay geometry-compatible.
    pub b: u32,
    /// Crossbars per chip; candidates needing more clusters than fit pay streaming
    /// rounds per SpMV (§VI.B).
    pub chip_crossbars: u64,
    /// Verification solves attempted (cheapest predicted-convergent candidates first)
    /// before giving up and falling back.  0 disables trials: the plan then trusts the
    /// model alone and `chosen` carries no measurement.
    pub max_trials: usize,
    /// The Krylov solver the verification trials run (and whose iteration counts the
    /// measured predictions therefore describe).  Plan with the solver the real jobs
    /// will use: CG and BiCGSTAB converge differently on the same quantized operator.
    pub solver: SolverKind,
}

impl AutotuneConfig {
    /// A plan request for the given tolerance and blocking, on the Table IV chip with
    /// up to 4 verification trials.
    pub fn new(tolerance: f64, b: u32) -> Self {
        assert!(
            tolerance > 0.0 && tolerance.is_finite(),
            "autotune: tolerance must be positive and finite, got {tolerance}"
        );
        assert!(
            (1..=15).contains(&b),
            "autotune: block exponent b must be in 1..=15, got {b}"
        );
        AutotuneConfig {
            tolerance,
            b,
            chip_crossbars: TABLE_IV_CROSSBARS,
            max_trials: 4,
            solver: SolverKind::Cg,
        }
    }

    /// Builder: plan for a chip with a different crossbar pool.
    pub fn with_chip_crossbars(mut self, crossbars: u64) -> Self {
        assert!(crossbars >= 1, "autotune: chip needs at least one crossbar");
        self.chip_crossbars = crossbars;
        self
    }

    /// Builder: verify with a different Krylov solver (default CG).
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }
}

/// One scored candidate format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatCandidate {
    /// The candidate `(b, e, f)(ev, fv)` configuration.
    pub config: ReFloatConfig,
    /// Predicted element-wise relative quantization error (matrix + vector side).
    pub predicted_error: f64,
    /// Predicted achievable true relative residual: `2 · κ · predicted_error` (a
    /// safety margin of 2).
    pub predicted_floor: f64,
    /// Whether the floor is predicted to undercut the requested tolerance (always
    /// `false` when the eigen estimate is degraded — an untrusted κ must not
    /// green-light a cheap format).
    pub predicted_convergent: bool,
    /// Eq. 2 accounting: crossbars one cluster (block) of this format occupies.
    pub crossbars_per_cluster: u32,
    /// Eq. 3: pipeline cycles of one block MVM.
    pub cycles_per_block_mvm: u64,
    /// Streaming rounds per SpMV on the configured chip (1 = the matrix fits).
    pub rounds_per_spmv: u64,
    /// The ranking metric: `rounds_per_spmv · cycles_per_block_mvm`.
    pub cycles_per_spmv: u64,
    /// True relative residual a verification solve measured (`None` = not tried).
    pub measured_residual: Option<f64>,
    /// Iterations the verification solve took (`None` = not tried).
    pub measured_iterations: Option<u64>,
}

impl FormatCandidate {
    /// Whether a verification solve confirmed this candidate at the plan's tolerance.
    pub fn measured_convergent(&self, tolerance: f64) -> bool {
        self.measured_residual.is_some_and(|r| r <= tolerance)
    }
}

/// The auto-tuner's compact verdict — what the runtime memoizes per matrix
/// fingerprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FormatDecision {
    /// The chosen format.
    pub format: ReFloatConfig,
    /// Estimated condition number the prediction used.
    pub kappa: f64,
    /// `true` when the eigen estimation reported degraded confidence.
    pub degraded_confidence: bool,
    /// `false` when no candidate survived prediction + verification (consumers should
    /// arm a refinement/escalation fallback).
    pub predicted_convergent: bool,
    /// Expected solver iterations to the tolerance: the verification solve's measured
    /// count when a trial ran, otherwise the `½·√κ·ln(2/τ)` Chebyshev bound for CG.
    pub predicted_iterations: u64,
    /// Predicted model cycles per SpMV of the chosen format.
    pub predicted_cycles_per_spmv: u64,
}

/// The full ranked plan for one matrix.
#[derive(Debug, Clone)]
pub struct FormatPlan {
    /// The winning candidate: the cheapest one that is predicted convergent *and*
    /// passed its verification solve — or, when nothing survives, the most accurate
    /// candidate (see [`fallback`](Self::fallback)).
    pub chosen: FormatCandidate,
    /// `true` when no candidate survived and `chosen` is merely the lowest-floor
    /// candidate; pair it with an escalation/refinement ladder.
    pub fallback: bool,
    /// Every candidate, ranked: predicted-convergent ones cheapest-first, then the
    /// rest by ascending predicted floor.
    pub candidates: Vec<FormatCandidate>,
    /// The per-block exponent-locality report (Fig. 3d view, for context).
    pub locality: LocalityReport,
    /// Histogram of per-block one-sided offset reach under the Eq. 5 base — the
    /// statistic the error model actually scores against.
    pub required_offset_histogram: Vec<usize>,
    /// The extreme-eigenvalue estimate behind κ.
    pub eigen: EigenEstimate,
    /// Condition-number estimate (`+∞` when unreliable).
    pub kappa: f64,
    /// Expected solver iterations (measured when a trial ran, κ-bound otherwise).
    pub predicted_iterations: u64,
    /// Verification solves performed.
    pub trials: usize,
    /// Non-empty blocks of the matrix at this blocking (= clusters per SpMV).
    pub num_blocks: u64,
    /// The tolerance the plan was computed for.
    pub tolerance: f64,
}

impl FormatPlan {
    /// The compact decision for memoization and telemetry.
    pub fn decision(&self) -> FormatDecision {
        FormatDecision {
            format: self.chosen.config,
            kappa: self.kappa,
            degraded_confidence: self.eigen.confidence == EigenConfidence::Degraded,
            predicted_convergent: !self.fallback,
            predicted_iterations: self.predicted_iterations,
            predicted_cycles_per_spmv: self.chosen.cycles_per_spmv,
        }
    }
}

// ---- Eq. 2/3 closed forms (mirrors of `reram_sim::cost`, pinned by the cross-crate
// consistency test; see the module docs for why they are restated here). ----

/// Crossbars per cluster for an `(e, f)` matrix format: `2^e + f + 1`.
pub fn crossbars_per_cluster(e: u32, f: u32) -> u32 {
    (1u32 << e) + f + 1
}

/// Eq. 3 pipeline cycles of one block MVM for matrix bits `(e, f)` and vector bits
/// `(ev, fv)`.
pub fn cycles_per_block_mvm(e: u32, f: u32, ev: u32, fv: u32) -> u64 {
    ((1u64 << ev) + fv as u64 + 1) + ((1u64 << e) + f as u64 + 1) - 1
}

/// The candidate grid at blocking `b`: a sweep of offset bits × fraction bits with the
/// paper's `fv = f + 5` vector margin (Table VII uses `(3, 3)(3, 8)`) and widened
/// vector-window variants (`ev ∈ {e, 5, 6}` — iterate segments routinely need more
/// offset reach than the matrix blocks), plus every Table III classical format
/// re-based onto the same blocking, so whenever the model predicts a classical format
/// suffices the tuner can pick exactly it.
pub fn candidate_grid(b: u32) -> Vec<ReFloatConfig> {
    let mut seen: BTreeSet<(u32, u32, u32, u32)> = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |e: u32, f: u32, ev: u32, fv: u32| {
        if seen.insert((e, f, ev, fv)) {
            out.push(ReFloatConfig::new(b, e, f, ev, fv));
        }
    };
    for &e in &[0u32, 2, 3, 4, 5, 6, 8] {
        for &f in &[3u32, 6, 8, 11, 16, 20, 24, 28, 32, 40, 52] {
            let fv = (f + 5).min(52);
            for ev in [e, 5, 6] {
                push(e, f, ev, fv);
            }
        }
    }
    for named in crate::formats::table_iii() {
        let c = named.config;
        push(c.e, c.f, c.ev, c.fv);
    }
    out
}

/// Histogram of the per-block **one-sided offset reach** required under the actual
/// Eq. 5 base (the rounded mean element exponent): index `k` counts blocks whose
/// extreme exponents sit `k` binades from their base, i.e. blocks representable
/// without saturation by any format with `max_offset ≥ k`.
///
/// This differs from [`crate::locality`]'s optimally-centred bit count: a block whose
/// exponent mass clusters below its peak gets a mean base near the cluster, pushing
/// the peak further from the base than half the range — precisely the blocks an
/// optimally-centred analysis mispredicts as "covered".
pub fn required_offset_histogram(blocked: &BlockedMatrix) -> Vec<usize> {
    let mut hist: Vec<usize> = Vec::new();
    for blk in blocked.blocks() {
        let mut lo = i32::MAX;
        let mut hi = i32::MIN;
        let mut any = false;
        for &v in blk.vals {
            if v == 0.0 {
                continue;
            }
            let e = exponent_of(v);
            lo = lo.min(e);
            hi = hi.max(e);
            any = true;
        }
        if !any {
            continue; // block of explicit zeros
        }
        let eb = optimal_exponent_base(blk.vals);
        let required = (hi - eb).max(eb - lo).max(0) as usize;
        if hist.len() <= required {
            hist.resize(required + 1, 0);
        }
        hist[required] += 1;
    }
    hist
}

/// Fraction of non-empty blocks whose required offset reach (see
/// [`required_offset_histogram`]) exceeds the `e`-bit window `±(2^{e−1} − 1)`.
pub fn uncovered_block_fraction(histogram: &[usize], e: u32) -> f64 {
    let total: usize = histogram.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let reach = max_offset_for_bits(e).max(0) as usize;
    let uncovered: usize = histogram
        .iter()
        .enumerate()
        .filter(|(required, _)| *required > reach)
        .map(|(_, count)| count)
        .sum();
    uncovered as f64 / total as f64
}

/// Predicted element-wise relative quantization error of an `(e, f)` matrix encoding:
/// fraction truncation (`2^−f`) on covered blocks plus an `O(1)` contribution from
/// each window-overflowing (saturating) block.
pub fn predicted_element_error(histogram: &[usize], e: u32, f: u32) -> f64 {
    (2.0f64.powi(-(f as i32)) + uncovered_block_fraction(histogram, e)).min(1.0)
}

/// Graded penalty for the *vector* window: `2^{−2·max_offset(ev)}` (and 1.0 when the
/// window has no reach at all).
///
/// Solver iterates — residuals and search directions — develop a far wider per-segment
/// exponent spread than the matrix blocks, and their spread at plan time is unknowable
/// (it grows as the solve converges).  The penalty models the saturation error of a
/// segment whose elements stray past the window: every extra offset bit doubles the
/// reach and squares the penalty, which empirically tracks the achievable floors of
/// the functional simulator.  Since the model is heuristic here, predicted-convergent
/// candidates are confirmed by a verification solve before being chosen.
pub fn vector_window_penalty(ev: u32) -> f64 {
    let reach = max_offset_for_bits(ev);
    if reach <= 0 {
        1.0
    } else {
        2.0f64.powi(-2 * reach)
    }
}

/// The Chebyshev iteration bound for CG: `⌈½·√κ·ln(2/τ)⌉ + 1`, capped at 10⁷ (and at
/// the cap for unbounded κ).
pub fn predicted_cg_iterations(kappa: f64, tolerance: f64) -> u64 {
    const CAP: u64 = 10_000_000;
    if !kappa.is_finite() || kappa <= 0.0 {
        return CAP;
    }
    let bound = 0.5 * kappa.sqrt() * (2.0 / tolerance).ln();
    if !bound.is_finite() || bound >= CAP as f64 {
        CAP
    } else {
        bound.ceil() as u64 + 1
    }
}

/// Runs one verification solve of `candidate` on `a` (all-ones right-hand side, the
/// plan's solver kind) and returns `(true relative residual, iterations)`.
fn verification_solve(
    a: &CsrMatrix,
    config: ReFloatConfig,
    solver: SolverKind,
    tolerance: f64,
    max_iterations: usize,
) -> (f64, u64) {
    let b = vec![1.0; a.nrows()];
    let mut op = ReFloatMatrix::from_csr(a, config);
    let result = solver.solve(
        &mut op,
        &b,
        &SolverConfig::relative(tolerance)
            .with_max_iterations(max_iterations)
            .with_trace(false),
    );
    (a.relative_residual(&b, &result.x), result.iterations as u64)
}

/// Scores every candidate of [`candidate_grid`] for `a`, verifies the cheapest
/// predicted-convergent ones by actually solving, and returns the ranked plan.
///
/// Deterministic in `(a, cfg)`.  The expensive parts are one blocking pass (O(nnz)),
/// the eigen estimation (a few CG solves) and up to [`AutotuneConfig::max_trials`]
/// quantized verification solves — memoize the [`FormatDecision`] per matrix
/// fingerprint when the same matrix recurs.
pub fn plan_format(a: &CsrMatrix, cfg: &AutotuneConfig) -> FormatPlan {
    let blocked =
        BlockedMatrix::from_csr(a, cfg.b).expect("valid block exponent enforced by AutotuneConfig");
    let locality = exponent_locality(&blocked);
    let hist = required_offset_histogram(&blocked);
    let num_blocks = blocked.num_blocks() as u64;

    // A shared `&CsrMatrix` is itself an operator: no clone of the CSR arrays.
    let mut exact = a;
    let eigen = eigs::estimate_extremes(&mut exact, EIGEN_SEED);
    let kappa = eigen.condition_number();
    let trusted = eigen.confidence == EigenConfidence::Converged && kappa.is_finite();
    let kappa_bound_iterations = predicted_cg_iterations(kappa, cfg.tolerance);

    let mut candidates: Vec<FormatCandidate> = candidate_grid(cfg.b)
        .into_iter()
        .map(|config| {
            let err_m = predicted_element_error(&hist, config.e, config.f);
            let err_v =
                (2.0f64.powi(-(config.fv as i32)) + vector_window_penalty(config.ev)).min(1.0);
            let predicted_error = err_m + err_v;
            let predicted_floor = SAFETY * kappa * predicted_error;
            let predicted_convergent = trusted && predicted_floor <= cfg.tolerance;
            let crossbars = crossbars_per_cluster(config.e, config.f);
            let cycles = cycles_per_block_mvm(config.e, config.f, config.ev, config.fv);
            let clusters_available = (cfg.chip_crossbars / crossbars as u64).max(1);
            let rounds_per_spmv = num_blocks.div_ceil(clusters_available).max(1);
            FormatCandidate {
                config,
                predicted_error,
                predicted_floor,
                predicted_convergent,
                crossbars_per_cluster: crossbars,
                cycles_per_block_mvm: cycles,
                rounds_per_spmv,
                cycles_per_spmv: rounds_per_spmv * cycles,
                measured_residual: None,
                measured_iterations: None,
            }
        })
        .collect();

    // Rank: predicted-convergent candidates cheapest-first (ties → fewer crossbars,
    // then fewer total value bits), then the rest most-accurate-first.
    candidates.sort_by(|a, b| {
        b.predicted_convergent
            .cmp(&a.predicted_convergent)
            .then_with(|| {
                if a.predicted_convergent {
                    a.cycles_per_spmv
                        .cmp(&b.cycles_per_spmv)
                        .then(a.crossbars_per_cluster.cmp(&b.crossbars_per_cluster))
                        .then(
                            (a.config.matrix_value_bits() + a.config.vector_value_bits()).cmp(
                                &(b.config.matrix_value_bits() + b.config.vector_value_bits()),
                            ),
                        )
                } else {
                    a.predicted_floor
                        .partial_cmp(&b.predicted_floor)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cycles_per_spmv.cmp(&b.cycles_per_spmv))
                }
            })
    });

    // Verification: walk the predicted-convergent prefix cheapest-first and keep the
    // first candidate whose *measured* true residual meets the tolerance.
    let trial_cap = (4 * kappa_bound_iterations as usize + 100).min(3_000);
    let mut trials = 0usize;
    let mut chosen_index: Option<usize> = None;
    for (i, candidate) in candidates.iter_mut().enumerate() {
        if !candidate.predicted_convergent || trials >= cfg.max_trials {
            break;
        }
        let (residual, iterations) =
            verification_solve(a, candidate.config, cfg.solver, cfg.tolerance, trial_cap);
        candidate.measured_residual = Some(residual);
        candidate.measured_iterations = Some(iterations);
        trials += 1;
        if residual <= cfg.tolerance {
            chosen_index = Some(i);
            break;
        }
    }
    // With trials disabled, trust the model's front-runner outright.
    if cfg.max_trials == 0 && candidates[0].predicted_convergent {
        chosen_index = Some(0);
    }

    let (chosen, fallback) = match chosen_index {
        Some(i) => (candidates[i], false),
        // Nothing survived: hand back the most accurate candidate (the non-convergent
        // ranking is floor-ascending; if *everything* was predicted convergent but
        // failed its trial, the front-runner is still the least-bad answer).
        None => {
            let best = candidates
                .iter()
                .min_by(|a, b| {
                    a.predicted_floor
                        .partial_cmp(&b.predicted_floor)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .copied()
                .expect("candidate grid is never empty");
            (best, true)
        }
    };
    let predicted_iterations = chosen
        .measured_iterations
        .filter(|_| !fallback)
        .unwrap_or(kappa_bound_iterations);

    FormatPlan {
        chosen,
        fallback,
        candidates,
        locality,
        required_offset_histogram: hist,
        eigen,
        kappa,
        predicted_iterations,
        trials,
        num_blocks,
        tolerance: cfg.tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::generators;

    #[test]
    fn candidate_grid_is_deduplicated_and_includes_table_iii_points() {
        let grid = candidate_grid(4);
        let mut keys: Vec<(u32, u32, u32, u32)> =
            grid.iter().map(|c| (c.e, c.f, c.ev, c.fv)).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "grid must not contain duplicates");
        assert!(grid.iter().all(|c| c.b == 4));
        // The rebased FP64 and Int8 classical points are present, as are the widened
        // vector-window variants.
        assert!(grid.iter().any(|c| (c.e, c.f) == (11, 52)));
        assert!(grid.iter().any(|c| (c.e, c.f, c.fv) == (0, 7, 7)));
        assert!(grid.iter().any(|c| (c.e, c.ev) == (3, 5)));
    }

    #[test]
    fn required_offset_histogram_uses_the_mean_base_not_the_centred_window() {
        // 15 entries at exponent 0 and one at exponent 4: the range is 4 (a ±2 window
        // centred at 2 would cover it), but the Eq. 5 mean base is 0, so the outlier
        // needs reach 4 — only max_offset ≥ 4 (e ≥ 4) truly avoids saturation.
        let mut coo = refloat_sparse::CooMatrix::new(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                coo.push(i, j, if (i, j) == (0, 0) { 16.0 } else { 1.0 });
            }
        }
        let blocked = BlockedMatrix::from_csr(&coo.to_csr(), 2).unwrap();
        let hist = required_offset_histogram(&blocked);
        assert_eq!(hist.iter().sum::<usize>(), 1);
        assert_eq!(hist.len(), 5, "reach-4 block → histogram up to index 4");
        assert_eq!(hist[4], 1);
        assert_eq!(uncovered_block_fraction(&hist, 4), 0.0); // max_offset(4) = 7 ≥ 4
        assert_eq!(uncovered_block_fraction(&hist, 3), 1.0); // max_offset(3) = 3 < 4
    }

    #[test]
    fn uncovered_fraction_follows_the_histogram() {
        // 3 blocks needing reach 1, 1 block needing reach 5.
        let hist = vec![0usize, 3, 0, 0, 0, 1];
        assert_eq!(uncovered_block_fraction(&hist, 4), 0.0); // reach 7 covers all
        assert_eq!(uncovered_block_fraction(&hist, 3), 0.25); // reach 3 misses the 5
        assert_eq!(uncovered_block_fraction(&hist, 2), 0.25); // reach 1 covers the 3s
        assert_eq!(uncovered_block_fraction(&hist, 0), 1.0); // no reach at all
        assert_eq!(uncovered_block_fraction(&[], 3), 0.0);
        // Covered blocks only pay fraction truncation.
        assert!((predicted_element_error(&hist, 4, 8) - 2.0f64.powi(-8)).abs() < 1e-15);
        // Saturating blocks dominate the error.
        assert!(predicted_element_error(&hist, 2, 52) >= 0.25);
    }

    #[test]
    fn vector_penalty_decays_with_window_reach() {
        assert_eq!(vector_window_penalty(0), 1.0);
        assert_eq!(vector_window_penalty(1), 1.0); // max_offset(1) = 0: no reach
        assert_eq!(vector_window_penalty(2), 0.25);
        assert!(vector_window_penalty(5) < vector_window_penalty(4));
        assert_eq!(vector_window_penalty(5), 2.0f64.powi(-30));
    }

    #[test]
    fn iteration_bound_tracks_kappa_and_handles_unbounded() {
        let easy = predicted_cg_iterations(4.0, 1e-8);
        let hard = predicted_cg_iterations(1e4, 1e-8);
        assert!(easy < hard);
        assert_eq!(predicted_cg_iterations(f64::INFINITY, 1e-8), 10_000_000);
        assert_eq!(predicted_cg_iterations(-1.0, 1e-8), 10_000_000);
    }

    #[test]
    fn plan_picks_a_cheap_verified_format_on_a_well_behaved_matrix() {
        let a = generators::laplacian_2d(24, 24, 0.3).to_csr();
        let cfg = AutotuneConfig::new(1e-6, 4);
        let plan = plan_format(&a, &cfg);
        assert!(!plan.fallback, "laplacian must have a surviving candidate");
        assert!(plan.chosen.predicted_convergent);
        // The chosen format demonstrably reached the tolerance in true residual.
        assert!(
            plan.chosen.measured_convergent(1e-6),
            "chosen {} measured residual {:?}",
            plan.chosen.config,
            plan.chosen.measured_residual
        );
        assert!(plan.trials >= 1);
        // It undercuts the classical FP32/FP64 points in model cycles.
        let fp32_cycles = cycles_per_block_mvm(8, 23, 8, 23);
        let fp64_cycles = cycles_per_block_mvm(11, 52, 11, 52);
        assert!(plan.chosen.cycles_per_spmv < fp32_cycles);
        assert!(plan.chosen.cycles_per_spmv < fp64_cycles);
        // Ranking invariant: only verification failures sit between the pick and the
        // front of the predicted-convergent prefix.
        for c in &plan.candidates {
            if c.predicted_convergent && c.cycles_per_spmv < plan.chosen.cycles_per_spmv {
                assert!(
                    c.measured_residual.is_some_and(|r| r > 1e-6),
                    "cheaper candidate {} skipped without a failed trial",
                    c.config
                );
            }
        }
        // The iteration prediction comes from the verification solve.
        assert_eq!(
            Some(plan.predicted_iterations),
            plan.chosen.measured_iterations
        );
    }

    #[test]
    fn badly_scaled_matrix_still_gets_a_covering_window() {
        // The crystm-like mass matrix has tiny (≈1e-12) entries with several binades
        // of per-block spread: e = 0 candidates (Int8/Int16/BFP64 points) must be
        // ruled out, and the chosen matrix window must cover the reach histogram.
        let a = generators::mass_matrix_3d(6, 6, 6, 1e-12, 0.8, 5).to_csr();
        let plan = plan_format(&a, &AutotuneConfig::new(1e-6, 4));
        assert!(!plan.fallback);
        assert!(plan.chosen.config.e >= 2, "chosen {}", plan.chosen.config);
        assert!(plan.chosen.measured_convergent(1e-6));
        assert_eq!(
            uncovered_block_fraction(&plan.required_offset_histogram, plan.chosen.config.e),
            0.0
        );
    }

    #[test]
    fn numerically_singular_matrix_falls_back_with_degraded_confidence() {
        // κ ≈ 1e30: the inner CG of the inverse iteration cannot converge, eigen
        // confidence degrades, and no candidate may be predicted convergent off an
        // untrusted κ — so no verification solves are even attempted.
        let a = generators::logspace_diagonal(3000, 1e-30, 1.0).to_csr();
        let plan = plan_format(&a, &AutotuneConfig::new(1e-8, 4));
        assert!(plan.fallback);
        assert_eq!(plan.eigen.confidence, EigenConfidence::Degraded);
        assert!(plan.candidates.iter().all(|c| !c.predicted_convergent));
        assert_eq!(plan.trials, 0);
        let decision = plan.decision();
        assert!(decision.degraded_confidence);
        assert!(!decision.predicted_convergent);
        assert_eq!(decision.predicted_iterations, 10_000_000);
    }

    #[test]
    fn smaller_chips_charge_streaming_rounds_in_the_ranking() {
        let a = generators::laplacian_2d(32, 32, 0.3).to_csr();
        // A chip so small that wide formats need several streaming rounds.
        let cfg = AutotuneConfig {
            max_trials: 0,
            ..AutotuneConfig::new(1e-6, 4).with_chip_crossbars(1 << 12)
        };
        let plan = plan_format(&a, &cfg);
        let fp64 = plan
            .candidates
            .iter()
            .find(|c| (c.config.e, c.config.f) == (11, 52))
            .expect("FP64 point in the grid");
        assert!(
            fp64.rounds_per_spmv > 1,
            "FP64 must overflow a 4096-crossbar chip"
        );
        assert_eq!(
            fp64.cycles_per_spmv,
            fp64.rounds_per_spmv * fp64.cycles_per_block_mvm
        );
        assert!(plan.chosen.cycles_per_spmv < fp64.cycles_per_spmv);
    }

    #[test]
    fn zero_trials_trusts_the_model_and_records_no_measurements() {
        let a = generators::laplacian_2d(16, 16, 0.4).to_csr();
        let cfg = AutotuneConfig {
            max_trials: 0,
            ..AutotuneConfig::new(1e-4, 4)
        };
        let plan = plan_format(&a, &cfg);
        assert!(!plan.fallback);
        assert_eq!(plan.trials, 0);
        assert!(plan.chosen.measured_residual.is_none());
        assert_eq!(
            plan.predicted_iterations,
            predicted_cg_iterations(plan.kappa, 1e-4)
        );
    }
}
