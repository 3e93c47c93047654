//! `fig_transient` — acceptance run of the transient-workload stack: one FEM
//! solve chain (time-stepped Poisson operator, drifting coefficients), two arms:
//!
//! 1. **Full re-encode** — every step submitted as an independent cold job: full
//!    quantization, full crossbar reprogramming, and a mixed-precision refined
//!    solve started from zero.
//! 2. **Incremental + warm start** — the same chain through a
//!    [`SolveSequence`](refloat_runtime::SolveSequence): each step re-encodes
//!    over the predecessor's cached layout and diffs against it (reprogramming
//!    charged for the touched crossbar fraction) and warm-starts the refinement
//!    outer loop from the previous solution under an exact-residual guard.
//!
//! Both arms run mixed-precision iterative refinement to the same *true* fp64
//! relative-residual target [`TOLERANCE`] — equal convergence is asserted on
//! the exact residual of every step, not through the quantized operator's eyes
//! — and the sequence arm must cut the simulated model cycle (programming +
//! compute + host seconds) by at least [`MODEL_CYCLE_BOUND`]×.  The run also
//! checks in-tree that every step's incremental re-encode is bitwise identical to
//! encoding the same step from scratch — the invariant that makes the whole
//! reuse stack numerically free.
//!
//! ```text
//! fig_transient [--quick] [--seed S]
//! ```

use std::sync::Arc;
use std::time::Instant;

use refloat_bench::args::Args;
use refloat_core::{assert_bitwise_identical, reencode_incremental, ReFloatConfig, ReFloatMatrix};
use refloat_matgen::fem::poisson_2d;
use refloat_matgen::{SolveStep, TransientChain, TransientSpec};
use refloat_runtime::{
    MatrixHandle, RefinementSpec, RuntimeConfig, RuntimeReport, SolvePlan, SolveRuntime,
};

/// The sequence arm must cut the per-chain simulated model cycle by at least
/// this factor (the acceptance bound of the figure).
const MODEL_CYCLE_BOUND: f64 = 2.0;

/// Relative solver tolerance of both arms; every step of both arms must also
/// meet it in *true* fp64 residual.
const TOLERANCE: f64 = 1e-8;

fn format() -> ReFloatConfig {
    ReFloatConfig::new(4, 3, 8, 3, 8)
}

fn chain(quick: bool, seed: u64) -> Vec<SolveStep> {
    let (nx, ny, steps) = if quick { (12, 11, 16) } else { (22, 21, 60) };
    let base = poisson_2d(nx, ny, 0.2, seed);
    // The fine-time-stepping regime warm starts are built for: per-step
    // coefficient drift and source-phase advance both scale with the (small)
    // implicit time step, so consecutive solutions are close — while every raw
    // matrix still differs, so the cold arm re-encodes and reprograms each step.
    TransientChain::new(
        base,
        TransientSpec::default()
            .with_steps(steps)
            .with_seed(seed)
            .with_drift(1e-7, 0.25)
            .with_rhs_phase(1e-6)
            .with_mass(0.5, 0.0),
    )
    .collect()
}

fn plan(step: &SolveStep, arm: &str) -> SolvePlan {
    SolvePlan::new(
        "sim",
        MatrixHandle::new(format!("{arm}-{}", step.index), step.matrix.clone()),
        format(),
    )
    .rhs(Arc::new(step.rhs.clone()))
    .refinement(RefinementSpec::to_target(TOLERANCE))
    .build()
    .expect("valid plan")
}

/// Runs one arm over the chain, returning (solutions, wall seconds, report).
fn run_arm(steps: &[SolveStep], arm: &str, sequence: bool) -> (Vec<Vec<f64>>, f64, RuntimeReport) {
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        // Big enough that a sequence step always finds its predecessor encoding.
        cache_capacity: 8,
        ..RuntimeConfig::default()
    });
    // refloat-analysis: allow(wall-clock-in-deterministic-path) — host wall time
    // feeds only the jobs/s speedup metric; all asserted quantities come from the
    // deterministic simulated-cost model.
    let start = Instant::now();
    let mut solutions = Vec::with_capacity(steps.len());
    if sequence {
        let mut seq = client.sequence();
        for step in steps {
            let outcome = seq
                .step(plan(step, arm))
                .expect("accepting")
                .completed()
                .expect("sequence steps complete");
            assert!(
                outcome.result.converged(),
                "{arm} step {} did not converge",
                step.index
            );
            solutions.push(outcome.result.x);
        }
    } else {
        for step in steps {
            let outcome = client
                .submit(plan(step, arm))
                .expect("accepting")
                .wait()
                .completed()
                .expect("cold steps complete");
            assert!(
                outcome.result.converged(),
                "{arm} step {} did not converge",
                step.index
            );
            solutions.push(outcome.result.x);
        }
    }
    // refloat-analysis: allow(wall-clock-in-deterministic-path) — see above.
    let wall_s = start.elapsed().as_secs_f64();
    (solutions, wall_s, client.shutdown())
}

/// Worst true fp64 relative residual over the whole chain.
fn worst_true_residual(steps: &[SolveStep], solutions: &[Vec<f64>]) -> f64 {
    steps
        .iter()
        .zip(solutions)
        .map(|(step, x)| step.matrix.relative_residual(&step.rhs, x))
        .fold(0.0, f64::max)
}

fn main() {
    let args = Args::from_env("fig_transient", &["--quick"], &["--seed"]);
    let seed = args.or_exit(args.u64("--seed")).unwrap_or(2023);
    let quick = args.switch("--quick");
    let steps = chain(quick, seed);
    let n = steps[0].matrix.nrows();
    println!(
        "fig_transient: {} steps of an n={n} FEM chain, seed {seed}",
        steps.len()
    );

    // In-tree bitwise-identity check, through the same core entry points the worker
    // uses: re-encoding every step against its predecessor's incremental encoding
    // must equal encoding it from scratch, field for field, bit for bit.
    let mut previous = ReFloatMatrix::from_csr(&steps[0].matrix, format());
    let (mut reused, mut total) = (0, 0);
    for pair in steps.windows(2) {
        let inc = reencode_incremental(&previous, &pair[0].matrix, &pair[1].matrix);
        assert_bitwise_identical(
            &inc.matrix,
            &ReFloatMatrix::from_csr(&pair[1].matrix, format()),
        );
        (reused, total) = (
            reused + inc.stats.blocks_reused,
            total + inc.stats.blocks_total,
        );
        previous = inc.matrix;
    }
    assert!(
        reused > 0,
        "a 2% windowed perturbation must leave blocks untouched"
    );
    println!(
        "transient: incremental ≡ from-scratch on all {} steps ({reused} of {total} blocks reused)",
        steps.len() - 1
    );

    let (full_x, full_wall_s, full) = run_arm(&steps, "full", false);
    let (seq_x, seq_wall_s, seq) = run_arm(&steps, "seq", true);

    // Equal convergence, in the strongest sense available: both arms run
    // mixed-precision refinement whose outer loop measures the *exact* fp64
    // residual, so every step of both arms must sit at or below [`TOLERANCE`]
    // in true relative residual — not merely "converged through the quantized
    // operator's eyes".
    let full_worst = worst_true_residual(&steps, &full_x);
    let seq_worst = worst_true_residual(&steps, &seq_x);
    assert!(
        full_worst <= TOLERANCE && seq_worst <= TOLERANCE,
        "an arm missed the true-residual target {TOLERANCE:.0e} \
         (full {full_worst:.2e}, seq {seq_worst:.2e})"
    );

    // The reuse accounting: every step after the first warm-starts and diffs.
    assert_eq!(seq.seq_steps, steps.len());
    assert_eq!(
        seq.warm_start_hits,
        steps.len() as u64 - 1,
        "every step after the first must warm-start"
    );
    let diffed = seq.blocks_reused + seq.blocks_reencoded;
    assert!(diffed > 0);
    let reused_fraction = seq.blocks_reused as f64 / diffed as f64;
    assert!(
        reused_fraction > 0.0,
        "the chain's windowed drift must leave reusable blocks"
    );

    // The headline: the sequence arm's simulated model cycle (programming +
    // compute + host seconds over the whole chain) vs paying full price per step.
    let reduction = full.simulated_total_s / seq.simulated_total_s;
    let jobs_per_s_speedup = full_wall_s / seq_wall_s;
    assert!(
        reduction >= MODEL_CYCLE_BOUND,
        "model-cycle reduction {reduction:.2}x below the {MODEL_CYCLE_BOUND:.1}x bound"
    );
    println!(
        "transient: incremental+warm-start beats full re-encode: model cycle \
         {reduction:.2}x lower ({:.3e}s vs {:.3e}s simulated), jobs/s {jobs_per_s_speedup:.2}x, \
         {:.0}% blocks reused, {} warm-start hits over {} steps",
        seq.simulated_total_s,
        full.simulated_total_s,
        100.0 * reused_fraction,
        seq.warm_start_hits,
        seq.seq_steps
    );
    println!(
        "transient: equal convergence: worst true residual full {full_worst:.2e} / \
         seq {seq_worst:.2e} (solver criterion {TOLERANCE:.0e} relative, both arms)"
    );
}
