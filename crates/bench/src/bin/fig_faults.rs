//! `fig_faults` — acceptance run of the fault-aware execution stack, three arms,
//! all asserted:
//!
//! 1. **Bounded overhead** — a trace solved on a chip that wears out mid-trace
//!    (stuck rates escalate with every re-program) under the full policy (spare
//!    remapping + ABFT probe + re-encode retries).  The ABFT probe must actually
//!    fire (detections > 0) and the jobs that survive it must converge within
//!    [`ITERATION_OVERHEAD_BOUND`]× the clean per-job iteration count — detected
//!    corruption costs retries, never wrong answers.
//! 2. **Silent-corruption control** — defect rates that overflow the spare budget
//!    from the first program, with ABFT disabled.  Nothing detects, nothing
//!    degrades, and the returned "solution" is detectably wrong in true fp64
//!    residual — the measured value of the checksum column.
//! 3. **Mid-trace chip kill** — a 2-node cluster loses both chips of node 0 while
//!    a trace is in flight.  Every submitted job must still resolve typed
//!    (completed, degraded, or a refused plan handed back) — zero lost jobs — and
//!    the health-aware router must steer the post-kill traffic to the live node.
//!
//! ```text
//! fig_faults [--quick] [--seed S]
//! ```

use refloat_bench::args::Args;
use refloat_core::ReFloatConfig;
use refloat_matgen::generators;
use refloat_runtime::{
    metric_names, ClusterConfig, ClusterRuntime, DegradedReason, FaultPolicy, MatrixHandle,
    RuntimeConfig, SolvePlan, SolveRuntime, SolveTicket, TicketOutcome,
};
use refloat_solvers::SolverConfig;
use reram_sim::FaultModelConfig;

/// Jobs surviving ABFT must converge within this multiple of the clean per-job
/// iteration count (plus a small additive slack for tiny iteration counts).
const ITERATION_OVERHEAD_BOUND: f64 = 3.0;

/// Solver tolerance of every arm; the control arm's true residual must miss it.
const TOLERANCE: f64 = 1e-8;

/// A chip that *wears out under the trace*: the base stuck rates (~3 defects per
/// 16×16 crossbar) stay inside the 2+2 spare budget, so early jobs run clean, but
/// every re-program escalates the rates by 10% — mid-trace the budget overflows,
/// the ABFT probe starts firing and the retry/degrade machinery engages.  Drift
/// grows with age too; the checksum compensates it exactly (no false positives)
/// while the solver pays a bounded iteration overhead for it.
fn wearing_faults(seed: u64) -> FaultModelConfig {
    FaultModelConfig {
        seed,
        stuck_low_rate: 1e-2,
        stuck_high_rate: 2e-3,
        drift_sigma: 0.02,
        wear_growth: 0.3,
    }
}

/// Stuck rates that overflow the spare budget from the very first program — the
/// silent-corruption control arm needs corruption at age zero.
fn crushing_faults(seed: u64) -> FaultModelConfig {
    FaultModelConfig {
        seed,
        stuck_low_rate: 2e-2,
        stuck_high_rate: 4e-3,
        drift_sigma: 0.0,
        wear_growth: 0.0,
    }
}

fn workload(quick: bool) -> MatrixHandle {
    let scale = if quick { 16 } else { 24 };
    MatrixHandle::new(
        "poisson",
        generators::laplacian_2d(scale, scale, 0.3).to_csr(),
    )
}

fn plans(count: usize, handle: &MatrixHandle) -> Vec<SolvePlan> {
    (0..count)
        .map(|i| {
            SolvePlan::new(
                format!("tenant-{}", i % 3),
                handle.clone(),
                ReFloatConfig::new(4, 3, 8, 3, 8),
            )
            .solver_config(
                SolverConfig::relative(TOLERANCE)
                    .with_max_iterations(2_000)
                    .with_trace(false),
            )
            .build()
            .expect("valid plan")
        })
        .collect()
}

fn main() {
    let args = Args::from_env("fig_faults", &["--quick"], &["--seed"]);
    let seed = args.or_exit(args.u64("--seed")).unwrap_or(2023);
    let quick = args.switch("--quick");
    let jobs = if quick { 12 } else { 24 };
    let handle = workload(quick);
    println!("fig_faults: {jobs} jobs per arm, seed {seed}");

    // ---- Arm 1: ABFT on faulty chips — detections, retries, bounded damage. ----
    let clean = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        ..RuntimeConfig::default()
    })
    .run_batch(plans(jobs, &handle));
    let clean_iters_per_job = clean
        .jobs
        .iter()
        .map(|j| j.result.iterations)
        .sum::<usize>() as f64
        / jobs as f64;

    let policy = FaultPolicy::realistic(seed).with_model(wearing_faults(seed));
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 2,
        fault: Some(policy),
        ..RuntimeConfig::default()
    });
    let tickets: Vec<SolveTicket> = plans(jobs, &handle)
        .into_iter()
        .map(|p| client.submit(p).expect("accepting"))
        .collect();
    let (mut completed, mut degraded, mut faulty_iters) = (0u64, 0u64, 0usize);
    for ticket in tickets {
        match ticket.wait() {
            TicketOutcome::Completed(outcome) => {
                assert!(outcome.result.converged(), "ABFT survivors must converge");
                completed += 1;
                faulty_iters += outcome.result.iterations;
            }
            TicketOutcome::Degraded(job) => {
                assert_eq!(job.reason, DegradedReason::AbftUnresolved);
                degraded += 1;
            }
            other => panic!("faulty chips must not lose or fail jobs: {other:?}"),
        }
    }
    assert_eq!(completed + degraded, jobs as u64, "zero lost jobs");
    assert!(completed > 0, "the retry path must rescue some jobs");
    let ratio = (faulty_iters as f64 / completed as f64) / clean_iters_per_job;
    assert!(
        ratio <= ITERATION_OVERHEAD_BOUND,
        "unbounded iteration overhead: {ratio:.2}x"
    );
    let report = client.shutdown();
    assert!(report.faults_detected > 0, "the ABFT probe never fired");
    println!(
        "faults: ABFT bounded the damage: extra-iteration ratio {ratio:.2}x \
         (bound {ITERATION_OVERHEAD_BOUND:.2}x), {} detections, {} re-encodes, {} degraded",
        report.faults_detected, report.fault_retries, report.degraded_jobs
    );

    // ---- Arm 2: the control — crushing defects, checksum test off. ----
    let silent = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        fault: Some(
            FaultPolicy::realistic(seed)
                .with_model(crushing_faults(seed))
                .without_abft(),
        ),
        ..RuntimeConfig::default()
    })
    .run_batch(plans(2, &handle));
    assert_eq!(silent.report.faults_detected, 0, "no ABFT, no detections");
    assert_eq!(silent.report.degraded_jobs, 0);
    let a = handle.csr();
    let b = vec![1.0; a.nrows()];
    let worst_rel = silent
        .jobs
        .iter()
        .map(|j| a.relative_residual(&b, &j.result.x))
        .fold(0.0, f64::max);
    assert!(
        worst_rel > TOLERANCE,
        "the control arm should be detectably wrong, got {worst_rel:.3e}"
    );
    println!(
        "faults: ABFT-off control corrupts silently: worst true residual {worst_rel:.2e} \
         (tolerance {TOLERANCE:.0e}), 0 detections"
    );

    // ---- Arm 3: mid-trace chip kill on a 2-node cluster — zero lost jobs. ----
    let cluster = ClusterRuntime::start(ClusterConfig::uniform(
        2,
        RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        },
    ));
    let mut trace = plans(jobs, &handle).into_iter();
    let mut tickets: Vec<SolveTicket> = Vec::new();
    let mut refused = 0u64;
    for plan in trace.by_ref().take(jobs / 2) {
        tickets.push(cluster.submit(plan).expect("pre-kill cluster accepts"));
    }
    // Node 0 (pool-global workers 0 and 1) dies with half the trace in flight.
    assert!(cluster.kill_chip(0));
    assert!(cluster.kill_chip(1));
    let (mut kill_completed, mut kill_degraded) = (0u64, 0u64);
    let mut resolve = |ticket: SolveTicket| match ticket.wait() {
        TicketOutcome::Completed(_) => kill_completed += 1,
        TicketOutcome::Degraded(job) => {
            assert_eq!(job.reason, DegradedReason::ChipKilled);
            kill_degraded += 1;
        }
        other => panic!("a chip kill must not lose or fail jobs: {other:?}"),
    };
    // Drain the in-flight half first so both nodes sit at zero queued load: the
    // health-blind baseline then breaks the tie onto dead node 0, and every
    // post-kill placement the router moves off it registers as a steer.
    for ticket in tickets.drain(..) {
        resolve(ticket);
    }
    for plan in trace {
        match cluster.submit(plan) {
            Ok(ticket) => tickets.push(ticket),
            // A queue that closed under the kill refuses typed, plan intact.
            Err(err) => {
                let _ = err;
                refused += 1;
            }
        }
    }
    for ticket in tickets {
        resolve(ticket);
    }
    assert_eq!(
        kill_completed + kill_degraded + refused,
        jobs as u64,
        "every job resolved typed"
    );
    let steers = cluster
        .metrics_snapshot()
        .counter(metric_names::ROUTE_HEALTH_STEERS)
        .unwrap_or(0);
    assert!(
        steers > 0,
        "post-kill traffic must be steered off the dead node"
    );
    let kill_report = cluster.shutdown();
    assert_eq!(kill_report.chips_killed, 2);
    println!(
        "faults: mid-trace chip kill lost zero jobs: {kill_completed} completed + \
         {kill_degraded} degraded + {refused} refused of {jobs}, {} rerouted, {steers} steered",
        kill_report.rerouted_jobs
    );
}
