//! `fig_scheduling` — QoS scheduling vs FIFO under a mixed-priority trace.
//!
//! A backlog of batch-priority solves on a medium matrix is queued ahead of a burst
//! of interactive-priority solves on a small matrix, on the same worker pool.  Under
//! FIFO the interactive burst drains behind the whole backlog; under the priority
//! scheduler it overtakes the backlog the moment a worker frees up.  The binary
//! replays the identical trace under both policies and asserts the service-mode
//! acceptance bar:
//!
//! 1. interactive p99 queue wait improves **≥ 5×** over FIFO,
//! 2. at matched throughput (the same jobs complete; wall-clock within 2×),
//! 3. with a bitwise-identical result digest — scheduling reorders *when* jobs run,
//!    never *what* they compute.
//!
//! ```text
//! fig_scheduling [--quick] [--json PATH]
//! ```

use serde::Serialize;

use refloat_bench::args::Args;
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use refloat_core::ReFloatConfig;
use refloat_matgen::generators;
use refloat_runtime::fingerprint::{fnv1a_u64, FNV_OFFSET};
use refloat_runtime::{
    MatrixHandle, Priority, RuntimeConfig, RuntimeReport, SchedulerPolicy, SolvePlan, SolveRuntime,
};
use refloat_solvers::SolverConfig;

struct PolicyRun {
    report: RuntimeReport,
    digest: u64,
    interactive_p99_s: f64,
    interactive_p50_s: f64,
    batch_p99_s: f64,
}

#[derive(Serialize)]
struct SchedulingRecord {
    policy: String,
    jobs: usize,
    throughput_jobs_per_s: f64,
    interactive_p50_wait_ms: f64,
    interactive_p99_wait_ms: f64,
    batch_p99_wait_ms: f64,
    queue_depth_peak: usize,
    digest: String,
}

fn replay(
    policy: SchedulerPolicy,
    batch_plans: &[SolvePlan],
    interactive_plans: &[SolvePlan],
    warm_plans: &[SolvePlan],
) -> PolicyRun {
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: batch_plans.len() + interactive_plans.len() + 8,
        cache_capacity: 16,
        scheduler: policy,
        ..RuntimeConfig::default()
    });
    // Warm both encodings so queue waits measure scheduling, not one-off encodes.
    runtime.run_batch(warm_plans.to_vec());

    let client = runtime.client();
    let tickets: Vec<_> = batch_plans
        .iter()
        .chain(interactive_plans.iter())
        .map(|plan| {
            client
                .submit(plan.clone())
                .expect("service admits while open")
        })
        .collect();
    let mut outcomes: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().completed().expect("nothing is cancelled"))
        .collect();
    let report = client.shutdown();

    outcomes.sort_by_key(|o| o.job_id);
    let mut digest = FNV_OFFSET;
    for outcome in &outcomes {
        digest = fnv1a_u64(digest, outcome.job_id);
        digest = fnv1a_u64(digest, outcome.result.iterations as u64);
        let checksum: f64 = outcome.result.x.iter().sum();
        digest = fnv1a_u64(digest, checksum.to_bits());
    }

    let lane = |priority: Priority| {
        report
            .per_priority
            .iter()
            .find(|lane| lane.priority == priority)
            .expect("both priority lanes saw traffic")
            .clone()
    };
    let interactive = lane(Priority::Interactive);
    let batch = lane(Priority::Batch);
    PolicyRun {
        digest,
        interactive_p99_s: interactive.queue_wait_p99_s,
        interactive_p50_s: interactive.queue_wait_p50_s,
        batch_p99_s: batch.queue_wait_p99_s,
        report,
    }
}

fn main() {
    let args = Args::from_env("fig_scheduling", &["--quick"], &["--json"]);
    let quick = args.switch("--quick");
    let (batch_jobs, interactive_jobs) = if quick { (32, 8) } else { (64, 16) };

    // The backlog class: a medium stencil whose solves take real time.
    let backlog = MatrixHandle::new("poisson-40", generators::laplacian_2d(40, 40, 0.2).to_csr());
    let backlog_format = ReFloatConfig::new(5, 3, 8, 3, 8);
    // The latency-sensitive class: a small stencil that solves in microseconds.
    let small = MatrixHandle::new("poisson-8", generators::laplacian_2d(8, 8, 0.3).to_csr());
    let small_format = ReFloatConfig::new(4, 3, 8, 3, 8);
    let config = SolverConfig::relative(1e-8)
        .with_max_iterations(2_000)
        .with_trace(false);

    let batch_plans: Vec<SolvePlan> = (0..batch_jobs)
        .map(|i| {
            SolvePlan::new(format!("batch-{i}"), backlog.clone(), backlog_format)
                .solver_config(config.clone())
                .priority(Priority::Batch)
                .build()
                .expect("valid plan")
        })
        .collect();
    let interactive_plans: Vec<SolvePlan> = (0..interactive_jobs)
        .map(|i| {
            SolvePlan::new(format!("urgent-{i}"), small.clone(), small_format)
                .solver_config(config.clone())
                .priority(Priority::Interactive)
                .build()
                .expect("valid plan")
        })
        .collect();
    let warm_plans = vec![
        SolvePlan::new("warm-backlog", backlog.clone(), backlog_format)
            .solver_config(config.clone())
            .build()
            .expect("valid plan"),
        SolvePlan::new("warm-small", small.clone(), small_format)
            .solver_config(config.clone())
            .build()
            .expect("valid plan"),
    ];

    println!(
        "fig_scheduling: {batch_jobs} batch-priority jobs ({} rows) ahead of \
         {interactive_jobs} interactive jobs ({} rows), 2 workers\n",
        backlog.csr().nrows(),
        small.csr().nrows(),
    );

    let fifo = replay(
        SchedulerPolicy::fifo(),
        &batch_plans,
        &interactive_plans,
        &warm_plans,
    );
    let prio = replay(
        SchedulerPolicy::default(),
        &batch_plans,
        &interactive_plans,
        &warm_plans,
    );

    let mut table = TextTable::new([
        "policy",
        "jobs",
        "throughput",
        "interactive wait p50",
        "interactive wait p99",
        "batch wait p99",
        "peak depth",
    ]);
    for (name, run) in [("FIFO", &fifo), ("priority", &prio)] {
        table.row([
            name.to_string(),
            format!("{}", run.report.jobs),
            format!("{:.1} jobs/s", run.report.throughput_jobs_per_s),
            format!("{:.2} ms", run.interactive_p50_s * 1e3),
            format!("{:.2} ms", run.interactive_p99_s * 1e3),
            format!("{:.2} ms", run.batch_p99_s * 1e3),
            format!("{}", run.report.queue_depth_peak),
        ]);
    }
    println!("{}", table.render());
    println!("FIFO     digest: {:016x}", fifo.digest);
    println!("priority digest: {:016x}", prio.digest);

    let improvement = fifo.interactive_p99_s / prio.interactive_p99_s.max(1e-12);
    let throughput_ratio =
        prio.report.throughput_jobs_per_s / fifo.report.throughput_jobs_per_s.max(1e-12);
    println!(
        "\ninteractive p99 queue wait improved {improvement:.1}x over FIFO \
         (throughput ratio {throughput_ratio:.2})"
    );

    if let Some(path) = args.value("--json") {
        let records: Vec<SchedulingRecord> = [("fifo", &fifo), ("priority", &prio)]
            .into_iter()
            .map(|(name, run)| SchedulingRecord {
                policy: name.to_string(),
                jobs: run.report.jobs,
                throughput_jobs_per_s: run.report.throughput_jobs_per_s,
                interactive_p50_wait_ms: run.interactive_p50_s * 1e3,
                interactive_p99_wait_ms: run.interactive_p99_s * 1e3,
                batch_p99_wait_ms: run.batch_p99_s * 1e3,
                queue_depth_peak: run.report.queue_depth_peak,
                digest: format!("{:016x}", run.digest),
            })
            .collect();
        write_json(path, &records).expect("write --json output");
        println!("wrote {path}");
    }

    // The acceptance bar (ISSUE 5): scheduling must never change numerics, must cut
    // interactive tail waits >= 5x, and must not buy that with throughput.
    assert_eq!(
        fifo.digest, prio.digest,
        "scheduling policy changed the numeric results"
    );
    assert_eq!(fifo.report.jobs, prio.report.jobs);
    assert_eq!(fifo.report.converged, prio.report.converged);
    assert!(
        improvement >= 5.0,
        "interactive p99 improved only {improvement:.1}x over FIFO \
         ({:.2} ms -> {:.2} ms); the acceptance bar is 5x",
        fifo.interactive_p99_s * 1e3,
        prio.interactive_p99_s * 1e3,
    );
    assert!(
        throughput_ratio >= 0.5,
        "priority scheduling cost too much throughput: ratio {throughput_ratio:.2}"
    );
}
