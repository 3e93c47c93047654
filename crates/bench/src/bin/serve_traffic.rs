//! `serve_traffic` — replays a synthetic multi-tenant trace through the
//! `refloat-runtime` solve service: mixed Table V-style workloads, mixed ReFloat
//! formats, skewed matrix popularity (a few hot matrices take most of the traffic),
//! CG and BiCGSTAB jobs interleaved across a pool of simulated accelerators.
//!
//! Prints the runtime report (throughput, p50/p99 latency, cache hit rate, simulated
//! chip time) plus a determinism digest over the numeric results: at a fixed `--seed`
//! the digest is identical across runs, worker counts, **and node counts**, because
//! every job's numerics are independent of scheduling and placement.
//!
//! ```text
//! serve_traffic [--jobs N] [--workers N] [--seed S] [--cache N] [--quick]
//!               [--json PATH] [--trace PATH]
//!               [--nodes N] [--max-in-system N] [--quota N]
//!               [--arrivals poisson|bursty] [--rate JOBS_PER_S]
//!               [--tenants N] [--skew S]
//! ```
//!
//! * `--nodes N` serves the trace through an N-node [`ClusterRuntime`] (affinity
//!   router, per-node caches); without it the client comes from
//!   [`SolveRuntime::start`], which is the same thing at N = 1.  `--max-in-system` /
//!   `--quota` add admission bounds (they require `--nodes`).
//! * `--arrivals` switches from the closed-loop replay to **open-loop** traffic:
//!   arrival times come from a seeded Poisson/bursty process
//!   (`refloat_matgen::traffic`) and are paced in real time, so the offered load —
//!   set with `--rate`, skewed over `--tenants` by `--skew` — does not adapt to
//!   the service.  Over-capacity submissions are *shed* (typed, counted), which is
//!   the regime the digest is not defined for (the completed set depends on
//!   timing); the digest is printed for closed-loop runs only.
//!
//! Bad flag combinations (`--rate` without `--arrivals`, `--nodes 0`, `--arrivals
//! never`) exit with a one-line usage error and status 2 — never a panic.
//!
//! `--trace PATH` attaches a span/event [`TraceSink`] to the runtime and writes the
//! JSONL export to `PATH` after the drain; `--json PATH` writes one record per
//! completed job.  Either flag without a path is a usage error, like every other.

use std::sync::Arc;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

use refloat_bench::args::{Args, UsageError};
use refloat_bench::json::write_json;
use refloat_core::ReFloatConfig;
use refloat_matgen::generators;
use refloat_matgen::traffic::{generate, ArrivalProcess, TrafficSpec};
use refloat_runtime::cluster::{AdmissionConfig, ClusterConfig, ClusterRuntime};
use refloat_runtime::fingerprint::fnv1a_u64;
use refloat_runtime::{
    JobOutcome, MatrixHandle, RuntimeConfig, RuntimeReport, SolveClient, SolvePlan, SolveRuntime,
    SolveTicket, SubmitError, TicketOutcome,
};
use refloat_solvers::SolverConfig;
use refloat_telemetry::TraceSink;
use reram_sim::SolverKind;

/// One entry of the tenant-visible matrix catalog.
struct CatalogEntry {
    handle: MatrixHandle,
    format: ReFloatConfig,
    solver: SolverKind,
    /// Zipf-style popularity weight (rank-skewed).
    weight: f64,
}

/// Small synthetic analogues of the Table V workload classes (full-size Table V
/// matrices take minutes to generate; the trace wants mixed *shapes*, not size).
fn catalog(seed: u64, quick: bool) -> Vec<CatalogEntry> {
    let scale = if quick { 24 } else { 48 };
    let fmt = ReFloatConfig::new;
    let raw: Vec<(&str, refloat_sparse::CooMatrix, ReFloatConfig, SolverKind)> = vec![
        // Hot grid stencil (minsurfo-like), paper-default bits.
        (
            "minsurfo-s",
            generators::laplacian_2d(scale, scale, 0.1),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        // FEM mass matrix with ~1e-12 entries (crystm-like), f = 8 (see EXPERIMENTS E10).
        (
            "crystm-s",
            generators::mass_matrix_3d(scale / 4, scale / 4, scale / 4, 1e-12, 0.8, seed ^ 0x353),
            fmt(7, 3, 8, 3, 8),
            SolverKind::Cg,
        ),
        // Wathen FEM matrix: random per-element densities spread exponents well beyond
        // the e = 3 window at this small scale, so this tenant buys wider offsets and
        // the fv = 16 vector fraction (the Table VII wide-vector class).
        (
            "wathen-s",
            generators::wathen(scale / 3, scale / 3, seed ^ 0x1288),
            fmt(7, 5, 8, 5, 16),
            SolverKind::Cg,
        ),
        // Sphere ring with huge physical constants (shallow_water-like).
        (
            "shallow-s",
            generators::sphere_ring_3regular(64 * scale, 1e12, 0.18),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        // Anisotropic stencil (gridgena-like), smaller blocks.
        (
            "gridgena-s",
            generators::anisotropic_9pt(scale, scale, 1.0, 0.05, 1e-3),
            fmt(6, 3, 3, 3, 16),
            SolverKind::Cg,
        ),
        // Scattered graph, O(1) entries (thermomech_TC-like).
        (
            "thermomech-s",
            generators::random_spd_graph(60 * scale, 6, 1.4, 1.0, seed ^ 0x2257),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        // Scattered graph with tiny entries (thermomech_dM-like).
        (
            "thermomech-dm-s",
            generators::random_spd_graph(60 * scale, 6, 1.4, 1e-10, seed ^ 0x2259),
            fmt(6, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        // Non-symmetric convection–diffusion: the BiCGSTAB lane.  BiCGSTAB amplifies
        // saturation error on this operator, so this tenant runs near-double bits.
        (
            "convdiff-s",
            generators::convection_diffusion_2d(scale, scale, 8.0),
            fmt(7, 5, 16, 5, 16),
            SolverKind::BiCgStab,
        ),
    ];
    raw.into_iter()
        .enumerate()
        .map(|(rank, (name, coo, format, solver))| CatalogEntry {
            handle: MatrixHandle::new(name, coo.to_csr()),
            format,
            solver,
            // Zipf-like skew: rank 0 is ~9x more popular than rank 7.
            weight: 1.0 / (rank as f64 + 1.0),
        })
        .collect()
}

/// Draws a catalog index with probability proportional to the entries' weights.
fn pick(weights: &[f64], rng: &mut ChaCha8Rng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut ticket = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        ticket -= w;
        if ticket <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[derive(Serialize)]
struct TraceRecord {
    job_id: u64,
    tenant: String,
    matrix: String,
    solver: String,
    cache: String,
    node: u64,
    iterations: u64,
    converged: bool,
    queue_wait_ms: f64,
    encode_ms: f64,
    solve_ms: f64,
    latency_ms: f64,
    simulated_cycles: u64,
    simulated_s: f64,
}

/// Everything the flags resolved to.
struct Options {
    quick: bool,
    jobs: usize,
    workers: usize,
    seed: u64,
    cache_capacity: usize,
    /// `Some(n)` = serve through an n-node cluster.
    nodes: Option<usize>,
    admission: AdmissionConfig,
    /// `Some` = open-loop traffic instead of the closed-loop replay.
    open_loop: Option<OpenLoopOptions>,
    /// Where to write the span trace (JSONL), if anywhere.
    trace: Option<String>,
    /// Where to write the per-job records (JSON), if anywhere.
    json: Option<String>,
}

struct OpenLoopOptions {
    arrivals: ArrivalProcess,
    tenants: usize,
    skew: f64,
}

/// The value flags `serve_traffic` takes; `--quick` is its one switch.
const VALUE_FLAGS: &[&str] = &[
    "--jobs",
    "--workers",
    "--seed",
    "--cache",
    "--json",
    "--trace",
    "--nodes",
    "--max-in-system",
    "--quota",
    "--arrivals",
    "--rate",
    "--tenants",
    "--skew",
];

fn parse_options(args: &Args) -> Result<Options, UsageError> {
    let quick = args.switch("--quick");
    let jobs = args.u64("--jobs")?.unwrap_or(240) as usize;
    let workers = args.positive_usize("--workers")?.unwrap_or(4);
    let seed = args.u64("--seed")?.unwrap_or(2023);
    let cache_capacity = args.positive_usize("--cache")?.unwrap_or(32);
    let nodes = args.positive_usize("--nodes")?;

    // Admission bounds only exist at the cluster layer.
    args.require_with("--max-in-system", nodes.is_some(), "--nodes")?;
    args.require_with("--quota", nodes.is_some(), "--nodes")?;
    let admission = AdmissionConfig {
        max_in_system: args.positive_usize("--max-in-system")?,
        per_tenant_quota: args.positive_usize("--quota")?,
    };

    // Traffic-shape flags only exist in open-loop mode.
    let arrivals_kind = args.value("--arrivals");
    let open = arrivals_kind.is_some();
    args.require_with("--rate", open, "--arrivals")?;
    args.require_with("--tenants", open, "--arrivals")?;
    args.require_with("--skew", open, "--arrivals")?;
    let open_loop = match arrivals_kind {
        None => None,
        Some(kind) => {
            let rate_per_s = args.positive_f64("--rate")?.unwrap_or(25.0);
            let arrivals = match kind {
                "poisson" => ArrivalProcess::Poisson { rate_per_s },
                "bursty" => ArrivalProcess::Bursty {
                    rate_per_s,
                    mean_burst: 6.0,
                    within_burst_gap_s: 1e-4,
                },
                other => {
                    return Err(UsageError::UnknownValue {
                        flag: "--arrivals".to_string(),
                        value: other.to_string(),
                        allowed: "poisson, bursty",
                    })
                }
            };
            Some(OpenLoopOptions {
                arrivals,
                tenants: args.positive_usize("--tenants")?.unwrap_or(16),
                skew: args.nonneg_f64("--skew")?.unwrap_or(1.1),
            })
        }
    };
    Ok(Options {
        quick,
        jobs,
        workers,
        seed,
        cache_capacity,
        nodes,
        admission,
        open_loop,
        trace: args.value("--trace").map(str::to_string),
        json: args.value("--json").map(str::to_string),
    })
}

/// Builds one trace plan (closed- and open-loop share the construction, so the
/// numerics of job `i` on catalog entry `which` are mode-independent).
fn build_plan(tenant: String, entry: &CatalogEntry, solver_config: &SolverConfig) -> SolvePlan {
    SolvePlan::new(tenant, entry.handle.clone(), entry.format)
        .solver(entry.solver)
        .solver_config(solver_config.clone())
        .build()
        .expect("valid trace plan")
}

/// What a serving pass hands back to the shared reporting tail.
struct ServeResult {
    jobs: Vec<JobOutcome>,
    report: RuntimeReport,
    shed: u64,
    /// Closed-loop runs compute the determinism digest; open-loop runs don't (the
    /// completed set depends on real-time shedding).
    digest: Option<u64>,
}

/// Waits for every ticket, in submission order, and shuts the client down.
fn collect(client: SolveClient, tickets: Vec<SolveTicket>) -> (Vec<JobOutcome>, RuntimeReport) {
    let jobs: Vec<JobOutcome> = tickets
        .into_iter()
        .filter_map(|t| match t.wait() {
            TicketOutcome::Completed(outcome) => Some(*outcome),
            TicketOutcome::Cancelled => None,
            TicketOutcome::Failed(message) => panic!("trace job panicked: {message}"),
            // No fault policy and no kills in this binary: a degraded job would
            // mean the clean path regressed, and it must never leave the digest.
            TicketOutcome::Degraded(job) => panic!(
                "trace job {} degraded ({:?}) on a fault-free run",
                job.job_id, job.reason
            ),
        })
        .collect();
    let report = client.shutdown();
    (jobs, report)
}

/// Closed-loop replay: the whole trace is submitted from this thread, which blocks
/// while the chosen node's queue is full (backpressure).  Its digest is the
/// cross-PR determinism anchor.
fn serve_closed_loop(
    client: SolveClient,
    picks: &[usize],
    catalog: &[CatalogEntry],
    solver_config: &SolverConfig,
) -> ServeResult {
    let tickets: Vec<SolveTicket> = picks
        .iter()
        .enumerate()
        .map(|(i, &which)| {
            client
                .submit(build_plan(
                    format!("tenant-{}", i % 16),
                    &catalog[which],
                    solver_config,
                ))
                .expect("a closed-loop run has no admission bounds to shed on")
        })
        .collect();
    let (jobs, report) = collect(client, tickets);
    ServeResult {
        digest: Some(digest_of(&jobs)),
        jobs,
        report,
        shed: 0,
    }
}

/// Open-loop traffic: arrivals are paced by the trace, not by completions, so the
/// service sees the configured offered load whether or not it keeps up.
fn serve_open_loop(
    client: SolveClient,
    open: &OpenLoopOptions,
    options: &Options,
    catalog: &[CatalogEntry],
    solver_config: &SolverConfig,
) -> ServeResult {
    let weights: Vec<f64> = catalog.iter().map(|e| e.weight).collect();
    let spec = TrafficSpec {
        jobs: options.jobs,
        tenants: open.tenants,
        tenant_skew: open.skew,
        arrivals: open.arrivals,
        seed: options.seed,
    };
    let trace = generate(&spec, &weights);
    println!(
        "open-loop: {} arrivals over {:.2}s offered ({:.1} jobs/s, {} tenants, skew {})",
        trace.len(),
        trace.last().map(|a| a.at_s).unwrap_or(0.0),
        open.arrivals.rate_per_s(),
        open.tenants,
        open.skew,
    );
    // refloat-analysis: allow(wall-clock-in-deterministic-path) — open-loop pacing
    // is *defined* by host time: arrivals must land at their trace offsets in real
    // time whether or not the service keeps up.  The digest is not computed here.
    let started = std::time::Instant::now();
    let mut tickets = Vec::with_capacity(trace.len());
    let mut shed = 0u64;
    for arrival in &trace {
        // Pace to the trace: sleep until this arrival's offset has elapsed.
        // refloat-analysis: allow(wall-clock-in-deterministic-path) — see above.
        let elapsed = started.elapsed().as_secs_f64();
        if arrival.at_s > elapsed {
            std::thread::sleep(std::time::Duration::from_secs_f64(arrival.at_s - elapsed));
        }
        let plan = build_plan(
            format!("tenant-{}", arrival.tenant),
            &catalog[arrival.item],
            solver_config,
        );
        match client.submit(plan) {
            Ok(ticket) => tickets.push(ticket),
            Err(SubmitError::Overloaded { .. }) | Err(SubmitError::QuotaExceeded { .. }) => {
                shed += 1;
            }
            Err(SubmitError::Closed(_)) => panic!("client closed mid-trace"),
        }
    }
    let (jobs, report) = collect(client, tickets);
    ServeResult {
        jobs,
        report,
        shed,
        digest: None,
    }
}

/// The determinism digest: numeric results only (iterations + solution
/// checksums), independent of scheduling, wall-clock, worker and node counts.
fn digest_of(jobs: &[JobOutcome]) -> u64 {
    let mut digest = refloat_runtime::fingerprint::FNV_OFFSET;
    for job in jobs {
        digest = fnv1a_u64(digest, job.job_id);
        digest = fnv1a_u64(digest, job.result.iterations as u64);
        let checksum: f64 = job.result.x.iter().sum();
        digest = fnv1a_u64(digest, checksum.to_bits());
    }
    digest
}

fn main() {
    let args = Args::from_env("serve_traffic", &["--quick"], VALUE_FLAGS);
    let options = args.or_exit(parse_options(&args));
    run(&options);
}

fn run(options: &Options) {
    let (quick, jobs, workers) = (options.quick, options.jobs, options.workers);
    let (seed, cache_capacity, nodes) = (options.seed, options.cache_capacity, options.nodes);
    println!("serve_traffic: {jobs} jobs, {workers} workers, seed {seed}, cache {cache_capacity}");
    if let Some(n) = nodes {
        println!(
            "cluster: {n} nodes, admission max_in_system={:?} quota={:?}",
            options.admission.max_in_system, options.admission.per_tenant_quota
        );
    }
    let catalog = catalog(seed, quick);
    let weights: Vec<f64> = catalog.iter().map(|e| e.weight).collect();
    println!("catalog: {} matrices", catalog.len());
    for entry in &catalog {
        println!(
            "  {:<16} {:>7} rows {:>9} nnz  {}  {:?}",
            entry.handle.name(),
            entry.handle.csr().nrows(),
            entry.handle.csr().nnz(),
            entry.format,
            entry.solver,
        );
    }

    // Build the trace up front (deterministic in the seed), then stream it through the
    // runtime with backpressure.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let picks: Vec<usize> = (0..jobs).map(|_| pick(&weights, &mut rng)).collect();
    let solver_config = SolverConfig::relative(1e-8)
        .with_max_iterations(if quick { 2_000 } else { 5_000 })
        .with_trace(false);

    // A wall-clock trace sink when asked for; span timestamps are host-dependent but
    // the event *stream* (kinds, details, per-job order) is part of the determinism
    // contract checked below.
    let trace_sink = options.trace.as_ref().map(|_| Arc::new(TraceSink::wall()));

    let node_config = RuntimeConfig {
        workers,
        queue_capacity: 2 * workers.max(1),
        cache_capacity,
        trace: trace_sink.clone(),
        ..RuntimeConfig::default()
    };
    // Two spellings of one front door: the CI smoke checks that `--nodes 1` and no
    // `--nodes` print the same digest and the same trace-event count.
    let client = match nodes {
        Some(n) => ClusterRuntime::start(ClusterConfig {
            nodes: n,
            node: node_config,
            chips_per_node: Vec::new(),
            admission: options.admission,
            router: Default::default(),
        }),
        None => SolveRuntime::start(node_config),
    };
    let outcome = match &options.open_loop {
        Some(open) => serve_open_loop(client, open, options, &catalog, &solver_config),
        None => serve_closed_loop(client, &picks, &catalog, &solver_config),
    };

    // Per-matrix traffic summary (closed-loop replays only; open-loop prints its
    // own offered-load line above and the report's tenant totals below).
    if options.open_loop.is_none() {
        let mut counts = vec![0usize; catalog.len()];
        for &which in &picks {
            counts[which] += 1;
        }
        println!("\ntraffic (skewed popularity):");
        for (entry, count) in catalog.iter().zip(counts.iter()) {
            println!("  {:<16} {:>5} jobs", entry.handle.name(), count);
        }
    }

    println!("\n{}", outcome.report.render());
    if outcome.shed > 0 {
        println!(
            "shed {} of {} offered jobs (typed rejections; completed {})",
            outcome.shed,
            jobs,
            outcome.jobs.len()
        );
    }

    if let Some(digest) = outcome.digest {
        println!("determinism digest: {digest:016x}");
    }

    if let (Some(path), Some(sink)) = (&options.trace, &trace_sink) {
        std::fs::write(path, sink.export_jsonl()).expect("write --trace output");
        println!("wrote {path} ({} trace events)", sink.len());
    }

    if let Some(path) = &options.json {
        let records: Vec<TraceRecord> = outcome
            .jobs
            .iter()
            .map(|job| TraceRecord {
                job_id: job.job_id,
                tenant: job.telemetry.tenant.clone(),
                matrix: job.telemetry.matrix.clone(),
                solver: match job.telemetry.solver {
                    SolverKind::Cg => "CG".to_string(),
                    SolverKind::BiCgStab => "BiCGSTAB".to_string(),
                },
                cache: job.telemetry.cache.label().to_string(),
                node: job.telemetry.node as u64,
                iterations: job.telemetry.iterations as u64,
                converged: job.telemetry.converged,
                queue_wait_ms: job.telemetry.queue_wait_s * 1e3,
                encode_ms: job.telemetry.encode_s * 1e3,
                solve_ms: job.telemetry.solve_s * 1e3,
                latency_ms: job.telemetry.latency_s * 1e3,
                simulated_cycles: job.telemetry.simulated.cycles,
                simulated_s: job.telemetry.simulated.total_s,
            })
            .collect();
        write_json(path, &records).expect("write --json output");
        println!("wrote {path}");
    }

    // The acceptance bar for the skewed trace; fail loudly if the service regresses.
    // Only meaningful when there is traffic and the cache can hold the working set —
    // deliberately starving the cache (--cache 1) is a legitimate experiment, not a
    // regression.  Multi-node runs split the working set over per-node caches, so
    // the bar applies to the single-pool paths where it was calibrated.
    let hit_rate = outcome.report.hit_rate();
    if !outcome.jobs.is_empty() && cache_capacity >= catalog.len() && nodes.unwrap_or(1) == 1 {
        assert!(
            hit_rate > 0.5,
            "skewed trace should be cache-friendly: hit rate {:.1}% <= 50%",
            hit_rate * 100.0
        );
    }
    let unconverged = outcome
        .jobs
        .iter()
        .filter(|j| !j.result.converged())
        .count();
    assert_eq!(unconverged, 0, "{unconverged} jobs failed to converge");
}
