//! `fig_cluster` — throughput scaling and overload behaviour of the multi-node
//! cluster, measured in a deterministic discrete-event simulation that drives the
//! **production** routing and admission components.
//!
//! Wall-clock scaling experiments need more cores than a CI box has, so this
//! binary separates the two concerns the cluster design actually couples:
//!
//! * the *decisions* — placement ([`Router`]), admission ([`TenantLedger`] under an
//!   [`AdmissionConfig`]), and QoS dequeue order ([`JobScheduler`]) — are made by
//!   the real production types, exactly as `ClusterRuntime` calls them;
//! * the *passage of time* is virtual: per-job service times come from a one-shot
//!   calibration pass that solves every catalog matrix through the real runtime
//!   and reads the **simulated accelerator model time** (deterministic on any
//!   host), and a min-heap advances the clock from event to event.
//!
//! Two experiments, both asserted:
//!
//! 1. **Scaling** — a saturating Poisson trace replayed against 1, 2, and 4 nodes:
//!    throughput at 4 nodes must be **≥ 3×** the single-node throughput
//!    (near-linear despite the Zipf-skewed catalog, because the router spills hot
//!    matrices when affinity would overload their home node).
//! 2. **Overload** — the same cluster offered **2× its service capacity** of
//!    bursty traffic, with and without admission control.  With admission the
//!    excess is shed as typed rejections while the interactive p99 queue wait
//!    stays bounded (≤ [`INTERACTIVE_P99_SERVICE_MULTIPLE`] service times); without
//!    it nothing is shed and the queue wait diverges with trace length.
//!
//! ```text
//! fig_cluster [--quick] [--seed S] [--json PATH]
//! ```
//!
//! A dangling `--seed` or `--json` exits with a one-line usage error and status 2.

use std::collections::BTreeSet;
use std::collections::BinaryHeap;
use std::sync::Arc;

use serde::Serialize;

use refloat_bench::args::{Args, UsageError};
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use refloat_core::ReFloatConfig;
use refloat_matgen::generators;
use refloat_matgen::traffic::{generate, ArrivalProcess, TrafficSpec};
use refloat_runtime::cluster::{AdmissionConfig, AdmissionReject, TenantLedger};
use refloat_runtime::fingerprint::{fnv1a_u64, FNV_OFFSET};
use refloat_runtime::{
    JobScheduler, MatrixHandle, Priority, Router, RouterPolicy, RuntimeConfig, SchedulerPolicy,
    SolvePlan, SolveRuntime,
};
use refloat_solvers::SolverConfig;
use reram_sim::SolverKind;

/// Simulated workers per node (matches the default `serve_traffic` pool).
const WORKERS_PER_NODE: usize = 4;

/// Simulated chips per node, the router's shard-fit capacity signal.
const CHIPS_PER_NODE: usize = 8;

/// Encoding a matrix on a cold node costs this fraction of one solve of the same
/// matrix — the price the affinity router exists to avoid paying per node.
const ENCODE_COST_FRACTION: f64 = 0.75;

/// The overload acceptance bar: with admission on, the interactive p99 queue wait
/// must stay within this many *maximum* service times, however long the trace.
const INTERACTIVE_P99_SERVICE_MULTIPLE: f64 = 5.0;

/// One catalog matrix of the simulated service.
struct CatalogItem {
    name: &'static str,
    handle: MatrixHandle,
    format: ReFloatConfig,
    solver: SolverKind,
    /// The router's shard-fit signal for this matrix.
    shards: usize,
    /// Zipf popularity weight.
    weight: f64,
}

/// A small skewed catalog: the hot stencil dominates traffic, the convection
/// operator is the big multi-shard job that makes shard-fit placement matter.
fn catalog(seed: u64, quick: bool) -> Vec<CatalogItem> {
    let scale = if quick { 16 } else { 32 };
    let fmt = ReFloatConfig::new;
    let raw: Vec<(
        &'static str,
        refloat_sparse::CooMatrix,
        ReFloatConfig,
        SolverKind,
        usize,
    )> = vec![
        (
            "hot-stencil",
            generators::laplacian_2d(scale, scale, 0.1),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
            1,
        ),
        (
            "mass-matrix",
            generators::mass_matrix_3d(scale / 4, scale / 4, scale / 4, 1e-12, 0.8, seed ^ 0x353),
            fmt(7, 3, 8, 3, 8),
            SolverKind::Cg,
            1,
        ),
        (
            "wathen",
            generators::wathen(scale / 4, scale / 4, seed ^ 0x1288),
            fmt(7, 5, 8, 5, 16),
            SolverKind::Cg,
            2,
        ),
        (
            "aniso-stencil",
            generators::anisotropic_9pt(scale, scale, 1.0, 0.05, 1e-3),
            fmt(6, 3, 3, 3, 16),
            SolverKind::Cg,
            2,
        ),
        (
            "scatter-graph",
            generators::random_spd_graph(40 * scale, 6, 1.4, 1.0, seed ^ 0x2257),
            fmt(7, 3, 3, 3, 8),
            SolverKind::Cg,
            4,
        ),
        (
            "convdiff",
            generators::convection_diffusion_2d(scale, scale, 8.0),
            fmt(7, 5, 16, 5, 16),
            SolverKind::BiCgStab,
            6,
        ),
    ];
    raw.into_iter()
        .enumerate()
        .map(|(rank, (name, coo, format, solver, shards))| CatalogItem {
            name,
            handle: MatrixHandle::new(name, coo.to_csr()),
            format,
            solver,
            shards,
            weight: 1.0 / (rank as f64 + 1.0),
        })
        .collect()
}

/// Solves every catalog matrix once through the real runtime and returns the
/// simulated accelerator model time per item — the DES service times.  Model time
/// is a pure function of the numerics, so the calibration (and with it the whole
/// simulation) is deterministic on any host at any worker count.
fn calibrate(catalog: &[CatalogItem], quick: bool) -> Vec<f64> {
    let solver_config = SolverConfig::relative(1e-8)
        .with_max_iterations(if quick { 2_000 } else { 5_000 })
        .with_trace(false);
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    let outcome = runtime.run_batch(catalog.iter().map(|item| {
        SolvePlan::new("calibration", item.handle.clone(), item.format)
            .solver(item.solver)
            .solver_config(solver_config.clone())
            .build()
            .expect("valid calibration plan")
    }));
    assert_eq!(
        outcome.jobs.len(),
        catalog.len(),
        "every calibration job ran"
    );
    catalog
        .iter()
        .map(|item| {
            let job = outcome
                .jobs
                .iter()
                .find(|j| j.telemetry.matrix == item.name)
                .expect("calibration covers the catalog");
            assert!(job.result.converged(), "calibration solve must converge");
            job.telemetry.simulated.total_s
        })
        .collect()
}

/// One node of the simulated cluster: the production scheduler plus the virtual
/// worker/cache state the DES tracks around it.
struct SimNode {
    sched: JobScheduler<SimJob>,
    /// Virtual workers currently running a job.
    busy: usize,
    /// Catalog items already encoded on this node (per-node cache, as in the real
    /// cluster: affinity routing is what keeps this set small).
    warmed: BTreeSet<usize>,
}

/// The DES payload: everything needed to finish the job when its turn comes.
struct SimJob {
    item: usize,
    arrived_s: f64,
    interactive: bool,
    /// Held for the job's whole life; dropping it refunds the tenant's admission
    /// slot exactly as the real cluster does (read only by `Drop`, hence the
    /// underscore).
    _permit: Option<refloat_runtime::cluster::AdmissionPermit>,
}

/// A completion event, ordered by virtual time (bit-ordered `f64`, valid because
/// times are non-negative), tie-broken by job id for full determinism.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Completion(u64, u64, usize);

/// What one simulated serve measured.
struct SimOutcome {
    completed: usize,
    shed_overloaded: usize,
    shed_quota: usize,
    throughput_jobs_per_s: f64,
    interactive_p99_wait_s: f64,
    overall_p99_wait_s: f64,
    affinity_rate: f64,
    encodes: usize,
}

/// Percentile of an unsorted sample (nearest-rank); 0 for an empty sample.
fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((samples.len() as f64 * p).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Replays `trace` against `nodes` simulated nodes in virtual time, making every
/// placement/admission/dequeue decision with the production components.
fn simulate(
    trace: &[refloat_matgen::traffic::Arrival],
    catalog: &[CatalogItem],
    service_s: &[f64],
    nodes: usize,
    admission: AdmissionConfig,
) -> SimOutcome {
    let router = Router::new(RouterPolicy::default());
    let ledger = Arc::new(TenantLedger::new(None));
    let mut sim_nodes: Vec<SimNode> = (0..nodes)
        .map(|_| SimNode {
            // Capacity covers the whole trace so a DES push can never block.
            sched: JobScheduler::new(trace.len() + 1, SchedulerPolicy::default()),
            busy: 0,
            warmed: BTreeSet::new(),
        })
        .collect();
    let chips = vec![CHIPS_PER_NODE; nodes];
    let tenant_names: Vec<Arc<str>> = (0..64).map(|t| Arc::from(format!("tenant-{t}"))).collect();

    let mut completions: BinaryHeap<std::cmp::Reverse<Completion>> = BinaryHeap::new();
    let mut waits_all: Vec<f64> = Vec::new();
    let mut waits_interactive: Vec<f64> = Vec::new();
    let mut shed_overloaded = 0usize;
    let mut shed_quota = 0usize;
    let mut affinity_hits = 0usize;
    let mut routed = 0usize;
    let mut encodes = 0usize;
    let mut completed = 0usize;
    let mut makespan_s = 0.0f64;

    // Starts every idle virtual worker of `node` on the scheduler's next pick.
    let start_ready = |node_index: usize,
                       now_s: f64,
                       sim_nodes: &mut Vec<SimNode>,
                       completions: &mut BinaryHeap<std::cmp::Reverse<Completion>>,
                       waits_all: &mut Vec<f64>,
                       waits_interactive: &mut Vec<f64>,
                       encodes: &mut usize| {
        while sim_nodes[node_index].busy < WORKERS_PER_NODE {
            let Some(popped) = sim_nodes[node_index].sched.try_pop() else {
                break;
            };
            let node = &mut sim_nodes[node_index];
            node.busy += 1;
            let wait_s = now_s - popped.payload.arrived_s;
            waits_all.push(wait_s);
            if popped.payload.interactive {
                waits_interactive.push(wait_s);
            }
            let mut service = service_s[popped.payload.item];
            if node.warmed.insert(popped.payload.item) {
                // Cold matrix on this node: pay the encode before the solve.
                service += ENCODE_COST_FRACTION * service;
                *encodes += 1;
            }
            completions.push(std::cmp::Reverse(Completion(
                (now_s + service).to_bits(),
                popped.id,
                node_index,
            )));
        }
    };

    let mut next_arrival = 0usize;
    let mut next_id = 0u64;
    loop {
        // The next event is whichever comes first: an arrival or a completion.
        let arrival_at = trace.get(next_arrival).map(|a| a.at_s);
        let completion_at = completions
            .peek()
            .map(|std::cmp::Reverse(Completion(bits, _, _))| f64::from_bits(*bits));
        let take_arrival = match (arrival_at, completion_at) {
            (Some(a), Some(c)) => a <= c,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if take_arrival {
            let arrival = &trace[next_arrival];
            next_arrival += 1;
            let id = next_id;
            next_id += 1;
            let tenant = &tenant_names[arrival.tenant % tenant_names.len()];
            let permit = match ledger.try_admit(tenant, &admission) {
                Ok(permit) => Some(permit),
                Err(AdmissionReject::Overloaded { .. }) => {
                    shed_overloaded += 1;
                    continue;
                }
                Err(AdmissionReject::QuotaExceeded { .. }) => {
                    shed_quota += 1;
                    continue;
                }
            };
            let loads: Vec<usize> = sim_nodes.iter().map(|n| n.sched.load()).collect();
            let fingerprint = fnv1a_u64(FNV_OFFSET, arrival.item as u64);
            let placement = router.place(fingerprint, catalog[arrival.item].shards, &loads, &chips);
            routed += 1;
            if placement.kind == refloat_runtime::RouteKind::Affinity {
                affinity_hits += 1;
            }
            // Every 4th arrival is latency-sensitive; the rest are throughput
            // traffic (deterministic assignment, same trace every run).
            let interactive = id.is_multiple_of(4);
            let priority = if interactive {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            let job = SimJob {
                item: arrival.item,
                arrived_s: arrival.at_s,
                interactive,
                _permit: permit,
            };
            sim_nodes[placement.node]
                .sched
                .push(id, priority, None, job)
                .ok()
                .expect("the DES scheduler is sized for the whole trace");
            start_ready(
                placement.node,
                arrival.at_s,
                &mut sim_nodes,
                &mut completions,
                &mut waits_all,
                &mut waits_interactive,
                &mut encodes,
            );
        } else {
            let std::cmp::Reverse(Completion(bits, _, node_index)) =
                completions.pop().expect("peeked completion exists");
            let now_s = f64::from_bits(bits);
            makespan_s = now_s;
            completed += 1;
            sim_nodes[node_index].busy -= 1;
            sim_nodes[node_index].sched.finish_one();
            start_ready(
                node_index,
                now_s,
                &mut sim_nodes,
                &mut completions,
                &mut waits_all,
                &mut waits_interactive,
                &mut encodes,
            );
        }
    }

    SimOutcome {
        completed,
        shed_overloaded,
        shed_quota,
        throughput_jobs_per_s: if makespan_s > 0.0 {
            completed as f64 / makespan_s
        } else {
            0.0
        },
        interactive_p99_wait_s: percentile(&mut waits_interactive, 0.99),
        overall_p99_wait_s: percentile(&mut waits_all, 0.99),
        affinity_rate: if routed > 0 {
            affinity_hits as f64 / routed as f64
        } else {
            0.0
        },
        encodes,
    }
}

#[derive(Serialize)]
struct ClusterRecord {
    experiment: String,
    nodes: usize,
    offered_jobs: usize,
    completed: usize,
    shed_overloaded: usize,
    shed_quota: usize,
    throughput_jobs_per_s: f64,
    interactive_p99_wait_ms: f64,
    overall_p99_wait_ms: f64,
    affinity_rate: f64,
    encodes: usize,
}

fn record(experiment: &str, nodes: usize, offered: usize, outcome: &SimOutcome) -> ClusterRecord {
    ClusterRecord {
        experiment: experiment.to_string(),
        nodes,
        offered_jobs: offered,
        completed: outcome.completed,
        shed_overloaded: outcome.shed_overloaded,
        shed_quota: outcome.shed_quota,
        throughput_jobs_per_s: outcome.throughput_jobs_per_s,
        interactive_p99_wait_ms: outcome.interactive_p99_wait_s * 1e3,
        overall_p99_wait_ms: outcome.overall_p99_wait_s * 1e3,
        affinity_rate: outcome.affinity_rate,
        encodes: outcome.encodes,
    }
}

/// Everything the flags resolved to.
struct Options {
    quick: bool,
    seed: u64,
    /// Where to write the per-run records (JSON), if anywhere.
    json: Option<String>,
}

fn parse_options(args: &Args) -> Result<Options, UsageError> {
    Ok(Options {
        quick: args.switch("--quick"),
        seed: args.u64("--seed")?.unwrap_or(2023),
        json: args.value("--json").map(str::to_string),
    })
}

fn main() {
    let args = Args::from_env("fig_cluster", &["--quick"], &["--seed", "--json"]);
    let options = args.or_exit(parse_options(&args));
    run(&options);
}

fn run(options: &Options) {
    let (quick, seed) = (options.quick, options.seed);
    let jobs = if quick { 1_200 } else { 4_000 };
    println!("fig_cluster: {jobs} offered jobs, seed {seed}");

    let catalog = catalog(seed, quick);
    let item_weights: Vec<f64> = catalog.iter().map(|i| i.weight).collect();
    println!("calibrating service times (real solves, simulated-chip model time):");
    let service_s = calibrate(&catalog, quick);
    let mut mean_service_s = 0.0;
    let weight_total: f64 = item_weights.iter().sum();
    for (item, (&s, &w)) in catalog
        .iter()
        .zip(service_s.iter().zip(item_weights.iter()))
    {
        println!(
            "  {:<14} {:>9} nnz  shards {}  service {:>8.3} ms",
            item.name,
            item.handle.csr().nnz(),
            item.shards,
            s * 1e3
        );
        mean_service_s += s * w / weight_total;
    }
    let max_service_s = service_s.iter().cloned().fold(0.0, f64::max);

    // ---- Experiment 1: throughput scaling under a near-critical Poisson load. ----
    // Offered at 1.2x the 4-node service capacity: the 4-node cluster runs at the
    // edge of saturation (queues stay short, so the router keeps rebalancing work
    // at every arrival), while 1 and 2 nodes are 4.8x / 2.4x oversubscribed and
    // measure pure service capacity.  A much higher offered rate would freeze
    // placement early — most jobs would sit in queues balanced by *count* while
    // their *work* drains unevenly — and understate the cluster's real capacity.
    let capacity_4 = 4.0 * WORKERS_PER_NODE as f64 / mean_service_s;
    let scaling_trace = generate(
        &TrafficSpec {
            jobs,
            tenants: 16,
            tenant_skew: 1.1,
            arrivals: ArrivalProcess::Poisson {
                rate_per_s: 1.2 * capacity_4,
            },
            seed,
        },
        &item_weights,
    );
    let mut records: Vec<ClusterRecord> = Vec::new();
    let mut throughput_by_nodes = Vec::new();
    let mut scaling_table = TextTable::new(vec![
        "nodes",
        "throughput jobs/s",
        "speedup",
        "affinity rate",
        "encodes",
    ]);
    for &nodes in &[1usize, 2, 4] {
        let outcome = simulate(
            &scaling_trace,
            &catalog,
            &service_s,
            nodes,
            AdmissionConfig::default(),
        );
        assert_eq!(
            outcome.completed,
            scaling_trace.len(),
            "unbounded admission completes the whole trace"
        );
        throughput_by_nodes.push(outcome.throughput_jobs_per_s);
        let speedup = outcome.throughput_jobs_per_s / throughput_by_nodes[0];
        scaling_table.row(vec![
            nodes.to_string(),
            format!("{:.1}", outcome.throughput_jobs_per_s),
            format!("{speedup:.2}x"),
            format!("{:.0}%", outcome.affinity_rate * 100.0),
            outcome.encodes.to_string(),
        ]);
        records.push(record("scaling", nodes, scaling_trace.len(), &outcome));
    }
    println!(
        "\nscaling (near-critical Poisson, {jobs} jobs):\n{}",
        scaling_table.render()
    );
    let speedup_4 = throughput_by_nodes[2] / throughput_by_nodes[0];
    assert!(
        speedup_4 >= 3.0,
        "4-node throughput must scale >= 3x over one node, got {speedup_4:.2}x"
    );

    // ---- Experiment 2: 2x overload, with and without admission control. ----
    let nodes = 4;
    let capacity = nodes as f64 * WORKERS_PER_NODE as f64 / mean_service_s;
    let overload_trace = generate(
        &TrafficSpec {
            jobs,
            tenants: 16,
            tenant_skew: 1.1,
            arrivals: ArrivalProcess::Bursty {
                rate_per_s: 2.0 * capacity,
                mean_burst: 6.0,
                within_burst_gap_s: mean_service_s / 100.0,
            },
            seed: seed ^ 0x517,
        },
        &item_weights,
    );
    let max_in_system = 2 * nodes * WORKERS_PER_NODE;
    let admission = AdmissionConfig {
        max_in_system: Some(max_in_system),
        per_tenant_quota: Some(max_in_system / 2),
    };
    let bounded = simulate(&overload_trace, &catalog, &service_s, nodes, admission);
    let unbounded = simulate(
        &overload_trace,
        &catalog,
        &service_s,
        nodes,
        AdmissionConfig::default(),
    );
    let mut overload_table = TextTable::new(vec![
        "admission",
        "completed",
        "shed (over / quota)",
        "interactive p99 wait",
        "overall p99 wait",
    ]);
    for (label, outcome) in [("bounded", &bounded), ("unbounded", &unbounded)] {
        overload_table.row(vec![
            label.to_string(),
            outcome.completed.to_string(),
            format!("{} / {}", outcome.shed_overloaded, outcome.shed_quota),
            format!("{:.1} ms", outcome.interactive_p99_wait_s * 1e3),
            format!("{:.1} ms", outcome.overall_p99_wait_s * 1e3),
        ]);
    }
    println!(
        "overload (bursty at 2x capacity, {nodes} nodes, max in system {max_in_system}):\n{}",
        overload_table.render()
    );
    records.push(record(
        "overload-bounded",
        nodes,
        overload_trace.len(),
        &bounded,
    ));
    records.push(record(
        "overload-unbounded",
        nodes,
        overload_trace.len(),
        &unbounded,
    ));

    let total_shed = bounded.shed_overloaded + bounded.shed_quota;
    assert!(
        total_shed > 0,
        "2x overload with admission bounds must shed typed rejections"
    );
    assert_eq!(
        bounded.completed + total_shed,
        overload_trace.len(),
        "every offered job is either completed or shed, never lost"
    );
    let interactive_bound_s = INTERACTIVE_P99_SERVICE_MULTIPLE * max_service_s;
    assert!(
        bounded.interactive_p99_wait_s <= interactive_bound_s,
        "interactive p99 wait {:.1} ms must stay within {:.1} ms under bounded overload",
        bounded.interactive_p99_wait_s * 1e3,
        interactive_bound_s * 1e3
    );
    assert_eq!(
        unbounded.shed_overloaded + unbounded.shed_quota,
        0,
        "without bounds nothing is shed"
    );
    assert!(
        unbounded.overall_p99_wait_s > 3.0 * bounded.overall_p99_wait_s,
        "unbounded overload must queue far worse than admission-bounded ({:.1} ms vs {:.1} ms)",
        unbounded.overall_p99_wait_s * 1e3,
        bounded.overall_p99_wait_s * 1e3
    );

    println!(
        "cluster scaling {speedup_4:.2}x at 4 nodes; overload shed {total_shed} typed, \
         interactive p99 {:.1} ms bounded",
        bounded.interactive_p99_wait_s * 1e3
    );

    if let Some(path) = &options.json {
        write_json(path, &records).expect("write --json output");
        println!("wrote {path}");
    }
}
