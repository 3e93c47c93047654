//! Workspace-level tests of the multi-node cluster runtime: node attribution,
//! numeric invariance across node/worker counts, typed admission shedding, quota
//! refunds across the router boundary, open-loop trace reproducibility, and the
//! equivalence of the two spellings of a one-node fleet.

use std::sync::Arc;

use refloat::prelude::*;
use refloat::runtime::fingerprint::{fnv1a_u64, FNV_OFFSET};
use refloat::runtime::{DegradedReason, JobOutcome, ManualClock, SubmitError, TraceSink};
use serde::Serialize;

/// A small mixed catalog: repeat fingerprints (affinity traffic) plus a
/// BiCGSTAB lane.
fn catalog() -> Vec<(MatrixHandle, ReFloatConfig, SolverKind)> {
    let gen = &refloat::matgen::generators::laplacian_2d;
    vec![
        (
            MatrixHandle::new("poisson-16", gen(16, 16, 0.3).to_csr()),
            ReFloatConfig::new(4, 3, 8, 3, 8),
            SolverKind::Cg,
        ),
        (
            MatrixHandle::new("poisson-12", gen(12, 12, 0.4).to_csr()),
            ReFloatConfig::new(5, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        (
            MatrixHandle::new(
                "convdiff-10",
                refloat::matgen::generators::convection_diffusion_2d(10, 10, 6.0).to_csr(),
            ),
            ReFloatConfig::new(4, 3, 8, 3, 8),
            SolverKind::BiCgStab,
        ),
    ]
}

fn trace_plans(count: usize) -> Vec<SolvePlan> {
    let catalog = catalog();
    (0..count)
        .map(|i| {
            // Deterministic skew: two thirds of the traffic hits the hot matrix.
            let which = if i % 3 != 2 { 0 } else { 1 + (i / 3) % 2 };
            let (handle, format, solver) = &catalog[which];
            SolvePlan::new(format!("tenant-{}", i % 5), handle.clone(), *format)
                .solver(*solver)
                .build()
                .expect("valid plan")
        })
        .collect()
}

/// Submits every plan, waits in order, and returns the per-job numeric signature
/// (job id, iterations, solution bits) plus the shutdown report.
fn serve(
    client: SolveClient,
    plans: Vec<SolvePlan>,
) -> (Vec<(u64, usize, Vec<u64>)>, RuntimeReport) {
    let tickets: Vec<SolveTicket> = plans
        .into_iter()
        .map(|plan| client.submit(plan).expect("admitted"))
        .collect();
    let mut signatures = Vec::new();
    for ticket in tickets {
        let outcome = ticket.wait().completed().expect("completed");
        assert!(outcome.result.converged());
        signatures.push((
            outcome.job_id,
            outcome.result.iterations,
            outcome.result.x.iter().map(|v| v.to_bits()).collect(),
        ));
    }
    (signatures, client.shutdown())
}

#[test]
fn a_cluster_serves_a_trace_and_attributes_every_job_to_a_node() {
    let client = ClusterRuntime::start(ClusterConfig::uniform(
        3,
        RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        },
    ));
    assert_eq!(client.nodes(), 3);
    let (signatures, report) = serve(client, trace_plans(36));
    assert_eq!(signatures.len(), 36);
    assert_eq!(report.jobs, 36);
    assert_eq!(report.nodes, 3);
    assert_eq!(report.workers, 6);
    assert_eq!(
        report.per_node_jobs.iter().sum::<u64>(),
        36,
        "every job is attributed to exactly one node: {:?}",
        report.per_node_jobs
    );
    assert_eq!(report.shed_overloaded, 0);
    assert_eq!(report.shed_quota, 0);
    // The affinity router concentrates each matrix on few nodes, so per-node
    // caches still hit on the skewed trace.
    assert!(
        report.hit_rate() > 0.5,
        "affinity routing keeps per-node caches warm, hit rate {:.2}",
        report.hit_rate()
    );
}

#[test]
fn numeric_results_are_bitwise_invariant_across_node_and_worker_counts() {
    let single = {
        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        });
        serve(client, trace_plans(24)).0
    };
    for (nodes, workers) in [(2usize, 1usize), (2, 3), (3, 2)] {
        let client = ClusterRuntime::start(ClusterConfig::uniform(
            nodes,
            RuntimeConfig {
                workers,
                ..RuntimeConfig::default()
            },
        ));
        let (signatures, _) = serve(client, trace_plans(24));
        assert_eq!(
            signatures, single,
            "{nodes} nodes x {workers} workers must match the 1x1 runtime bitwise"
        );
    }
}

#[test]
fn the_in_system_bound_sheds_typed_overloaded_errors() {
    let client = ClusterRuntime::start(ClusterConfig {
        nodes: 1,
        node: RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        },
        chips_per_node: Vec::new(),
        admission: AdmissionConfig {
            max_in_system: Some(2),
            per_tenant_quota: None,
        },
        router: Default::default(),
    });
    // Two slow jobs fill the system (one running on the only worker, one queued;
    // the matrix is big enough that neither finishes before the probe below)...
    let a = refloat::matgen::generators::laplacian_2d(24, 24, 0.3).to_csr();
    let handle = MatrixHandle::new("big-poisson", a);
    let blocker = || {
        SolvePlan::new("carol", handle.clone(), ReFloatConfig::new(4, 3, 8, 3, 8))
            .build()
            .expect("valid plan")
    };
    let blockers: Vec<SolveTicket> = (0..2)
        .map(|_| client.submit(blocker()).expect("under the bound"))
        .collect();
    // ...so the third offered job is shed with the typed overload error, and the
    // rejected plan comes back to the caller for retry/downgrade.
    match client.submit(blocker()) {
        Err(SubmitError::Overloaded {
            plan,
            in_system,
            capacity,
        }) => {
            assert_eq!(in_system, 2);
            assert_eq!(capacity, 2);
            assert!(!plan.tenant().is_empty(), "the plan is returned intact");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    for ticket in blockers {
        ticket.wait().completed().expect("blockers complete");
    }
    let report = client.shutdown();
    assert_eq!(report.jobs, 2);
    assert_eq!(report.shed_overloaded, 1);
}

#[test]
fn cancel_refunds_a_tenant_quota_slot_across_the_router_boundary() {
    let client = ClusterRuntime::start(ClusterConfig {
        nodes: 1,
        node: RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        },
        chips_per_node: Vec::new(),
        admission: AdmissionConfig {
            max_in_system: None,
            per_tenant_quota: Some(2),
        },
        router: Default::default(),
    });
    let a = refloat::matgen::generators::laplacian_2d(24, 24, 0.3).to_csr();
    let handle = MatrixHandle::new("big-poisson", a);
    let plan = |tenant: &str| {
        SolvePlan::new(tenant, handle.clone(), ReFloatConfig::new(4, 3, 8, 3, 8))
            .build()
            .expect("valid plan")
    };
    // alice fills her quota: one job runs, one queues.
    let running = client.submit(plan("alice")).expect("first slot");
    let queued = client.submit(plan("alice")).expect("second slot");
    match client.submit(plan("alice")) {
        Err(SubmitError::QuotaExceeded {
            in_system, quota, ..
        }) => {
            assert_eq!(in_system, 2);
            assert_eq!(quota, 2);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // Another tenant is not starved by alice's quota.
    let bob = client.submit(plan("bob")).expect("per-tenant isolation");
    // Cancelling alice's queued job refunds her slot through the router, so the
    // next submit is admitted again.
    assert!(queued.cancel(), "a queued job can still be recalled");
    assert!(matches!(queued.wait(), TicketOutcome::Cancelled));
    let retried = client.submit(plan("alice")).expect("refunded slot");
    for ticket in [running, bob, retried] {
        ticket.wait().completed().expect("completes");
    }
    let report = client.shutdown();
    assert_eq!(report.jobs, 3);
    assert_eq!(report.cancelled_jobs, 1);
    assert_eq!(report.shed_quota, 1);
}

#[test]
fn an_open_loop_trace_replays_to_the_same_digest_on_any_cluster_shape() {
    use refloat::matgen::traffic::{generate, ArrivalProcess, TrafficSpec};
    let spec = TrafficSpec {
        jobs: 18,
        tenants: 4,
        tenant_skew: 1.0,
        arrivals: ArrivalProcess::Bursty {
            rate_per_s: 50.0,
            mean_burst: 4.0,
            within_burst_gap_s: 1e-4,
        },
        seed: 99,
    };
    let catalog = catalog();
    let weights: Vec<f64> = (0..catalog.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let trace = generate(&spec, &weights);
    assert_eq!(
        trace,
        generate(&spec, &weights),
        "traces are bitwise-reproducible"
    );
    let serve_trace = |nodes: usize, workers: usize| {
        let client = ClusterRuntime::start(ClusterConfig::uniform(
            nodes,
            RuntimeConfig {
                workers,
                ..RuntimeConfig::default()
            },
        ));
        let plans: Vec<SolvePlan> = trace
            .iter()
            .map(|arrival| {
                let (handle, format, solver) = &catalog[arrival.item];
                SolvePlan::new(
                    format!("tenant-{}", arrival.tenant),
                    handle.clone(),
                    *format,
                )
                .solver(*solver)
                .build()
                .expect("valid plan")
            })
            .collect();
        serve(client, plans).0
    };
    let reference = serve_trace(1, 2);
    assert_eq!(serve_trace(2, 1), reference);
    assert_eq!(serve_trace(3, 2), reference);
}

/// Everything one pass of [`every_kind_of_job`] leaves behind.
#[derive(Debug, PartialEq)]
struct Footprint {
    /// One digest per resolved ticket, in submission order.
    outcomes: Vec<u64>,
    /// The live registry's counters once every ticket has resolved.
    counters: Vec<(String, u64)>,
    report: serde::Value,
    trace_jsonl: String,
}

/// How a ticket resolved, everything but host time: the outcome kind, the job id
/// and, when the job ran, its solutions bit for bit and its simulated cycles.
fn outcome_digest(outcome: &TicketOutcome) -> u64 {
    let job = |mut digest: u64, job: &JobOutcome| {
        digest = fnv1a_u64(digest, job.job_id);
        for result in std::iter::once(&job.result).chain(&job.extra_results) {
            digest = fnv1a_u64(digest, result.iterations as u64);
            for value in &result.x {
                digest = fnv1a_u64(digest, value.to_bits());
            }
        }
        fnv1a_u64(digest, job.telemetry.simulated.cycles)
    };
    match outcome {
        TicketOutcome::Completed(outcome) => job(fnv1a_u64(FNV_OFFSET, 0), outcome),
        TicketOutcome::Cancelled => fnv1a_u64(FNV_OFFSET, 1),
        TicketOutcome::Failed(message) => fnv1a_u64(FNV_OFFSET, 2 + message.len() as u64),
        TicketOutcome::Degraded(degraded) => {
            assert_eq!(degraded.reason, DegradedReason::ChipKilled);
            assert!(degraded.outcome.is_none(), "a dead chip ran nothing");
            fnv1a_u64(fnv1a_u64(FNV_OFFSET, 3), degraded.job_id)
        }
    }
}

/// One job of every kind — plain, multi-RHS, sharded, refined, a 4-step sequence, a
/// cancel-before-start and, last, a job stranded on a fleet whose every chip is
/// dead — through the client `start` returns, under the deterministic contract
/// (`ManualClock`, one worker, FIFO).  A one-slot queue makes the queue-depth peak
/// reproducible too: the submission behind the long solve returns only once the
/// worker has taken the long solve off the queue.
fn every_kind_of_job(start: impl FnOnce(RuntimeConfig) -> SolveClient) -> Footprint {
    let sink = Arc::new(TraceSink::new(Arc::new(ManualClock::new())));
    let client = start(RuntimeConfig {
        workers: 1,
        queue_capacity: 1,
        scheduler: SchedulerPolicy::fifo(),
        trace: Some(Arc::clone(&sink)),
        ..RuntimeConfig::default()
    });
    let poisson = |n: usize| {
        MatrixHandle::new(
            format!("poisson-{n}"),
            refloat::matgen::generators::laplacian_2d(n, n, 0.3).to_csr(),
        )
    };
    let (p16, p20, p48) = (poisson(16), poisson(20), poisson(48));
    let wide = ReFloatConfig::new(4, 3, 8, 3, 8);
    let rhs = |scale: f64| Arc::new(vec![scale; p16.csr().nrows()]);
    let shapes = [
        SolvePlan::new("t", p16.clone(), wide),
        SolvePlan::new("t", p16.clone(), wide).rhs_batch(vec![rhs(1.0), rhs(0.5), rhs(2.0)]),
        SolvePlan::new("t", p20, wide).sharding(4),
        SolvePlan::new("t", p16, ReFloatConfig::new(4, 3, 3, 3, 8))
            .refinement(RefinementSpec::to_target(1e-10)),
    ];
    let mut outcomes = Vec::new();
    for plan in shapes {
        let outcome = client.submit(plan.build().unwrap()).unwrap().wait();
        assert!(
            matches!(outcome, TicketOutcome::Completed(_)),
            "{outcome:?}"
        );
        outcomes.push(outcome_digest(&outcome));
    }
    let mut sequence = client.sequence();
    let chain = TransientChain::new(
        refloat::matgen::fem::poisson_2d(10, 9, 0.2, 13),
        TransientSpec::default().with_steps(4).with_seed(29),
    );
    for step in chain {
        let handle = MatrixHandle::new(format!("step-{}", step.index), step.matrix);
        let plan = SolvePlan::new("sim", handle, wide).rhs(Arc::new(step.rhs));
        let outcome = sequence.step(plan.build().unwrap()).unwrap();
        assert!(
            matches!(outcome, TicketOutcome::Completed(_)),
            "{outcome:?}"
        );
        outcomes.push(outcome_digest(&outcome));
    }
    assert_eq!(sequence.steps(), 4);

    let long = SolvePlan::new("t", p48.clone(), wide).build().unwrap();
    let running = client.submit(long).unwrap();
    let queued = client
        .submit(SolvePlan::new("recalled", p48, wide).build().unwrap())
        .unwrap();
    assert!(queued.cancel(), "the one worker is still on the long solve");
    for ticket in [running, queued] {
        outcomes.push(outcome_digest(&ticket.wait()));
    }

    assert!(client.kill_chip(0));
    let stranded = SolvePlan::new("t", poisson(8), wide).build().unwrap();
    let outcome = client.submit(stranded).unwrap().wait();
    assert!(outcome.is_degraded(), "{outcome:?}");
    outcomes.push(outcome_digest(&outcome));

    let counters = client.metrics_snapshot().counters;
    let report = client.shutdown();
    assert_eq!((report.jobs, report.cancelled_jobs), (9, 1));
    assert_eq!((report.degraded_jobs, report.nodes), (1, 1));
    Footprint {
        outcomes,
        counters,
        report: report.to_value(),
        trace_jsonl: sink.export_jsonl(),
    }
}

#[test]
fn a_single_node_runtime_is_the_one_node_cluster() {
    let runtime = every_kind_of_job(SolveRuntime::start);
    let cluster =
        every_kind_of_job(|config| ClusterRuntime::start(ClusterConfig::uniform(1, config)));
    // Byte-identical JSONL trace, equal report, equal outcomes, equal counters.
    assert_eq!(runtime, cluster);
    assert_eq!(runtime.outcomes.len(), 11);
    let routed = runtime
        .counters
        .iter()
        .find(|(name, _)| name == "jobs_routed");
    assert_eq!(
        routed.map(|(_, n)| *n),
        Some(11),
        "every submission is routed"
    );
    let spans = |kind: &str| {
        let needle = format!("\"kind\":\"{kind}\"");
        runtime.trace_jsonl.matches(&needle).count()
    };
    assert_eq!((spans("admit"), spans("route")), (11, 11));
    assert_eq!(
        spans("dequeue"),
        9,
        "the recalled and the stranded job never ran"
    );
}
