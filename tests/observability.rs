//! Workspace-level tests of the observability layer: the live metrics registry must
//! be pollable on an undrained runtime, trace streams must honour the deterministic
//! export contract, and the JSONL export must round-trip through the serde shim.

use std::sync::Arc;

use refloat::prelude::*;
use refloat::runtime::{
    metric_names, parse_jsonl, ManualClock, MetricSource, MetricsSnapshot, RuntimeReport, SpanKind,
    TraceSink, METRIC_TABLE,
};

/// A small deterministic mixed trace (two matrices, skewed 2:1).
fn plans(count: usize) -> Vec<SolvePlan> {
    let poisson = MatrixHandle::new(
        "poisson-12",
        refloat::matgen::generators::laplacian_2d(12, 12, 0.3).to_csr(),
    );
    let mass = MatrixHandle::new(
        "mass-5",
        refloat::matgen::generators::mass_matrix_3d(5, 5, 5, 1e-12, 0.5, 3).to_csr(),
    );
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);
    (0..count)
        .map(|i| {
            let handle = if i % 3 == 2 { &mass } else { &poisson };
            SolvePlan::new(format!("tenant-{}", i % 4), handle.clone(), format)
                .solver_config(
                    SolverConfig::relative(1e-8)
                        .with_max_iterations(2_000)
                        .with_trace(false),
                )
                .build()
                .expect("valid plan")
        })
        .collect()
}

/// Every row of the metric table exists in an idle snapshot: counters at zero,
/// histograms empty, gauges present — so dashboards keyed on a metric name never
/// key-error, single node or cluster.
fn assert_idle_vocabulary(idle: &MetricsSnapshot) {
    assert!(!idle.is_empty());
    for &(name, source) in METRIC_TABLE {
        match source {
            MetricSource::RowCounter(..) | MetricSource::ServiceCounter => {
                assert_eq!(idle.counter(name), Some(0), "{name} registered at spawn")
            }
            MetricSource::RowSeconds(..) => assert_eq!(
                idle.histogram(name).map(|h| h.count),
                Some(0),
                "{name} registered at spawn"
            ),
            MetricSource::ServiceGauge => {
                assert!(idle.gauge(name).is_some(), "{name} registered at spawn")
            }
        }
    }
}

/// After shutdown, every table counter in `report.metrics` equals what the last
/// live poll read: per-row counters replayed from the telemetry rows, service-level
/// ones carried over.
fn assert_report_counters_match_live(report: &RuntimeReport, live: &MetricsSnapshot) {
    for &(name, source) in METRIC_TABLE {
        if matches!(
            source,
            MetricSource::RowCounter(..) | MetricSource::ServiceCounter
        ) {
            assert_eq!(report.metrics.counter(name), live.counter(name), "{name}");
        }
    }
}

#[test]
fn live_metrics_snapshot_is_populated_before_drain() {
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 2,
        queue_capacity: 32,
        ..RuntimeConfig::default()
    });

    // Poll the registry before any traffic: the full vocabulary exists at zero, so
    // dashboards keyed on a metric name never key-error.
    let idle = client.metrics_snapshot();
    assert_idle_vocabulary(&idle);
    assert_eq!(idle.gauge(metric_names::WORKERS), Some(2.0));
    assert_eq!(idle.gauge(metric_names::NODES), Some(1.0));

    // Submit traffic and wait for completion — but do NOT shut down: the runtime is
    // live and undrained when the snapshot is taken.
    let tickets: Vec<SolveTicket> = plans(9)
        .into_iter()
        .map(|p| client.submit(p).expect("service is accepting"))
        .collect();
    for ticket in tickets {
        assert!(ticket.wait().completed().is_some());
    }

    let live = client.metrics_snapshot();
    assert_eq!(live.counter(metric_names::JOBS_COMPLETED), Some(9));
    assert_eq!(live.counter(metric_names::JOBS_CONVERGED), Some(9));
    let hits = live.counter(metric_names::CACHE_HITS).unwrap();
    let misses = live.counter(metric_names::CACHE_MISSES).unwrap();
    let coalesced = live.counter(metric_names::CACHE_COALESCED).unwrap();
    assert_eq!(hits + misses + coalesced, 9);
    assert_eq!(live.histogram(metric_names::LATENCY_S).unwrap().count, 9);
    assert!(live.counter(metric_names::SIMULATED_CYCLES).unwrap() > 0);

    // The drained report's registry-backed aggregate agrees with the live registry.
    let report = client.shutdown();
    assert_eq!(report.jobs as u64, 9);
    assert_eq!(
        report.metrics.counter(metric_names::JOBS_COMPLETED),
        Some(9)
    );
    assert_report_counters_match_live(&report, &live);
}

#[test]
fn a_live_undrained_cluster_reports_node_and_tenant_dimensions() {
    let client = ClusterRuntime::start(ClusterConfig::uniform(
        2,
        RuntimeConfig {
            workers: 2,
            ..RuntimeConfig::default()
        },
    ));

    // The cluster vocabulary is registered at spawn, before any traffic, so a
    // dashboard keyed on node/tenant metric names never key-errors.
    let idle = client.metrics_snapshot();
    assert_idle_vocabulary(&idle);
    assert_eq!(idle.gauge(metric_names::NODES), Some(2.0));
    assert_eq!(idle.gauge(metric_names::WORKERS), Some(4.0));
    assert_eq!(idle.gauge(metric_names::TENANTS_ACTIVE), Some(0.0));
    for node in 0..2 {
        assert_eq!(
            idle.counter(&metric_names::node_jobs_completed(node)),
            Some(0),
            "node {node} counter exists at zero"
        );
    }

    // Serve traffic and poll again WITHOUT shutting down: the cluster is live and
    // undrained when this snapshot is taken.
    let tickets: Vec<SolveTicket> = plans(12)
        .into_iter()
        .map(|p| client.submit(p).expect("cluster is accepting"))
        .collect();
    for ticket in tickets {
        assert!(ticket.wait().completed().is_some());
    }
    let live = client.metrics_snapshot();
    assert_eq!(live.counter(metric_names::JOBS_COMPLETED), Some(12));
    assert_eq!(live.counter(metric_names::JOBS_ROUTED), Some(12));
    let per_node: u64 = (0..2)
        .map(|n| {
            live.counter(&metric_names::node_jobs_completed(n))
                .expect("per-node counter exists")
        })
        .sum();
    assert_eq!(per_node, 12, "node counters partition the completed jobs");
    // All permits were released on completion, so no tenant is in-system.
    assert_eq!(live.gauge(metric_names::TENANTS_ACTIVE), Some(0.0));

    // The shutdown report aggregates from the same registry the live poll read.
    let report = client.shutdown();
    assert_eq!(report.jobs, 12);
    assert_eq!(report.nodes, 2);
    assert_eq!(report.per_node_jobs.iter().sum::<u64>(), 12);
    // ... routing counters included, which the report used to drop.
    assert_eq!(report.metrics.counter(metric_names::JOBS_ROUTED), Some(12));
    assert_report_counters_match_live(&report, &live);
}

/// Runs the same batch through a runtime wired to a [`ManualClock`] sink under the
/// deterministic-trace contract (1 worker, FIFO) and returns the JSONL export.
fn traced_jsonl() -> String {
    let sink = Arc::new(TraceSink::new(Arc::new(ManualClock::new())));
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        scheduler: SchedulerPolicy::fifo(),
        trace: Some(sink.clone()),
        ..RuntimeConfig::default()
    });
    let outcome = runtime.run_batch(plans(12));
    assert_eq!(outcome.jobs.len(), 12);
    sink.export_jsonl()
}

#[test]
fn trace_export_is_byte_identical_under_the_deterministic_contract() {
    // ManualClock pins every timestamp, one FIFO worker pins the schedule: the whole
    // JSONL export — timestamps, order, details — is byte-for-byte reproducible.
    let first = traced_jsonl();
    let second = traced_jsonl();
    assert!(!first.is_empty());
    assert_eq!(first, second);
}

#[test]
fn trace_jsonl_round_trips_through_the_shim() {
    let sink = Arc::new(TraceSink::wall());
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 3,
        trace: Some(sink.clone()),
        ..RuntimeConfig::default()
    });
    runtime.run_batch(plans(8));

    let text = sink.export_jsonl();
    let parsed = parse_jsonl(&text).expect("every exported line parses back");
    assert_eq!(parsed, sink.snapshot());
    assert_eq!(text.lines().count(), sink.len());
}

#[test]
fn multi_worker_traces_order_deterministically_per_job() {
    let sink = Arc::new(TraceSink::wall());
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 4,
        trace: Some(sink.clone()),
        ..RuntimeConfig::default()
    });
    let outcome = runtime.run_batch(plans(16));

    // However workers interleaved their flushes, the canonical snapshot is sorted
    // by (job_id, seq), each job's seq is contiguous from 0, and each job's
    // timeline starts admit → route (submit side) → queue_wait → dequeue (worker).
    let events = sink.snapshot();
    let mut expected_seq = std::collections::HashMap::new();
    for window in events.windows(2) {
        assert!((window[0].job_id, window[0].seq) < (window[1].job_id, window[1].seq));
    }
    for event in &events {
        let next = expected_seq.entry(event.job_id).or_insert(0u32);
        assert_eq!(event.seq, *next, "job {} has a seq gap", event.job_id);
        *next += 1;
        let opening = [
            SpanKind::Admit,
            SpanKind::Route,
            SpanKind::QueueWait,
            SpanKind::Dequeue,
        ];
        if let Some(kind) = opening.get(event.seq as usize) {
            assert_eq!(event.kind, *kind, "job {} seq {}", event.job_id, event.seq);
            assert_eq!(
                event.worker.is_some(),
                event.seq >= 2,
                "worker spans start at 2"
            );
        }
    }
    assert_eq!(expected_seq.len(), outcome.jobs.len());
    let traced_jobs: std::collections::HashSet<u64> = expected_seq.keys().copied().collect();
    let run_jobs: std::collections::HashSet<u64> = outcome.jobs.iter().map(|j| j.job_id).collect();
    assert_eq!(traced_jobs, run_jobs);
}
