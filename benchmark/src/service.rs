//! One timed repetition through the **service API only**: plans in, tickets out,
//! the final report.  Latency is stamped here, outside the program, so it is the
//! benchmark's measurement and not the program's telemetry.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use refloat_runtime::cluster::{AdmissionConfig, ClusterConfig, ClusterRuntime, RouterPolicy};
use refloat_runtime::{
    JobOutcome, MetricsSnapshot, RuntimeConfig, RuntimeReport, SolveClient, SolvePlan,
    SolveRuntime, SolveTicket, TicketOutcome,
};

use crate::workloads::{Drive, Inputs, Service};

/// How long the collector blocks on the oldest outstanding ticket before it sweeps
/// the others; this bounds the stamp error of a completion.
const POLL: Duration = Duration::from_micros(250);

/// A job that resolved `Completed`, with the latency the benchmark measured.
pub struct Done {
    pub latency_s: f64,
    pub outcome: JobOutcome,
}

/// What the timed region of one repetition produced.
pub struct Timed {
    /// First submission (or first due time) to last completion stamp.
    pub wall_s: f64,
    /// Completed jobs in job-id order.
    pub done: Vec<Done>,
    /// Offered jobs that did not resolve `Completed`: shed, failed, degraded, cancelled.
    pub lost: usize,
    /// The part of `lost` refused at submission.
    pub shed: usize,
    /// Duration of every `submit` call, microseconds.
    pub submit_us: Vec<f64>,
    /// Open loop: how late each submission started against its due time.
    pub lag_ms: Vec<f64>,
    /// Gaps between consecutive collector sweeps: the completion stamps' resolution.
    pub sweep_gap_ms: Vec<f64>,
}

pub struct Rep {
    /// Starting the runtime plus the warm-up jobs: the per-repetition part of set-up.
    pub warmup_s: f64,
    pub timed: Timed,
    /// The service's report and live counters right after warm-up; counts over the
    /// timed region are read as deltas from them.
    pub baseline: (RuntimeReport, MetricsSnapshot),
    pub report: (RuntimeReport, MetricsSnapshot),
}

fn start(service: &Service) -> SolveClient {
    let node = RuntimeConfig {
        workers: service.workers,
        queue_capacity: service.queue_capacity,
        cache_capacity: service.cache_capacity,
        ..RuntimeConfig::default()
    };
    match service.cluster {
        Some((nodes, max_in_system)) => ClusterRuntime::start(ClusterConfig {
            nodes,
            node,
            chips_per_node: Vec::new(),
            admission: AdmissionConfig {
                max_in_system: Some(max_in_system),
                per_tenant_quota: None,
            },
            router: RouterPolicy::default(),
        }),
        None => SolveRuntime::start(node),
    }
}

/// Runs one repetition on a fresh runtime with fresh caches.
pub fn run_rep(inputs: &Inputs) -> Rep {
    let started = Instant::now();
    let client = start(&inputs.service);
    // The warm-up goes in as one burst and is then waited for.  On a cluster that
    // makes its placement repeatable: no job finishes within the few microseconds
    // the burst takes, so the router sees loads 0, 1, 1, 2, ... and alternates nodes
    // (submitted one at a time, every matrix would stick to node 0).
    let warmup: Vec<SolveTicket> = inputs
        .warmup
        .iter()
        .map(|job| {
            client
                .submit(inputs.plan(job))
                .expect("a fresh runtime admits the warm-up")
        })
        .collect();
    for (job, ticket) in inputs.warmup.iter().zip(warmup) {
        assert!(
            matches!(ticket.wait(), TicketOutcome::Completed(_)),
            "warm-up job on {} did not complete",
            inputs.entries[job.entry].handle.name()
        );
    }
    let baseline = (client.report(), client.metrics_snapshot());
    let plans: Vec<SolvePlan> = inputs.jobs.iter().map(|job| inputs.plan(job)).collect();
    let warmup_s = started.elapsed().as_secs_f64();

    let mut timed = match inputs.drive {
        Drive::OneAtATime => one_at_a_time(plans, |plan| {
            client.submit(plan).ok().map(SolveTicket::wait)
        }),
        Drive::Sequence => {
            let mut sequence = client.sequence();
            one_at_a_time(plans, |plan| sequence.step(plan).ok())
        }
        Drive::Closed => streaming(&client, plans, None),
        Drive::Open => {
            let due: Vec<f64> = inputs.jobs.iter().map(|job| job.due_s).collect();
            streaming(&client, plans, Some(&due))
        }
    };
    timed.done.sort_by_key(|done| done.outcome.job_id);
    // Routing counters live only in the live registry, not in the final report.
    let live = client.metrics_snapshot();
    let report = (client.shutdown(), live);
    Rep {
        warmup_s,
        timed,
        baseline,
        report,
    }
}

/// Closed loop with a single client: the next plan goes in when the previous
/// outcome is back, so `solve` returning *is* the completion stamp.
fn one_at_a_time(
    plans: Vec<SolvePlan>,
    mut solve: impl FnMut(SolvePlan) -> Option<TicketOutcome>,
) -> Timed {
    let mut timed = Timed {
        wall_s: 0.0,
        done: Vec::with_capacity(plans.len()),
        lost: 0,
        shed: 0,
        submit_us: Vec::new(),
        lag_ms: Vec::new(),
        sweep_gap_ms: Vec::new(),
    };
    let started = Instant::now();
    for plan in plans {
        let submitted = Instant::now();
        match solve(plan) {
            Some(TicketOutcome::Completed(outcome)) => timed.done.push(Done {
                latency_s: submitted.elapsed().as_secs_f64(),
                outcome: *outcome,
            }),
            Some(_) => timed.lost += 1,
            None => {
                timed.lost += 1;
                timed.shed += 1;
            }
        }
    }
    timed.wall_s = started.elapsed().as_secs_f64();
    timed
}

/// Two load-generating threads: a submitter (closed loop: `submit` blocks on the
/// bounded queue; open loop: paced to `due`) and this thread as the collector.
fn streaming(client: &SolveClient, plans: Vec<SolvePlan>, due: Option<&[f64]>) -> Timed {
    let offered = plans.len();
    let (tx, rx) = mpsc::channel::<(SolveTicket, Instant)>();
    let started = Instant::now();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut submit_us = Vec::with_capacity(offered);
            let mut lag_ms = Vec::new();
            let mut shed = 0usize;
            for (index, plan) in plans.into_iter().enumerate() {
                // Open loop: latency counts from the due time, so a stalled service
                // (or a late generator) is charged to every job it delays.
                let counted_from = match due {
                    Some(due) => {
                        let due_at = started + Duration::from_secs_f64(due[index]);
                        std::thread::sleep(due_at.saturating_duration_since(Instant::now()));
                        lag_ms.push(
                            Instant::now()
                                .saturating_duration_since(due_at)
                                .as_secs_f64()
                                * 1e3,
                        );
                        due_at
                    }
                    None => Instant::now(),
                };
                let called = Instant::now();
                match client.submit(plan) {
                    Ok(ticket) => {
                        submit_us.push(called.elapsed().as_secs_f64() * 1e6);
                        // The collector outlives the submitter; a failed send means
                        // it panicked, which the scope re-raises.
                        let _ = tx.send((ticket, counted_from));
                    }
                    Err(_) => shed += 1,
                }
            }
            (submit_us, lag_ms, shed)
        });

        let mut outstanding: VecDeque<(SolveTicket, Instant)> = VecDeque::new();
        let mut done = Vec::with_capacity(offered);
        let mut lost = 0usize;
        let mut last_stamp = started;
        let mut sweep_gap_ms = Vec::new();
        let mut last_sweep = Instant::now();
        let mut submitting = true;
        let mut resolve = |outcome: TicketOutcome, counted_from: Instant| {
            let now = Instant::now();
            last_stamp = now;
            match outcome {
                TicketOutcome::Completed(outcome) => done.push(Done {
                    latency_s: now.saturating_duration_since(counted_from).as_secs_f64(),
                    outcome: *outcome,
                }),
                _ => lost += 1,
            }
        };
        while submitting || !outstanding.is_empty() {
            loop {
                match rx.try_recv() {
                    Ok(entry) => outstanding.push_back(entry),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        submitting = false;
                        break;
                    }
                }
            }
            let Some((oldest, counted_from)) = outstanding.pop_front() else {
                if submitting {
                    if let Ok(entry) = rx.recv_timeout(POLL) {
                        outstanding.push_back(entry);
                    }
                }
                // Nothing was outstanding: the idle wait is not a stamp gap.
                last_sweep = Instant::now();
                continue;
            };
            let mut pending = VecDeque::with_capacity(outstanding.len() + 1);
            match oldest.wait_timeout(POLL) {
                Ok(outcome) => resolve(outcome, counted_from),
                Err(ticket) => pending.push_back((ticket, counted_from)),
            }
            for (ticket, counted_from) in outstanding.drain(..) {
                match ticket.try_get() {
                    Ok(outcome) => resolve(outcome, counted_from),
                    Err(ticket) => pending.push_back((ticket, counted_from)),
                }
            }
            outstanding = pending;
            let now = Instant::now();
            sweep_gap_ms.push(now.duration_since(last_sweep).as_secs_f64() * 1e3);
            last_sweep = now;
        }
        let (submit_us, lag_ms, shed) = submitter.join().expect("submitter thread");
        Timed {
            wall_s: last_stamp.duration_since(started).as_secs_f64(),
            done,
            lost: lost + shed,
            shed,
            submit_us,
            lag_ms,
            sweep_gap_ms,
        }
    })
}
