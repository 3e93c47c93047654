//! The worker loop: drain the node's scheduler, run each job through the execution
//! pipeline (see [`crate::pipeline`]) on this worker's simulated accelerator, resolve
//! the ticket, and keep the killed-chip and panic-containment promises — a job a
//! worker dequeued is never lost, whatever happens to the worker.

use std::sync::Arc;

use refloat_sparse::parallel::Lanes;
use refloat_telemetry::{sync, SpanKind, TraceEvent};
use reram_sim::DeviceHealth;

use crate::accel::SimulatedAccelerator;
use crate::client::{DegradedJob, DegradedReason, QueuedTicket, TicketOutcome};
use crate::health::CROSSBAR_GRID;
use crate::job::QueuedJob;
use crate::node::NodeCore;
use crate::pipeline::JobContext;
use crate::sched::Popped;
use crate::telemetry::{metric_names, JobMetricHandles, JobOutcomeKind};
use crate::trace_job::JobTrace;

/// Runs until the client's scheduler closes and drains; one simulated accelerator
/// per worker.  Completed outcomes resolve the job's ticket; a telemetry copy is
/// appended to the client's report log.
///
/// A panicking job is *contained*: the ticket resolves to
/// [`TicketOutcome::Failed`] with the panic message, the scheduler's in-flight
/// accounting is balanced, and the worker keeps serving — a poisoned job can
/// neither hang `drain`/`shutdown` nor strand its waiter.  (The pre-service
/// scoped-thread pool propagated the panic to the batch caller instead; the batch
/// wrappers in `lib.rs` restore that behaviour by re-panicking on `Failed`.)
pub(crate) fn worker_loop(worker_id: usize, core: &NodeCore) {
    let build_accelerator = || {
        let accelerator =
            SimulatedAccelerator::new(worker_id).with_chip_crossbars(core.chip_crossbars);
        match &core.fault {
            Some(policy) => accelerator.with_fault_model(policy.model, CROSSBAR_GRID, policy.abft),
            None => accelerator,
        }
    };
    let mut accelerator = build_accelerator();
    // The worker's helper lanes, attached to every operator it programs.  Without
    // them (the threads could not be spawned) every encode and solve runs on this
    // thread, with the same bits.
    let lanes = Arc::new(Lanes::new(core.lanes).unwrap_or_default());
    // Handles on the client's live metrics registry: per-job recording below is
    // atomic increments only, pollable mid-traffic via metrics_snapshot().
    let metric_handles = JobMetricHandles::register(&core.metrics);
    while let Some(popped) = core.sched.pop() {
        if core.health.is_killed(worker_id) {
            // A killed chip serves nothing, but it never loses what it already
            // dequeued: hand the job to a live peer or resolve it as Degraded,
            // then stop serving.  The last live worker to die also drains the
            // queue so no queued ticket is stranded.
            resolve_on_killed_chip(worker_id, core, popped);
            if core
                .health
                .live_workers_in(core.worker_id_base, core.workers)
                == 0
            {
                core.sched.close();
                while let Some(stranded) = core.sched.try_pop() {
                    degrade_on_dead_node(core, stranded.id, stranded.payload);
                    core.sched.finish_one();
                }
            }
            break;
        }
        let QueuedTicket {
            plan,
            submitted_at_s,
            ticket,
            permit,
            trace_seq_base,
        } = popped.payload;
        let queued = QueuedJob {
            id: popped.id,
            job: plan.job,
            priority: popped.priority,
            submitted_at_s,
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let context = JobContext {
                core,
                accelerator: &mut accelerator,
                lanes: &lanes,
                trace: JobTrace::new(core.trace.as_deref(), queued.id, worker_id, trace_seq_base),
            };
            context.execute(queued)
        }));
        // Refund the tenant's admission quota only after the job's
        // full lifetime — completed, failed, or contained-panic — so the in-system
        // bound counts running work, not just queued work; but *before* resolving
        // the ticket, so a tenant that observed `wait()` return is guaranteed its
        // slot is already free for the next submit.
        drop(permit);
        match run {
            Ok(mut outcome) => {
                outcome.telemetry.node = core.node_id;
                // Every executed job leaves a telemetry row and records through the
                // same handles; the row's outcome decides what it counts toward.
                metric_handles.record(&outcome.telemetry);
                sync::lock(&core.completed).push(outcome.telemetry.clone());
                match outcome.telemetry.outcome {
                    JobOutcomeKind::Completed => {
                        core.node_jobs.inc();
                        ticket.complete(TicketOutcome::Completed(Box::new(outcome)));
                    }
                    // ABFT kept detecting corruption after the retry budget: the
                    // outcome is best-effort and the ticket says so.
                    JobOutcomeKind::Degraded => {
                        core.metrics.counter(metric_names::JOBS_DEGRADED).inc();
                        ticket.complete(TicketOutcome::Degraded(Box::new(DegradedJob {
                            job_id: outcome.job_id,
                            tenant: outcome.telemetry.tenant.clone(),
                            reason: DegradedReason::AbftUnresolved,
                            outcome: Some(outcome),
                        })));
                    }
                }
            }
            Err(payload) => {
                // The accelerator may be mid-update; rebuild it so subsequent jobs
                // see a consistent (cold) chip.
                accelerator = build_accelerator();
                core.metrics.counter(metric_names::JOBS_FAILED).inc();
                ticket.complete(TicketOutcome::Failed(panic_message(payload.as_ref())));
            }
        }
        if core.fault.is_some() {
            // Refresh the chip's degradation score so the cluster router's health
            // signals track accumulated wear and drift.
            core.health
                .update_degradation(worker_id, accelerator.health().degradation);
        }
        core.sched.finish_one();
    }
}

/// Disposes of a job a killed chip dequeued: re-push it for a live peer on the
/// same node (a *reroute*), or — when this worker was the node's last live one —
/// resolve the ticket with the typed `Degraded` outcome.  Either way the job is
/// accounted for and its waiter unblocked; nothing is lost or corrupted.
fn resolve_on_killed_chip(worker_id: usize, core: &NodeCore, popped: Popped<QueuedTicket>) {
    let Popped {
        id,
        priority,
        payload,
    } = popped;
    if core
        .health
        .live_workers_in(core.worker_id_base, core.workers)
        > 0
    {
        let mut payload = payload;
        if let Some(sink) = &core.trace {
            let now = core.clock.now_s();
            sink.record(TraceEvent {
                job_id: id,
                seq: payload.trace_seq_base,
                worker: Some(worker_id as u64),
                kind: SpanKind::Reroute,
                start_s: now,
                end_s: now,
                detail: format!("from_worker={worker_id}"),
            });
            // The re-executing worker starts its seqs after the reroute event.
            payload.trace_seq_base += 1;
        }
        // The pop above freed a queue slot, so this push does not block in steady
        // state; the original deadline was consumed at the first dequeue.
        match core.sched.push(id, priority, None, payload) {
            Ok(()) => core.metrics.counter(metric_names::JOBS_REROUTED).inc(),
            // The scheduler closed while we held the job (shutdown race): the
            // degraded resolution below still reaches the waiter.
            Err(payload) => degrade_on_dead_node(core, id, payload),
        }
    } else {
        degrade_on_dead_node(core, id, payload);
    }
    core.sched.finish_one();
}

/// Resolves a queued job's ticket as `Degraded(ChipKilled)` — the typed outcome of
/// a job stranded on a node with no live worker left.
fn degrade_on_dead_node(core: &NodeCore, id: u64, payload: QueuedTicket) {
    core.metrics.counter(metric_names::JOBS_DEGRADED).inc();
    let tenant = payload.plan.job.tenant.to_string();
    let ticket = std::sync::Arc::clone(&payload.ticket);
    // Dropping the payload releases the admission permit before the ticket
    // resolves, mirroring the completed-job ordering.
    drop(payload);
    ticket.complete(TicketOutcome::Degraded(Box::new(DegradedJob {
        job_id: id,
        tenant,
        reason: DegradedReason::ChipKilled,
        outcome: None,
    })));
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}
