//! Turns one repetition's tickets and reports into numbers, and checks the outputs.

use refloat_runtime::{metric_names, MetricsSnapshot, RuntimeReport};

use crate::service::Rep;
use crate::stats::{digest, percentile, DigestRow};
use crate::workloads::{Inputs, REFINED_TARGET};

/// Simulated accelerator seconds summed over a repetition's jobs, by phase.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Simulated {
    pub total_s: f64,
    pub program_s: f64,
    pub compute_s: f64,
    pub stream_write_s: f64,
    pub reduction_s: f64,
    pub host_fp64_s: f64,
}

/// The metrics that must repeat exactly when the same inputs are served again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    pub digest: u64,
    pub model_cycles: u64,
    pub iterations_total: u64,
    pub completed: usize,
    pub unconverged: usize,
}

/// Everything read off one repetition; the job outcomes themselves can be dropped.
pub struct RepView {
    pub wall_s: f64,
    pub warmup_s: f64,
    pub offered: usize,
    pub lost: usize,
    pub shed: usize,
    pub exact: Exact,
    /// Service-assigned ids of the timed jobs, in order.
    pub job_ids: Vec<u64>,
    pub latency_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub simulated: Simulated,
    pub submit_us: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub sweep_gap_ms: Vec<f64>,
    pub counters: Counters,
}

/// Program-made counts over the timed region (final report minus post-warm-up).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub remaps: u64,
    pub seq_steps: u64,
    pub warm_start_hits: u64,
    pub blocks_reencoded: u64,
    pub blocks_reused: u64,
    pub jobs_routed: u64,
    pub affinity_hits: u64,
}

impl RepView {
    pub fn jobs_per_s(&self) -> f64 {
        (self.exact.completed - self.exact.unconverged) as f64 / self.wall_s
    }

    pub fn latency_p50_ms(&self) -> f64 {
        percentile(&self.latency_ms, 0.5)
    }
}

fn counters(
    (baseline, live_baseline): &(RuntimeReport, MetricsSnapshot),
    (report, live): &(RuntimeReport, MetricsSnapshot),
) -> Counters {
    let cache = report.cache.delta_since(&baseline.cache);
    let counter = |name: &str| {
        let read = |snapshot: &MetricsSnapshot| snapshot.counter(name).unwrap_or(0);
        read(live).saturating_sub(read(live_baseline))
    };
    Counters {
        cache_hits: cache.hits + cache.coalesced,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        remaps: report.remaps - baseline.remaps,
        seq_steps: (report.seq_steps - baseline.seq_steps) as u64,
        warm_start_hits: report.warm_start_hits - baseline.warm_start_hits,
        blocks_reencoded: report.blocks_reencoded - baseline.blocks_reencoded,
        blocks_reused: report.blocks_reused - baseline.blocks_reused,
        jobs_routed: counter(metric_names::JOBS_ROUTED),
        affinity_hits: counter(metric_names::ROUTE_AFFINITY_HITS),
    }
}

pub fn view(rep: Rep, offered: usize) -> RepView {
    let done = &rep.timed.done;
    let rows: Vec<DigestRow> = done
        .iter()
        .map(|d| {
            DigestRow::of(
                d.outcome.job_id,
                d.outcome.result.iterations,
                &d.outcome.result.x,
            )
        })
        .collect();
    let mut simulated = Simulated::default();
    let mut model_cycles = 0u64;
    for d in done {
        let run = &d.outcome.telemetry.simulated;
        model_cycles += run.cycles;
        simulated.total_s += run.total_s;
        simulated.program_s += run.program_s;
        simulated.compute_s += run.compute_s;
        simulated.stream_write_s += run.stream_write_s;
        simulated.reduction_s += run.reduction_s;
        simulated.host_fp64_s += run.host_fp64_s;
    }
    RepView {
        wall_s: rep.timed.wall_s,
        warmup_s: rep.warmup_s,
        offered,
        lost: rep.timed.lost,
        shed: rep.timed.shed,
        exact: Exact {
            digest: digest(&rows),
            model_cycles,
            iterations_total: rows.iter().map(|r| r.iterations).sum(),
            completed: done.len(),
            unconverged: done
                .iter()
                .filter(|d| !d.outcome.telemetry.converged)
                .count(),
        },
        job_ids: done.iter().map(|d| d.outcome.job_id).collect(),
        latency_ms: done.iter().map(|d| d.latency_s * 1e3).collect(),
        queue_wait_ms: done
            .iter()
            .map(|d| d.outcome.telemetry.queue_wait_s * 1e3)
            .collect(),
        simulated,
        counters: counters(&rep.baseline, &rep.report),
        submit_us: rep.timed.submit_us,
        lag_ms: rep.timed.lag_ms,
        sweep_gap_ms: rep.timed.sweep_gap_ms,
    }
}

/// The accuracy of a repetition's solutions, measured here with the fp64 CSR:
/// never the solver's recursive residual, never one taken through the quantized
/// operator.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// max over jobs of ‖b − A·x‖₂ / ‖b‖₂.
    pub true_residual_max: f64,
    /// mean over jobs of −log10(‖b − A·x‖₂ / ‖b‖₂): correct digits of a typical job.
    pub digits_mean: f64,
    /// Refined jobs whose true residual is above the target they were asked for.
    pub above_target: usize,
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Correct digits of one solution: −log10 of its true relative residual.  An exact
/// solution reads 16, the limit of fp64; a residual that is not finite reads none
/// (`f64::min` alone would turn a NaN into the 16).
fn digits(relative: f64) -> f64 {
    if relative.is_finite() {
        (-relative.log10()).min(16.0)
    } else {
        0.0
    }
}

pub fn accuracy(inputs: &Inputs, rep: &Rep) -> Accuracy {
    let mut accuracy = Accuracy {
        true_residual_max: 0.0,
        digits_mean: 0.0,
        above_target: 0,
    };
    // Completed jobs are in id order and ids follow submission order, so with
    // nothing lost the k-th outcome answers the k-th job.
    if rep.timed.done.len() != inputs.jobs.len() {
        accuracy.true_residual_max = f64::INFINITY;
        return accuracy;
    }
    let mut ax = Vec::new();
    for (job, done) in inputs.jobs.iter().zip(&rep.timed.done) {
        let csr = inputs.entries[job.entry].handle.csr();
        let b = inputs.rhs_of(job);
        ax.resize(csr.nrows(), 0.0);
        csr.spmv_into(&done.outcome.result.x, &mut ax);
        let residual: Vec<f64> = b.iter().zip(&ax).map(|(b, ax)| b - ax).collect();
        let relative = norm2(&residual) / norm2(&b);
        // NaN must not hide behind a comparison that is false either way.
        if relative.is_nan() || relative > accuracy.true_residual_max {
            accuracy.true_residual_max = relative;
        }
        if inputs.refined && (relative.is_nan() || relative > REFINED_TARGET) {
            accuracy.above_target += 1;
        }
        accuracy.digits_mean += digits(relative) / inputs.jobs.len() as f64;
    }
    accuracy
}

/// Open loop only: jobs still in the system when the last arrival was due.  A
/// service that keeps up holds a handful; one that does not holds a share of the
/// whole trace, growing with its length.
pub fn backlog_at_last_arrival(due_s: &[f64], latency_ms: &[f64]) -> usize {
    let last_due_s = due_s.last().copied().unwrap_or(0.0);
    due_s
        .iter()
        .zip(latency_ms)
        .filter(|(due_s, latency_ms)| *due_s + *latency_ms * 1e-3 > last_due_s)
        .count()
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_counts_the_jobs_unfinished_when_the_last_one_arrives() {
        let due_s = [0.0, 1.0, 2.0, 3.0];
        // Each job done within half a second: only the last is still in the system.
        assert_eq!(backlog_at_last_arrival(&due_s, &[500.0; 4]), 1);
        // A service 2.5 s behind: everything due after 0.5 s is still there.
        assert_eq!(backlog_at_last_arrival(&due_s, &[2500.0; 4]), 3);
        assert_eq!(backlog_at_last_arrival(&[], &[]), 0);
    }

    #[test]
    fn a_residual_that_is_not_finite_earns_no_digits() {
        assert_eq!(digits(1e-8), 8.0);
        assert_eq!(digits(0.0), 16.0);
        assert_eq!(digits(f64::NAN), 0.0);
        assert_eq!(digits(f64::INFINITY), 0.0);
    }

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
