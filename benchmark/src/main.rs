//! `refloat-benchmark` — the repo benchmark (see `README.md` beside this package and
//! `BENCHMARK.json` at the repo root).
//!
//! ```text
//! refloat-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                   [--trace-dir DIR] [--smoke]
//! refloat-benchmark --list | --compare A B
//! ```
//!
//! One process runs one workload.  `--trace 0` (the default) serves the workload's
//! job list through the service API in `--seconds / 5` timed repetitions (three at
//! `BENCHMARK.json`'s `run_seconds`) and prints the end-to-end metrics; `--trace 1`
//! adds the serial layer replay and the probes and prints the per-layer metrics.  The last line of standard output is the result
//! as one JSON object; the exit code is 0 only if every correctness gate passed.

mod compare;
mod measure;
mod probes;
mod replay;
mod result;
mod service;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use measure::{Accuracy, RepView};
use result::RunResult;
use workloads::{Drive, Inputs};

/// Seconds one timed repetition of every workload is sized to on the 2-core box the
/// job lists were calibrated on.
const REP_SECONDS: f64 = 5.0;
/// Timed repetitions per run at least; identical inputs must give identical counts.
const MIN_REPS: usize = 2;
/// A generator that starts submissions later than this (p95) is not offering the
/// schedule it claims to.
const MAX_GENERATOR_LAG_MS: f64 = 5.0;
/// Open loop: more than this share of the trace still in the system when the last
/// arrival is due is a growing backlog (a service that keeps up holds a handful).
const MAX_BACKLOG_SHARE: f64 = 0.10;
/// The replay's spans must account for its own wall time to within this share.
const MAX_UNTIMED_SHARE: f64 = 0.02;

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    smoke: bool,
}

enum Command {
    Run(Options),
    List,
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 2023,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        trace_dir: None,
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--compare" => {
                let a = value("two directories")?;
                let b = value("two directories")?;
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--workload" => options.workload = value("a name")?,
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                options.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| "--seconds needs a non-negative number".to_string())?;
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--trace-dir" => options.trace_dir = Some(value("a directory")?.into()),
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if spec::workload(&options.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} (got {:?})",
            names.join(", "),
            options.workload
        ));
    }
    Ok(Command::Run(options))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Err(usage) => {
            eprintln!("refloat-benchmark: {usage}");
            2
        }
        Ok(Command::List) => {
            print!("{}", spec::render_list());
            0
        }
        Ok(Command::Compare(a, b)) => match compare::run(&a, &b) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(message) => {
                eprintln!("refloat-benchmark: {message}");
                2
            }
        },
        Ok(Command::Run(options)) => {
            let result = if options.trace {
                run_traced(&options)
            } else {
                run_untraced(&options)
            };
            println!("{}", result.to_json());
            i32::from(!result.correct)
        }
    };
    std::process::exit(code);
}

/// Builds the workload's inputs from the seed, timed.
fn set_up(options: &Options) -> (Inputs, f64) {
    let started = Instant::now();
    let inputs = Inputs::build(&options.workload, options.seed, options.smoke)
        .expect("the workload name was checked");
    (inputs, started.elapsed().as_secs_f64())
}

/// Counts gate failures (each is printed as it happens); a run is correct when
/// there are none.
#[derive(Default)]
struct Gates {
    failures: usize,
}

impl Gates {
    fn require(&mut self, holds: bool, message: impl FnOnce() -> String) {
        if !holds {
            eprintln!("GATE FAILED: {}", message());
            self.failures += 1;
        }
    }

    fn passed(&self) -> bool {
        self.failures == 0
    }

    /// The gates every repetition set must pass, traced or not.
    ///
    /// `timing` = also the gates that read a clock; smoke runs are too short for a
    /// share of a millisecond to mean anything.
    fn check_reps(&mut self, inputs: &Inputs, reps: &[RepView], accuracy: &Accuracy, timing: bool) {
        let first = &reps[0];
        for (index, rep) in reps.iter().enumerate() {
            self.require(rep.lost == 0, || {
                format!(
                    "repetition {index}: {} of {} jobs were shed, failed, degraded or cancelled",
                    rep.lost, rep.offered
                )
            });
            self.require(rep.exact.unconverged == 0, || {
                format!(
                    "repetition {index}: {} jobs did not converge",
                    rep.exact.unconverged
                )
            });
            self.require(rep.exact == first.exact, || {
                format!(
                    "repetition {index} differs from repetition 0 on identical inputs: {:?} vs {:?}",
                    rep.exact, first.exact
                )
            });
        }
        self.require(accuracy.true_residual_max.is_finite(), || {
            "a solution's true residual is not finite".to_string()
        });
        self.require(accuracy.above_target == 0, || {
            format!(
                "{} refined jobs ended above the {:e} true-residual target (max {:e})",
                accuracy.above_target,
                workloads::REFINED_TARGET,
                accuracy.true_residual_max
            )
        });
        if timing && inputs.drive == Drive::Open {
            // Judged on the median repetition: one noisy repetition in three does not
            // fail a healthy service, a backlog in most of them does.
            let lag = median_over(reps, |r| stats::percentile(&r.lag_ms, 0.95));
            self.require(lag <= MAX_GENERATOR_LAG_MS, || {
                format!("the arrival generator ran {lag:.2} ms late at p95")
            });
            let backlog = median_over(reps, |r| open_loop_backlog(inputs, r));
            self.require(
                backlog <= MAX_BACKLOG_SHARE * inputs.jobs.len() as f64,
                || format!("{backlog} jobs were still in the system when the last one arrived"),
            );
        }
    }
}

fn open_loop_backlog(inputs: &Inputs, rep: &RepView) -> f64 {
    let due_s: Vec<f64> = inputs.jobs.iter().map(|job| job.due_s).collect();
    measure::backlog_at_last_arrival(&due_s, &rep.latency_ms) as f64
}

/// Each job's latency in the repetition that served it fastest.  Every repetition
/// offers the same jobs in the same order, so what survives the minimum is the
/// queueing the workload itself causes; a burst of noise would have to hit the same
/// job in every repetition to stay in.
fn quietest_latency_ms(reps: &[RepView]) -> Vec<f64> {
    let jobs = reps.iter().map(|r| r.latency_ms.len()).min().unwrap_or(0);
    (0..jobs)
        .map(|job| min_over(reps, |r| r.latency_ms[job]))
        .collect()
}

fn min_of(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

fn min_over(reps: &[RepView], read: impl Fn(&RepView) -> f64) -> f64 {
    min_of(reps.iter().map(read))
}

fn median_over(reps: &[RepView], read: impl Fn(&RepView) -> f64) -> f64 {
    stats::median(&reps.iter().map(read).collect::<Vec<f64>>())
}

/// What a run's repetitions produced; `inputs` are the last repetition's.
struct Repetitions {
    inputs: Inputs,
    /// Seconds each repetition's input build took.
    build_s: Vec<f64>,
    views: Vec<RepView>,
    accuracy: Accuracy,
}

/// How many timed repetitions a run of `seconds` makes.  The count follows from the
/// flag alone, never from how fast the commit under test runs, so the best-of and
/// minimum estimators below draw the same number of times on every commit.
fn rep_count(seconds: f64) -> usize {
    ((seconds / REP_SECONDS).round() as usize).max(MIN_REPS)
}

/// Runs `count` timed repetitions.
///
/// Every repetition builds its inputs afresh from the seed.  That spreads the
/// set-up measurements over the whole run, so that some of them fall outside a
/// burst of noise on a shared box — and it makes the digest gate check that set-up
/// itself repeats exactly.
fn repetitions(options: &Options, count: usize) -> Repetitions {
    let mut build_s = Vec::new();
    let mut views = Vec::new();
    let mut accuracy = None;
    loop {
        let (inputs, seconds_to_build) = set_up(options);
        build_s.push(seconds_to_build);
        let rep = service::run_rep(&inputs);
        // Identical inputs give identical solutions (the digest gate checks that),
        // so the true residuals are measured once.
        accuracy.get_or_insert_with(|| measure::accuracy(&inputs, &rep));
        // Consuming the repetition drops its solutions before the next build.
        let view = measure::view(rep, inputs.jobs.len());
        eprintln!(
            "repetition {}: {:.3} s, {:.2} jobs/s, p50 {:.3} ms, digest {:016x}",
            views.len(),
            view.wall_s,
            view.jobs_per_s(),
            view.latency_p50_ms(),
            view.exact.digest
        );
        views.push(view);
        if views.len() >= count {
            return Repetitions {
                inputs,
                build_s,
                views,
                accuracy: accuracy.expect("at least one repetition ran"),
            };
        }
    }
}

/// Jobs that count as failed over all repetitions (true residuals are measured on
/// the first repetition; the others are bit-identical or a gate fails).
fn failed_jobs(reps: &[RepView], accuracy: &Accuracy) -> u64 {
    let per_rep: usize = reps.iter().map(|r| r.lost + r.exact.unconverged).sum();
    (per_rep + accuracy.above_target * reps.len()) as u64
}

fn print_metrics(result: &RunResult) {
    for metric in &result.metrics {
        println!(
            "{:<44} {:>18.9e} {}",
            metric.name, metric.value, metric.unit
        );
    }
}

fn run_untraced(options: &Options) -> RunResult {
    let Repetitions {
        inputs,
        build_s,
        views: reps,
        accuracy,
    } = repetitions(options, rep_count(options.seconds));
    let mut gates = Gates::default();
    gates.check_reps(&inputs, &reps, &accuracy, !options.smoke);

    // On a shared box noise only ever adds time, so throughput comes from the best
    // repetition and each job's latency from the repetition that served it fastest.
    // Simulated time depends on worker placement when two workers race for jobs, so
    // it is the median.
    let first = &reps[0];
    let attempted = (reps.len() * inputs.jobs.len()) as u64;
    let failed = failed_jobs(&reps, &accuracy);
    let warmup_s: Vec<f64> = reps.iter().map(|r| r.warmup_s).collect();
    // The fastest build and the fastest start-up: over ten seeds the fastest spread
    // 0.04 where the median spread 0.14 (README, "Steadiness").
    let setup_s = min_of(build_s.iter().copied()) + min_of(warmup_s.iter().copied());
    let model_time_s: Vec<f64> = reps.iter().map(|r| r.simulated.total_s).collect();
    let values = [
        ("setup_s", setup_s),
        (
            "jobs_per_s",
            reps.iter().map(RepView::jobs_per_s).fold(0.0, f64::max),
        ),
        (
            "latency_p50_ms",
            stats::percentile(&quietest_latency_ms(&reps), 0.5),
        ),
        ("model_time_s", stats::median(&model_time_s)),
        ("model_cycles", first.exact.model_cycles as f64),
        ("iterations_total", first.exact.iterations_total as f64),
        ("true_residual_digits", accuracy.digits_mean),
        ("ok_share", 1.0 - failed as f64 / attempted as f64),
        ("peak_rss_mb", measure::peak_rss_mb()),
    ];
    let result = RunResult::new(gates.passed(), attempted, failed, spec::END_TO_END, &values);
    println!(
        "set-up: fastest {:.4} s, median {:.4} s over {} builds and start-ups",
        setup_s,
        stats::median(&build_s) + stats::median(&warmup_s),
        build_s.len()
    );
    let samples: usize = reps.iter().map(|r| r.latency_ms.len()).sum();
    println!(
        "workload {} seed {} — {} repetitions, {} latency samples ({} per repetition), rep spread {:.4}",
        options.workload,
        options.seed,
        reps.len(),
        samples,
        first.latency_ms.len(),
        rep_spread(&reps)
    );
    print_metrics(&result);
    result
}

/// Slowest over fastest timed wall, minus one: the repetitions' own error bar.
fn rep_spread(reps: &[RepView]) -> f64 {
    let fastest = min_over(reps, |r| r.wall_s);
    let slowest = reps.iter().map(|r| r.wall_s).fold(0.0, f64::max);
    slowest / fastest - 1.0
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn run_traced(options: &Options) -> RunResult {
    // The service runs untraced here too: nothing inside the program records spans.
    // Two repetitions whatever `--seconds` says: the replay and the probes are the
    // measurement here, the service run supplies the digest and the counters.
    let Repetitions {
        inputs,
        views: reps,
        accuracy,
        ..
    } = repetitions(options, MIN_REPS);
    let mut gates = Gates::default();
    gates.check_reps(&inputs, &reps, &accuracy, !options.smoke);
    let best = reps
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one repetition ran");

    // With nothing lost the service's ids are the submission order; otherwise the
    // digests cannot match and the gate below says so.
    let job_ids: Vec<u64> = if best.job_ids.len() == inputs.jobs.len() {
        best.job_ids.clone()
    } else {
        (0..inputs.jobs.len() as u64).collect()
    };
    let replayed = replay::run(&inputs, &job_ids);
    let replay_digest = stats::digest(&replayed.digest_rows);
    gates.require(replay_digest == best.exact.digest, || {
        format!(
            "replay digest {replay_digest:016x} differs from the service digest {:016x}",
            best.exact.digest
        )
    });
    let layers = replay::layer_times(&replayed.spans);
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let nnz = |name: &str| replayed.nnz.get(name).copied().unwrap_or(0) as f64;
    // Everything under a job span is a named layer; the job spans' own self time and
    // the gaps between jobs are what the replay failed to attribute.
    let attributed_s: f64 = layers
        .iter()
        .filter(|(name, _)| **name != replay::JOB)
        .map(|(_, l)| l.self_s)
        .sum();
    let untimed_share = 1.0 - share(attributed_s, replayed.wall_s);
    gates.require(options.smoke || untimed_share <= MAX_UNTIMED_SHARE, || {
        format!("{untimed_share:.4} of the replay's wall time lies outside every layer span")
    });
    if let Some(dir) = &options.trace_dir {
        write_trace(dir, &options.workload, &replayed.spans);
    }

    let attempted = (reps.len() * inputs.jobs.len()) as u64;
    let failed = failed_jobs(&reps, &accuracy);
    let probes = probes::run(&inputs, options.smoke);
    let (apply, spmv) = (layer(replay::APPLY), layer(replay::SPMV));
    let (encode, clone) = (layer(replay::ENCODE), layer(replay::CLONE));
    let lookup = layer(replay::LOOKUP);
    let vecops_s = layer(replay::SOLVE).self_s + layer(replay::REFINE).self_s;
    let apply_nnz_per_s = share(nnz(replay::APPLY), apply.total_s);
    let counters = &best.counters;
    let sim = &best.simulated;
    let jobs = best.exact.completed.max(1) as f64;
    let blocks = (counters.blocks_reencoded + counters.blocks_reused) as f64;
    let tail = stats::supported_percentile(best.latency_ms.len());
    println!(
        "workload {} seed {} — replay {:.3} s over {} spans, digest {replay_digest:016x}; \
         tail latency is p{:.0} of {} samples",
        options.workload,
        options.seed,
        replayed.wall_s,
        replayed.spans.len(),
        tail * 100.0,
        best.latency_ms.len()
    );
    let values = [
        ("sparse.csr.spmv_nnz_per_s", probes.csr_spmv_nnz_per_s),
        (
            "sparse.blocked.from_csr_nnz_per_s",
            probes.blocking_nnz_per_s,
        ),
        ("sparse.vecops.dot_elems_per_s", probes.dot_elems_per_s),
        ("sparse.vecops.axpy_elems_per_s", probes.axpy_elems_per_s),
        (
            "core.vector.convert_elems_per_s",
            probes.convert_elems_per_s,
        ),
        (
            "core.vector.convert_share_of_apply",
            probes.convert_share_of_apply,
        ),
        ("core.matrix.apply_s", apply.total_s),
        ("core.matrix.apply_calls", apply.count as f64),
        ("core.matrix.apply_nnz_per_s", apply_nnz_per_s),
        (
            "core.matrix.apply_over_csr",
            share(apply_nnz_per_s, probes.csr_spmv_nnz_per_s),
        ),
        ("core.matrix.encode_s", encode.total_s),
        ("core.matrix.encode_calls", encode.count as f64),
        (
            "core.matrix.encode_nnz_per_s",
            share(nnz(replay::ENCODE), encode.total_s),
        ),
        (
            "core.matrix.blocking_share_of_encode",
            share(layer(replay::BLOCKING).total_s, encode.total_s),
        ),
        ("core.matrix.clone_s", clone.total_s),
        ("core.matrix.clone_calls", clone.count as f64),
        ("core.matrix.drop_s", layer(replay::DROP).total_s),
        (
            "core.incremental.reencode_s",
            layer(replay::REENCODE).total_s,
        ),
        (
            "core.incremental.blocks_reencoded",
            counters.blocks_reencoded as f64,
        ),
        (
            "core.incremental.reuse_share",
            share(counters.blocks_reused as f64, blocks),
        ),
        ("solvers.solve_s", vecops_s + apply.total_s + spmv.total_s),
        ("solvers.vecops_s", vecops_s),
        ("solvers.iterations", replayed.iterations as f64),
        (
            "solvers.refinement_passes",
            replayed.refinement_passes as f64,
        ),
        ("solvers.fp64_spmvs", replayed.fp64_spmvs as f64),
        ("reram-sim.program_s", sim.program_s),
        ("reram-sim.compute_s", sim.compute_s),
        ("reram-sim.stream_write_s", sim.stream_write_s),
        ("reram-sim.reduction_s", sim.reduction_s),
        ("reram-sim.host_fp64_s", sim.host_fp64_s),
        ("reram-sim.program_share", share(sim.program_s, sim.total_s)),
        (
            "runtime.fingerprint.nnz_per_s",
            probes.fingerprint_nnz_per_s,
        ),
        (
            "runtime.cache.hit_share",
            share(
                counters.cache_hits as f64,
                (counters.cache_hits + counters.cache_misses) as f64,
            ),
        ),
        ("runtime.cache.misses", counters.cache_misses as f64),
        ("runtime.cache.evictions", counters.cache_evictions as f64),
        (
            "runtime.cache.lookup_hit_us",
            stats::median(&lookup.leaf_self_s) * 1e6,
        ),
        ("runtime.cache.insert_evict_s", lookup.parent_self_s),
        ("runtime.accel.remaps", counters.remaps as f64),
        (
            "runtime.accel.remaps_per_job",
            counters.remaps as f64 / jobs,
        ),
        ("runtime.sched.push_pop_ns", probes.sched_push_pop_ns),
        (
            "runtime.sched.queue_wait_p50_ms",
            stats::percentile(&best.queue_wait_ms, 0.5),
        ),
        (
            "runtime.client.submit_us_p50",
            stats::percentile(&best.submit_us, 0.5),
        ),
        (
            "runtime.client.latency_p95_ms",
            stats::percentile(&best.latency_ms, tail),
        ),
        ("runtime.cluster.router.place_ns", probes.router_place_ns),
        (
            "runtime.cluster.router.affinity_hit_share",
            share(counters.affinity_hits as f64, counters.jobs_routed as f64),
        ),
        (
            "runtime.cluster.admission.shed_share",
            share(best.shed as f64, best.offered as f64),
        ),
        (
            "runtime.sequence.warm_start_share",
            share(counters.warm_start_hits as f64, counters.seq_steps as f64),
        ),
        (
            "runtime.overhead_share",
            1.0 - share(
                replayed.wall_s,
                inputs.service.total_workers() as f64 * best.wall_s,
            ),
        ),
        ("replay.wall_s", replayed.wall_s),
        ("replay.untimed_share", untimed_share),
        ("bench.true_residual_max", accuracy.true_residual_max),
        ("bench.failed_share", share(failed as f64, attempted as f64)),
        ("bench.rep_spread", rep_spread(&reps)),
        (
            "bench.generator_lag_p95_ms",
            stats::percentile(&best.lag_ms, 0.95),
        ),
        (
            "bench.open_loop_backlog",
            if inputs.drive == Drive::Open {
                open_loop_backlog(&inputs, best)
            } else {
                0.0
            },
        ),
        (
            "bench.stamp_resolution_ms",
            stats::percentile(&best.sweep_gap_ms, 0.95),
        ),
    ];
    // The replay re-derives what the service reported; a disagreement means one of
    // the two did different work.
    let replay_counts = (
        replayed.iterations,
        replayed.warm_starts,
        replayed.reuse.blocks_reencoded,
        replayed.reuse.blocks_reused,
    );
    let service_counts = (
        best.exact.iterations_total,
        counters.warm_start_hits,
        counters.blocks_reencoded,
        counters.blocks_reused,
    );
    gates.require(replay_counts == service_counts, || {
        format!(
            "replay and service disagree on (iterations, warm starts, blocks re-encoded, \
             blocks reused): {replay_counts:?} vs {service_counts:?}"
        )
    });
    let result = RunResult::new(gates.passed(), attempted, failed, spec::PER_LAYER, &values);
    print_metrics(&result);
    result
}

fn write_trace(dir: &Path, workload: &str, spans: &[replay::Span]) {
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let written = std::fs::create_dir_all(dir).and_then(|()| replay::write_spans(&path, spans));
    match written {
        Ok(()) => eprintln!("wrote {} ({} spans)", path.display(), spans.len()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> RunResult {
        let options = Options {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
            trace_dir: None,
            smoke: true,
        };
        if trace {
            run_traced(&options)
        } else {
            run_untraced(&options)
        }
    }

    /// Tiny sizes, every workload, both modes: every listed metric is present and
    /// finite, every gate passes — which includes replay digest ≡ service digest.
    #[test]
    fn smoke_runs_of_all_five_workloads_report_every_metric_and_pass_every_gate() {
        for workload in spec::WORKLOADS {
            for (trace, table) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
                let result = smoke(workload.name, trace);
                assert!(
                    result.correct,
                    "{} trace={trace} failed a gate",
                    workload.name
                );
                assert_eq!(result.failed, 0);
                assert!(result.attempted >= 1);
                let names: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
                let listed: Vec<&str> = table.iter().map(|m| m.name).collect();
                assert_eq!(names, listed);
                assert!(result.metrics.iter().all(|m| m.value.is_finite()));
                if !trace {
                    assert!(
                        result.metrics.iter().all(|m| m.value != 0.0),
                        "{}: an end-to-end metric reads 0",
                        workload.name
                    );
                }
                let reparsed = RunResult::from_json(&result.to_json()).unwrap();
                assert_eq!(reparsed, result);
            }
        }
    }

    #[test]
    fn the_repetition_count_follows_from_the_flag_alone() {
        assert_eq!(rep_count(spec::RUN_SECONDS as f64), 3);
        assert_eq!(rep_count(0.0), MIN_REPS);
        assert_eq!(rep_count(60.0), 12);
    }

    #[test]
    fn arguments_are_checked_before_anything_runs() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(matches!(
            parse(&args(&[
                "--workload",
                "serve_hot",
                "--seed",
                "3",
                "--seconds",
                "5",
                "--trace",
                "1"
            ])),
            Ok(Command::Run(Options {
                seed: 3,
                trace: true,
                ..
            }))
        ));
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--workload", "serve_hot", "--trace", "2"])).is_err());
        assert!(parse(&args(&["--workload", "serve_hot", "--seconds", "-1"])).is_err());
        assert!(parse(&args(&["--workload"])).is_err());
        assert!(parse(&args(&[])).is_err());
        assert!(matches!(parse(&args(&["--list"])), Ok(Command::List)));
    }
}
