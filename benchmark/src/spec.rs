//! The benchmark's vocabulary: workload names, metric names, units, directions,
//! bounds and sources.  `BENCHMARK.json` carries the same tables (a unit test keeps
//! the two equal) and `--list` prints them.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured by the benchmark from outside the program (ticket stamps, /proc).
    Outside,
    /// Timed by the benchmark around a public call during the serial layer replay.
    Replay,
    /// A public function timed in isolation on the workload's own matrices.
    Probe,
    /// A count or simulated quantity the program made (`JobOutcome`, `RuntimeReport`).
    Report,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::Outside => "outside",
            Source::Replay => "replay",
            Source::Probe => "probe",
            Source::Report => "report",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    source: Source,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        source,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        source,
    }
}

use Better::{Higher, Lower};
use Source::{Outside, Probe, Replay, Report};

/// Simulated accelerator seconds carry their own unit so they are never read as
/// host time.
pub const SIM_S: &str = "sim_s";

/// The nine end-to-end metrics, reported by every workload with `--trace 0`.
///
/// Each bound is set from the spread measured on the shared 2-core box this was
/// written on (interquartile distance over median, ten seeds, two sets — "Steadiness"
/// in the README).  `jobs_per_s` and `latency_p50_ms` sit at the widest bound the
/// driver allows: they spread 0.02-0.06 on four workloads but up to 0.12 on
/// `serve_cold`, and 0.2 in a noisy quarter of an hour.  `peak_rss_mb` spreads at most
/// 0.05.  The simulated and counted metrics repeat exactly for a fixed seed; their
/// bound only absorbs what is left of the difference between seeds (at most 0.001).
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25, Outside),
    e2e("jobs_per_s", "1/s", Higher, 0.25, Outside),
    e2e("latency_p50_ms", "ms", Lower, 0.25, Outside),
    e2e("model_time_s", SIM_S, Lower, 0.005, Report),
    e2e("model_cycles", "cycles", Lower, 0.005, Report),
    e2e("iterations_total", "count", Lower, 0.005, Report),
    e2e("true_residual_digits", "digits", Higher, 0.005, Outside),
    e2e("ok_share", "share", Higher, 0.001, Outside),
    e2e("peak_rss_mb", "MB", Lower, 0.10, Outside),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.  A layer is a
/// crate or module name; a metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("sparse.csr.spmv_nnz_per_s", "1/s", Higher, Probe),
    layer("sparse.blocked.from_csr_nnz_per_s", "1/s", Higher, Probe),
    layer("sparse.vecops.dot_elems_per_s", "1/s", Higher, Probe),
    layer("sparse.vecops.axpy_elems_per_s", "1/s", Higher, Probe),
    layer("core.vector.convert_elems_per_s", "1/s", Higher, Probe),
    layer("core.vector.convert_share_of_apply", "share", Lower, Probe),
    layer("core.matrix.apply_s", "s", Lower, Replay),
    layer("core.matrix.apply_calls", "count", Lower, Replay),
    layer("core.matrix.apply_nnz_per_s", "1/s", Higher, Replay),
    layer("core.matrix.apply_over_csr", "ratio", Higher, Replay),
    layer("core.matrix.encode_s", "s", Lower, Replay),
    layer("core.matrix.encode_calls", "count", Lower, Replay),
    layer("core.matrix.encode_nnz_per_s", "1/s", Higher, Replay),
    layer(
        "core.matrix.blocking_share_of_encode",
        "share",
        Lower,
        Replay,
    ),
    layer("core.matrix.clone_s", "s", Lower, Replay),
    layer("core.matrix.clone_calls", "count", Lower, Replay),
    layer("core.matrix.drop_s", "s", Lower, Replay),
    layer("core.incremental.reencode_s", "s", Lower, Replay),
    layer("core.incremental.blocks_reencoded", "count", Lower, Report),
    layer("core.incremental.reuse_share", "share", Higher, Report),
    layer("solvers.solve_s", "s", Lower, Replay),
    layer("solvers.vecops_s", "s", Lower, Replay),
    layer("solvers.iterations", "count", Lower, Replay),
    layer("solvers.refinement_passes", "count", Lower, Replay),
    layer("solvers.fp64_spmvs", "count", Lower, Replay),
    layer("reram-sim.program_s", SIM_S, Lower, Report),
    layer("reram-sim.compute_s", SIM_S, Lower, Report),
    layer("reram-sim.stream_write_s", SIM_S, Lower, Report),
    layer("reram-sim.reduction_s", SIM_S, Lower, Report),
    layer("reram-sim.host_fp64_s", SIM_S, Lower, Report),
    layer("reram-sim.program_share", "share", Lower, Report),
    layer("runtime.fingerprint.nnz_per_s", "1/s", Higher, Probe),
    layer("runtime.cache.hit_share", "share", Higher, Report),
    layer("runtime.cache.misses", "count", Lower, Report),
    layer("runtime.cache.evictions", "count", Lower, Report),
    layer("runtime.cache.lookup_hit_us", "us", Lower, Replay),
    layer("runtime.cache.insert_evict_s", "s", Lower, Replay),
    layer("runtime.accel.remaps", "count", Lower, Report),
    layer("runtime.accel.remaps_per_job", "ratio", Lower, Report),
    layer("runtime.sched.push_pop_ns", "ns", Lower, Probe),
    layer("runtime.sched.queue_wait_p50_ms", "ms", Lower, Report),
    layer("runtime.client.submit_us_p50", "us", Lower, Outside),
    layer("runtime.client.latency_p95_ms", "ms", Lower, Outside),
    layer("runtime.cluster.router.place_ns", "ns", Lower, Probe),
    layer(
        "runtime.cluster.router.affinity_hit_share",
        "share",
        Higher,
        Report,
    ),
    layer(
        "runtime.cluster.admission.shed_share",
        "share",
        Lower,
        Report,
    ),
    layer("runtime.sequence.warm_start_share", "share", Higher, Report),
    layer("runtime.overhead_share", "share", Lower, Replay),
    layer("replay.wall_s", "s", Lower, Replay),
    layer("replay.untimed_share", "share", Lower, Replay),
    layer("bench.true_residual_max", "ratio", Lower, Outside),
    layer("bench.failed_share", "share", Lower, Outside),
    layer("bench.rep_spread", "share", Lower, Outside),
    layer("bench.generator_lag_p95_ms", "ms", Lower, Outside),
    layer("bench.open_loop_backlog", "count", Lower, Outside),
    layer("bench.stamp_resolution_ms", "ms", Lower, Outside),
];

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The five workloads; names are final.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "solve_refined",
        why: "time to a true 1e-8 residual on a dense-block and a scattered matrix: core apply and vecops do the work, encode is amortised, the runtime layers idle",
    },
    WorkloadSpec {
        name: "serve_hot",
        why: "the cache-hit path: skewed traffic over eight resident matrices, a clone per chip switch, real queue depth, many short solves; encode must not show",
    },
    WorkloadSpec {
        name: "serve_cold",
        why: "the cache-miss path: 32 distinct large matrices through a 4-entry cache, so every job encodes, inserts, evicts and fully reprograms the chip",
    },
    WorkloadSpec {
        name: "transient_chain",
        why: "a warm-started solve sequence: incremental re-encode, block reuse and delta programming, the write-beside-read use of the encoder",
    },
    WorkloadSpec {
        name: "cluster_open",
        why: "open-loop Poisson arrivals, at under half the rate where a backlog first appears, through the cluster router and admission: load does not adapt, so shedding or a backlog shows",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seconds one run measures for, as `BENCHMARK.json` states it.
pub const RUN_SECONDS: u64 = 15;

/// `--list`: every workload, then every metric with unit, direction, bound, source.
pub fn render_list() -> String {
    let mut out = String::from("workloads:\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<16} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (--trace 0):\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<44} {:<7} {:<7} bound {:<6} {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.unwrap_or(0.0),
            m.source.label()
        ));
    }
    out.push_str("\nper-layer metrics (--trace 1):\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<44} {:<7} {:<7} {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.source.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn object(fields: Vec<(&str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn strings(items: &[&str]) -> Value {
        Value::Array(items.iter().map(|s| Value::Str(s.to_string())).collect())
    }

    fn metric_value(m: &MetricSpec) -> Value {
        let mut fields = vec![
            ("name", Value::Str(m.name.to_string())),
            ("unit", Value::Str(m.unit.to_string())),
            ("better", Value::Str(m.better.label().to_string())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", Value::Num(bound)));
        }
        object(fields)
    }

    /// What `BENCHMARK.json` must hold, generated from the tables above.
    fn benchmark_json() -> Value {
        object(vec![
            (
                "command",
                strings(&[
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]),
            ),
            ("paths", strings(&["benchmark"])),
            ("run_seconds", Value::Num(RUN_SECONDS as f64)),
            (
                "workloads",
                Value::Array(
                    WORKLOADS
                        .iter()
                        .map(|w| {
                            object(vec![
                                ("name", Value::Str(w.name.to_string())),
                                ("why", Value::Str(w.why.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Array(END_TO_END.iter().map(metric_value).collect()),
            ),
            (
                "per_layer",
                Value::Array(PER_LAYER.iter().map(metric_value).collect()),
            ),
        ])
    }

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn benchmark_json_at_the_repo_root_carries_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn list_names_every_metric_and_workload() {
        let list = render_list();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(list.contains(m.name));
        }
        for w in WORKLOADS {
            assert!(list.contains(w.name));
        }
    }
}
