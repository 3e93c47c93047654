//! The tracked `BENCH_*.json` perf trajectory: which areas exist, which metrics each
//! area must report, and the emit helper the bench binaries share.
//!
//! Every emitting binary writes its file only into the directory `--bench-dir` names,
//! never by default, so a plain run leaves the committed baselines alone:
//! `serve_traffic` → `BENCH_runtime.json`, `bench_encode` → `BENCH_encode.json`,
//! `bench_spmv` → `BENCH_spmv.json`, and the figure binaries (`fig_scheduling`,
//! `fig_sharding`, `fig_cluster` → `BENCH_cluster.json`, `fig_faults`,
//! `fig_transient`) their own areas.
//!
//! `bench_check` validates every `BENCH_*.json` in a directory against the
//! [`required_metrics`] vocabulary below and the schema in
//! [`refloat_telemetry::bench`]; CI fails on any drift.

use std::path::{Path, PathBuf};

use refloat_telemetry::BenchReport;

use crate::json::flag_value;

/// Areas whose `BENCH_<area>.json` file must exist in a trajectory directory
/// (`bench_check` fails when one is missing).
pub const TRACKED_AREAS: [&str; 6] = [
    "runtime",
    "encode",
    "spmv",
    "cluster",
    "faults",
    "transient",
];

/// The metrics each area's report must carry, as finite numbers.  Renaming or
/// dropping one of these is schema drift and fails `bench_check`.
pub fn required_metrics(area: &str) -> Option<&'static [&'static str]> {
    match area {
        "runtime" => Some(&[
            "jobs_per_s",
            "queue_wait_p50_ms",
            "queue_wait_p99_ms",
            "latency_p50_ms",
            "latency_p99_ms",
            "cache_hit_rate",
            "model_cycles",
            "cancelled_jobs",
            "unattributed_jobs",
        ]),
        "encode" => Some(&["rows_per_s", "nnz_per_s", "encode_s_total"]),
        "spmv" => Some(&[
            "csr_nnz_per_s",
            "quantized_nnz_per_s",
            "model_cycles_per_spmv",
        ]),
        "cluster" => Some(&[
            "speedup_4_nodes",
            "throughput_1_jobs_per_s",
            "throughput_4_jobs_per_s",
            "shed_rate_overload",
            "interactive_p99_wait_ms_overload",
            "affinity_hit_rate",
        ]),
        "faults" => Some(&[
            "extra_iteration_ratio",
            "detections",
            "re_encodes",
            "degraded_jobs",
            "rerouted_jobs",
        ]),
        "transient" => Some(&[
            "model_cycle_reduction_x",
            "jobs_per_s_speedup_x",
            "blocks_reused_fraction",
            "warm_start_hits",
            "steps",
        ]),
        "scheduling" => Some(&["interactive_p99_improvement_x", "throughput_ratio"]),
        "sharding" => Some(&["speedup_4_chips", "reduction_share_8_chips"]),
        _ => None,
    }
}

/// Parses `--bench-dir <dir>` from the argument list.
pub fn bench_dir_from_args(args: &[String]) -> Option<PathBuf> {
    flag_value(args, "--bench-dir").map(PathBuf::from)
}

/// Writes the report into `dir` (created if needed) and prints the path, panicking on
/// I/O errors — a bench run that cannot record its trajectory should fail loudly.
pub fn emit(report: &BenchReport, dir: &Path) {
    std::fs::create_dir_all(dir).expect("create bench dir");
    let path = report.write(dir).expect("write bench report");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_tracked_area_has_a_vocabulary() {
        for area in TRACKED_AREAS {
            let metrics = required_metrics(area).expect("tracked area has metrics");
            assert!(!metrics.is_empty());
        }
        assert!(required_metrics("nonsense").is_none());
    }

    #[test]
    fn the_bench_dir_comes_only_from_the_flag() {
        let args: Vec<String> = vec!["--quick".into()];
        assert_eq!(bench_dir_from_args(&args), None);
        let args: Vec<String> = vec!["--bench-dir".into(), "/tmp/b".into()];
        assert_eq!(bench_dir_from_args(&args), Some(PathBuf::from("/tmp/b")));
    }

    #[test]
    fn emit_writes_a_validating_file() {
        let dir = std::env::temp_dir().join("refloat_bench_emit_test");
        let report = BenchReport::new("encode", "test")
            .metric("rows_per_s", 1.0)
            .metric("nnz_per_s", 2.0)
            .metric("encode_s_total", 0.5);
        emit(&report, &dir);
        let text = std::fs::read_to_string(dir.join("BENCH_encode.json")).expect("reads");
        let value: serde::Value = serde_json::from_str(&text).expect("parses");
        let problems = refloat_telemetry::validate(&value, required_metrics("encode").unwrap());
        assert_eq!(problems, Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
    }
}
