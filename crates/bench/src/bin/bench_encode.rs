//! `bench_encode` — ReFloat block-encoding throughput (the work a cache miss pays).
//!
//! Encodes a 2-D Laplacian into ReFloat blocks repeatedly and reports host-side
//! rows/s and nnz/s; with `--bench-dir DIR` it writes them to `DIR/BENCH_encode.json`.
//! Wall-clock numbers are host-dependent (see the clock contract in
//! `refloat-telemetry`); the trajectory tracks relative movement on CI's fixed
//! runner class, not absolute speed.
//!
//! ```text
//! bench_encode [--scale N] [--reps N] [--quick] [--bench-dir DIR]
//! ```

use std::time::Instant;

use refloat_bench::bench_emit::{bench_dir_from_args, emit};
use refloat_bench::json::has_flag;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::generators;
use refloat_telemetry::BenchReport;

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag(&args, "--quick");
    let scale = arg_value(&args, "--scale").unwrap_or(if quick { 96 } else { 192 }) as usize;
    let reps = arg_value(&args, "--reps").unwrap_or(if quick { 4 } else { 16 }) as usize;
    let format = ReFloatConfig::paper_default();

    let a = generators::laplacian_2d(scale, scale, 0.2).to_csr();
    println!(
        "bench_encode: {} rows, {} nnz, {} reps, format {}",
        a.nrows(),
        a.nnz(),
        reps,
        format,
    );

    // Warm-up encode (page in the matrix, stabilise allocator state), then the
    // timed repetitions.
    let warm = ReFloatMatrix::from_csr(&a, format);
    let blocks = warm.num_blocks();
    // refloat-analysis: allow(wall-clock-in-deterministic-path) — this bench bin
    // measures *real host* encode throughput by design; its numbers feed
    // BENCH_encode.json, not any deterministic digest.
    let start = Instant::now();
    for _ in 0..reps {
        let encoded = ReFloatMatrix::from_csr(&a, format);
        assert_eq!(encoded.num_blocks(), blocks, "encode must be deterministic");
    }
    // refloat-analysis: allow(wall-clock-in-deterministic-path)
    let total_s = start.elapsed().as_secs_f64().max(1e-9);

    let rows_per_s = (a.nrows() * reps) as f64 / total_s;
    let nnz_per_s = (a.nnz() * reps) as f64 / total_s;
    println!(
        "encoded {blocks} blocks/rep: {rows_per_s:.0} rows/s, {nnz_per_s:.0} nnz/s \
         ({total_s:.3} s total)"
    );

    let bench = BenchReport::new("encode", "bench_encode")
        .config_num("scale", scale as f64)
        .config_num("reps", reps as f64)
        .config_num("rows", a.nrows() as f64)
        .config_num("nnz", a.nnz() as f64)
        .config_num("blocks", blocks as f64)
        .config_str("format", &format.to_string())
        .metric("rows_per_s", rows_per_s)
        .metric("nnz_per_s", nnz_per_s)
        .metric("encode_s_total", total_s);
    if let Some(dir) = bench_dir_from_args(&args) {
        emit(&bench, &dir);
    }
}
