//! `bench_spmv` — SpMV throughput of the functional simulation, plus the modelled
//! cost of the same SpMV on the ReFloat accelerator.
//!
//! Two host-side operators run over the same 2-D Laplacian: plain FP64 CSR and the
//! quantized ReFloat operator (the per-iteration cost of functional simulation).
//! Alongside the wall-clock rates, the Eq. 2/3 cost model reports the *simulated*
//! cycles one SpMV costs on chip — bitwise reproducible, so trajectory diffs on
//! `model_cycles_per_spmv` reflect model changes, never host noise.  With
//! `--bench-dir DIR` it writes them to `DIR/BENCH_spmv.json`.
//!
//! ```text
//! bench_spmv [--scale N] [--reps N] [--quick] [--bench-dir DIR]
//! ```

use std::time::Instant;

use refloat_bench::bench_emit::{bench_dir_from_args, emit};
use refloat_bench::json::has_flag;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::{generators, rhs};
use refloat_solvers::LinearOperator;
use refloat_telemetry::BenchReport;
use reram_sim::AcceleratorConfig;

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Times `reps` applications of `op` and returns (nnz/s, checksum of the last `y`).
fn time_apply<O: LinearOperator>(
    op: &mut O,
    x: &[f64],
    y: &mut [f64],
    reps: usize,
    nnz: usize,
) -> (f64, f64) {
    // refloat-analysis: allow(wall-clock-in-deterministic-path) — this bench bin
    // measures *real host* SpMV throughput by design; its numbers feed
    // BENCH_spmv.json, not any deterministic digest.
    let start = Instant::now();
    for _ in 0..reps {
        op.apply(x, y);
    }
    // refloat-analysis: allow(wall-clock-in-deterministic-path)
    let total_s = start.elapsed().as_secs_f64().max(1e-9);
    ((nnz * reps) as f64 / total_s, y.iter().sum())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = has_flag(&args, "--quick");
    let scale = arg_value(&args, "--scale").unwrap_or(if quick { 128 } else { 256 }) as usize;
    let reps = arg_value(&args, "--reps").unwrap_or(if quick { 20 } else { 100 }) as usize;
    let format = ReFloatConfig::paper_default();

    let a = generators::laplacian_2d(scale, scale, 0.2).to_csr();
    // A solver-like input (mixed sign, many binades): a smooth positive one hides the
    // vector converter's data-dependent cost.
    let x = rhs::krylov_like(a.ncols(), 17);
    let mut y = vec![0.0; a.nrows()];
    println!(
        "bench_spmv: {} rows, {} nnz, {} reps, format {}",
        a.nrows(),
        a.nnz(),
        reps,
        format,
    );

    let mut csr = a.clone();
    let mut refloat = ReFloatMatrix::from_csr(&a, format);
    let blocks = refloat.num_blocks() as u64;

    // Warm-up one application each, then the timed repetitions.
    LinearOperator::apply(&mut csr, &x, &mut y);
    refloat.apply(&x, &mut y);
    let (csr_nnz_per_s, csr_checksum) = time_apply(&mut csr, &x, &mut y, reps, a.nnz());
    let (quantized_nnz_per_s, q_checksum) = time_apply(&mut refloat, &x, &mut y, reps, a.nnz());
    assert!(csr_checksum.is_finite() && q_checksum.is_finite());

    // The simulated accelerator's price for the same SpMV (Eq. 3 cycles per block
    // MVM, one round per cluster-capacity's worth of blocks).
    let chip = AcceleratorConfig::refloat(&format);
    let rounds = chip.rounds_per_spmv(blocks);
    let model_cycles_per_spmv = rounds * chip.cycles_per_block_mvm;
    let (compute_s, write_s) = chip.spmv_time_s(blocks);

    println!(
        "fp64 csr    {csr_nnz_per_s:>14.0} nnz/s (checksum {csr_checksum:.6e})\n\
         refloat     {quantized_nnz_per_s:>14.0} nnz/s (checksum {q_checksum:.6e})\n\
         chip model  {model_cycles_per_spmv} cycles/SpMV over {rounds} round(s), \
         {:.3e} s compute + {:.3e} s streaming",
        compute_s, write_s,
    );

    let bench = BenchReport::new("spmv", "bench_spmv")
        .config_num("scale", scale as f64)
        .config_num("reps", reps as f64)
        .config_num("rows", a.nrows() as f64)
        .config_num("nnz", a.nnz() as f64)
        .config_num("blocks", blocks as f64)
        .config_str("format", &format.to_string())
        .metric("csr_nnz_per_s", csr_nnz_per_s)
        .metric("quantized_nnz_per_s", quantized_nnz_per_s)
        .metric("model_cycles_per_spmv", model_cycles_per_spmv as f64)
        .metric("model_spmv_compute_s", compute_s)
        .metric("model_spmv_stream_s", write_s);
    if let Some(dir) = bench_dir_from_args(&args) {
        emit(&bench, &dir);
    }
}
