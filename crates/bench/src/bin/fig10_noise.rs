//! Experiment E14 — Fig. 10: robustness of ReFloat to random telegraph noise (RTN) on
//! `crystm03` with the CG solver.
//!
//! Error correction is disabled; the stored (quantized) matrix values are perturbed by a
//! multiplicative deviation σ on every read.  The figure reports both the iteration
//! count and the speedup over the GPU as σ grows from 0.1% to 25%.

use refloat_bench::args::Args;
use refloat_bench::experiment::{ExperimentConfig, PreparedWorkload};
use refloat_bench::json::write_json;
use refloat_bench::table::{speedup, TextTable};
use refloat_core::ReFloatMatrix;
use refloat_matgen::Workload;
use refloat_solvers::{cg, SolverConfig};
use reram_sim::{AcceleratorConfig, GpuModel, NoisyReFloatOperator, SolverKind};
use serde::Serialize;

#[derive(Serialize)]
struct NoiseRecord {
    sigma_percent: f64,
    iterations: Option<usize>,
    speedup_vs_gpu: Option<f64>,
}

fn main() {
    let args = Args::from_env("fig10_noise", &["--quick"], &["--json"]);
    let quick = args.switch("--quick");
    let config = ExperimentConfig::new(quick);

    let workload = Workload::Crystm03;
    let prepared = PreparedWorkload::prepare(workload, &config);
    let refloat_format = config.refloat_config_for(workload);
    let solver_cfg = SolverConfig::relative(config.tolerance)
        .with_max_iterations(if quick { 1_000 } else { 5_000 })
        .with_trace(false);

    // Reference: FP64 iteration count for the GPU time, noiseless ReFloat for σ = 0.
    let mut exact = prepared.csr.clone();
    let double = cg(&mut exact, &prepared.b, &solver_cfg);
    let gpu_s = GpuModel::v100().solver_time_s(
        prepared.csr.nnz() as u64,
        prepared.csr.nrows() as u64,
        double.iterations as u64,
        SolverKind::Cg,
    );
    let hw = AcceleratorConfig::refloat(&refloat_format);

    let sigmas = if quick {
        vec![0.0, 0.001, 0.01, 0.10, 0.25]
    } else {
        vec![
            0.0, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25,
        ]
    };

    println!(
        "== Fig. 10: ReFloat + RTN noise on {} (CG, {} rows, {} nnz) ==\n",
        workload.spec().name,
        prepared.csr.nrows(),
        prepared.csr.nnz()
    );
    let mut t = TextTable::new(["sigma", "#iterations", "speedup vs GPU"]);
    let mut records = Vec::new();
    for &sigma in &sigmas {
        let base = ReFloatMatrix::from_csr(&prepared.csr, refloat_format);
        let result = if sigma == 0.0 {
            let mut clean = base;
            cg(&mut clean, &prepared.b, &solver_cfg)
        } else {
            let mut noisy = NoisyReFloatOperator::new(base, sigma, 2023);
            cg(&mut noisy, &prepared.b, &solver_cfg)
        };
        let iterations = result.converged().then_some(result.iterations);
        let sp = iterations.map(|it| {
            gpu_s
                / hw.solver_time(prepared.num_blocks(), it as u64, SolverKind::Cg)
                    .solver_total_s
        });
        t.row([
            format!("{:.1}%", sigma * 100.0),
            result.iterations_label(),
            sp.map_or("NC".to_string(), speedup),
        ]);
        records.push(NoiseRecord {
            sigma_percent: sigma * 100.0,
            iterations,
            speedup_vs_gpu: sp,
        });
    }
    println!("{}", t.render());
    println!(
        "paper reference: within 10% noise the speedup degrades very little, and at 25% noise\n\
         ReFloat still maintains a 6.85x speedup over the GPU."
    );

    if let Some(path) = args.value("--json") {
        write_json(path, &records).expect("write JSON results");
        println!("\nwrote {path}");
    }
}
