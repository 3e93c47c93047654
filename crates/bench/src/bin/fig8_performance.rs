//! Experiment E10 (+E16) — Fig. 8: solver-time performance of GPU, Feinberg,
//! Feinberg-fc and ReFloat on the 12 Table V workloads, for CG and BiCGSTAB.
//!
//! Iteration counts come from actually running each solver under the corresponding
//! value representation (FP64 for GPU / Feinberg-fc, the Feinberg fixed-window format
//! for Feinberg, the ReFloat format for ReFloat); times come from the hardware models
//! in `reram-sim` (`AcceleratorConfig`, `GpuModel`).  Speedups are normalized to the GPU
//! as in Fig. 8.
//!
//! Flags: `--quick` (smaller matrices only, lower iteration caps), `--details`
//! (per-workload cluster/round breakdown, the §VI.B worked numbers), `--json <path>`.

use refloat_bench::args::Args;
use refloat_bench::experiment::{
    geometric_mean, solve_all_platforms, ExperimentConfig, PerformanceRow, PreparedWorkload,
};
use refloat_bench::json::{write_json, PerformanceRecord};
use refloat_bench::table::{speedup, TextTable};
use reram_sim::{AcceleratorConfig, SolverKind};

fn main() {
    let args = Args::from_env("fig8_performance", &["--quick", "--details"], &["--json"]);
    let (quick, details) = (args.switch("--quick"), args.switch("--details"));
    let config = ExperimentConfig::new(quick);

    let mut all_rows: Vec<PerformanceRow> = Vec::new();
    for solver in [SolverKind::Cg, SolverKind::BiCgStab] {
        let solver_name = match solver {
            SolverKind::Cg => "CG",
            SolverKind::BiCgStab => "BiCGSTAB",
        };
        println!("== Fig. 8 ({solver_name}): performance normalized to the GPU ==\n");
        let mut t = TextTable::new([
            "id",
            "matrix",
            "GPU",
            "Feinberg",
            "Feinberg-fc",
            "ReFloat",
            "ReFloat vs F-fc",
        ]);
        let mut refloat_speedups = Vec::new();
        let mut feinberg_fc_speedups = Vec::new();
        let mut refloat_over_fc = Vec::new();

        for workload in ExperimentConfig::workloads(quick) {
            let prepared = PreparedWorkload::prepare(workload, &config);
            let (double, refloat, feinberg) = solve_all_platforms(&prepared, solver, &config);
            let row =
                PerformanceRow::build(&prepared, solver, &double, &refloat, &feinberg, &config);

            refloat_speedups.push(row.speedup_refloat());
            feinberg_fc_speedups.push(row.speedup_feinberg_fc());
            refloat_over_fc.push(row.speedup_refloat_over_feinberg_fc());

            t.row([
                row.id.to_string(),
                row.name.to_string(),
                "1.00x".to_string(),
                row.speedup_feinberg().map_or("NC".to_string(), speedup),
                speedup(row.speedup_feinberg_fc()),
                speedup(row.speedup_refloat()),
                speedup(row.speedup_refloat_over_feinberg_fc()),
            ]);

            if details {
                let hw_refloat = AcceleratorConfig::refloat(&config.refloat_config_for(workload));
                let hw_feinberg = AcceleratorConfig::feinberg();
                println!(
                    "  [{}] clusters required {} | available: ReFloat {} (rounds {}), Feinberg {} (rounds {})",
                    row.name,
                    row.clusters_required,
                    hw_refloat.clusters_available(),
                    hw_refloat.rounds_per_spmv(row.clusters_required),
                    hw_feinberg.clusters_available(),
                    hw_feinberg.rounds_per_spmv(row.clusters_required),
                );
            }
            all_rows.push(row);
        }
        println!("{}", t.render());
        println!(
            "geometric means ({solver_name}): Feinberg-fc {:.4}x, ReFloat {:.2}x vs GPU; ReFloat vs Feinberg-fc {:.2}x (range {:.2}x..{:.2}x)\n",
            geometric_mean(&feinberg_fc_speedups),
            geometric_mean(&refloat_speedups),
            geometric_mean(&refloat_over_fc),
            refloat_over_fc.iter().cloned().fold(f64::INFINITY, f64::min),
            refloat_over_fc.iter().cloned().fold(0.0, f64::max),
        );
    }

    println!(
        "paper reference: GMN speedups vs GPU of 12.59x (CG) / 13.34x (BiCGSTAB) for ReFloat and\n\
         0.84x / 1.04x for Feinberg-fc; ReFloat vs Feinberg [ISCA'18] headline range 5.02x-84.28x;\n\
         Feinberg does not converge on ids 353, 354, 2261, 355, 2259, 845."
    );

    if let Some(path) = args.value("--json") {
        let records: Vec<PerformanceRecord> =
            all_rows.iter().map(PerformanceRecord::from).collect();
        write_json(path, &records).expect("write JSON results");
        println!("\nwrote {path}");
    }
}
