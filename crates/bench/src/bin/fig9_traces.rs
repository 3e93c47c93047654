//! Experiment E11 — Fig. 9: convergence traces (residual vs iteration) of the FP64
//! ("GPU"/Feinberg-fc) and ReFloat solvers.
//!
//! Stdout shows a compact view (iterations and final residuals); with `--out <dir>`
//! the full per-iteration traces are also written as CSV files, one per workload ×
//! solver, under `<dir>`.  Without it nothing is written.

use refloat_bench::args::Args;
use refloat_bench::experiment::{solve_all_platforms, ExperimentConfig, PreparedWorkload};
use refloat_bench::table::TextTable;
use reram_sim::SolverKind;
use std::io::Write;

fn main() {
    let args = Args::from_env("fig9_traces", &["--quick"], &["--out"]);
    let quick = args.switch("--quick");
    let out_dir = args.value("--out");
    let config = ExperimentConfig::new(quick);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    for solver in [SolverKind::Cg, SolverKind::BiCgStab] {
        let solver_name = match solver {
            SolverKind::Cg => "cg",
            SolverKind::BiCgStab => "bicgstab",
        };
        println!(
            "== Fig. 9 ({}): residual traces (subsampled) ==\n",
            solver_name.to_uppercase()
        );
        let mut t = TextTable::new([
            "id",
            "matrix",
            "double iters",
            "refloat iters",
            "double final res",
            "refloat final res",
        ]);
        for workload in ExperimentConfig::workloads(quick) {
            let prepared = PreparedWorkload::prepare(workload, &config);
            let (double, refloat, _feinberg) = solve_all_platforms(&prepared, solver, &config);
            let spec = workload.spec();

            if let Some(dir) = out_dir {
                // The full traces as CSV: iteration, residual_double, residual_refloat.
                let path = format!("{dir}/{}_{}.csv", spec.name, solver_name);
                let mut file = std::fs::File::create(&path).expect("create trace file");
                writeln!(file, "iteration,residual_double,residual_refloat").unwrap();
                let (d, r) = (&double.result.trace[..], &refloat.result.trace[..]);
                for i in 0..d.len().max(r.len()) {
                    let cell = |t: &[f64]| t.get(i).map_or(String::new(), |v| format!("{v:e}"));
                    writeln!(file, "{i},{},{}", cell(d), cell(r)).unwrap();
                }
            }

            t.row([
                spec.id.to_string(),
                spec.name.to_string(),
                double.result.iterations_label(),
                refloat.result.iterations_label(),
                format!("{:.2e}", double.result.final_residual),
                format!("{:.2e}", refloat.result.final_residual),
            ]);
        }
        println!("{}", t.render());
    }
    if let Some(dir) = out_dir {
        println!("full traces written to {dir}/<matrix>_<solver>.csv");
    }
    println!(
        "paper reference: the refloat traces follow the double traces closely (occasional spikes)\n\
         and all twelve matrices reach the 1e-8 residual threshold under both formats."
    );
}
