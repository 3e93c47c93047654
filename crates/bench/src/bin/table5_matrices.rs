//! Experiment E9 — Table V: the workload inventory.
//!
//! Generates every synthetic analogue and reports its measured properties next to the
//! values the paper lists for the real SuiteSparse matrices.  With `--cond` it also
//! estimates the condition number by power / inverse-power iteration (slower).

use refloat_bench::args::Args;
use refloat_bench::experiment::ExperimentConfig;
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use refloat_solvers::eigs;
use refloat_sparse::MatrixStats;
use serde::Serialize;

#[derive(Serialize)]
struct WorkloadRecord {
    id: u32,
    name: String,
    paper_rows: usize,
    generated_rows: usize,
    paper_nnz: usize,
    generated_nnz: usize,
    paper_nnz_per_row: f64,
    generated_nnz_per_row: f64,
    paper_cond: f64,
    estimated_cond: Option<f64>,
    max_abs_value: f64,
}

fn main() {
    let args = Args::from_env("table5_matrices", &["--quick", "--cond"], &["--json"]);
    let estimate_cond = args.switch("--cond");
    let seed = 2023;

    println!("== Table V: evaluation matrices (paper values vs synthetic analogues) ==\n");
    let mut t = TextTable::new([
        "id",
        "name",
        "rows (paper)",
        "rows (gen)",
        "nnz (paper)",
        "nnz (gen)",
        "nnz/row (paper)",
        "nnz/row (gen)",
        "kappa (paper)",
        "kappa (est)",
        "max |a_ij|",
    ]);
    let mut records = Vec::new();
    for workload in ExperimentConfig::workloads(args.switch("--quick")) {
        let spec = workload.spec();
        let mut csr = workload.generate_csr(seed);
        let stats = MatrixStats::compute(&csr);
        let cond = if estimate_cond {
            Some(eigs::estimate_extremes(&mut csr, seed).condition_number())
        } else {
            None
        };
        t.row([
            spec.id.to_string(),
            spec.name.to_string(),
            spec.nrows.to_string(),
            stats.nrows.to_string(),
            spec.nnz.to_string(),
            stats.nnz.to_string(),
            format!("{:.1}", spec.nnz_per_row),
            format!("{:.1}", stats.nnz_per_row),
            format!("{:.2e}", spec.cond),
            cond.map_or("-".to_string(), |c| format!("{c:.2e}")),
            format!("{:.2e}", stats.max_abs),
        ]);
        records.push(WorkloadRecord {
            id: spec.id,
            name: spec.name.to_string(),
            paper_rows: spec.nrows,
            generated_rows: stats.nrows,
            paper_nnz: spec.nnz,
            generated_nnz: stats.nnz,
            paper_nnz_per_row: spec.nnz_per_row,
            generated_nnz_per_row: stats.nnz_per_row,
            paper_cond: spec.cond,
            estimated_cond: cond,
            max_abs_value: stats.max_abs,
        });
    }
    println!("{}", t.render());
    println!("(pass --cond to estimate condition numbers; --quick to skip the largest matrices)");

    if let Some(path) = args.value("--json") {
        write_json(path, &records).expect("write JSON results");
        println!("\nwrote {path}");
    }
}
