//! Experiment E12 — Table VI: absolute iteration counts to convergence, `double` vs
//! `refloat`, for CG and BiCGSTAB on all 12 workloads (plus the Feinberg column that
//! motivates §VI.B's non-convergence discussion).

use refloat_bench::args::Args;
use refloat_bench::experiment::{solve_all_platforms, ExperimentConfig, PreparedWorkload};
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use reram_sim::SolverKind;
use serde::Serialize;

#[derive(Serialize)]
struct IterationRecord {
    id: u32,
    name: String,
    cg_double: Option<usize>,
    cg_refloat: Option<usize>,
    cg_feinberg: Option<usize>,
    bicgstab_double: Option<usize>,
    bicgstab_refloat: Option<usize>,
    bicgstab_feinberg: Option<usize>,
    paper_cg_double: usize,
    paper_cg_refloat: usize,
    paper_bicgstab_double: usize,
    paper_bicgstab_refloat: usize,
}

fn label(it: Option<usize>) -> String {
    it.map_or("NC".to_string(), |v| v.to_string())
}

fn delta(double: Option<usize>, refloat: Option<usize>) -> String {
    match (double, refloat) {
        (Some(d), Some(r)) => format!("{:+}", r as i64 - d as i64),
        _ => "-".to_string(),
    }
}

fn main() {
    let args = Args::from_env("table6_iterations", &["--quick"], &["--json"]);
    let quick = args.switch("--quick");
    let config = ExperimentConfig::new(quick);

    println!("== Table VI: iterations to convergence (measured | paper in brackets) ==\n");
    let mut t = TextTable::new([
        "id",
        "matrix",
        "CG double",
        "CG refloat",
        "CG +/-",
        "CG feinberg",
        "BiCG double",
        "BiCG refloat",
        "BiCG +/-",
        "BiCG feinberg",
    ]);
    let mut records = Vec::new();
    for workload in ExperimentConfig::workloads(quick) {
        let spec = workload.spec();
        let prepared = PreparedWorkload::prepare(workload, &config);
        let (cg_d, cg_r, cg_f) = solve_all_platforms(&prepared, SolverKind::Cg, &config);
        let (bi_d, bi_r, bi_f) = solve_all_platforms(&prepared, SolverKind::BiCgStab, &config);
        let (p_cg_d, p_cg_r, p_bi_d, p_bi_r) = workload.paper_iterations();

        t.row([
            spec.id.to_string(),
            spec.name.to_string(),
            format!("{} [{}]", label(cg_d.iterations()), p_cg_d),
            format!("{} [{}]", label(cg_r.iterations()), p_cg_r),
            delta(cg_d.iterations(), cg_r.iterations()),
            label(cg_f.iterations()),
            format!("{} [{}]", label(bi_d.iterations()), p_bi_d),
            format!("{} [{}]", label(bi_r.iterations()), p_bi_r),
            delta(bi_d.iterations(), bi_r.iterations()),
            label(bi_f.iterations()),
        ]);
        records.push(IterationRecord {
            id: spec.id,
            name: spec.name.to_string(),
            cg_double: cg_d.iterations(),
            cg_refloat: cg_r.iterations(),
            cg_feinberg: cg_f.iterations(),
            bicgstab_double: bi_d.iterations(),
            bicgstab_refloat: bi_r.iterations(),
            bicgstab_feinberg: bi_f.iterations(),
            paper_cg_double: p_cg_d,
            paper_cg_refloat: p_cg_r,
            paper_bicgstab_double: p_bi_d,
            paper_bicgstab_refloat: p_bi_r,
        });
    }
    println!("{}", t.render());
    println!(
        "paper reference: refloat needs a modest number of extra iterations for CG (sometimes fewer\n\
         for BiCGSTAB), and Feinberg fails to converge on ids 353, 354, 2261, 355, 2259, 845."
    );

    if let Some(path) = args.value("--json") {
        write_json(path, &records).expect("write JSON results");
        println!("\nwrote {path}");
    }
}
