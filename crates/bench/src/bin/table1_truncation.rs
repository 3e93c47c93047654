//! Experiment E5 — Table I: iterations to convergence for `crystm03` under plain
//! fraction / exponent truncation.
//!
//! The paper's point: truncating the fraction degrades convergence gracefully, while
//! truncating the exponent (the Feinberg approach) hits a wall — below a threshold the
//! solver simply stops converging because the fixed window no longer covers the vector
//! values.  `NC` marks non-convergence within the iteration budget.

use refloat_bench::args::Args;
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use refloat_core::truncate::{TruncatedOperator, TruncationConfig};
use refloat_matgen::{rhs, Workload};
use refloat_solvers::{cg, SolverConfig};
use serde::Serialize;

#[derive(Serialize)]
struct TruncationRecord {
    exponent_bits: u32,
    fraction_bits: u32,
    iterations: Option<usize>,
}

fn main() {
    let args = Args::from_env("table1_truncation", &["--quick"], &["--json"]);
    let quick = args.switch("--quick");

    let workload = Workload::Crystm03;
    let a = workload.generate_csr(2023);
    let b = rhs::ones(a.nrows());
    let max_iterations = if quick { 2_000 } else { 10_000 };
    let cfg = SolverConfig::relative(1e-8)
        .with_max_iterations(max_iterations)
        .with_trace(false);

    println!(
        "== Table I: CG iterations on {} (synthetic analogue, {} rows, {} nnz) ==\n",
        workload.spec().name,
        a.nrows(),
        a.nnz()
    );

    let mut records = Vec::new();
    let mut run = |exp: u32, frac: u32| -> String {
        let mut op = TruncatedOperator::new(
            &a,
            TruncationConfig {
                exponent_bits: exp,
                fraction_bits: frac,
            },
        );
        let result = cg(&mut op, &b, &cfg);
        let iterations = result.converged().then_some(result.iterations);
        records.push(TruncationRecord {
            exponent_bits: exp,
            fraction_bits: frac,
            iterations,
        });
        result.iterations_label()
    };

    // --- Fraction sweep at full exponent (first two row blocks of Table I).
    let frac_sweep: Vec<u32> = if quick {
        vec![52, 30, 26, 22, 20, 8, 3]
    } else {
        vec![52, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 12, 8, 3]
    };
    let mut t = TextTable::new(["exp bits", "frac bits", "#iterations"]);
    for &frac in &frac_sweep {
        let label = run(11, frac);
        t.row(["11".to_string(), frac.to_string(), label]);
    }
    println!("{}", t.render());

    // --- Exponent sweep at full fraction (last row block of Table I).
    let mut t = TextTable::new(["exp bits", "frac bits", "#iterations"]);
    for &exp in &[11u32, 10, 9, 8, 7, 6, 5] {
        let label = run(exp, 52);
        t.row([exp.to_string(), "52".to_string(), label]);
    }
    println!("{}", t.render());

    println!(
        "paper reference (real crystm03): full double converges in 80 iterations; fraction\n\
         truncation is graceful down to ~21 bits; exponent truncation below 7 bits -> NC."
    );

    if let Some(path) = args.value("--json") {
        write_json(path, &records).expect("write JSON results");
        println!("\nwrote {path}");
    }
}
