//! Experiment E4 — Fig. 3(d): exponent value locality of the Table V workloads.
//!
//! For every workload, reports the exponent bits of the storage format (11 for FP64),
//! the bits needed to cover the whole matrix's exponent range with a single base, the
//! per-128×128-block locality (maximum and mean), and the e = 3 the ReFloat default
//! allocates.

use refloat_bench::args::Args;
use refloat_bench::experiment::ExperimentConfig;
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use refloat_core::locality::exponent_locality;
use refloat_sparse::BlockedMatrix;
use serde::Serialize;

#[derive(Serialize)]
struct LocalityRecord {
    id: u32,
    name: String,
    fp64_bits: u32,
    matrix_bits: u32,
    max_block_bits: u32,
    mean_block_bits: f64,
    refloat_bits: u32,
}

fn main() {
    let args = Args::from_env("fig3d_locality", &["--quick"], &["--json"]);
    let quick = args.switch("--quick");
    let seed = 2023;

    println!("== Fig. 3(d): exponent locality (whole matrix vs per-block) ==\n");
    let mut t = TextTable::new([
        "id",
        "matrix",
        "FP64 bits",
        "whole-matrix bits",
        "max block bits",
        "mean block bits",
        "ReFloat e",
    ]);
    let mut records = Vec::new();
    for workload in ExperimentConfig::workloads(quick) {
        let spec = workload.spec();
        let csr = workload.generate_csr(seed);
        let blocked = BlockedMatrix::from_csr(&csr, 7).expect("b = 7 is valid");
        let report = exponent_locality(&blocked);
        t.row([
            spec.id.to_string(),
            spec.name.to_string(),
            report.fp64_bits.to_string(),
            report.matrix_bits.to_string(),
            report.max_block_bits.to_string(),
            format!("{:.2}", report.mean_block_bits),
            "3".to_string(),
        ]);
        records.push(LocalityRecord {
            id: spec.id,
            name: spec.name.to_string(),
            fp64_bits: report.fp64_bits,
            matrix_bits: report.matrix_bits,
            max_block_bits: report.max_block_bits,
            mean_block_bits: report.mean_block_bits,
            refloat_bits: 3,
        });
    }
    println!("{}", t.render());
    println!(
        "paper reference: the FP64 format allocates 11 exponent bits, the per-block locality of\n\
         the 12 matrices is at most 7 bits, and ReFloat allocates 3."
    );
    if let Some(path) = args.value("--json") {
        write_json(path, &records).expect("write JSON results");
        println!("\nwrote {path}");
    }
}
