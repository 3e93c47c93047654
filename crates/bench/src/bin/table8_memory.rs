//! Experiment E15 — Table VIII: memory footprint of the matrix in `refloat` format
//! normalized to the `double` (COO, 32+32+64-bit) storage the Feinberg design uses.

use refloat_bench::args::Args;
use refloat_bench::experiment::ExperimentConfig;
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use refloat_core::memory;
use refloat_core::ReFloatConfig;
use refloat_sparse::BlockedMatrix;
use serde::Serialize;

#[derive(Serialize)]
struct MemoryRecord {
    id: u32,
    name: String,
    nnz: usize,
    blocks: usize,
    refloat_bits: u64,
    double_bits: u64,
    ratio: f64,
    paper_ratio: f64,
}

fn paper_ratio(id: u32) -> f64 {
    match id {
        353 => 0.173,
        1313 => 0.176,
        354 => 0.173,
        2261 => 0.176,
        1288 => 0.173,
        1311 => 0.174,
        1289 => 0.173,
        355 => 0.173,
        2257 => 0.312,
        1848 => 0.179,
        2259 => 0.300,
        845 => 0.173,
        _ => f64::NAN,
    }
}

fn main() {
    let args = Args::from_env("table8_memory", &["--quick"], &["--json"]);
    let quick = args.switch("--quick");
    let seed = 2023;
    let config = ReFloatConfig::paper_default();

    println!("== Table VIII: matrix memory overhead, refloat vs double ==\n");
    let mut t = TextTable::new([
        "id",
        "matrix",
        "nnz",
        "blocks",
        "ratio (measured)",
        "ratio (paper)",
    ]);
    let mut records = Vec::new();
    let mut sum = 0.0;
    let mut count = 0usize;
    for workload in ExperimentConfig::workloads(quick) {
        let spec = workload.spec();
        let csr = workload.generate_csr(seed);
        let blocked = BlockedMatrix::from_csr(&csr, config.b).expect("b = 7 is valid");
        let ratio = memory::memory_overhead_ratio(&blocked, &config);
        let refloat_bits = memory::refloat_storage_bits(&blocked, &config);
        let double_bits = memory::double_storage_bits(blocked.nnz());
        sum += ratio;
        count += 1;
        t.row([
            spec.id.to_string(),
            spec.name.to_string(),
            blocked.nnz().to_string(),
            blocked.num_blocks().to_string(),
            format!("{ratio:.3}"),
            format!("{:.3}", paper_ratio(spec.id)),
        ]);
        records.push(MemoryRecord {
            id: spec.id,
            name: spec.name.to_string(),
            nnz: blocked.nnz(),
            blocks: blocked.num_blocks(),
            refloat_bits,
            double_bits,
            ratio,
            paper_ratio: paper_ratio(spec.id),
        });
    }
    println!("{}", t.render());
    println!(
        "mean measured ratio: {:.3} (paper average: 0.192); scattered matrices (thermomech_TC/dM)\n\
         pay more block-index and exponent-base overhead, exactly as in the paper.",
        sum / count.max(1) as f64
    );

    if let Some(path) = args.value("--json") {
        write_json(path, &records).expect("write JSON results");
        println!("\nwrote {path}");
    }
}
