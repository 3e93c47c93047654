//! `fig_sharding` — sharded multi-chip scaling: makespan speedup vs. reduction
//! overhead for a matrix exceeding one chip's crossbar budget.
//!
//! The paper's evaluation streams oversized matrices through a single chip in multiple
//! re-programming rounds (§VI.B); the distributed in-memory-computing alternative
//! partitions the operator across chips.  This driver sweeps a block-row-sharded solve
//! over 1/2/4/8 chips through the `refloat-runtime` service and reports, per chip
//! count:
//!
//! * the simulated makespan speedup over the single-chip solve,
//! * the share of simulated time spent in the per-SpMV inter-chip gather, and
//! * a bitwise-identity check of the solution against the single-chip run — the
//!   determinism contract of the shard → chip → reduction pipeline.
//!
//! It also asserts that the four jobs encoded the matrix once: every chip count reads
//! row bands of the same cached encoding.
//!
//! ```text
//! fig_sharding [--smoke] [--json PATH]
//! ```
//!
//! `--smoke` (the CI mode) shrinks the workload but keeps the matrix larger than one
//! chip's cluster budget, so the speedup and determinism assertions still bite.

use serde::Serialize;

use refloat_bench::args::Args;
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use refloat_core::ReFloatConfig;
use refloat_runtime::{MatrixHandle, RuntimeConfig, SolvePlan, SolveRuntime};
use reram_sim::AcceleratorConfig;

#[derive(Serialize)]
struct ShardingRecord {
    chips: usize,
    iterations: usize,
    simulated_total_s: f64,
    reduction_s: f64,
    reduction_share: f64,
    speedup_vs_single_chip: f64,
    bitwise_identical_to_single_chip: bool,
}

fn main() {
    let args = Args::from_env("fig_sharding", &["--smoke", "--quick"], &["--json"]);
    let smoke = args.switch("--smoke") || args.switch("--quick");

    // A Poisson workload blocked at 2^4: block count scales with the grid.
    let n = if smoke { 48 } else { 96 };
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);
    let a = refloat_matgen::generators::laplacian_2d(n, n, 0.3).to_csr();
    let handle = MatrixHandle::new(format!("poisson-{n}"), a);

    // Shrink the per-chip crossbar pool until the matrix overflows one chip — the
    // regime where the single-chip baseline pays streaming re-writes every SpMV.
    let chip_crossbars: u64 = 1 << 9;
    let mut small_chip = AcceleratorConfig::refloat(&format);
    small_chip.total_crossbars = chip_crossbars;
    let capacity = small_chip.clusters_available();

    let chip_counts = [1usize, 2, 4, 8];
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        chip_crossbars: Some(chip_crossbars),
        ..RuntimeConfig::default()
    });
    let plans: Vec<SolvePlan> = chip_counts
        .iter()
        .map(|&chips| {
            SolvePlan::new(format!("chips-{chips}"), handle.clone(), format)
                .sharding(chips)
                .build()
                .expect("valid plan")
        })
        .collect();
    let outcome = runtime.run_batch(plans);

    let blocks = {
        let encoded = refloat_core::ReFloatMatrix::from_csr(handle.csr(), format);
        encoded.num_blocks() as u64
    };
    println!(
        "fig_sharding: {} rows, {} non-empty blocks vs {} clusters/chip ({}x one chip)\n",
        handle.csr().nrows(),
        blocks,
        capacity,
        blocks.div_ceil(capacity.max(1)),
    );
    assert!(
        blocks > capacity,
        "workload must exceed one chip's crossbar budget ({blocks} blocks <= {capacity})"
    );

    let single = &outcome.jobs[0];
    let single_bits: Vec<u64> = single.result.x.iter().map(|v| v.to_bits()).collect();
    let single_total = single.telemetry.simulated.total_s;

    let mut table = TextTable::new([
        "chips",
        "iters",
        "simulated s",
        "reduction s",
        "reduction %",
        "speedup",
        "bitwise",
    ]);
    let mut records = Vec::new();
    for (job, &chips) in outcome.jobs.iter().zip(chip_counts.iter()) {
        let sim = &job.telemetry.simulated;
        let bits: Vec<u64> = job.result.x.iter().map(|v| v.to_bits()).collect();
        let identical = bits == single_bits;
        let speedup = single_total / sim.total_s;
        let share = if sim.total_s > 0.0 {
            sim.reduction_s / sim.total_s
        } else {
            0.0
        };
        table.row([
            chips.to_string(),
            job.result.iterations.to_string(),
            format!("{:.6}", sim.total_s),
            format!("{:.6}", sim.reduction_s),
            format!("{:.1}%", share * 100.0),
            format!("{speedup:.2}x"),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        records.push(ShardingRecord {
            chips,
            iterations: job.result.iterations,
            simulated_total_s: sim.total_s,
            reduction_s: sim.reduction_s,
            reduction_share: share,
            speedup_vs_single_chip: speedup,
            bitwise_identical_to_single_chip: identical,
        });
    }
    println!("{}", table.render());
    println!("{}", outcome.report.render());

    if let Some(path) = args.value("--json") {
        write_json(path, &records).expect("write --json output");
        println!("wrote {path}");
    }

    // The acceptance bar (also the CI smoke): bitwise determinism across every chip
    // count, and a real makespan win once the matrix no longer fits one chip.
    for record in &records {
        assert!(
            record.bitwise_identical_to_single_chip,
            "{}-chip solve is not bitwise identical to the single-chip solve",
            record.chips
        );
    }
    let at_4 = records
        .iter()
        .find(|r| r.chips == 4)
        .expect("4-chip record");
    assert!(
        at_4.speedup_vs_single_chip > 1.5,
        "4-chip makespan speedup should exceed 1.5x, got {:.2}x",
        at_4.speedup_vs_single_chip
    );
    println!(
        "sharding is bitwise-deterministic across 1/2/4/8 chips; 4-chip speedup {:.2}x",
        at_4.speedup_vs_single_chip
    );
    // A shard is a row range of the matrix's one encoding, so every chip count reads
    // the same cache entry.
    let misses = outcome.report.cache.misses;
    assert_eq!(
        misses, 1,
        "one matrix in one format must encode once, not {misses} times"
    );
    println!("one encoding served 1/2/4/8 chips ({misses} encode-cache miss)");
}
