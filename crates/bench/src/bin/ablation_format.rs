//! Ablation (beyond the paper's tables): which ingredients of ReFloat actually buy the
//! convergence?
//!
//! Three design choices are isolated on a crystm-like workload (CG, relative 1e-8):
//!
//! 1. **Per-block exponent base vs block fixed point (BFP).**  §II.C argues BFP cannot
//!    capture the dynamic range inside a block; `e = 0` (all offsets zero) is exactly
//!    BFP with the Eq. 5 base, so the comparison is one flag away.
//! 2. **The Eq. 5 optimal base vs naive base choices** (minimum / maximum block
//!    exponent) at the paper's e = 3.
//! 3. **Per-iteration vector re-encoding on/off** — the ingredient the Feinberg design
//!    lacks (§III.C).
//!
//! Run with: `cargo run --release -p refloat-bench --bin ablation_format [--quick]`

use refloat_bench::args::Args;
use refloat_bench::table::TextTable;
use refloat_core::block::ReFloatBlock;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::{rhs, Workload};
use refloat_solvers::{cg, SolverConfig};
use refloat_sparse::BlockedMatrix;

/// Builds a ReFloat operator whose per-block base is chosen by `policy` instead of the
/// Eq. 5 optimum.
fn with_base_policy(
    blocked: &BlockedMatrix,
    config: ReFloatConfig,
    policy: fn(&[f64]) -> i32,
) -> ReFloatMatrix {
    // Re-encode every block with the alternative base, then splice the blocks into a
    // ReFloatMatrix by round-tripping through a quantized CSR.
    let mut quantized =
        refloat_sparse::CooMatrix::with_capacity(blocked.nrows(), blocked.ncols(), blocked.nnz());
    let bs = blocked.block_size();
    for block in blocked.blocks() {
        let base = policy(block.vals);
        let encoded = ReFloatBlock::encode_with_base(&block, &config, base);
        let row0 = block.block_row * bs;
        let col0 = block.block_col * bs;
        for (ii, jj, v) in encoded.iter_decoded() {
            if v != 0.0 {
                quantized.push(row0 + ii as usize, col0 + jj as usize, v);
            }
        }
    }
    // The matrix values are already quantized; encode them again with a wide fraction so
    // no further loss occurs, keeping the vector path identical to the real operator.
    let wide = ReFloatConfig::new(config.b, 11, 52, config.ev, config.fv);
    ReFloatMatrix::from_csr(&quantized.to_csr(), wide)
}

fn min_exponent_base(vals: &[f64]) -> i32 {
    vals.iter()
        .filter(|v| **v != 0.0)
        .map(|v| refloat_sparse::stats::exponent_of(*v))
        .min()
        .unwrap_or(0)
}

fn max_exponent_base(vals: &[f64]) -> i32 {
    vals.iter()
        .filter(|v| **v != 0.0)
        .map(|v| refloat_sparse::stats::exponent_of(*v))
        .max()
        .unwrap_or(0)
}

fn main() {
    let quick = Args::from_env("ablation_format", &["--quick"], &[]).switch("--quick");
    let workload = if quick {
        Workload::Crystm01
    } else {
        Workload::Crystm03
    };
    let a = workload.generate_csr(2023);
    let b = rhs::ones(a.nrows());
    let cfg = SolverConfig::relative(1e-8)
        .with_max_iterations(5_000)
        .with_trace(false);
    let format = ReFloatConfig::paper_default();
    let blocked = BlockedMatrix::from_csr(&a, format.b).expect("b = 7 is valid");

    println!(
        "== Ablation on {} ({} rows, {} nnz), CG to 1e-8 relative ==\n",
        workload.spec().name,
        a.nrows(),
        a.nnz()
    );

    let reference = cg(&mut a.clone(), &b, &cfg);
    let mut t = TextTable::new(["variant", "#iterations", "notes"]);
    t.row([
        "FP64 (reference)".to_string(),
        reference.iterations_label(),
        "exact arithmetic".to_string(),
    ]);

    // (0) The full ReFloat pipeline, paper defaults.
    let mut full = ReFloatMatrix::from_blocked(&blocked, format);
    let r_full = cg(&mut full, &b, &cfg);
    t.row([
        "ReFloat(7,3,3)(3,8)".to_string(),
        r_full.iterations_label(),
        "paper default (Eq. 5 base, adaptive vectors)".to_string(),
    ]);

    // (1) Block fixed point: e = 0 for the matrix (single shared exponent per block).
    let bfp = ReFloatConfig::new(7, 0, 3, 3, 8);
    let mut bfp_op = ReFloatMatrix::from_blocked(&blocked, bfp);
    let r_bfp = cg(&mut bfp_op, &b, &cfg);
    t.row([
        "BFP block (e = 0, f = 3)".to_string(),
        r_bfp.iterations_label(),
        "no per-element exponent offsets (§II.C argument)".to_string(),
    ]);

    // (2) Naive base policies at e = 3.
    let mut min_base = with_base_policy(&blocked, format, min_exponent_base);
    let r_min = cg(&mut min_base, &b, &cfg);
    t.row([
        "base = min block exponent".to_string(),
        r_min.iterations_label(),
        "saturates the large elements".to_string(),
    ]);
    let mut max_base = with_base_policy(&blocked, format, max_exponent_base);
    let r_max = cg(&mut max_base, &b, &cfg);
    t.row([
        "base = max block exponent".to_string(),
        r_max.iterations_label(),
        "saturates the small elements".to_string(),
    ]);

    // (3) Vector re-encoding disabled (matrix quantization only).
    let mut no_vq = ReFloatMatrix::from_blocked(&blocked, format);
    no_vq.set_vector_quantization(false);
    let r_novq = cg(&mut no_vq, &b, &cfg);
    t.row([
        "no vector re-encoding".to_string(),
        r_novq.iterations_label(),
        "isolates the matrix-quantization error".to_string(),
    ]);

    println!("{}", t.render());
    println!(
        "reading the table: the Eq. 5 base and the adaptive vector converter are what keep the\n\
         iteration count near the FP64 reference; fixed-point blocks and one-sided base choices\n\
         cost extra iterations (or convergence) for the same hardware budget."
    );
}
