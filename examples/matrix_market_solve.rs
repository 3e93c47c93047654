//! Downstream-user scenario: solve *your own* matrix in ReFloat format.
//!
//! Reads a Matrix Market file (e.g. a real SuiteSparse download such as `crystm03.mtx`),
//! solves `A x = 1` with CG under FP64 and under ReFloat, and prints the comparison the
//! paper's Table VI makes — so the reproduction can be validated against the actual
//! SuiteSparse matrices when they are available.
//!
//! Usage: `cargo run --release --example matrix_market_solve -- path/to/matrix.mtx [e f ev fv]`
//!
//! Without an argument it writes a small demo matrix to a temporary file first, so the
//! example is runnable out of the box.

use refloat::prelude::*;
use refloat::sparse::mm;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = match args.first() {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // No input given: generate a small Wathen matrix and write it as .mtx.
            let demo = refloat::matgen::generators::wathen(12, 12, 7);
            let path = std::env::temp_dir().join("refloat_demo_wathen12.mtx");
            mm::write_coo(&path, &demo, "demo matrix written by matrix_market_solve").unwrap();
            println!(
                "no input file given; wrote and using demo matrix {}\n",
                path.display()
            );
            path
        }
    };
    let bits: Vec<u32> = args.iter().skip(1).filter_map(|a| a.parse().ok()).collect();
    let (e, f, ev, fv) = match bits.as_slice() {
        [e, f, ev, fv, ..] => (*e, *f, *ev, *fv),
        _ => (3, 3, 3, 8),
    };

    let a = match mm::read_coo(&path).and_then(|coo| CsrMatrix::try_from_coo(&coo)) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("could not read {}: {err}", path.display());
            std::process::exit(1);
        }
    };
    println!(
        "matrix: {} rows x {} cols, {} non-zeros, symmetric: {}",
        a.nrows(),
        a.ncols(),
        a.nnz(),
        a.is_symmetric(1e-12 * a.max_abs())
    );
    if a.nrows() != a.ncols() {
        eprintln!("need a square matrix for the iterative solvers");
        std::process::exit(1);
    }

    let b = vec![1.0; a.nrows()];
    let cfg = SolverConfig::relative(1e-8).with_max_iterations(50_000);

    let exact = cg(&mut a.clone(), &b, &cfg);
    println!(
        "\nFP64    CG: {:>6} iterations, final residual {:.2e}",
        exact.iterations_label(),
        exact.final_residual
    );

    let format = ReFloatConfig::new(7, e, f, ev, fv);
    let (quant, op) = refloat::solve_cg_refloat(&a, &b, format, &cfg);
    println!(
        "ReFloat CG: {:>6} iterations, final residual {:.2e}   [{} — {} blocks, {:.3}x memory]",
        quant.iterations_label(),
        quant.final_residual,
        format,
        op.num_blocks(),
        op.storage_bits() as f64 / refloat::core::memory::double_storage_bits(a.nnz()) as f64
    );

    if exact.converged() && quant.converged() {
        println!(
            "\niteration overhead of the reduced-precision solve: {:+} iterations",
            quant.iterations as i64 - exact.iterations as i64
        );
    } else {
        println!(
            "\none of the solves did not converge — try more fraction bits (e.g. `-- {} 8 3 16`)",
            path.display()
        );
    }
}
