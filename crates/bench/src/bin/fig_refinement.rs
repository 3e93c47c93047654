//! `fig_refinement` — mixed-precision iterative refinement: iterations-to-fp64-accuracy
//! across ReFloat formats.
//!
//! The paper stops at the solver's own convergence criterion on the *quantized*
//! operator; this scenario asks the stronger question of Le Gallo et al.'s
//! mixed-precision in-memory computing: how much low-precision work does it take to
//! reach **fp64-level accuracy** (`‖b − A·x‖/‖b‖ ≤ 1e−12` against the exact matrix)?
//!
//! For each format the driver runs, through the `refloat-runtime` service:
//!
//! * a **plain** job — CG on the quantized operator, which converges in its own eyes
//!   but stalls far from fp64 accuracy (the quantization floor), and
//! * a **refined** job — the outer fp64 defect-correction loop with the
//!   format-escalation ladder, which must reach `1e−12`.
//!
//! Output: per-format stall floor vs refined accuracy, outer/inner iteration counts,
//! escalations, and the simulated cost split (chip seconds vs host fp64 seconds);
//! then each refined solve pass by pass (the library driver over the same ladder):
//! the rung, the relative tolerance its inner solve was asked for, the inner
//! iterations it took and the true residual before and after.
//!
//! ```text
//! fig_refinement [--quick] [--target T] [--json PATH]
//! ```

use serde::Serialize;

use refloat_bench::args::Args;
use refloat_bench::json::write_json;
use refloat_bench::table::TextTable;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_runtime::{MatrixHandle, RefinementSpec, RuntimeConfig, SolvePlan, SolveRuntime};
use refloat_solvers::{refine_warm, OperatorLadder, SolverKind};

#[derive(Serialize)]
struct RefinementRecord {
    format: String,
    plain_iterations: usize,
    plain_true_relative_residual: f64,
    refined_outer: usize,
    refined_inner: usize,
    refined_escalations: usize,
    refined_final_level: String,
    refined_true_relative_residual: f64,
    refined_converged: bool,
    chip_cycles: u64,
    chip_s: f64,
    host_fp64_s: f64,
    passes: Vec<PassRecord>,
}

#[derive(Serialize)]
struct PassRecord {
    rung: String,
    inner_tolerance: f64,
    inner_iterations: usize,
    residual_before: f64,
    residual_after: f64,
}

fn main() {
    let args = Args::from_env("fig_refinement", &["--quick"], &["--target", "--json"]);
    let target = args.or_exit(args.positive_f64("--target")).unwrap_or(1e-12);
    let quick = args.switch("--quick");
    let n = if quick { 16 } else { 48 };

    // An SPD Poisson workload: every plain low-precision solve below stalls orders of
    // magnitude above fp64 accuracy, which is exactly the gap refinement closes.
    let a = refloat_matgen::generators::laplacian_2d(n, n, 0.3).to_csr();
    let handle = MatrixHandle::new(format!("poisson-{n}"), a.clone());
    let b = vec![1.0; a.nrows()];
    println!(
        "fig_refinement: {} rows, {} nnz, target ‖b−Ax‖/‖b‖ ≤ {target:.0e}\n",
        a.nrows(),
        a.nnz()
    );

    // The formats under comparison: paper-default matrix bits, a wider-fraction
    // variant, and a near-half-precision rung that barely needs escalation.
    let formats: Vec<ReFloatConfig> = vec![
        ReFloatConfig::new(4, 3, 3, 3, 8),
        ReFloatConfig::new(4, 3, 8, 3, 8),
        ReFloatConfig::new(4, 4, 16, 4, 16),
    ];

    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 32,
        ..RuntimeConfig::default()
    });
    let spec = RefinementSpec::to_target(target);
    let plans: Vec<SolvePlan> = formats
        .iter()
        .flat_map(|&format| {
            [
                SolvePlan::new("plain", handle.clone(), format)
                    .build()
                    .expect("valid plan"),
                SolvePlan::new("refined", handle.clone(), format)
                    .refinement(spec.clone())
                    .build()
                    .expect("valid plan"),
            ]
        })
        .collect();
    let outcome = runtime.run_batch(plans);

    let mut table = TextTable::new([
        "format",
        "plain iters",
        "plain ‖r‖/‖b‖",
        "refined outer",
        "inner iters",
        "escalations",
        "final rung",
        "refined ‖r‖/‖b‖",
        "chip s",
        "host fp64 s",
    ]);
    let mut pass_table = TextTable::new([
        "format",
        "pass",
        "rung",
        "inner ask",
        "inner iters",
        "‖r‖/‖b‖ before",
        "‖r‖/‖b‖ after",
    ]);
    let mut records = Vec::new();
    for (i, &format) in formats.iter().enumerate() {
        let plain = &outcome.jobs[2 * i];
        let refined = &outcome.jobs[2 * i + 1];
        let plain_rel = a.relative_residual(&b, &plain.result.x);
        let refined_rel = a.relative_residual(&b, &refined.result.x);
        let tele = refined
            .telemetry
            .refinement
            .as_ref()
            .expect("refined job telemetry");
        // The same refinement through the library driver, for its pass log.
        let mut ladder = OperatorLadder::new(SolverKind::Cg);
        let mut rung_names = Vec::new();
        for rung in spec.escalation.ladder(format) {
            ladder.push(Box::new(ReFloatMatrix::from_csr(&a, rung)));
            rung_names.push(rung.to_string());
        }
        if spec.escalation.fp64_fallback {
            ladder.push(Box::new(a.clone()));
            rung_names.push("fp64 (exact)".to_string());
        }
        let config = spec.refinement_config();
        let passes = refine_warm(&mut a.clone(), &b, None, &mut ladder, &config).passes;
        assert_eq!(
            (
                passes.len(),
                passes.iter().map(|p| p.inner_iterations).sum()
            ),
            (tele.outer_iterations, tele.inner_iterations),
            "{format}: the library driver must repeat the service's refined solve"
        );
        for (k, pass) in passes.iter().enumerate() {
            pass_table.row([
                format.to_string(),
                (k + 1).to_string(),
                rung_names[pass.level].clone(),
                format!("{:.2e}", pass.inner_tolerance),
                pass.inner_iterations.to_string(),
                format!("{:.2e}", pass.residual_before),
                format!("{:.2e}", pass.residual_after),
            ]);
        }
        table.row([
            format.to_string(),
            plain.result.iterations.to_string(),
            format!("{plain_rel:.2e}"),
            tele.outer_iterations.to_string(),
            tele.inner_iterations.to_string(),
            tele.escalations.to_string(),
            tele.final_level.clone(),
            format!("{refined_rel:.2e}"),
            format!("{:.6}", refined.telemetry.simulated.total_s),
            format!("{:.6}", refined.telemetry.simulated.host_fp64_s),
        ]);
        records.push(RefinementRecord {
            format: format.to_string(),
            plain_iterations: plain.result.iterations,
            plain_true_relative_residual: plain_rel,
            refined_outer: tele.outer_iterations,
            refined_inner: tele.inner_iterations,
            refined_escalations: tele.escalations,
            refined_final_level: tele.final_level.clone(),
            refined_true_relative_residual: refined_rel,
            refined_converged: refined.result.converged(),
            chip_cycles: refined.telemetry.simulated.cycles,
            chip_s: refined.telemetry.simulated.total_s,
            host_fp64_s: refined.telemetry.simulated.host_fp64_s,
            passes: passes
                .iter()
                .map(|pass| PassRecord {
                    rung: rung_names[pass.level].clone(),
                    inner_tolerance: pass.inner_tolerance,
                    inner_iterations: pass.inner_iterations,
                    residual_before: pass.residual_before,
                    residual_after: pass.residual_after,
                })
                .collect(),
        });
    }
    println!("{}", table.render());
    println!("{}", pass_table.render());
    println!("{}", outcome.report.render());

    if let Some(path) = args.value("--json") {
        write_json(path, &records).expect("write --json output");
        println!("wrote {path}");
    }

    // The acceptance bar of the scenario (also the CI smoke): the base-format plain
    // solve stalls above 1e-6 while every refined solve reaches the fp64 target.
    assert!(
        records[0].plain_true_relative_residual > 1e-6,
        "plain {} solve should stall above 1e-6, got {:.3e}",
        records[0].format,
        records[0].plain_true_relative_residual
    );
    for record in &records {
        assert!(
            record.refined_converged && record.refined_true_relative_residual <= target,
            "{}: refined solve missed the fp64 target ({:.3e} > {target:.0e})",
            record.format,
            record.refined_true_relative_residual
        );
        assert!(
            record.host_fp64_s > 0.0,
            "{}: outer-loop fp64 work must be charged to the host",
            record.format
        );
    }
    println!("refinement reached {target:.0e} on every format (plain solves stalled)");
}
