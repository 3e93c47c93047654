//! # ReFloat — low-cost floating-point processing in ReRAM for iterative linear solvers
//!
//! A from-scratch Rust reproduction of *ReFloat: Low-Cost Floating-Point Processing in
//! ReRAM for Accelerating Iterative Linear Solvers* (Song, Chen, Qian, Li, Chen —
//! SC 2023).  This umbrella crate re-exports the workspace members:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`sparse`] (`refloat-sparse`) | COO/CSR/blocked sparse matrices, Matrix Market I/O, SpMV and vector kernels |
//! | [`matgen`] (`refloat-matgen`) | synthetic analogues of the 12 SuiteSparse workloads of Table V |
//! | [`solvers`] (`refloat-solvers`) | CG and BiCGSTAB over a pluggable [`solvers::LinearOperator`] |
//! | [`core`](mod@core) (`refloat-core`) | the ReFloat format, per-block exponent bases, quantized operators, baselines |
//! | [`sim`] (`reram-sim`) | crossbar pipeline, Eq. 2/Eq. 3 cost models, accelerator + GPU timing, RTN noise |
//! | [`runtime`] (`refloat-runtime`) | persistent multi-tenant solve service: validated `SolvePlan`s, `SolveClient` tickets, QoS scheduler, worker pool of simulated accelerators, encoded-matrix cache, telemetry |
//!
//! ## Quick start
//!
//! ```
//! use refloat::prelude::*;
//!
//! // A small SPD system (2-D Poisson with a diagonal shift).
//! let a = refloat::matgen::generators::laplacian_2d(16, 16, 0.3).to_csr();
//! let b = vec![1.0; a.nrows()];
//!
//! // Solve in full double precision...
//! let exact = cg(&mut a.clone(), &b, &SolverConfig::relative(1e-8));
//!
//! // ...and under the paper's default ReFloat(b, 3, 3)(3, 8) format.
//! let mut quantized = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 3, 3, 8));
//! let refloat = cg(&mut quantized, &b, &SolverConfig::relative(1e-8));
//!
//! assert!(exact.converged() && refloat.converged());
//! // The reduced-precision solve pays only a modest iteration overhead.
//! assert!(refloat.iterations <= 3 * exact.iterations + 10);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench/src/bin/` for the
//! binaries that regenerate every table and figure of the paper (the index is in
//! `DESIGN.md`; measured-vs-paper numbers are in `EXPERIMENTS.md`).

#![forbid(unsafe_code)]

pub use refloat_core as core;
pub use refloat_matgen as matgen;
pub use refloat_runtime as runtime;
pub use refloat_solvers as solvers;
pub use refloat_sparse as sparse;
pub use reram_sim as sim;

/// The most commonly used types and functions, for glob import in examples and tests.
pub mod prelude {
    pub use refloat_core::{
        AutotuneConfig, EscalationPolicy, FormatPlan, ReFloatConfig, ReFloatMatrix, RoundingMode,
        UnderflowMode,
    };
    pub use refloat_matgen::{SolveStep, TransientChain, TransientSpec, Workload, WorkloadSpec};
    pub use refloat_runtime::{
        AdmissionConfig, AutoFormatSpec, ClusterConfig, ClusterRuntime, FaultPolicy, MatrixHandle,
        PlanError, Priority, RefinementSpec, RuntimeConfig, RuntimeReport, SchedulerPolicy,
        SolveClient, SolvePlan, SolveRuntime, SolveSequence, SolveTicket, TicketOutcome,
    };
    pub use refloat_solvers::{
        bicgstab, cg, refine_warm, LinearOperator, OperatorLadder, PrecisionLadder,
        RefinementConfig, RefinementResult, SolveResult, SolverConfig,
    };
    pub use refloat_sparse::{BlockedMatrix, CooMatrix, CsrMatrix};
    pub use reram_sim::{AcceleratorConfig, GpuModel, SolverKind};
}

/// Convenience: solve `A x = b` with CG under the given ReFloat format, returning the
/// result together with the quantized operator (for inspection of the stored blocks).
///
/// This is the "one call" entry point a downstream user needs to try the format on
/// their own matrix; for anything more elaborate use the pieces directly.
pub fn solve_cg_refloat(
    a: &refloat_sparse::CsrMatrix,
    b: &[f64],
    format: refloat_core::ReFloatConfig,
    config: &refloat_solvers::SolverConfig,
) -> (refloat_solvers::SolveResult, refloat_core::ReFloatMatrix) {
    let mut op = refloat_core::ReFloatMatrix::from_csr(a, format);
    let result = refloat_solvers::cg(&mut op, b, config);
    (result, op)
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_work_together() {
        let a = crate::matgen::generators::laplacian_2d(12, 12, 0.4).to_csr();
        let b = vec![1.0; a.nrows()];
        let (result, op) = crate::solve_cg_refloat(
            &a,
            &b,
            ReFloatConfig::new(4, 3, 8, 3, 8),
            &SolverConfig::relative(1e-8),
        );
        assert!(result.converged());
        assert!(op.num_blocks() > 0);
    }
}
