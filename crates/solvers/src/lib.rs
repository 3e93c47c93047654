//! Iterative Krylov solvers for the ReFloat reproduction.
//!
//! The paper evaluates two Krylov-subspace solvers — Conjugate Gradient (CG, Hestenes &
//! Stiefel) and stabilized bi-conjugate gradient (BiCGSTAB, van der Vorst) — whose only
//! interaction with the matrix is the sparse matrix–vector product `y = A·x` (Code 1 of
//! the paper).  Both solvers here are therefore generic over a [`LinearOperator`]:
//!
//! * plain `f64` CSR / blocked SpMV (`refloat-sparse`) models the GPU and "Feinberg-fc"
//!   baselines, which are numerically exact double precision;
//! * the quantized operators in `refloat-core` model ReFloat and the Feinberg
//!   exponent-truncation baseline;
//! * the noisy crossbar operators in `reram-sim` model analog-noise studies (Fig. 10).
//!
//! Each solve records a residual trace (for the convergence plots of Fig. 9), the number
//! of iterations and SpMV applications (the quantities the accelerator timing model
//! consumes), and the reason it stopped.
//!
//! On top of the plain solvers, [`refinement`] implements **mixed-precision iterative
//! refinement** (defect correction): an outer fp64 loop computes exact residuals
//! `r = b − A·x` and accumulates corrections solved at low precision on a
//! [`PrecisionLadder`], escalating to wider formats (or fp64) when a rung stops
//! contracting the residual.  This recovers full fp64 accuracy from inner solves that
//! on their own stall at the quantization floor — the Le Gallo et al. mixed-precision
//! in-memory-computing recipe, expressed over the same [`LinearOperator`] abstraction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bicgstab;
pub mod cg;
pub mod eigs;
pub mod jacobi;
pub mod operator;
pub mod refinement;
pub mod result;
pub mod warm;

pub use bicgstab::bicgstab;
pub use cg::cg;
pub use eigs::{EigenConfidence, EigenEstimate};
pub use jacobi::Equilibration;
pub use operator::{LinearOperator, OperatorStats};
pub use refinement::{
    refine_warm, OperatorLadder, PrecisionLadder, RefinementConfig, RefinementPass,
    RefinementResult, RefinementStop,
};
pub use result::{SolveResult, SolverConfig, StopReason};
pub use warm::{solve_warm_split, WarmPath, WarmSolve};

/// Which Krylov solver to run (they differ in SpMVs per iteration).
///
/// This lives in the solver crate so that both the hardware time model (`reram-sim`,
/// which re-exports it) and the precision-ladder dispatch of [`refinement`] can name a
/// solver without depending on each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SolverKind {
    /// Conjugate Gradient: 1 SpMV per iteration.
    Cg,
    /// BiCGSTAB: 2 SpMVs per iteration.
    BiCgStab,
}

impl SolverKind {
    /// SpMVs executed per solver iteration.
    pub fn spmv_per_iteration(&self) -> u64 {
        match self {
            SolverKind::Cg => 1,
            SolverKind::BiCgStab => 2,
        }
    }

    /// Runs the chosen solver on `a` against `rhs` (starting from `x₀ = 0`).
    pub fn solve<A: LinearOperator + ?Sized>(
        &self,
        a: &mut A,
        rhs: &[f64],
        config: &SolverConfig,
    ) -> SolveResult {
        match self {
            SolverKind::Cg => cg(a, rhs, config),
            SolverKind::BiCgStab => bicgstab(a, rhs, config),
        }
    }

    /// Solves one system per right-hand side against the *same* operator, in order.
    ///
    /// The Krylov iterations themselves are inherently single-vector, so each column is
    /// bitwise identical to a standalone [`solve`](Self::solve); the point of batching
    /// is upstream — the accelerator programs the operator onto its chips once and the
    /// runtime amortizes that (plus encode-cache traffic) across the whole batch.
    pub fn solve_batch<A: LinearOperator + ?Sized>(
        &self,
        a: &mut A,
        rhss: &[&[f64]],
        config: &SolverConfig,
    ) -> Vec<SolveResult> {
        rhss.iter().map(|rhs| self.solve(a, rhs, config)).collect()
    }
}
