//! GPU baseline timing model (the V100 + cuSPARSE platform of Table IV).
//!
//! The paper measures wall-clock solver time on a real Tesla V100.  No GPU is available
//! in this environment, so the baseline is modelled with the two effects that dominate
//! iterative sparse solvers on GPUs (see the README's *Substitutions*):
//!
//! * memory-bound kernels: SpMV and the vector updates stream their operands from HBM,
//!   so each kernel costs `bytes / bandwidth`, and
//! * kernel-launch / synchronization latency: every kernel pays a fixed overhead, which
//!   dominates for the small and medium matrices of Table V (this is the reason ReRAM
//!   accelerators show 10–40× gains there).
//!
//! The defaults (900 GB/s effective HBM2 bandwidth, 8 µs per kernel launch, ~6/10
//! kernels per CG/BiCGSTAB iteration including the dot-product reductions) reproduce
//! the per-iteration times of a few tens of microseconds that the paper's speedups
//! imply.

use crate::accelerator::SolverKind;

/// A roofline + launch-latency GPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuModel {
    /// Human-readable name.
    pub name: String,
    /// Effective memory bandwidth in bytes per second.
    pub mem_bandwidth_bps: f64,
    /// Fixed cost per kernel launch (including host-side latency), seconds.
    pub kernel_launch_s: f64,
    /// Number of auxiliary (vector/dot) kernels per CG iteration.
    pub cg_vector_kernels: u32,
    /// Number of auxiliary kernels per BiCGSTAB iteration.
    pub bicgstab_vector_kernels: u32,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel::v100()
    }
}

impl GpuModel {
    /// The Tesla V100 SXM2 of Table IV.
    pub fn v100() -> Self {
        GpuModel {
            name: "Tesla V100 SXM2 (modelled)".to_string(),
            mem_bandwidth_bps: 900.0e9,
            kernel_launch_s: 8.0e-6,
            cg_vector_kernels: 6,
            bicgstab_vector_kernels: 10,
        }
    }

    /// Bytes moved by one CSR SpMV: values (8 B) + column indices (4 B) per non-zero,
    /// row pointers (4 B), input and output vectors (8 B each) per row.
    pub fn spmv_bytes(&self, nnz: u64, nrows: u64) -> u64 {
        nnz * (8 + 4) + nrows * (4 + 8 + 8)
    }

    /// Time of one SpMV kernel, seconds.
    pub fn spmv_time_s(&self, nnz: u64, nrows: u64) -> f64 {
        let streaming = self.spmv_bytes(nnz, nrows) as f64 / self.mem_bandwidth_bps;
        streaming.max(0.0) + self.kernel_launch_s
    }

    /// Time of one vector kernel (axpy / dot / scale) over `nrows` elements, seconds.
    pub fn vector_kernel_time_s(&self, nrows: u64) -> f64 {
        let streaming = (nrows * 8 * 2) as f64 / self.mem_bandwidth_bps;
        streaming + self.kernel_launch_s
    }

    /// Time of one solver iteration, seconds.
    pub fn iteration_time_s(&self, nnz: u64, nrows: u64, solver: SolverKind) -> f64 {
        let (spmvs, vector_kernels) = match solver {
            SolverKind::Cg => (1, self.cg_vector_kernels),
            SolverKind::BiCgStab => (2, self.bicgstab_vector_kernels),
        };
        spmvs as f64 * self.spmv_time_s(nnz, nrows)
            + vector_kernels as f64 * self.vector_kernel_time_s(nrows)
    }

    /// Total solver time for `iterations` iterations, seconds.
    pub fn solver_time_s(&self, nnz: u64, nrows: u64, iterations: u64, solver: SolverKind) -> f64 {
        iterations as f64 * self.iteration_time_s(nnz, nrows, solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_latency_dominates_small_matrices() {
        let gpu = GpuModel::v100();
        // crystm01-sized workload: ~105k nnz, ~4.9k rows -> well under 1 µs of
        // streaming, so the 8 µs launch dominates.
        let t = gpu.spmv_time_s(105_339, 4_875);
        assert!(t > gpu.kernel_launch_s);
        assert!(t < 2.0 * gpu.kernel_launch_s);
    }

    #[test]
    fn bandwidth_dominates_large_matrices() {
        let gpu = GpuModel::v100();
        // A 100M-nonzero matrix streams ~1.2 GB -> ~1.3 ms, far above the launch cost.
        let t = gpu.spmv_time_s(100_000_000, 5_000_000);
        assert!(t > 100.0 * gpu.kernel_launch_s);
    }

    #[test]
    fn iteration_time_is_microseconds_scale_for_table_v_workloads() {
        // The Fig. 8 speedups of 10-40x over the GPU with ReFloat SpMVs of ~3 µs imply
        // GPU iteration times of some tens of microseconds.
        let gpu = GpuModel::v100();
        let t = gpu.iteration_time_s(583_770, 24_696, SolverKind::Cg); // crystm03
        assert!(t > 20.0e-6 && t < 200.0e-6, "t = {t}");
    }

    #[test]
    fn bicgstab_iterations_cost_more_than_cg() {
        let gpu = GpuModel::v100();
        let cg = gpu.iteration_time_s(500_000, 50_000, SolverKind::Cg);
        let bi = gpu.iteration_time_s(500_000, 50_000, SolverKind::BiCgStab);
        assert!(bi > 1.5 * cg);
    }

    #[test]
    fn solver_time_scales_linearly_with_iterations() {
        let gpu = GpuModel::v100();
        let t100 = gpu.solver_time_s(1_000_000, 100_000, 100, SolverKind::Cg);
        let t200 = gpu.solver_time_s(1_000_000, 100_000, 200, SolverKind::Cg);
        assert!((t200 / t100 - 2.0).abs() < 1e-12);
    }
}
