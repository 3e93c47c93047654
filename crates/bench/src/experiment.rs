//! Shared experiment orchestration: prepare a workload, solve it under every platform's
//! numerics, and convert iteration counts into the paper's performance metric.

use refloat_core::feinberg::FeinbergOperator;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::{rhs, Workload};
use refloat_solvers::{bicgstab, cg, LinearOperator, SolveResult, SolverConfig};
use refloat_sparse::{BlockedMatrix, CsrMatrix};
use reram_sim::{AcceleratorConfig, GpuModel, SolverKind};

/// Global experiment knobs shared by all binaries.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Random seed for the synthetic workload generators.
    pub seed: u64,
    /// Relative residual tolerance (the paper's `‖r‖₂ < 1e-8`, taken relative to `‖b‖`
    /// because the synthetic right-hand side is the all-ones vector).
    pub tolerance: f64,
    /// Iteration cap for the FP64 and ReFloat runs.
    pub max_iterations: usize,
    /// Iteration cap for Feinberg runs (which may never converge); kept lower so NC
    /// workloads do not dominate wall-clock time.
    pub feinberg_max_iterations: usize,
    /// Crossbar block-size exponent (7 = 128×128 crossbars, Table IV).
    pub block_exponent: u32,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 2023,
            tolerance: 1e-8,
            max_iterations: 20_000,
            feinberg_max_iterations: 2_000,
            block_exponent: 7,
        }
    }
}

impl ExperimentConfig {
    /// The default configuration, or under `--quick` (and in smoke tests) a
    /// reduced-cost one with lower iteration caps.
    pub fn new(quick: bool) -> Self {
        if !quick {
            return Self::default();
        }
        ExperimentConfig {
            max_iterations: 3_000,
            feinberg_max_iterations: 500,
            ..Self::default()
        }
    }

    /// The Table V workloads a run covers: all twelve, or under `--quick` only those
    /// of at most 600,000 non-zeros.
    pub fn workloads(quick: bool) -> impl Iterator<Item = Workload> {
        Workload::ALL
            .into_iter()
            .filter(move |w| !quick || w.spec().nnz <= 600_000)
    }

    /// The solver configuration used for FP64 / ReFloat runs.
    pub fn solver_config(&self) -> SolverConfig {
        SolverConfig::relative(self.tolerance).with_max_iterations(self.max_iterations)
    }

    /// The solver configuration used for Feinberg runs.
    pub fn feinberg_solver_config(&self) -> SolverConfig {
        SolverConfig::relative(self.tolerance).with_max_iterations(self.feinberg_max_iterations)
    }

    /// The ReFloat format used for a given workload: the Table VII bit budget
    /// (`e = ev = 3`, `f = 3`, `fv = 8`, with `fv = 16` for `wathen100` and `Dubcova2`),
    /// except that the matrix fraction follows `WorkloadSpec::refloat_f` — the synthetic
    /// mass-matrix analogues need `f = 8` to keep the quantized operator positive
    /// definite.
    pub fn refloat_config_for(&self, workload: Workload) -> ReFloatConfig {
        let spec = workload.spec();
        ReFloatConfig::new(self.block_exponent, 3, spec.refloat_f, 3, spec.refloat_fv)
    }
}

/// A generated workload together with its blocked form and right-hand side.
pub struct PreparedWorkload {
    /// Which Table V matrix this stands in for.
    pub workload: Workload,
    /// The synthetic matrix.
    pub csr: CsrMatrix,
    /// The matrix partitioned into `2^b × 2^b` blocks.
    pub blocked: BlockedMatrix,
    /// The right-hand side (all ones, following common solver-benchmark practice).
    pub b: Vec<f64>,
}

impl PreparedWorkload {
    /// Generates and blocks a workload.
    pub fn prepare(workload: Workload, config: &ExperimentConfig) -> Self {
        let csr = workload.generate_csr(config.seed);
        let blocked =
            BlockedMatrix::from_csr(&csr, config.block_exponent).expect("valid block exponent");
        let b = rhs::ones(csr.nrows());
        PreparedWorkload {
            workload,
            csr,
            blocked,
            b,
        }
    }

    /// Number of non-empty blocks = crossbar clusters one SpMV needs.
    pub fn num_blocks(&self) -> u64 {
        self.blocked.num_blocks() as u64
    }
}

/// The solve outcome of one platform on one workload.
#[derive(Debug, Clone)]
pub struct PlatformSolve {
    /// Platform label.
    pub platform: &'static str,
    /// The raw solver result (trace included).
    pub result: SolveResult,
}

impl PlatformSolve {
    /// Iterations if converged, `None` otherwise.
    pub fn iterations(&self) -> Option<usize> {
        self.result.converged().then_some(self.result.iterations)
    }
}

/// Runs one solver (CG or BiCGSTAB) under FP64, ReFloat and Feinberg numerics.
pub fn solve_all_platforms(
    prepared: &PreparedWorkload,
    solver: SolverKind,
    config: &ExperimentConfig,
) -> (PlatformSolve, PlatformSolve, PlatformSolve) {
    let solver_cfg = config.solver_config();
    let feinberg_cfg = config.feinberg_solver_config();
    let refloat_format = config.refloat_config_for(prepared.workload);

    let run = |op: &mut dyn LinearOperator, cfg: &SolverConfig| match solver {
        SolverKind::Cg => cg(op, &prepared.b, cfg),
        SolverKind::BiCgStab => bicgstab(op, &prepared.b, cfg),
    };

    let mut fp64 = prepared.csr.clone();
    let double = PlatformSolve {
        platform: "double",
        result: run(&mut fp64, &solver_cfg),
    };

    let mut rf = ReFloatMatrix::from_blocked(&prepared.blocked, refloat_format);
    let refloat = PlatformSolve {
        platform: "refloat",
        result: run(&mut rf, &solver_cfg),
    };

    let mut fb = FeinbergOperator::new(prepared.csr.clone());
    let feinberg = PlatformSolve {
        platform: "feinberg",
        result: run(&mut fb, &feinberg_cfg),
    };

    (double, refloat, feinberg)
}

/// One row of the Fig. 8 performance comparison: solver times and speedups of the three
/// accelerated platforms against the GPU baseline.
#[derive(Debug, Clone)]
pub struct PerformanceRow {
    /// Workload id (the numeric label used in the paper's figures).
    pub id: u32,
    /// Workload name.
    pub name: &'static str,
    /// Which solver the row is for.
    pub solver: SolverKind,
    /// Non-empty blocks (clusters required per SpMV).
    pub clusters_required: u64,
    /// Iterations of the FP64 / GPU / Feinberg-fc run.
    pub iterations_double: Option<usize>,
    /// Iterations of the ReFloat run.
    pub iterations_refloat: Option<usize>,
    /// Iterations of the Feinberg run (None = did not converge).
    pub iterations_feinberg: Option<usize>,
    /// Modelled GPU solver time, seconds.
    pub gpu_s: f64,
    /// Modelled Feinberg solver time (its own, possibly non-converging, iterations).
    pub feinberg_s: Option<f64>,
    /// Modelled Feinberg-fc solver time (FP64 iteration count on Feinberg hardware).
    pub feinberg_fc_s: f64,
    /// Modelled ReFloat solver time, seconds.
    pub refloat_s: f64,
}

impl PerformanceRow {
    /// Builds the row from the three platform solves and the hardware models.
    pub fn build(
        prepared: &PreparedWorkload,
        solver: SolverKind,
        double: &PlatformSolve,
        refloat: &PlatformSolve,
        feinberg: &PlatformSolve,
        config: &ExperimentConfig,
    ) -> Self {
        let spec = prepared.workload.spec();
        let gpu = GpuModel::v100();
        let feinberg_hw = AcceleratorConfig::feinberg();
        let refloat_hw = AcceleratorConfig::refloat(&config.refloat_config_for(prepared.workload));
        let blocks = prepared.num_blocks();
        let nnz = prepared.csr.nnz() as u64;
        let nrows = prepared.csr.nrows() as u64;

        let iters_double = double.iterations();
        let iters_refloat = refloat.iterations();
        let iters_feinberg = feinberg.iterations();

        // The GPU and Feinberg-fc rows assume the FP64 iteration count (Feinberg-fc is
        // defined in §VI.B as "function-correct": same convergence as double).
        let d_iters = iters_double.unwrap_or(config.max_iterations) as u64;
        let r_iters = iters_refloat.unwrap_or(config.max_iterations) as u64;

        PerformanceRow {
            id: spec.id,
            name: spec.name,
            solver,
            clusters_required: blocks,
            iterations_double: iters_double,
            iterations_refloat: iters_refloat,
            iterations_feinberg: iters_feinberg,
            gpu_s: gpu.solver_time_s(nnz, nrows, d_iters, solver),
            feinberg_s: iters_feinberg.map(|it| {
                feinberg_hw
                    .solver_time(blocks, it as u64, solver)
                    .solver_total_s
            }),
            feinberg_fc_s: feinberg_hw
                .solver_time(blocks, d_iters, solver)
                .solver_total_s,
            refloat_s: refloat_hw
                .solver_time(blocks, r_iters, solver)
                .solver_total_s,
        }
    }

    /// Speedup of ReFloat over the GPU (`p = t_GPU / t_ReFloat`, the Fig. 8 metric).
    pub fn speedup_refloat(&self) -> f64 {
        self.gpu_s / self.refloat_s
    }

    /// Speedup of Feinberg-fc over the GPU.
    pub fn speedup_feinberg_fc(&self) -> f64 {
        self.gpu_s / self.feinberg_fc_s
    }

    /// Speedup of Feinberg (its own convergence behaviour) over the GPU, when it
    /// converged at all.
    pub fn speedup_feinberg(&self) -> Option<f64> {
        self.feinberg_s.map(|t| self.gpu_s / t)
    }

    /// Speedup of ReFloat over Feinberg-fc — the paper's headline 5.02×–84.28× range.
    pub fn speedup_refloat_over_feinberg_fc(&self) -> f64 {
        self.feinberg_fc_s / self.refloat_s
    }
}

/// Geometric mean of a set of positive values (the paper's GMN summary of Fig. 8).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload() -> (PreparedWorkload, ExperimentConfig) {
        // crystm01 is the smallest Table V matrix; use a quick config for tests.
        let config = ExperimentConfig {
            block_exponent: 7,
            ..ExperimentConfig::new(true)
        };
        (
            PreparedWorkload::prepare(Workload::Crystm01, &config),
            config,
        )
    }

    #[test]
    fn prepared_workload_matches_generator_output() {
        let (w, _) = small_workload();
        assert_eq!(w.csr.nrows(), w.blocked.nrows());
        assert_eq!(w.csr.nnz(), w.blocked.nnz());
        assert_eq!(w.b.len(), w.csr.nrows());
        assert!(w.num_blocks() > 0);
    }

    #[test]
    fn all_platforms_behave_as_the_paper_describes_on_crystm01() {
        let (w, config) = small_workload();
        let (double, refloat, feinberg) = solve_all_platforms(&w, SolverKind::Cg, &config);
        // FP64 and ReFloat converge; Feinberg does not (crystm01 is in the paper's
        // failing set because its entries are ~1e-12).
        assert!(
            double.result.converged(),
            "double: {:?}",
            double.result.stop
        );
        assert!(
            refloat.result.converged(),
            "refloat: {:?}",
            refloat.result.stop
        );
        assert!(
            !feinberg.result.converged(),
            "feinberg should fail on crystm01"
        );
        // ReFloat costs at most a modest iteration overhead (Table VI shows +17 on 68).
        let d = double.result.iterations as f64;
        let r = refloat.result.iterations as f64;
        assert!(r >= d * 0.8 && r <= d * 2.5, "double {d}, refloat {r}");
    }

    #[test]
    fn performance_row_reproduces_the_papers_ordering() {
        let (w, config) = small_workload();
        let (double, refloat, feinberg) = solve_all_platforms(&w, SolverKind::Cg, &config);
        let row = PerformanceRow::build(&w, SolverKind::Cg, &double, &refloat, &feinberg, &config);
        // ReFloat beats the GPU by an order of magnitude on this small matrix, and
        // beats Feinberg-fc by the 5–85x range the abstract quotes.
        assert!(
            row.speedup_refloat() > 3.0,
            "refloat vs gpu: {}",
            row.speedup_refloat()
        );
        assert!(
            row.speedup_refloat_over_feinberg_fc() > 3.0,
            "refloat vs feinberg-fc: {}",
            row.speedup_refloat_over_feinberg_fc()
        );
        assert!(row.iterations_feinberg.is_none());
        assert!(row.feinberg_s.is_none());
        assert_eq!(row.id, 353);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }
}
