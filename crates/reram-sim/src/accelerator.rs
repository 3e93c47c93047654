//! Chip-level accelerator model: the Table IV organizations, the cluster-capacity
//! arithmetic of §VI.B, and the SpMV / solver time model behind Fig. 8.
//!
//! Both accelerators (Feinberg and ReFloat) are modelled as a pool of 128×128 crossbars
//! grouped into *clusters*, one cluster per matrix block.  A full SpMV needs as many
//! clusters as the matrix has non-empty blocks; when that exceeds the clusters the chip
//! can hold, the matrix has to be streamed through the chip in multiple *rounds*, each
//! round paying a cell-write phase (re-programming the crossbars) on top of the compute
//! phase — exactly the effect the paper describes for `thermomech_TC`, `Dubcova2` and
//! `thermomech_dM`.
//!
//! A pool of chips is priced by the same model (the distributed in-memory-computing
//! recipe of Vo et al.): each chip holds one block-row shard of the matrix and the
//! chips run in parallel, so one SpMV costs the slowest shard's SpMV, plus a
//! fixed-order gather of the disjoint output bands over the host link when there is
//! more than one shard.  One chip holding the whole matrix is the pool of one.  The
//! bands are disjoint, so the gather is a copy, not a floating-point reduction: the
//! functional results stay bitwise identical to one chip (`refloat_core::sharded`).

use refloat_core::format::ReFloatConfig;

use crate::cost;

// `SolverKind` moved down into `refloat-solvers` (the refinement ladder dispatches on
// it); re-exported here so `reram_sim::accelerator::SolverKind` keeps working.
pub use refloat_solvers::SolverKind;

/// Seconds per chip→host transfer of the per-SpMV gather (a PCIe-class hop).
const LINK_LATENCY_S: f64 = 1e-6;

/// Host link bandwidth in bytes/second (PCIe 4 class); the gather of every output
/// band is serialized over it.
const LINK_BYTES_PER_S: f64 = 16e9;

/// An accelerator configuration (one column of Table IV plus derived quantities).
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Human-readable platform name.
    pub name: String,
    /// Crossbar edge length (128 in Table IV).
    pub crossbar_size: usize,
    /// Total number of crossbars available for computation.
    pub total_crossbars: u64,
    /// Crossbars occupied by one cluster (one matrix block).
    pub crossbars_per_cluster: u32,
    /// Pipeline cycles for one block MVM (Eq. 3).
    pub cycles_per_block_mvm: u64,
    /// Latency of one pipeline cycle in nanoseconds (one crossbar compute + ADC
    /// conversion; 107 ns in Table IV).
    pub cycle_time_ns: f64,
    /// Single-cell write latency in nanoseconds (50.88 ns SLC in Table IV).
    pub cell_write_ns: f64,
    /// Per-iteration digital overhead (MACs, vector updates) in nanoseconds.
    pub iteration_overhead_ns: f64,
}

/// How one SpMV and one whole solve break down in the time model.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverTimeBreakdown {
    /// Clusters needed to hold the whole matrix (one per non-empty block).
    pub clusters_required: u64,
    /// Clusters the chip can hold simultaneously.
    pub clusters_available: u64,
    /// Streaming rounds per SpMV (`ceil(required / available)`).
    pub rounds_per_spmv: u64,
    /// Seconds spent computing per SpMV.
    pub spmv_compute_s: f64,
    /// Seconds spent re-programming cells per SpMV (zero when the matrix fits).
    pub spmv_write_s: f64,
    /// Total seconds for one SpMV.
    pub spmv_total_s: f64,
    /// Total seconds for the whole solve.
    pub solver_total_s: f64,
    /// Iterations the solve took.
    pub iterations: u64,
}

/// What one SpMV costs on a pool of chips, one block-row shard per chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpmvPrice {
    /// Streaming rounds of the largest shard (1 when every shard fits its chip).
    pub rounds: u64,
    /// Seconds the largest shard computes.
    pub compute_s: f64,
    /// Seconds the largest shard re-writes cells between rounds (0 when it fits).
    pub stream_write_s: f64,
    /// Seconds gathering the output bands to the host (0 for one shard: the result
    /// is already where a single-chip SpMV leaves it).
    pub gather_s: f64,
}

impl SpmvPrice {
    /// The wall time of one SpMV: the slowest chip's compute and writes, then the
    /// gather.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.stream_write_s + self.gather_s
    }
}

impl AcceleratorConfig {
    /// The ReFloat accelerator of Table IV for a given format: 2^18 compute crossbars of
    /// 128×128 cells, `2^e + f + 1` crossbars per cluster, Eq. 3 cycles per block MVM,
    /// 107 ns per cycle and 50.88 ns per cell write.
    pub fn refloat(config: &ReFloatConfig) -> Self {
        AcceleratorConfig {
            name: format!("ReFloat {config}"),
            crossbar_size: config.block_size(),
            total_crossbars: 1 << 18,
            crossbars_per_cluster: cost::crossbars_per_cluster(config.e, config.f),
            cycles_per_block_mvm: cost::cycle_count_eq3(config.e, config.f, config.ev, config.fv),
            cycle_time_ns: 107.0,
            cell_write_ns: 50.88,
            iteration_overhead_ns: 1_000.0,
        }
    }

    /// The Feinberg [ISCA'18] accelerator of Table IV: same crossbar pool, but 118
    /// crossbars per cluster (the figure quoted in §VI.B: 64 exponent paddings, 53
    /// fraction slices including the leading one, plus the sign slice) and 233 cycles
    /// per block MVM.
    pub fn feinberg() -> Self {
        AcceleratorConfig {
            name: "Feinberg [ISCA'18]".to_string(),
            crossbar_size: 128,
            total_crossbars: 1 << 18,
            crossbars_per_cluster: 118,
            cycles_per_block_mvm: cost::cycle_count_eq3(6, 52, 6, 52),
            cycle_time_ns: 107.0,
            cell_write_ns: 50.88,
            iteration_overhead_ns: 1_000.0,
        }
    }

    /// Number of clusters the chip holds simultaneously.
    pub fn clusters_available(&self) -> u64 {
        self.total_crossbars / self.crossbars_per_cluster as u64
    }

    /// Time to re-program one cluster's crossbars for a new block, in seconds.
    ///
    /// Rows of a crossbar are written one at a time; the crossbars of a cluster (and all
    /// clusters of a round) are written in parallel, so one remap costs
    /// `crossbar_size · cell_write_ns`.
    pub fn cluster_write_time_s(&self) -> f64 {
        self.crossbar_size as f64 * self.cell_write_ns * 1e-9
    }

    /// Time for one block MVM (the Eq. 3 cycles at the Table IV cycle latency), seconds.
    pub fn block_mvm_time_s(&self) -> f64 {
        self.cycles_per_block_mvm as f64 * self.cycle_time_ns * 1e-9
    }

    /// Streaming rounds needed per SpMV for a matrix with `num_blocks` non-empty blocks.
    pub fn rounds_per_spmv(&self, num_blocks: u64) -> u64 {
        num_blocks.div_ceil(self.clusters_available().max(1)).max(1)
    }

    /// Time for one full SpMV over a matrix with `num_blocks` non-empty blocks, seconds.
    ///
    /// All clusters of a round operate in parallel, so a round costs one block-MVM time;
    /// when the matrix does not fit, every round additionally pays a cluster re-write.
    pub fn spmv_time_s(&self, num_blocks: u64) -> (f64, f64) {
        let rounds = self.rounds_per_spmv(num_blocks);
        let compute = rounds as f64 * self.block_mvm_time_s();
        let write = if rounds > 1 {
            rounds as f64 * self.cluster_write_time_s()
        } else {
            0.0
        };
        (compute, write)
    }

    /// One SpMV on a pool of these chips, chip `i` holding a shard of
    /// `shard_blocks[i]` non-empty blocks and `shard_rows[i]` output rows.
    ///
    /// The chips run in parallel, so the SpMV costs the slowest chip's.  A chip's
    /// compute and streaming writes depend only on its rounds, and neither shrinks as
    /// the rounds grow, so the slowest chip is the one with the most blocks.  More than
    /// one shard adds a gather of every output band (8 bytes per row) over the host
    /// link.  A whole matrix is `&[blocks]`.
    ///
    /// # Panics
    /// Panics if there is no shard or the two slices disagree.
    pub fn spmv_price(&self, shard_blocks: &[u64], shard_rows: &[u64]) -> SpmvPrice {
        assert_eq!(
            shard_blocks.len(),
            shard_rows.len(),
            "per-shard blocks and rows must align"
        );
        let largest = *shard_blocks.iter().max().expect("at least one shard");
        let (compute_s, stream_write_s) = self.spmv_time_s(largest);
        let gather_s = match shard_blocks.len() {
            1 => 0.0,
            chips => {
                let bytes: u64 = shard_rows.iter().map(|&rows| rows * 8).sum();
                chips as f64 * LINK_LATENCY_S + bytes as f64 / LINK_BYTES_PER_S
            }
        };
        SpmvPrice {
            rounds: self.rounds_per_spmv(largest),
            compute_s,
            stream_write_s,
            gather_s,
        }
    }

    /// Seconds for `iterations` iterations of `solver` at `spmv_s` per SpMV, plus the
    /// per-iteration digital overhead.
    pub fn iterations_time_s(&self, spmv_s: f64, iterations: u64, solver: SolverKind) -> f64 {
        let spmvs = iterations * solver.spmv_per_iteration();
        spmvs as f64 * spmv_s + iterations as f64 * self.iteration_overhead_ns * 1e-9
    }

    /// Full solver-time breakdown for a matrix with `num_blocks` non-empty blocks and a
    /// solve that took `iterations` iterations of `solver`.
    pub fn solver_time(
        &self,
        num_blocks: u64,
        iterations: u64,
        solver: SolverKind,
    ) -> SolverTimeBreakdown {
        let (compute, write) = self.spmv_time_s(num_blocks);
        let spmv_total = compute + write;
        let solver_total = self.iterations_time_s(spmv_total, iterations, solver);
        SolverTimeBreakdown {
            clusters_required: num_blocks,
            clusters_available: self.clusters_available(),
            rounds_per_spmv: self.rounds_per_spmv(num_blocks),
            spmv_compute_s: compute,
            spmv_write_s: write,
            spmv_total_s: spmv_total,
            solver_total_s: solver_total,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_capacities_match_the_papers_worked_numbers() {
        // §VI.B: with 118 crossbars per cluster "there are only 2221 clusters
        // available"; with the ReFloat e = 3, f = 3 mapping there are 21845.
        let feinberg = AcceleratorConfig::feinberg();
        assert_eq!(feinberg.clusters_available(), 2221);
        let refloat = AcceleratorConfig::refloat(&ReFloatConfig::paper_default());
        assert_eq!(refloat.clusters_available(), 21845);
    }

    #[test]
    fn cycles_per_block_mvm_match_section_vib() {
        assert_eq!(AcceleratorConfig::feinberg().cycles_per_block_mvm, 233);
        assert_eq!(
            AcceleratorConfig::refloat(&ReFloatConfig::paper_default()).cycles_per_block_mvm,
            28
        );
    }

    #[test]
    fn write_rounds_match_the_papers_thermomech_example() {
        // §VI.B: matrix 2257 needs 209263 clusters -> 103 write/invoke rounds on
        // Feinberg (2221 clusters) but only 10 on ReFloat (21845 clusters); matrix 2259
        // needs 381321 -> 187 vs 18.
        let feinberg = AcceleratorConfig::feinberg();
        let refloat = AcceleratorConfig::refloat(&ReFloatConfig::paper_default());
        assert_eq!(feinberg.rounds_per_spmv(209_263), 95);
        assert_eq!(refloat.rounds_per_spmv(209_263), 10);
        assert_eq!(feinberg.rounds_per_spmv(381_321), 172);
        assert_eq!(refloat.rounds_per_spmv(381_321), 18);
    }

    #[test]
    fn small_matrices_fit_in_one_round_and_pay_no_writes() {
        let refloat = AcceleratorConfig::refloat(&ReFloatConfig::paper_default());
        let (compute, write) = refloat.spmv_time_s(2_000);
        assert_eq!(write, 0.0);
        assert!((compute - 28.0 * 107.0e-9).abs() < 1e-12);
    }

    #[test]
    fn oversized_matrices_pay_writes_every_round() {
        let feinberg = AcceleratorConfig::feinberg();
        let (compute, write) = feinberg.spmv_time_s(10 * 2221);
        assert!(write > 0.0);
        assert!(compute > 0.0);
        // 10 rounds of compute, 10 rounds of writes.
        assert!((compute - 10.0 * feinberg.block_mvm_time_s()).abs() < 1e-12);
        assert!((write - 10.0 * feinberg.cluster_write_time_s()).abs() < 1e-12);
        // Writing dominates: 128 · 50.88 ns ≈ 6.5 µs per round vs 233 · 107 ns ≈ 25 µs.
        assert!(feinberg.cluster_write_time_s() < feinberg.block_mvm_time_s());
    }

    #[test]
    fn solver_time_scales_with_iterations_and_spmv_count() {
        let refloat = AcceleratorConfig::refloat(&ReFloatConfig::paper_default());
        let cg = refloat.solver_time(5_000, 100, SolverKind::Cg);
        let bicg = refloat.solver_time(5_000, 100, SolverKind::BiCgStab);
        // BiCGSTAB does twice the SpMV work per iteration (plus shared per-iteration
        // digital overhead), so it sits between 1.5x and 2x the CG time here.
        assert!(bicg.solver_total_s > 1.5 * cg.solver_total_s);
        assert!(bicg.solver_total_s < 2.0 * cg.solver_total_s);
        assert_eq!(cg.rounds_per_spmv, 1);
        assert_eq!(cg.iterations, 100);
        let cg_double = refloat.solver_time(5_000, 200, SolverKind::Cg);
        assert!(cg_double.solver_total_s > 1.99 * cg.solver_total_s - 1e-9);
    }

    #[test]
    fn refloat_is_faster_than_feinberg_for_the_same_workload() {
        // Fewer crossbars per cluster (more parallel blocks) and fewer cycles per block
        // MVM: ReFloat wins on both axes of the §VI.B analysis.
        let feinberg = AcceleratorConfig::feinberg();
        let refloat = AcceleratorConfig::refloat(&ReFloatConfig::paper_default());
        for blocks in [1_000u64, 10_000, 100_000, 400_000] {
            let tf = feinberg
                .solver_time(blocks, 80, SolverKind::Cg)
                .solver_total_s;
            let tr = refloat
                .solver_time(blocks, 95, SolverKind::Cg)
                .solver_total_s;
            assert!(
                tr < tf,
                "ReFloat ({tr:.3e}s) should beat Feinberg ({tf:.3e}s) at {blocks} blocks"
            );
        }
    }

    /// A deliberately small chip (1024 crossbars) so modest block counts overflow it.
    fn small_chip() -> AcceleratorConfig {
        let mut chip = AcceleratorConfig::refloat(&ReFloatConfig::paper_default());
        chip.total_crossbars = 1 << 10;
        chip
    }

    #[test]
    fn a_pool_of_one_is_the_single_chip_model_bit_for_bit() {
        let chip = small_chip();
        for blocks in [1, 85, 5_000] {
            let price = chip.spmv_price(&[blocks], &[4_096]);
            let solve = chip.solver_time(blocks, 100, SolverKind::BiCgStab);
            assert_eq!(price.gather_s, 0.0);
            assert_eq!(price.rounds, solve.rounds_per_spmv);
            assert_eq!(price.total_s().to_bits(), solve.spmv_total_s.to_bits());
            let iterations_s = chip.iterations_time_s(price.total_s(), 100, SolverKind::BiCgStab);
            assert_eq!(iterations_s.to_bits(), solve.solver_total_s.to_bits());
        }
    }

    #[test]
    fn makespan_is_the_slowest_shard() {
        let chip = small_chip();
        let price = chip.spmv_price(&[100, 5_000, 100, 100], &[256; 4]);
        let (compute, write) = chip.spmv_time_s(5_000);
        assert_eq!((price.compute_s, price.stream_write_s), (compute, write));
        assert_eq!(price.rounds, chip.rounds_per_spmv(5_000));
        assert!(price.gather_s > 0.0);
        assert!(price.total_s() > compute + write);
    }

    #[test]
    fn gather_cost_grows_with_chips_and_rows() {
        let chip = small_chip();
        let g2 = chip.spmv_price(&[10; 2], &[1 << 20; 2]).gather_s;
        let g8 = chip.spmv_price(&[10; 8], &[1 << 20; 8]).gather_s;
        assert!(g8 > g2);
        // Bandwidth term dominates at 2^20 rows: 8 MiB over 16 GB/s >> hop latency.
        assert!(g2 > (2u64 << 20) as f64 * 8.0 / 16e9 * 0.9);
    }

    #[test]
    fn sharding_an_oversized_matrix_beats_streaming_through_one_chip() {
        // 8x one small chip's cluster budget: one chip streams in 8 rounds; 4 chips
        // hold 2 rounds each and win despite the gather overhead.
        let chip = small_chip();
        let total_blocks = 8 * chip.clusters_available();
        let solve = |shard_blocks: &[u64]| {
            let rows = vec![1024; shard_blocks.len()];
            let spmv_s = chip.spmv_price(shard_blocks, &rows).total_s();
            chip.iterations_time_s(spmv_s, 100, SolverKind::Cg)
        };
        let t1 = solve(&[total_blocks]);
        let t4 = solve(&[total_blocks / 4; 4]);
        let speedup = t1 / t4;
        assert!(
            speedup > 1.5,
            "4-chip speedup should exceed 1.5x, got {speedup:.2}x ({t1:.3e}s vs {t4:.3e}s)"
        );
    }

    #[test]
    #[should_panic(expected = "align")]
    fn more_shards_than_row_bands_is_rejected() {
        let _ = small_chip().spmv_price(&[1, 1, 1], &[1, 1]);
    }
}
