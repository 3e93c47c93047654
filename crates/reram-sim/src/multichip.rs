//! Multi-chip accelerator model: block-row shards spread across chips, parallel shard
//! execution, and the inter-chip gather that assembles each SpMV result.
//!
//! A single Table IV chip holds a bounded number of crossbar clusters; a matrix whose
//! block count exceeds that budget streams through the chip in multiple re-programming
//! rounds per SpMV (§VI.B).  Splitting the operator across `c` chips divides each
//! chip's cluster requirement by ~`c` (shards are nnz-balanced on block-row
//! boundaries), so a matrix that forced, say, 8 streaming rounds on one chip may fit
//! entirely in 8 chips — trading round-by-round cell re-writes for a per-SpMV
//! inter-chip reduction.
//!
//! The time model follows the distributed in-memory-computing recipe (Vo et al.):
//!
//! * chips execute their shards **in parallel**, so the compute phase of one SpMV costs
//!   the *makespan* — the slowest shard, not the sum;
//! * each SpMV ends with a **fixed-order gather**: every chip ships its disjoint output
//!   band (8 bytes/row) to the host over a serialized link.  Because the bands are
//!   disjoint, the gather is a copy, not a floating-point reduction — the functional
//!   results stay bitwise identical to a single chip (see
//!   `refloat_core::sharded`).

use crate::accelerator::{AcceleratorConfig, SolverKind};
use crate::fault::{ChipFaultState, DeviceHealth, FaultModelConfig, HealthSummary};

/// A pool of identical chips plus the host link that gathers per-SpMV results.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChipConfig {
    /// Number of chips the operator is sharded across.
    pub chips: usize,
    /// The per-chip organization (crossbars, cycle time, write latency).
    pub chip: AcceleratorConfig,
    /// One-time latency per chip→host transfer, seconds (PCIe-class hop).
    pub link_latency_s: f64,
    /// Host link bandwidth in bytes/second; the per-SpMV gather of all output bands is
    /// serialized over this link.
    pub link_bytes_per_s: f64,
}

impl MultiChipConfig {
    /// A homogeneous pool of `chips` copies of `chip`, with a PCIe-4-class host link
    /// (1 µs hop latency, 16 GB/s).
    pub fn homogeneous(chips: usize, chip: AcceleratorConfig) -> Self {
        assert!(chips >= 1, "a multi-chip pool needs at least one chip");
        MultiChipConfig {
            chips,
            chip,
            link_latency_s: 1e-6,
            link_bytes_per_s: 16e9,
        }
    }
}

/// How one sharded SpMV breaks down on the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedSpmvBreakdown {
    /// Per-chip SpMV seconds (compute + streaming writes), one entry per shard.
    pub per_chip_s: Vec<f64>,
    /// The slowest chip's SpMV seconds — the parallel-execution makespan.
    pub makespan_s: f64,
    /// Seconds gathering the disjoint output bands to the host (0 for one chip: the
    /// result is already where a single-chip SpMV would leave it).
    pub reduction_s: f64,
    /// Makespan + reduction: the wall time of one sharded SpMV.
    pub spmv_total_s: f64,
    /// The worst chip's streaming rounds (1 when every shard fits its chip).
    pub max_rounds: u64,
}

/// A full sharded solve on the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChipSolveBreakdown {
    /// The per-SpMV breakdown the solve repeats.
    pub spmv: ShardedSpmvBreakdown,
    /// Seconds programming the shards onto the chips (all chips write in parallel).
    pub program_s: f64,
    /// Total seconds for the solve (programming + iterations).
    pub solver_total_s: f64,
    /// Iterations of the solve.
    pub iterations: u64,
}

/// The multi-chip accelerator: per-shard capacity arithmetic and the sharded
/// SpMV / solver time model.
#[derive(Debug, Clone)]
pub struct MultiChipAccelerator {
    config: MultiChipConfig,
    /// Per-chip persistent fault state, present when a fault model is attached.
    faults: Vec<ChipFaultState>,
}

impl MultiChipAccelerator {
    /// Builds the accelerator for a pool configuration.
    pub fn new(config: MultiChipConfig) -> Self {
        assert!(
            config.chips >= 1,
            "a multi-chip pool needs at least one chip"
        );
        MultiChipAccelerator {
            config,
            faults: Vec::new(),
        }
    }

    /// Attaches a persistent fault model: every chip gets its own seeded
    /// [`ChipFaultState`] over `grid × grid` crossbars, and shard programming starts
    /// accumulating wear via [`record_programming`](Self::record_programming).
    pub fn with_fault_model(mut self, model: FaultModelConfig, grid: usize) -> Self {
        self.faults = (0..self.config.chips)
            .map(|chip| ChipFaultState::new(model, chip, grid))
            .collect();
        self
    }

    /// Per-chip fault state (empty without an attached fault model).
    pub fn fault_states(&self) -> &[ChipFaultState] {
        &self.faults
    }

    /// Records one shard (re)programming: chip `i` wears by `shard_blocks[i]`
    /// crossbar writes and its fault-model age advances.  No-op without a fault model.
    pub fn record_programming(&mut self, shard_blocks: &[u64]) {
        for (chip, &blocks) in self.faults.iter_mut().zip(shard_blocks.iter()) {
            chip.record_programming(blocks);
        }
    }

    /// Health summaries for every chip of the pool, in chip order.  Empty without an
    /// attached fault model (a pool with no fault model has nothing to report).
    pub fn health_summaries(&self) -> Vec<HealthSummary> {
        self.faults.iter().map(DeviceHealth::health).collect()
    }

    /// The pool configuration.
    pub fn config(&self) -> &MultiChipConfig {
        &self.config
    }

    /// Crossbar clusters one chip holds simultaneously.
    pub fn chip_capacity(&self) -> u64 {
        self.config.chip.clusters_available()
    }

    /// One sharded SpMV: parallel per-chip execution + the host gather.
    ///
    /// `shard_blocks[i]` is the non-empty block count of chip `i`'s shard and
    /// `shard_rows[i]` the rows of its output band.  Fewer shards than chips is fine
    /// (the partitioner returns fewer ranges for small matrices); more is not.
    ///
    /// # Panics
    /// Panics if there are more shards than chips or the two slices disagree.
    pub fn spmv_time(&self, shard_blocks: &[u64], shard_rows: &[u64]) -> ShardedSpmvBreakdown {
        assert_eq!(
            shard_blocks.len(),
            shard_rows.len(),
            "per-shard blocks and rows must align"
        );
        assert!(
            shard_blocks.len() <= self.config.chips,
            "{} shards exceed the {}-chip pool",
            shard_blocks.len(),
            self.config.chips
        );
        assert!(!shard_blocks.is_empty(), "at least one shard is required");
        let per_chip_s: Vec<f64> = shard_blocks
            .iter()
            .map(|&blocks| {
                let (compute, write) = self.config.chip.spmv_time_s(blocks);
                compute + write
            })
            .collect();
        let makespan_s = per_chip_s.iter().cloned().fold(0.0, f64::max);
        let reduction_s = if shard_blocks.len() > 1 {
            let bytes: u64 = shard_rows.iter().map(|&rows| rows * 8).sum();
            shard_blocks.len() as f64 * self.config.link_latency_s
                + bytes as f64 / self.config.link_bytes_per_s
        } else {
            0.0
        };
        let max_rounds = shard_blocks
            .iter()
            .map(|&blocks| self.config.chip.rounds_per_spmv(blocks))
            .max()
            .expect("non-empty shards");
        ShardedSpmvBreakdown {
            makespan_s,
            reduction_s,
            spmv_total_s: makespan_s + reduction_s,
            per_chip_s,
            max_rounds,
        }
    }

    /// Seconds programming all shards onto their chips: chips write in parallel, so the
    /// pool pays one cluster-write time regardless of chip count.
    pub fn program_time_s(&self) -> f64 {
        self.config.chip.cluster_write_time_s()
    }

    /// A full sharded solve: `iterations` iterations of `solver`, each SpMV paying the
    /// makespan + gather of [`spmv_time`](Self::spmv_time), plus the per-iteration
    /// digital overhead and the one-time shard programming.
    pub fn solver_time(
        &self,
        shard_blocks: &[u64],
        shard_rows: &[u64],
        iterations: u64,
        solver: SolverKind,
    ) -> MultiChipSolveBreakdown {
        let spmv = self.spmv_time(shard_blocks, shard_rows);
        let spmv_count = iterations * solver.spmv_per_iteration();
        let program_s = self.program_time_s();
        let solver_total_s = program_s
            + spmv_count as f64 * spmv.spmv_total_s
            + iterations as f64 * self.config.chip.iteration_overhead_ns * 1e-9;
        MultiChipSolveBreakdown {
            spmv,
            program_s,
            solver_total_s,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_core::format::ReFloatConfig;

    /// A deliberately small chip (1024 crossbars) so modest block counts overflow it.
    fn small_chip() -> AcceleratorConfig {
        let mut chip = AcceleratorConfig::refloat(&ReFloatConfig::paper_default());
        chip.total_crossbars = 1 << 10;
        chip
    }

    fn even_shards(total_blocks: u64, shards: usize) -> (Vec<u64>, Vec<u64>) {
        let blocks: Vec<u64> = (0..shards)
            .map(|i| {
                total_blocks / shards as u64 + u64::from((i as u64) < total_blocks % shards as u64)
            })
            .collect();
        let rows = vec![1024u64; shards];
        (blocks, rows)
    }

    #[test]
    fn one_chip_pays_no_reduction_and_matches_the_single_chip_model() {
        let chip = small_chip();
        let pool = MultiChipAccelerator::new(MultiChipConfig::homogeneous(1, chip.clone()));
        let breakdown = pool.spmv_time(&[5_000], &[4_096]);
        assert_eq!(breakdown.reduction_s, 0.0);
        let (compute, write) = chip.spmv_time_s(5_000);
        assert!((breakdown.spmv_total_s - (compute + write)).abs() < 1e-15);
    }

    #[test]
    fn makespan_is_the_slowest_shard() {
        let pool = MultiChipAccelerator::new(MultiChipConfig::homogeneous(4, small_chip()));
        let breakdown = pool.spmv_time(&[100, 5_000, 100, 100], &[256; 4]);
        assert_eq!(breakdown.per_chip_s.len(), 4);
        let slowest = breakdown.per_chip_s.iter().cloned().fold(0.0, f64::max);
        assert_eq!(breakdown.makespan_s, slowest);
        assert!(breakdown.reduction_s > 0.0);
        assert!(breakdown.spmv_total_s > breakdown.makespan_s);
    }

    #[test]
    fn sharding_an_oversized_matrix_beats_streaming_through_one_chip() {
        // 8x one small chip's cluster budget: one chip streams in 8 rounds; 4 chips
        // hold 2 rounds each and win despite the gather overhead.
        let chip = small_chip();
        let capacity = chip.clusters_available();
        let total_blocks = 8 * capacity;
        let single = MultiChipAccelerator::new(MultiChipConfig::homogeneous(1, chip.clone()));
        let quad = MultiChipAccelerator::new(MultiChipConfig::homogeneous(4, chip));
        let (blocks1, rows1) = even_shards(total_blocks, 1);
        let (blocks4, rows4) = even_shards(total_blocks, 4);
        let t1 = single
            .solver_time(&blocks1, &rows1, 100, SolverKind::Cg)
            .solver_total_s;
        let t4 = quad
            .solver_time(&blocks4, &rows4, 100, SolverKind::Cg)
            .solver_total_s;
        let speedup = t1 / t4;
        assert!(
            speedup > 1.5,
            "4-chip speedup should exceed 1.5x, got {speedup:.2}x ({t1:.3e}s vs {t4:.3e}s)"
        );
    }

    #[test]
    fn reduction_cost_grows_with_chips_and_rows() {
        let pool2 = MultiChipAccelerator::new(MultiChipConfig::homogeneous(2, small_chip()));
        let pool8 = MultiChipAccelerator::new(MultiChipConfig::homogeneous(8, small_chip()));
        let r2 = pool2.spmv_time(&[10, 10], &[1 << 20, 1 << 20]).reduction_s;
        let r8 = pool8.spmv_time(&[10; 8], &[1 << 20; 8]).reduction_s;
        assert!(r8 > r2);
        // Bandwidth term dominates at 2^20 rows: 8 MiB over 16 GB/s >> hop latency.
        assert!(r2 > (2u64 << 20) as f64 * 8.0 / 16e9 * 0.9);
    }

    #[test]
    fn solver_time_charges_programming_once() {
        let pool = MultiChipAccelerator::new(MultiChipConfig::homogeneous(4, small_chip()));
        let (blocks, rows) = even_shards(400, 4);
        let one = pool.solver_time(&blocks, &rows, 1, SolverKind::Cg);
        let hundred = pool.solver_time(&blocks, &rows, 100, SolverKind::Cg);
        let per_iter = one.solver_total_s - one.program_s;
        assert!((hundred.solver_total_s - (hundred.program_s + 100.0 * per_iter)).abs() < 1e-12);
        assert_eq!(one.program_s, pool.program_time_s());
    }

    #[test]
    fn pool_health_tracks_per_chip_wear_independently() {
        let mut pool = MultiChipAccelerator::new(MultiChipConfig::homogeneous(3, small_chip()))
            .with_fault_model(FaultModelConfig::realistic(17), 16);
        assert_eq!(pool.health_summaries().len(), 3);
        assert!(pool.health_summaries().iter().all(|h| h.programmings == 0));
        // Uneven shard programming wears chips unevenly.
        pool.record_programming(&[100, 10, 0]);
        pool.record_programming(&[100, 10, 0]);
        let health = pool.health_summaries();
        assert_eq!(health[0].wear_writes, 200);
        assert_eq!(health[1].wear_writes, 20);
        assert_eq!(health[2].wear_writes, 0);
        assert!(health.iter().all(|h| h.programmings == 2));
        assert!(health[0].drift_sigma_effective > 0.0);
        // A pool without a fault model reports nothing.
        let plain = MultiChipAccelerator::new(MultiChipConfig::homogeneous(2, small_chip()));
        assert!(plain.health_summaries().is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn more_shards_than_chips_is_rejected() {
        let pool = MultiChipAccelerator::new(MultiChipConfig::homogeneous(2, small_chip()));
        let _ = pool.spmv_time(&[1, 1, 1], &[1, 1, 1]);
    }
}
