//! The per-worker simulated accelerator — stage 5 of the worker's execution pipeline.
//!
//! The functional solve runs on the CPU; this model translates *what ran* into the
//! chip time it would have cost on the Table IV ReFloat accelerator.  There is one
//! entry point, [`SimulatedAccelerator::charge`], taking a [`Charge`]: the ordered
//! list of [`Phase`]s a job executed.  A phase is either a pass on the chip — some
//! solver iterations per right-hand side against a [`Residency`] (a pool of chips
//! holding one row band of the matrix each; a whole matrix is the pool of one) — or
//! fp64 work on the host.
//!
//! The paper's dataflow is written once here: a chip pass first checks what the
//! crossbars hold and pays a cluster write only when the resident matrix changes
//! (a full write, or the touched fraction for an incremental sequence step), ages
//! the fault model by the blocks it wrote, and then prices every iteration with
//! [`AcceleratorConfig::spmv_price`], the one pool model.  Every phase's seconds join
//! [`SimulatedRun::total_s`] as they occur, so a run is its phases' costs summed in
//! execution order.  Plain, batched, sharded, refined and retried jobs differ only in
//! the phases they list.

use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_sparse::block_row_shards;
use reram_sim::cost::ABFT_CHECK_CYCLES_PER_BLOCK;
use reram_sim::{
    AcceleratorConfig, ChipFaultState, ChipPhase, CycleEvent, DeviceHealth, FaultModelConfig,
    GpuModel, HealthSummary, SolverKind,
};

use crate::cache::CacheKey;

/// What one job cost on the simulated chip (or chip pool).  The default is a run that
/// cost nothing — the identity of [`absorb`](Self::absorb).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimulatedRun {
    /// Crossbar pipeline cycles across the whole solve (Eq. 3 cycles × rounds × SpMVs;
    /// for sharded jobs, the makespan chip's cycles).
    pub cycles: u64,
    /// Seconds of crossbar compute (for sharded jobs, the makespan chip's).
    pub compute_s: f64,
    /// Seconds of mid-solve cell re-writes (streaming rounds of oversized matrices;
    /// for sharded jobs, the makespan chip's).
    pub stream_write_s: f64,
    /// Seconds re-programming the chip because it held a different matrix (or nothing).
    pub program_s: f64,
    /// Seconds gathering per-chip output bands to the host (sharded jobs only; the
    /// fixed-order inter-chip reduction of each SpMV).
    pub reduction_s: f64,
    /// Seconds of host-side fp64 work (the GPU model): warm-start guards,
    /// true-residual checks, and the outer-loop residual evaluations and
    /// fp64-fallback inner solves of a refined job.
    pub host_fp64_s: f64,
    /// Total simulated seconds for the job (compute + writes + programming + gather +
    /// host fp64 + the per-iteration digital overhead folded into the solver-time
    /// model).
    pub total_s: f64,
    /// Whether this job had to re-program the chip.
    pub remapped: bool,
}

impl SimulatedRun {
    /// Folds another run's cost into this one (used when one job is charged more
    /// than once: a fault retry's probes, or an auto-format job whose plain attempt
    /// stalled and fell back to a refined solve on the same chip).
    pub fn absorb(&mut self, other: &SimulatedRun) {
        self.cycles += other.cycles;
        self.compute_s += other.compute_s;
        self.stream_write_s += other.stream_write_s;
        self.program_s += other.program_s;
        self.reduction_s += other.reduction_s;
        self.host_fp64_s += other.host_fp64_s;
        self.total_s += other.total_s;
        self.remapped |= other.remapped;
    }

    /// The run's per-phase attribution as [`CycleEvent`]s, skipping zero-cost phases.
    ///
    /// Pipeline cycles are all crossbar compute, so the total cycle count rides on the
    /// [`ChipPhase::Compute`] event; host-side phases are modelled in seconds only.
    /// Everything here is **simulated** time — deterministic and digest-safe.
    pub fn cycle_events(&self) -> Vec<CycleEvent> {
        let attributions = [
            (ChipPhase::Program, 0u64, self.program_s),
            (ChipPhase::Compute, self.cycles, self.compute_s),
            (ChipPhase::StreamWrite, 0, self.stream_write_s),
            (ChipPhase::Reduction, 0, self.reduction_s),
            (ChipPhase::HostFp64, 0, self.host_fp64_s),
        ];
        attributions
            .into_iter()
            .filter(|&(_, cycles, seconds)| cycles > 0 || seconds > 0.0)
            .map(|(phase, cycles, seconds)| CycleEvent {
                phase,
                cycles,
                seconds,
            })
            .collect()
    }
}

/// What a chip pass runs against: one encoding, split over a pool of chips working in
/// parallel, one block-row band per chip (one band, the whole matrix, on one chip).
///
/// The bands are pricing only.  The host applies the one encoding whatever the chip
/// count, and every output row is its own sum, so the bits never depend on the cut;
/// the per-SpMV gather of disjoint bands that the pool pays for reorders nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Residency {
    /// Cache key of the encoding.
    pub key: CacheKey,
    /// Non-empty blocks per chip (= the clusters it must hold), in band order.
    pub shard_blocks: Vec<u64>,
    /// Output rows per chip (the band it ships to the host per SpMV).
    pub shard_rows: Vec<u64>,
}

impl Residency {
    /// `matrix`, cached under `key`, cut into at most `shards` nnz-balanced bands on
    /// `2^b` block-row boundaries ([`block_row_shards`]), one per chip, so that every
    /// chip holds whole blocks.  Fewer bands come back when there are fewer block
    /// rows to cut.
    pub fn over(key: CacheKey, matrix: &ReFloatMatrix, shards: usize) -> Self {
        let layout = matrix.layout();
        let bands = block_row_shards(layout, shards);
        Residency {
            key,
            shard_blocks: (bands.iter())
                .map(|rows| layout.blocks_in_rows(rows.clone()) as u64)
                .collect(),
            shard_rows: bands.iter().map(|rows| rows.len() as u64).collect(),
        }
    }

    /// Chips the encoding spans.
    pub(crate) fn chips(&self) -> usize {
        self.shard_blocks.len()
    }

    /// What the residency check compares: the encoding and the chips it spans.  A chip
    /// holds a band, not the matrix, so the same encoding over another chip count is
    /// another residency.
    fn held(&self) -> (CacheKey, usize) {
        (self.key, self.chips())
    }

    /// Blocks written when the chip (or the whole pool) is programmed from scratch.
    pub fn blocks(&self) -> u64 {
        self.shard_blocks.iter().sum()
    }
}

/// An incremental sequence step's claim on the programming phase: its encoding was
/// diffed against `predecessor`, so if the chip still holds that operator only the
/// touched crossbar ranges need rewriting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaProgramming {
    /// Cache key of the predecessor encoding the diff was taken against.
    pub predecessor: CacheKey,
    /// Fraction of the cluster write the touched ranges cost (clamped to `[0, 1]`).
    pub reprogram_fraction: f64,
    /// Blocks actually rewritten — only these age the fault model.
    pub touched_blocks: u64,
}

/// fp64 work on the host (the GPU model), priced on the job's exact matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostWork {
    /// Iterations of the job's solver in fp64 (a refined job's fp64 rung).
    SolverIterations(u64),
    /// Exact SpMVs (warm-start guards, true-residual checks, outer-loop residuals).
    Spmvs(u64),
}

/// One step of what a job ran, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase<'a> {
    /// Solver iterations on the chip (or pool) against `on`.
    Chip {
        /// The encodings the pass ran against.
        on: &'a Residency,
        /// Solver iterations per right-hand side; every RHS shares one programming.
        iterations: Vec<u64>,
        /// Set when the encoding was an incremental re-encode (sequence steps).
        delta: Option<DeltaProgramming>,
    },
    /// fp64 work on the host.
    Host(HostWork),
}

/// The description of what ran that [`SimulatedAccelerator::charge`] prices: the
/// phases in execution order, and what prices them.  Each phase's programming, chip
/// and host seconds are added to [`SimulatedRun::total_s`] in that order, whether the
/// chip drove the job or a refinement loop on the host did.
#[derive(Debug, Clone, Copy)]
pub struct Charge<'a> {
    /// What ran, in execution order.
    pub phases: &'a [Phase<'a>],
    /// The Krylov solver every phase ran (SpMVs per iteration, host solve cost).
    pub solver: SolverKind,
    /// Non-zeros of the exact fp64 matrix host phases are priced on.
    pub nnz: u64,
    /// Rows of that matrix.
    pub nrows: u64,
}

/// One simulated chip, owned by one worker thread.
///
/// The chip remembers which (matrix, format) its crossbars currently hold: consecutive
/// jobs on the same matrix skip the programming phase, which is what makes tenant
/// locality visible in the simulated numbers even though the functional solve runs on
/// the CPU.
#[derive(Debug, Clone)]
pub struct SimulatedAccelerator {
    worker_id: usize,
    /// The resident encoding and the chips it spans ([`Residency`]'s record).
    programmed: Option<(CacheKey, usize)>,
    /// The host platform that prices fp64 work (the Table IV V100).
    host: GpuModel,
    /// Override of each chip's crossbar pool size (None = the Table IV 2^18).  Smaller
    /// chips force oversized matrices into streaming rounds — the regime where
    /// sharding across a pool pays off.
    chip_crossbars: Option<u64>,
    /// Persistent fault state of this chip (None = pristine hardware, the default —
    /// execution and digests are unchanged).
    fault: Option<ChipFaultState>,
    /// Whether the ABFT checksum row is programmed alongside every block (costs
    /// [`ABFT_CHECK_CYCLES_PER_BLOCK`] extra cycles per block-MVM).
    abft: bool,
}

impl SimulatedAccelerator {
    /// A freshly powered-on chip (nothing programmed), with the Table IV V100 as the
    /// fp64 host.
    pub fn new(worker_id: usize) -> Self {
        SimulatedAccelerator {
            worker_id,
            programmed: None,
            host: GpuModel::v100(),
            chip_crossbars: None,
            fault: None,
            abft: false,
        }
    }

    /// Builder: attach a persistent fault model (stuck cells, drift, wear) to this
    /// chip, with `grid × grid` crossbars keyed on the worker id, and optionally
    /// program the ABFT checksum row alongside every block.
    pub fn with_fault_model(mut self, model: FaultModelConfig, grid: usize, abft: bool) -> Self {
        self.fault = Some(ChipFaultState::new(model, self.worker_id, grid));
        self.abft = abft;
        self
    }

    /// Builder: simulate chips with a smaller (or larger) crossbar pool than Table IV.
    pub fn with_chip_crossbars(mut self, crossbars: Option<u64>) -> Self {
        self.chip_crossbars = crossbars;
        self
    }

    /// The owning worker's id.
    pub fn worker_id(&self) -> usize {
        self.worker_id
    }

    /// The chip's persistent fault state, if a fault model is attached.
    pub fn fault_state(&self) -> Option<&ChipFaultState> {
        self.fault.as_ref()
    }

    /// Forgets what the crossbars hold, forcing the next chip pass to re-program the
    /// chip (and wear it).  This is how a detected-corruption retry charges its
    /// re-encode onto spare resources.
    pub fn force_remap(&mut self) {
        self.programmed = None;
    }

    /// The per-chip hardware model for a format, with the crossbar-pool override
    /// applied.
    fn chip(&self, format: &ReFloatConfig) -> AcceleratorConfig {
        let mut hw = AcceleratorConfig::refloat(format);
        if let Some(crossbars) = self.chip_crossbars {
            hw.total_crossbars = crossbars;
        }
        if self.abft {
            hw.cycles_per_block_mvm += ABFT_CHECK_CYCLES_PER_BLOCK;
        }
        hw
    }

    /// Accounts what a job ran and returns its simulated cost.
    ///
    /// Phases are priced in order.  A chip pass re-programs the chip only when it
    /// holds a different encoding, so a multi-RHS batch pays one programming, a
    /// refined job pays one per rung switch, and consecutive jobs on one matrix pay
    /// none.  Host phases are priced by the [`GpuModel`] — the offload split of the
    /// mixed-precision in-memory-computing model.
    ///
    /// # Panics
    /// Panics if a chip pass lists no right-hand side.
    pub fn charge(&mut self, charge: &Charge<'_>) -> SimulatedRun {
        let mut run = SimulatedRun::default();
        for phase in charge.phases {
            match phase {
                Phase::Chip {
                    on,
                    iterations,
                    delta,
                } => {
                    // An empty batch is a typed `PlanViolation::EmptyRhsBatch` at
                    // build time, so this guards a pipeline bug only — and as a panic
                    // the worker contains it as `TicketOutcome::Failed`, where a
                    // silent programming-only charge would be a wrong number.
                    assert!(!iterations.is_empty(), "a chip pass needs at least one RHS");
                    let hw = self.chip(&on.key.format);
                    let program_s = self.program(on, *delta, &hw, &mut run);
                    run.program_s += program_s;
                    run.total_s += program_s;
                    let price = hw.spmv_price(&on.shard_blocks, &on.shard_rows);
                    for &iters in iterations {
                        let spmvs = iters * charge.solver.spmv_per_iteration();
                        run.cycles += spmvs * price.rounds * hw.cycles_per_block_mvm;
                        run.compute_s += spmvs as f64 * price.compute_s;
                        run.stream_write_s += spmvs as f64 * price.stream_write_s;
                        run.reduction_s += spmvs as f64 * price.gather_s;
                        run.total_s += hw.iterations_time_s(price.total_s(), iters, charge.solver);
                    }
                }
                Phase::Host(work) => {
                    let (nnz, nrows) = (charge.nnz, charge.nrows);
                    let host_s = match *work {
                        HostWork::SolverIterations(iterations) => {
                            self.host
                                .solver_time_s(nnz, nrows, iterations, charge.solver)
                        }
                        HostWork::Spmvs(count) => count as f64 * self.host.spmv_time_s(nnz, nrows),
                    };
                    run.host_fp64_s += host_s;
                    run.total_s += host_s;
                }
            }
        }
        run
    }

    /// The residency check of one chip pass: decides whether (and how much of) the
    /// chip is rewritten, ages the fault model by the blocks written, records the new
    /// resident key, and returns the programming seconds.  The chips of a pool are
    /// written in parallel, so a pool pays one cluster write like a single chip.
    fn program(
        &mut self,
        on: &Residency,
        delta: Option<DeltaProgramming>,
        hw: &AcceleratorConfig,
        run: &mut SimulatedRun,
    ) -> f64 {
        let full_write_s = hw.cluster_write_time_s();
        let (rewritten, written_blocks, program_s) = match delta {
            // The chip still holds the operator the diff was taken against: rewrite
            // only the touched ranges.  Holding anything else voids the delta.
            Some(delta) if self.programmed == Some((delta.predecessor, on.chips())) => (
                delta.touched_blocks > 0,
                delta.touched_blocks,
                full_write_s * delta.reprogram_fraction.clamp(0.0, 1.0),
            ),
            _ if self.programmed != Some(on.held()) => (true, on.blocks(), full_write_s),
            _ => (false, 0, 0.0),
        };
        if rewritten {
            run.remapped = true;
            if let Some(fault) = &mut self.fault {
                fault.record_programming(written_blocks);
            }
        }
        self.programmed = Some(on.held());
        program_s
    }
}

impl DeviceHealth for SimulatedAccelerator {
    /// The chip's health summary.  Without an attached fault model the chip is
    /// pristine by definition: all-zero counters keyed on the worker id.
    fn health(&self) -> HealthSummary {
        match &self.fault {
            Some(fault) => fault.health(),
            None => HealthSummary {
                chip: self.worker_id,
                ..HealthSummary::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn whole(tag: u64, blocks: u64) -> Residency {
        rung(tag, ReFloatConfig::paper_default(), blocks)
    }

    fn rung(tag: u64, format: ReFloatConfig, blocks: u64) -> Residency {
        Residency {
            key: CacheKey::new(tag, format),
            shard_blocks: vec![blocks],
            shard_rows: vec![5_000],
        }
    }

    fn pass<'a>(on: &'a Residency, iterations: &[u64]) -> Phase<'a> {
        Phase::Chip {
            on,
            iterations: iterations.to_vec(),
            delta: None,
        }
    }

    /// Charges a job made of `phases` (host phases priced on a 50k-nnz, 5k-row
    /// matrix).
    fn charge(
        chip: &mut SimulatedAccelerator,
        phases: &[Phase<'_>],
        solver: SolverKind,
    ) -> SimulatedRun {
        chip.charge(&Charge {
            phases,
            solver,
            nnz: 50_000,
            nrows: 5_000,
        })
    }

    /// One single-RHS CG solve of `iterations` iterations against `on`.
    fn solve(chip: &mut SimulatedAccelerator, on: &Residency, iterations: u64) -> SimulatedRun {
        charge(chip, &[pass(on, &[iterations])], SolverKind::Cg)
    }

    #[test]
    fn repeat_jobs_on_one_matrix_skip_reprogramming() {
        let mut chip = SimulatedAccelerator::new(0);
        let first = solve(&mut chip, &whole(1, 2_000), 100);
        assert!(first.remapped);
        assert!(first.program_s > 0.0);
        let second = solve(&mut chip, &whole(1, 2_000), 100);
        assert!(!second.remapped);
        assert_eq!(second.program_s, 0.0);
        let third = solve(&mut chip, &whole(2, 2_000), 100);
        assert!(third.remapped);
    }

    #[test]
    fn cycles_follow_the_eq3_model() {
        // paper_default: 28 cycles per block MVM; a fitting matrix is 1 round per SpMV,
        // CG is 1 SpMV per iteration.
        let mut chip = SimulatedAccelerator::new(0);
        let on = whole(1, 2_000);
        let run = solve(&mut chip, &on, 100);
        assert_eq!(run.cycles, 100 * 28);
        assert_eq!(run.stream_write_s, 0.0);
        let bicg = charge(&mut chip, &[pass(&on, &[100])], SolverKind::BiCgStab);
        assert_eq!(bicg.cycles, 2 * 100 * 28);
    }

    #[test]
    fn refined_jobs_charge_reprogramming_per_format_switch_and_host_fp64_in_order() {
        let base = ReFloatConfig::new(7, 3, 3, 3, 8);
        let wide = ReFloatConfig::new(7, 4, 11, 4, 16);
        let (base_rung, wide_rung) = (rung(42, base, 2_000), rung(42, wide, 2_000));
        let mut chip = SimulatedAccelerator::new(0);
        let phases = [
            // Two passes on the base rung: one remap, then the chip is warm.
            pass(&base_rung, &[50]),
            pass(&base_rung, &[50]),
            // Escalation to the widened rung: a second remap (the per-pass re-encode
            // charged in hardware).
            pass(&wide_rung, &[30]),
            // The fp64 fallback pass and the outer-loop residuals run on the host.
            Phase::Host(HostWork::SolverIterations(10)),
            Phase::Host(HostWork::Spmvs(4)),
        ];
        let run = charge(&mut chip, &phases, SolverKind::Cg);
        assert!(run.remapped);
        let (base_hw, wide_hw) = (
            AcceleratorConfig::refloat(&base),
            AcceleratorConfig::refloat(&wide),
        );
        let one_remap = base_hw.cluster_write_time_s();
        assert_eq!(run.program_s, one_remap + one_remap);
        // Cycles follow Eq. 3 per rung: base is 28 cycles/MVM, wide is
        // (2^4+16+1) + (2^4+11+1) − 1 = 60.
        assert_eq!(run.cycles, 100 * 28 + 30 * 60);
        // Host fp64 work: 10 fallback CG iterations + 4 residual SpMVs.
        let host = GpuModel::v100();
        let fallback_s = host.solver_time_s(50_000, 5_000, 10, SolverKind::Cg);
        let residuals_s = 4.0 * host.spmv_time_s(50_000, 5_000);
        assert_eq!(run.host_fp64_s, fallback_s + residuals_s);
        // The total is every phase's seconds folded in execution order.
        let pass_s = |hw: &AcceleratorConfig, iterations| {
            let spmv_s = hw.spmv_price(&[2_000], &[5_000]).total_s();
            hw.iterations_time_s(spmv_s, iterations, SolverKind::Cg)
        };
        let mut total_s = 0.0;
        for phase_s in [
            one_remap,
            pass_s(&base_hw, 50),
            pass_s(&base_hw, 50),
            one_remap,
            pass_s(&wide_hw, 30),
            fallback_s,
            residuals_s,
        ] {
            total_s += phase_s;
        }
        assert_eq!(run.total_s, total_s);

        // A follow-up plain job on the widened rung finds the chip already programmed.
        assert!(!solve(&mut chip, &wide_rung, 10).remapped);
    }

    #[test]
    fn a_charge_with_no_phases_costs_nothing() {
        let mut chip = SimulatedAccelerator::new(1);
        let run = charge(&mut chip, &[], SolverKind::Cg);
        assert_eq!(run, SimulatedRun::default());
    }

    #[test]
    fn host_phases_of_a_chip_resident_job_add_to_the_total_in_order() {
        // A warm-start guard and a true-residual check: two exact SpMVs on the host.
        let mut chip = SimulatedAccelerator::new(0);
        let on = whole(1, 2_000);
        let bare = solve(&mut SimulatedAccelerator::new(1), &on, 100);
        let spmvs = Phase::Host(HostWork::Spmvs(1));
        let run = charge(
            &mut chip,
            &[pass(&on, &[100]), spmvs.clone(), spmvs],
            SolverKind::Cg,
        );
        let one_spmv = GpuModel::v100().spmv_time_s(50_000, 5_000);
        assert_eq!(run.host_fp64_s, one_spmv + one_spmv);
        assert_eq!(run.total_s, bare.total_s + one_spmv + one_spmv);
        assert_eq!(run.cycles, bare.cycles);
    }

    #[test]
    fn delta_programming_rewrites_only_the_touched_fraction_of_the_predecessor() {
        let format = ReFloatConfig::paper_default();
        let model = FaultModelConfig::realistic(5);
        let full = AcceleratorConfig::refloat(&format).cluster_write_time_s();
        let step = |chip: &mut SimulatedAccelerator, tag: u64, predecessor: u64| {
            let on = whole(tag, 2_000);
            let delta = DeltaProgramming {
                predecessor: CacheKey::new(predecessor, format),
                reprogram_fraction: 0.25,
                touched_blocks: 500,
            };
            let phases = [Phase::Chip {
                on: &on,
                iterations: vec![10],
                delta: Some(delta),
            }];
            charge(chip, &phases, SolverKind::Cg)
        };
        let mut chip =
            SimulatedAccelerator::new(0).with_fault_model(model, format.block_size(), false);
        solve(&mut chip, &whole(1, 2_000), 10);
        // The chip holds step 1: step 2 rewrites a quarter of it and wears 500 blocks.
        let warm = step(&mut chip, 2, 1);
        assert!(warm.remapped);
        assert_eq!(warm.program_s, full * 0.25);
        assert_eq!(chip.health().wear_writes, 2_500);
        // The chip holds step 2, not the claimed predecessor: the delta is void and
        // the whole cluster is rewritten.
        let cold = step(&mut chip, 4, 3);
        assert!(cold.remapped);
        assert_eq!(cold.program_s, full);
        assert_eq!(chip.health().wear_writes, 4_500);
        // An untouched step on the held predecessor programs nothing.
        let on = whole(5, 2_000);
        let untouched = DeltaProgramming {
            predecessor: CacheKey::new(4, format),
            reprogram_fraction: 0.0,
            touched_blocks: 0,
        };
        let phases = [Phase::Chip {
            on: &on,
            iterations: vec![10],
            delta: Some(untouched),
        }];
        let idle = charge(&mut chip, &phases, SolverKind::Cg);
        assert!(!idle.remapped);
        assert_eq!(idle.program_s, 0.0);
        assert_eq!(chip.health().programmings, 3);
    }

    #[test]
    fn cycle_events_attribute_every_nonzero_phase() {
        let run = SimulatedRun {
            cycles: 2800,
            compute_s: 1e-5,
            stream_write_s: 0.0,
            program_s: 2e-6,
            reduction_s: 0.0,
            host_fp64_s: 3e-7,
            total_s: 1.23e-5,
            remapped: true,
        };
        let events = run.cycle_events();
        let phases: Vec<ChipPhase> = events.iter().map(|e| e.phase).collect();
        assert_eq!(
            phases,
            vec![ChipPhase::Program, ChipPhase::Compute, ChipPhase::HostFp64]
        );
        assert_eq!(events[1].cycles, 2800);
        assert_eq!(events[1].seconds, 1e-5);
        assert!(SimulatedRun::default().cycle_events().is_empty());
    }

    #[test]
    fn abft_charges_one_extra_cycle_per_block_mvm() {
        let format = ReFloatConfig::paper_default();
        let mut plain = SimulatedAccelerator::new(0);
        let mut checked = SimulatedAccelerator::new(1).with_fault_model(
            FaultModelConfig::pristine(3),
            format.block_size(),
            true,
        );
        let base = solve(&mut plain, &whole(1, 2_000), 100);
        let abft = solve(&mut checked, &whole(1, 2_000), 100);
        // paper_default is 28 cycles per block-MVM; ABFT makes it 29.
        assert_eq!(base.cycles, 100 * 28);
        assert_eq!(abft.cycles, 100 * 29);
        assert!(abft.compute_s > base.compute_s);
    }

    #[test]
    fn health_reports_pristine_without_a_fault_model_and_wear_with_one() {
        let format = ReFloatConfig::paper_default();
        let plain = SimulatedAccelerator::new(7);
        let pristine = plain.health();
        assert_eq!(pristine.chip, 7);
        assert_eq!(pristine.degradation, 0.0);

        let mut chip = SimulatedAccelerator::new(2).with_fault_model(
            FaultModelConfig::realistic(5),
            format.block_size(),
            false,
        );
        solve(&mut chip, &whole(1, 2_000), 10);
        solve(&mut chip, &whole(2, 3_000), 10);
        // Warm repeat: no programming, no extra wear.
        solve(&mut chip, &whole(2, 3_000), 10);
        let health = chip.health();
        assert_eq!(health.programmings, 2);
        assert_eq!(health.wear_writes, 5_000);
        // A forced remap (the retry re-encode path) wears the chip again.
        chip.force_remap();
        solve(&mut chip, &whole(2, 3_000), 10);
        assert_eq!(chip.health().programmings, 3);
    }

    #[test]
    fn oversized_matrices_pay_streaming_writes() {
        let mut chip = SimulatedAccelerator::new(0);
        // 21845 clusters fit; ask for 10x that.
        let run = solve(&mut chip, &whole(1, 218_450), 10);
        assert!(run.stream_write_s > 0.0);
        assert!(run.total_s > run.compute_s);
    }

    #[test]
    fn batched_rhs_amortize_programming_across_the_batch() {
        let format = ReFloatConfig::paper_default();
        let mut batched_chip = SimulatedAccelerator::new(0);
        let on = whole(1, 2_000);
        let batched = charge(
            &mut batched_chip,
            &[pass(&on, &[100, 100, 100])],
            SolverKind::Cg,
        );
        // Three separate single-RHS jobs on a *cold* chip each pay programming.
        let mut serial_chip = SimulatedAccelerator::new(1);
        let mut serial_total = 0.0;
        for _ in 0..3 {
            serial_total += solve(&mut serial_chip, &whole(2, 2_000), 100).total_s;
            serial_chip.force_remap();
        }
        assert!(batched.remapped);
        assert_eq!(batched.cycles, 3 * 100 * 28);
        let one_program = AcceleratorConfig::refloat(&format).cluster_write_time_s();
        assert_eq!(batched.program_s, one_program);
        assert!((serial_total - batched.total_s - 2.0 * one_program).abs() < 1e-12);
    }

    #[test]
    fn sharded_jobs_charge_the_makespan_chip_and_the_gather() {
        let format = ReFloatConfig::paper_default();
        // Small chips: 2^10 crossbars -> 1024/12 = 85 clusters per chip.
        let mut chip = SimulatedAccelerator::new(0).with_chip_crossbars(Some(1 << 10));
        // 170 blocks per shard = 2 streaming rounds per chip per SpMV.
        let pool = Residency {
            key: CacheKey::new(9, format),
            shard_blocks: vec![170; 4],
            shard_rows: vec![2048; 4],
        };
        let run = solve(&mut chip, &pool, 50);
        assert!(run.remapped);
        assert_eq!(run.cycles, 50 * 2 * 28);
        // The makespan chip's rounds split into compute and stream writes, as on one
        // chip; the total adds the gather per SpMV to their sum.
        let mut hw = AcceleratorConfig::refloat(&format);
        hw.total_crossbars = 1 << 10;
        let (compute_s, write_s) = (2.0 * hw.block_mvm_time_s(), 2.0 * hw.cluster_write_time_s());
        assert!(run.stream_write_s > 0.0);
        assert_eq!(run.compute_s, 50.0 * compute_s);
        assert_eq!(run.stream_write_s, 50.0 * write_s);
        let gather_s = 4.0 * 1e-6 + (4 * 2048 * 8) as f64 / 16e9;
        assert_eq!(run.reduction_s, 50.0 * gather_s);
        let spmvs_s = 50.0 * ((compute_s + write_s) + gather_s);
        let total_s =
            hw.cluster_write_time_s() + (spmvs_s + 50.0 * hw.iteration_overhead_ns * 1e-9);
        assert_eq!(run.total_s, total_s);

        // Same shard set again: the pool stays programmed.
        let again = solve(&mut chip, &pool, 50);
        assert!(!again.remapped);
        assert_eq!(again.program_s, 0.0);

        // The same encoding on one chip is a different residency: a chip held a band.
        let one_chip = whole(9, 680);
        assert!(solve(&mut chip, &one_chip, 50).remapped);

        // The sharded pool beats one equally-small chip streaming all 680 blocks.
        let mut single = SimulatedAccelerator::new(1).with_chip_crossbars(Some(1 << 10));
        let whole = solve(&mut single, &one_chip, 50);
        assert!(
            whole.total_s > 1.5 * run.total_s,
            "sharding should win: single {:.3e}s vs sharded {:.3e}s",
            whole.total_s,
            run.total_s
        );
    }

    #[test]
    fn bands_over_an_encoding_tile_its_blocks_and_rows() {
        let a = refloat_matgen::generators::laplacian_2d(24, 24, 0.4).to_csr();
        let matrix = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8));
        let key = CacheKey::new(1, *matrix.config());
        let block_rows = a.nrows().div_ceil(1 << 4);
        // The last count asks for more chips than there are block rows to cut.
        for shards in [1, 4, block_rows + 3] {
            let on = Residency::over(key, &matrix, shards);
            assert_eq!(on.key, key);
            assert!(on.chips() <= shards.min(block_rows), "{shards} shards");
            assert_eq!(on.shard_rows.len(), on.chips());
            if shards <= 4 {
                assert_eq!(on.chips(), shards);
            }
            assert_eq!(on.blocks(), matrix.num_blocks() as u64, "{shards} shards");
            let rows: u64 = on.shard_rows.iter().sum();
            assert_eq!(rows, a.nrows() as u64, "{shards} shards");
        }
    }
}
