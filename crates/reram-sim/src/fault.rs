//! Persistent device faults: stuck-at cells, conductance drift with age, and wear.
//!
//! Where [`crate::noise`] models benign zero-mean *read* noise (Fig. 10), this module
//! models the faults that production ReRAM actually serves through:
//!
//! * **Stuck-at cells** — manufacturing defects and endurance failures pin a cell at
//!   minimum (`stuck-at-low`) or maximum (`stuck-at-high`) conductance.  The set of
//!   stuck cells is *persistent*: a pure, seeded function of
//!   `(seed, chip, crossbar, age)` — see [`FaultMap`] — so any thread, retry, or
//!   replay observes bitwise-identical hardware.
//! * **Drift with age** — a programmed conductance state relaxes over time.  We model a
//!   per-crossbar common-mode lognormal factor `exp(σ_eff · z)` whose effective sigma
//!   grows with the programming count (`σ_eff = σ · ln(1 + age)`), after the
//!   lognormal resistance-state modeling of RRAM reliability studies.  A freshly
//!   programmed crossbar (`age = 0`) has no drift.
//! * **Wear** — every reprogramming accumulates writes ([`ChipFaultState`]); the stuck
//!   cell count escalates linearly with age, so heavily re-encoded chips degrade.
//!
//! [`FaultyReFloatOperator`] is the execution path: it wraps an encoded matrix, applies
//! spare-row/column remapping ([`refloat_core::resilience::RemapPlan`]) around the
//! sampled stuck cells, and (optionally) runs the per-block ABFT checksum test after
//! every SpMV, counting detections for the runtime's `HealthTracker` to consume.  Its
//! SpMV is the encoding's own row loop with drift and the uncovered cells' terms
//! folded in ([`ReFloatMatrix::accumulate_faulty`]).
//! [`DeviceHealth`] is the read-side summary trait the accelerators expose.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

use crate::noise::irwin_hall;
use refloat_core::resilience::{AbftChecksum, Corruption, RemapPlan, SpareBudget, StuckCell};
use refloat_core::ReFloatMatrix;
use refloat_solvers::LinearOperator;
use refloat_sparse::vecops;

/// Knobs of the persistent fault model.  All sampling is a pure function of these
/// values plus `(chip, crossbar, age)` — no global state, no wall clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModelConfig {
    /// Master seed; distinct seeds give statistically independent fleets.
    pub seed: u64,
    /// Probability that a cell is stuck at minimum conductance (reads as 0).
    pub stuck_low_rate: f64,
    /// Probability that a cell is stuck at maximum conductance (reads as the top of
    /// the block's representable window).
    pub stuck_high_rate: f64,
    /// Base lognormal drift sigma; the effective sigma is `σ · ln(1 + age)`.
    pub drift_sigma: f64,
    /// Linear escalation of the stuck rates per programming: at age `n` the rates are
    /// multiplied by `1 + wear_growth · n`.
    pub wear_growth: f64,
}

impl FaultModelConfig {
    /// Rates representative of a mature ReRAM process: ~0.1% stuck-low, ~0.02%
    /// stuck-high, 1% base drift sigma, 0.1% wear escalation per reprogram.
    pub fn realistic(seed: u64) -> Self {
        FaultModelConfig {
            seed,
            stuck_low_rate: 1e-3,
            stuck_high_rate: 2e-4,
            drift_sigma: 0.01,
            wear_growth: 1e-3,
        }
    }

    /// A fault-free device (all rates zero) — useful as an explicit control.
    pub fn pristine(seed: u64) -> Self {
        FaultModelConfig {
            seed,
            stuck_low_rate: 0.0,
            stuck_high_rate: 0.0,
            drift_sigma: 0.0,
            wear_growth: 0.0,
        }
    }
}

/// SplitMix64-style avalanche over a seed and a few key parts — the sub-stream keying
/// for per-crossbar RNGs, and the key of every read-noise draw.
pub(crate) fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &p in parts {
        h ^= p.wrapping_mul(0xff51_afd7_ed55_8ccd).rotate_left(31);
        h = h
            .wrapping_mul(0xc4ce_b9fe_1a85_ec53)
            .wrapping_add(0x1656_67b1_9e37_79f9);
    }
    h ^= h >> 33;
    h.wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// One sampled stuck cell inside a crossbar grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCellSample {
    /// Local row, `< grid`.
    pub row: u16,
    /// Local column, `< grid`.
    pub col: u16,
    /// `true` = stuck-at-high.
    pub high: bool,
}

/// The persistent per-crossbar fault map of one chip.
///
/// Stuck cells grow monotonically with age: each crossbar owns a deterministic
/// defect *stream*; age only moves the cut-off along the stream, so the map at age
/// `n + 1` is a superset of the map at age `n` (defects never heal).
#[derive(Debug, Clone)]
pub struct FaultMap {
    config: FaultModelConfig,
    chip: usize,
}

impl FaultMap {
    /// A fault map for one chip under the given model.
    pub fn new(config: FaultModelConfig, chip: usize) -> Self {
        FaultMap { config, chip }
    }

    /// The stuck cells of `crossbar` (a `grid × grid` array) at programming age `age`.
    ///
    /// Pure and deterministic: same `(seed, chip, crossbar, grid, age)` ⇒ bitwise-same
    /// result on any thread.  Monotone: raising `age` (or the configured rates) never
    /// removes a cell.
    pub fn stuck_cells(&self, crossbar: usize, grid: usize, age: u64) -> Vec<StuckCellSample> {
        let rate = self.config.stuck_low_rate + self.config.stuck_high_rate;
        if rate <= 0.0 || grid == 0 {
            return Vec::new();
        }
        let mut rng = ChaCha8Rng::seed_from_u64(mix(
            self.config.seed,
            &[self.chip as u64, crossbar as u64, 0xA11C_E5ED],
        ));
        // Probabilistic rounding with a per-crossbar threshold drawn *before* the cell
        // stream: count = floor(expected − u) + 1 is monotone in `expected`, so aging
        // only ever appends to the defect list.
        let u: f64 = rng.gen();
        let cells = (grid * grid) as f64;
        let expected = cells * rate * (1.0 + self.config.wear_growth * age as f64);
        let count = ((expected - u).floor() + 1.0).max(0.0) as usize;
        let count = count.min(grid * grid);
        let high_share = self.config.stuck_high_rate / rate;
        let mut seen: BTreeSet<(u16, u16)> = BTreeSet::new();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let row = rng.gen_range(0..grid) as u16;
            let col = rng.gen_range(0..grid) as u16;
            if !seen.insert((row, col)) {
                continue;
            }
            let high = rng.gen::<f64>() < high_share;
            out.push(StuckCellSample { row, col, high });
        }
        out
    }

    /// The common-mode conductance drift factor of `crossbar` at programming age
    /// `age`: `exp(σ_eff · z)` with `σ_eff = σ · ln(1 + age)` and `z` a bounded
    /// unit deviate.  Freshly programmed (`age = 0`) crossbars return exactly 1.
    pub fn drift_factor(&self, crossbar: usize, age: u64) -> f64 {
        let sigma_eff = self.config.drift_sigma * (1.0 + age as f64).ln();
        if sigma_eff == 0.0 {
            return 1.0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(mix(
            self.config.seed,
            &[self.chip as u64, crossbar as u64, 0xD21F_7000 + age],
        ));
        (sigma_eff * irwin_hall([rng.gen(), rng.gen(), rng.gen(), rng.gen()])).exp()
    }
}

/// Mutable per-chip fault state: the persistent [`FaultMap`] plus the programming
/// count (the "age" every sampling call is keyed on) and accumulated wear.
#[derive(Debug, Clone)]
pub struct ChipFaultState {
    map: FaultMap,
    chip: usize,
    grid: usize,
    programmings: u64,
    wear_writes: u64,
}

impl ChipFaultState {
    /// Fault state for one chip whose crossbars are `grid × grid` cells.
    pub fn new(config: FaultModelConfig, chip: usize, grid: usize) -> Self {
        ChipFaultState {
            map: FaultMap::new(config, chip),
            chip,
            grid,
            programmings: 0,
            wear_writes: 0,
        }
    }

    /// The underlying fault map.
    pub fn map(&self) -> &FaultMap {
        &self.map
    }

    /// The programming age (count of whole-matrix programmings).
    pub fn age(&self) -> u64 {
        self.programmings
    }

    /// Records one (re)programming of `blocks` crossbars: bumps the age every
    /// subsequent sampling call is keyed on and accumulates wear writes.
    pub fn record_programming(&mut self, blocks: u64) {
        self.programmings += 1;
        self.wear_writes += blocks;
    }
}

/// A point-in-time health summary of one chip, as exposed by [`DeviceHealth`].
/// The default is a pristine chip: every counter zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthSummary {
    /// The chip id.
    pub chip: usize,
    /// Whole-matrix programmings so far (the fault-model age).
    pub programmings: u64,
    /// Accumulated crossbar writes.
    pub wear_writes: u64,
    /// Stuck-at-low cells over the probe crossbars.
    pub stuck_low: usize,
    /// Stuck-at-high cells over the probe crossbars.
    pub stuck_high: usize,
    /// The effective drift sigma at the current age.
    pub drift_sigma_effective: f64,
    /// A dimensionless degradation score: probed stuck-cell fraction plus effective
    /// drift sigma.  0 = pristine; monotone non-decreasing with age.
    pub degradation: f64,
}

/// Read-side health reporting: anything owning fault state can summarize it.
///
/// The summary probes a fixed, small set of crossbars (so it is cheap and identical
/// across callers) and is a pure function of the fault state — calling it never
/// perturbs the device.
pub trait DeviceHealth {
    /// Summarizes current device health.
    fn health(&self) -> HealthSummary;
}

/// How many crossbars the health probe samples.
const HEALTH_PROBE_CROSSBARS: usize = 8;

impl DeviceHealth for ChipFaultState {
    fn health(&self) -> HealthSummary {
        let mut stuck_low = 0;
        let mut stuck_high = 0;
        for xbar in 0..HEALTH_PROBE_CROSSBARS {
            for cell in self.map.stuck_cells(xbar, self.grid, self.programmings) {
                if cell.high {
                    stuck_high += 1;
                } else {
                    stuck_low += 1;
                }
            }
        }
        let probe_cells = (HEALTH_PROBE_CROSSBARS * self.grid * self.grid).max(1) as f64;
        let sigma_eff = self.map.config.drift_sigma * (1.0 + self.programmings as f64).ln();
        HealthSummary {
            chip: self.chip,
            programmings: self.programmings,
            wear_writes: self.wear_writes,
            stuck_low,
            stuck_high,
            drift_sigma_effective: sigma_eff,
            degradation: (stuck_low + stuck_high) as f64 / probe_cells + sigma_eff,
        }
    }
}

/// A ReFloat operator executing on faulty hardware.
///
/// Construction samples the chip's stuck cells for every block (block *i* maps to
/// crossbar *i* plus an offset), plans spare remapping under the given budget, and
/// precomputes the uncovered cells' corruption terms and the per-crossbar drift factors
/// at the chip's current age.  Every [`apply`](LinearOperator::apply) then reads the
/// shared encoding in place through that fixed hardware state; with ABFT enabled, it
/// ends with the checksum residual test and bumps [`detections`](Self::detections) on
/// failure.
pub struct FaultyReFloatOperator {
    inner: ReFloatMatrix,
    /// Per-block common-mode drift factor.
    drift: Vec<f64>,
    /// The uncovered stuck cells' terms, by row and then block.
    corruptions: Vec<Corruption>,
    /// The ABFT checksum and its relative threshold, when the check is on.
    checksum: Option<(AbftChecksum, f64)>,
    detections: u64,
    uncovered: usize,
    covered: usize,
}

impl FaultyReFloatOperator {
    /// Wraps an encoded matrix with the fault state of `chip`, programming block *i*
    /// onto crossbar `i + crossbar_offset` and remapping around its stuck cells under
    /// `spares`.  `abft_threshold` = `Some(t)` enables the per-apply checksum test at
    /// relative threshold `t` (1e-8 is a safe default: clean applies sit near machine
    /// epsilon).
    ///
    /// Stuck cells are monotone — re-programming the *same* crossbars can never
    /// heal a defect — so a retry after a detected corruption must move the
    /// encoding onto fresh crossbars to have any chance of succeeding.  The
    /// runtime's re-encode path passes `attempt × num_blocks` as the offset, so each
    /// retry samples a disjoint crossbar range of the same persistent chip.
    pub fn new(
        inner: ReFloatMatrix,
        chip: &ChipFaultState,
        spares: SpareBudget,
        abft_threshold: Option<f64>,
        crossbar_offset: usize,
    ) -> Self {
        let (bs, age) = (inner.config().block_size(), chip.age());
        // Sample every block's crossbar and plan remapping across all of them.
        let mut cells: Vec<StuckCell> = Vec::new();
        for block in 0..inner.num_blocks() {
            for s in chip.map().stuck_cells(block + crossbar_offset, bs, age) {
                let (row, col, high) = (s.row, s.col, s.high);
                cells.push(StuckCell {
                    block,
                    row,
                    col,
                    high,
                });
            }
        }
        let plan = RemapPlan::plan(&cells, &spares);
        let drift: Vec<f64> = (0..inner.num_blocks())
            .map(|b| chip.map().drift_factor(b + crossbar_offset, age))
            .collect();
        let checksum = abft_threshold.map(|t| (AbftChecksum::from_matrix(&inner), t));
        FaultyReFloatOperator {
            corruptions: plan.corruptions(&inner),
            inner,
            drift,
            checksum,
            detections: 0,
            uncovered: plan.uncovered().len(),
            covered: plan.covered().len(),
        }
    }

    /// Number of checksum-test failures across all applies so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Stuck cells the spare budget could not absorb (the active corruption).
    pub fn uncovered_faults(&self) -> usize {
        self.uncovered
    }

    /// Stuck cells remapped onto spares (read correctly).
    pub fn covered_faults(&self) -> usize {
        self.covered
    }
}

impl LinearOperator for FaultyReFloatOperator {
    fn nrows(&self) -> usize {
        LinearOperator::nrows(&self.inner)
    }

    fn ncols(&self) -> usize {
        LinearOperator::ncols(&self.inner)
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let (xq, inner) = self.inner.quantize_input(x);
        // A drift of exactly 1.0 multiplies away bit for bit, so fault-free configs
        // reproduce the clean operator's digests.
        inner.accumulate_faulty(xq, &self.drift, &self.corruptions, y);
        if let Some((checksum, threshold)) = &self.checksum {
            let residual = checksum.residual(xq, &self.drift, vecops::sum(y));
            self.detections += u64::from(residual > *threshold);
        }
    }

    fn name(&self) -> String {
        format!(
            "{} + faults ({} uncovered, ABFT {})",
            self.inner.name(),
            self.uncovered,
            if self.checksum.is_some() { "on" } else { "off" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use refloat_core::{ReFloatBlock, ReFloatConfig};
    use refloat_matgen::{generators, rhs};
    use refloat_solvers::{cg, SolverConfig};
    use refloat_sparse::{BlockedMatrix, CsrMatrix};

    fn small_refloat() -> ReFloatMatrix {
        let a = generators::laplacian_2d(16, 16, 0.4).to_csr();
        ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8))
    }

    fn heavy_faults(seed: u64) -> FaultModelConfig {
        FaultModelConfig {
            seed,
            stuck_low_rate: 5e-3,
            stuck_high_rate: 1e-3,
            drift_sigma: 0.0,
            wear_growth: 0.0,
        }
    }

    #[test]
    fn pristine_model_is_bitwise_identical_to_the_clean_operator() {
        let chip = ChipFaultState::new(FaultModelConfig::pristine(9), 0, 16);
        let mut clean = small_refloat();
        let mut faulty = FaultyReFloatOperator::new(
            small_refloat(),
            &chip,
            SpareBudget::default_per_crossbar(),
            Some(1e-8),
            0,
        );
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.01).sin() + 1.0).collect();
        let mut y1 = vec![0.0; 256];
        let mut y2 = vec![0.0; 256];
        clean.apply(&x, &mut y1);
        faulty.apply(&x, &mut y2);
        assert_eq!(y1, y2);
        assert_eq!(faulty.detections(), 0);
        assert_eq!(faulty.uncovered_faults(), 0);
    }

    #[test]
    fn fault_maps_and_drift_are_identical_across_threads() {
        let sample = || {
            let map = FaultMap::new(FaultModelConfig::realistic(42), 3);
            let mut cells = Vec::new();
            let mut drifts = Vec::new();
            for xbar in 0..32 {
                for age in 0..4 {
                    cells.push(map.stuck_cells(xbar, 16, age));
                    drifts.push(map.drift_factor(xbar, age).to_bits());
                }
            }
            (cells, drifts)
        };
        let reference = sample();
        let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(sample)).collect();
        for h in handles {
            let got = h.join().expect("sampler thread");
            assert_eq!(got.0, reference.0, "stuck cells must be thread-invariant");
            assert_eq!(got.1, reference.1, "drift must be thread-invariant");
        }
    }

    #[test]
    fn stuck_cells_grow_monotonically_with_age() {
        let map = FaultMap::new(FaultModelConfig::realistic(7), 0);
        for xbar in 0..16 {
            let mut prev = map.stuck_cells(xbar, 16, 0);
            for age in 1..200 {
                let next = map.stuck_cells(xbar, 16, age);
                assert!(next.len() >= prev.len());
                assert_eq!(&next[..prev.len()], &prev[..], "defects never heal");
                prev = next;
            }
        }
    }

    #[test]
    fn fresh_crossbars_have_no_drift_and_aged_ones_do() {
        let map = FaultMap::new(FaultModelConfig::realistic(11), 0);
        for xbar in 0..8 {
            assert_eq!(map.drift_factor(xbar, 0), 1.0);
        }
        let drifted = (0..64).filter(|&x| map.drift_factor(x, 10) != 1.0).count();
        assert!(drifted > 32, "most aged crossbars should drift: {drifted}");
    }

    #[test]
    fn abft_detects_uncovered_stuck_cells_and_stays_quiet_when_covered() {
        // No spares: heavy fault rates guarantee uncovered cells somewhere.
        let chip = ChipFaultState::new(heavy_faults(5), 0, 16);
        let mut faulty =
            FaultyReFloatOperator::new(small_refloat(), &chip, SpareBudget::none(), Some(1e-8), 0);
        assert!(faulty.uncovered_faults() > 0, "test needs active faults");
        let x: Vec<f64> = (0..256).map(|i| 1.0 + (i % 5) as f64 * 0.3).collect();
        let mut y = vec![0.0; 256];
        faulty.apply(&x, &mut y);
        assert!(faulty.detections() > 0, "corruption must trip the checksum");

        // A huge spare budget covers everything: no corruption, no detections.
        let mut covered = FaultyReFloatOperator::new(
            small_refloat(),
            &chip,
            SpareBudget { rows: 16, cols: 16 },
            Some(1e-8),
            0,
        );
        assert_eq!(covered.uncovered_faults(), 0);
        assert!(covered.covered_faults() > 0);
        let mut y2 = vec![0.0; 256];
        covered.apply(&x, &mut y2);
        assert_eq!(covered.detections(), 0);
    }

    #[test]
    fn drift_alone_never_trips_the_checksum() {
        let config = FaultModelConfig {
            seed: 13,
            stuck_low_rate: 0.0,
            stuck_high_rate: 0.0,
            drift_sigma: 0.05,
            wear_growth: 0.0,
        };
        let mut chip = ChipFaultState::new(config, 0, 16);
        for _ in 0..5 {
            chip.record_programming(100);
        }
        let mut clean = small_refloat();
        let mut faulty =
            FaultyReFloatOperator::new(small_refloat(), &chip, SpareBudget::none(), Some(1e-8), 0);
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.02).cos() + 1.5).collect();
        let mut y1 = vec![0.0; 256];
        let mut y2 = vec![0.0; 256];
        clean.apply(&x, &mut y1);
        faulty.apply(&x, &mut y2);
        assert_ne!(y1, y2, "5% aged drift must perturb the result");
        assert_eq!(
            faulty.detections(),
            0,
            "common-mode drift is benign to ABFT"
        );
    }

    #[test]
    fn cg_on_remapped_hardware_converges_like_clean_hardware() {
        let a = generators::laplacian_2d(16, 16, 0.4).to_csr();
        let b = rhs::ones(a.nrows());
        let cfg = SolverConfig::relative(1e-8).with_max_iterations(3000);
        let mut clean = small_refloat();
        let r_clean = cg(&mut clean, &b, &cfg);
        assert!(r_clean.converged());

        // Full coverage ⇒ the faulty operator is numerically the clean one.
        let chip = ChipFaultState::new(heavy_faults(3), 0, 16);
        let mut remapped = FaultyReFloatOperator::new(
            small_refloat(),
            &chip,
            SpareBudget { rows: 16, cols: 16 },
            Some(1e-8),
            0,
        );
        let r_remapped = cg(&mut remapped, &b, &cfg);
        assert!(r_remapped.converged());
        assert_eq!(r_remapped.iterations, r_clean.iterations);
        assert_eq!(remapped.detections(), 0);
    }

    #[test]
    fn remapped_operator_samples_a_disjoint_crossbar_range() {
        // The retry path's whole premise: the same chip, the same encoding, but a
        // crossbar offset gives an independent draw of the persistent fault map.
        let chip = ChipFaultState::new(heavy_faults(5), 0, 16);
        let mut base =
            FaultyReFloatOperator::new(small_refloat(), &chip, SpareBudget::none(), Some(1e-8), 0);
        assert!(base.uncovered_faults() > 0, "test needs active faults");
        let blocks = small_refloat().num_blocks();
        let mut retry = FaultyReFloatOperator::new(
            small_refloat(),
            &chip,
            SpareBudget::none(),
            Some(1e-8),
            blocks,
        );
        let x: Vec<f64> = (0..256).map(|i| 1.0 + (i % 7) as f64 * 0.2).collect();
        let mut y1 = vec![0.0; 256];
        let mut y2 = vec![0.0; 256];
        base.apply(&x, &mut y1);
        retry.apply(&x, &mut y2);
        assert_ne!(y1, y2, "offset crossbars carry different defects");
    }

    #[test]
    fn health_summary_degrades_monotonically_with_programmings() {
        let mut chip = ChipFaultState::new(FaultModelConfig::realistic(21), 4, 16);
        let fresh = chip.health();
        assert_eq!(fresh.chip, 4);
        assert_eq!(fresh.programmings, 0);
        assert_eq!(fresh.drift_sigma_effective, 0.0);
        let mut last = fresh.degradation;
        for round in 1..=50u64 {
            chip.record_programming(64);
            let h = chip.health();
            assert_eq!(h.programmings, round);
            assert_eq!(h.wear_writes, round * 64);
            assert!(h.degradation >= last, "wear only accumulates");
            last = h.degradation;
        }
        assert!(last > fresh.degradation);
    }

    /// The block-order apply this operator ran before its faults rode the shared
    /// row-order encoding, kept as the oracle of the row loop: the decoded values
    /// blocked, and every block's drifted products and then its corruption terms
    /// scattered into `y`, one block at a time.
    struct BlockOrderReference {
        inner: ReFloatMatrix,
        /// The decoded values over the layout, in block order.
        decoded: BlockedMatrix,
        drift: Vec<f64>,
        /// Per block, `(local row, local column, stuck − clean)` of its uncovered cells.
        corruptions: Vec<Vec<(u16, u16, f64)>>,
        checksum: AbftChecksum,
        detections: u64,
    }

    impl BlockOrderReference {
        /// The reference over `inner`, the encoding of `a`: its block view is the
        /// decoded values blocked over the layout, and each
        /// block's base is `ReFloatBlock::encode`'s over `a`'s blocking, which the
        /// row-order encoder equals bit for bit.
        fn new(
            inner: ReFloatMatrix,
            a: &CsrMatrix,
            chip: &ChipFaultState,
            spares: SpareBudget,
            crossbar_offset: usize,
        ) -> Self {
            let config = *inner.config();
            let (bs, age) = (config.block_size(), chip.age());
            let max_mag = 2f64.powi(config.max_offset() + 1);
            let mut cells = Vec::new();
            for b in 0..inner.num_blocks() {
                for s in chip.map().stuck_cells(b + crossbar_offset, bs, age) {
                    let (row, col, high) = (s.row, s.col, s.high);
                    cells.push(StuckCell {
                        block: b,
                        row,
                        col,
                        high,
                    });
                }
            }
            let plan = RemapPlan::plan(&cells, &spares);
            let decoded = BlockedMatrix::over(inner.layout(), inner.decoded());
            let blocking = BlockedMatrix::from_csr(a, config.b).unwrap();
            let bases: Vec<i32> = blocking
                .blocks()
                .map(|raw| ReFloatBlock::encode(&raw, &config).eb)
                .collect();
            let blocks: Vec<_> = decoded.blocks().collect();
            let (nrows, ncols) = (LinearOperator::nrows(&inner), LinearOperator::ncols(&inner));
            let mut corruptions = vec![Vec::new(); inner.num_blocks()];
            for cell in plan.uncovered() {
                let blk = &blocks[cell.block];
                if blk.block_row * bs + cell.row as usize >= nrows
                    || blk.block_col * bs + cell.col as usize >= ncols
                {
                    continue;
                }
                let clean = blk
                    .iter()
                    .find(|&(ii, jj, _)| ii == cell.row && jj == cell.col)
                    .map_or(0.0, |(_, _, v)| v);
                let stuck = if cell.high {
                    max_mag * 2f64.powi(bases[cell.block])
                } else {
                    0.0
                };
                if stuck - clean != 0.0 {
                    corruptions[cell.block].push((cell.row, cell.col, stuck - clean));
                }
            }
            let drift = (0..inner.num_blocks())
                .map(|b| chip.map().drift_factor(b + crossbar_offset, age))
                .collect();
            BlockOrderReference {
                checksum: AbftChecksum::from_matrix(&inner),
                inner,
                decoded,
                drift,
                corruptions,
                detections: 0,
            }
        }

        fn apply(&mut self, x: &[f64], y: &mut [f64]) {
            y.fill(0.0);
            let bs = self.inner.config().block_size();
            let (xq, _) = self.inner.quantize_input(x);
            for (b, blk) in self.decoded.blocks().enumerate() {
                let (row0, col0) = (blk.block_row * bs, blk.block_col * bs);
                let d = self.drift[b];
                for (ii, jj, v) in blk.iter() {
                    y[row0 + ii as usize] += v * d * xq[col0 + jj as usize];
                }
                for &(ii, jj, delta) in &self.corruptions[b] {
                    y[row0 + ii as usize] += delta * d * xq[col0 + jj as usize];
                }
            }
            if self.checksum.residual(xq, &self.drift, vecops::sum(y)) > 1e-8 {
                self.detections += 1;
            }
        }

        /// How many corruption terms share their (row, block) with another, and how
        /// many sit in a block where their row stores nothing.
        fn coverage(&self) -> (usize, usize) {
            let (mut shared, mut off_pattern) = (0, 0);
            let blocks = self.decoded.blocks();
            for (blk, corruptions) in blocks.zip(&self.corruptions) {
                for &(ii, _, _) in corruptions {
                    shared += usize::from(corruptions.iter().filter(|c| c.0 == ii).count() > 1);
                    off_pattern += usize::from(!blk.rows.contains(&ii));
                }
            }
            (shared, off_pattern)
        }
    }

    /// Applies the operator and its block-order reference, over one chip aged `age`
    /// programmings and one `n × n` Laplacian at `2^b` blocks (crossbar offset
    /// `offset` times the block count), to three inputs, and asserts equal output bits
    /// and detection counts.  Returns the reference's [`coverage`].
    ///
    /// [`coverage`]: BlockOrderReference::coverage
    fn assert_the_row_loop_is_the_block_order_apply(
        (n, b): (usize, u32),
        faults: FaultModelConfig,
        age: u64,
        spares: SpareBudget,
        offset: usize,
    ) -> (usize, usize) {
        let a = generators::laplacian_2d(n, n, 0.4).to_csr();
        let inner = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(b, 3, 8, 3, 8));
        let mut chip = ChipFaultState::new(faults, 0, 1 << b);
        for _ in 0..age {
            chip.record_programming(1);
        }
        let offset = offset * inner.num_blocks();
        let mut faulty =
            FaultyReFloatOperator::new(inner.clone(), &chip, spares, Some(1e-8), offset);
        let mut reference = BlockOrderReference::new(inner, &a, &chip, spares, offset);
        let rows = a.nrows();
        for k in 0..3 {
            let x: Vec<f64> = (0..rows)
                .map(|i| ((i * (k + 3)) as f64 * 0.37).sin() + 0.5 * k as f64)
                .collect();
            let (mut got, mut want) = (vec![f64::NAN; rows], vec![0.0; rows]);
            faulty.apply(&x, &mut got);
            reference.apply(&x, &mut want);
            let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}, b = {b}, input {k}");
        }
        assert_eq!(
            faulty.detections(),
            reference.detections,
            "n = {n}, b = {b}"
        );
        reference.coverage()
    }

    #[test]
    fn the_row_loop_is_the_block_order_apply_on_edge_blocks_drift_and_spares() {
        let (mut shared, mut off_pattern) = (0, 0);
        for shape in [(16, 4), (37, 3), (50, 4), (29, 5)] {
            for seed in [1, 2, 3] {
                for spares in [SpareBudget::none(), SpareBudget::default_per_crossbar()] {
                    let faults = FaultModelConfig {
                        seed,
                        stuck_low_rate: 5e-2,
                        stuck_high_rate: 2e-2,
                        drift_sigma: 0.05,
                        wear_growth: 0.0,
                    };
                    for (age, offset) in [(0, 0), (40, 2)] {
                        let (s, o) = assert_the_row_loop_is_the_block_order_apply(
                            shape, faults, age, spares, offset,
                        );
                        (shared, off_pattern) = (shared + s, off_pattern + o);
                    }
                }
            }
        }
        assert!(shared > 0, "no (row, block) held several corruptions");
        assert!(
            off_pattern > 0,
            "no corruption sat where its row stores nothing"
        );
    }

    proptest! {
        #[test]
        fn the_row_loop_is_the_block_order_apply_bit_for_bit(
            n in 9usize..41,
            b in 3u32..6,
            seed in 0u64..1000,
            low in 0.0f64..5e-2,
            high in 0.0f64..2e-2,
            drift_sigma in 0.0f64..0.05,
            age in 0u64..41,
            spares in proptest::bool::ANY,
            offset in 0usize..3,
        ) {
            let faults = FaultModelConfig {
                seed,
                stuck_low_rate: low,
                stuck_high_rate: high,
                drift_sigma,
                wear_growth: 0.01,
            };
            let spares = match spares {
                true => SpareBudget::default_per_crossbar(),
                false => SpareBudget::none(),
            };
            assert_the_row_loop_is_the_block_order_apply((n, b), faults, age, spares, offset);
        }

        #[test]
        fn sampled_cells_stay_inside_the_grid_and_scale_with_rate(
            seed in 0u64..1000,
            crossbar in 0usize..64,
            grid in 4usize..33,
            rate in 0.0f64..0.05,
            age in 0u64..20,
        ) {
            let base = FaultModelConfig {
                seed,
                stuck_low_rate: rate,
                stuck_high_rate: rate / 4.0,
                drift_sigma: 0.0,
                wear_growth: 0.01,
            };
            let cells = FaultMap::new(base, 1).stuck_cells(crossbar, grid, age);
            let mut positions = BTreeSet::new();
            for c in &cells {
                prop_assert!((c.row as usize) < grid);
                prop_assert!((c.col as usize) < grid);
                prop_assert!(positions.insert((c.row, c.col)), "positions are distinct");
            }
            prop_assert!(cells.len() <= grid * grid);
            // Doubling the rates never shrinks the defect count.
            let doubled = FaultModelConfig {
                stuck_low_rate: rate * 2.0,
                stuck_high_rate: rate / 2.0,
                ..base
            };
            let more = FaultMap::new(doubled, 1).stuck_cells(crossbar, grid, age);
            prop_assert!(more.len() >= cells.len());
        }
    }
}
