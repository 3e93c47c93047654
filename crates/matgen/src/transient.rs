//! Transient solve chains: a seeded, bitwise-reproducible sequence of
//! closely-related systems, the traffic shape of time-stepping and parameter
//! continuation.
//!
//! Each [`SolveStep`]'s matrix is `K_k + m_k·I`: an evolving stiffness
//! operator plus a lumped-mass/time-step shift.  Between steps the stiffness
//! drifts *locally* — coefficient jitter (the deviates of
//! [`crate::generators::apply_lognormal_jitter`]) confined to a contiguous
//! index window that advances with the step, like a moving front in the
//! domain — so most ReFloat blocks of step `k` are bitwise identical to step
//! `k−1`'s.  That locality is exactly what the runtime's incremental
//! re-encoding and encoded-cache keying exploit; a nonzero mass drift (which
//! touches every diagonal entry) provides the dirtier regime for worst-case
//! testing.
//!
//! Structure contract: the base must be structurally symmetric and store
//! every diagonal entry, as [`crate::fem::poisson_2d`] does
//! ([`TransientChain::new`] panics otherwise).  Every step then has the base's
//! non-zero structure, and a step is a value update over it: the drift touches
//! only the window's non-zeros, and emitting the step costs one copy of the
//! values plus the diagonal shift — no assembly, no sort, and no index copied:
//! every step's matrix shares the chain's one structure
//! ([`CsrMatrix::with_values`]), so a re-encode of the next step recognises its
//! layout in O(1) and a chain held in memory stores the pattern once.
//!
//! Reproducibility contract: a chain is a pure function of its base matrix
//! and [`TransientSpec`] — re-running the iterator yields bitwise-identical
//! matrices and right-hand sides, independent of wall clock or thread count.

use std::ops::Range;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use refloat_sparse::{CooMatrix, CsrMatrix};

use crate::generators::jitter_values;

/// How a transient chain evolves from its base operator.
#[derive(Debug, Clone)]
pub struct TransientSpec {
    /// Number of steps the chain emits.
    pub steps: usize,
    /// Lumped-mass / time-step shift `m` added to every diagonal entry
    /// (`A_k = K_k + m_k·I`); keeps every step SPD even under jitter.
    pub mass_coefficient: f64,
    /// Relative modulation of the mass term over time
    /// (`m_k = m·(1 + drift·sin(0.3k))`).  `0` keeps the diagonal shift
    /// constant (the block-friendly regime); `> 0` dirties every diagonal
    /// block every step (the stress regime).
    pub drift_amplitude: f64,
    /// Lognormal jitter width (in log2) of the per-step coefficient drift.
    pub jitter_sigma_log2: f64,
    /// Fraction of the index range the per-step drift window covers.
    pub drift_window: f64,
    /// Phase the right-hand side's source term advances per step.  Scales with
    /// the implicit time step: large values (the 0.1 default) model coarse
    /// stepping where consecutive solutions differ visibly, small values the
    /// fine-stepping quasi-static regime where warm starts shine.
    pub rhs_phase_step: f64,
    /// Base seed; each step derives its own sub-seed.
    pub seed: u64,
}

impl Default for TransientSpec {
    fn default() -> Self {
        TransientSpec {
            steps: 50,
            mass_coefficient: 0.5,
            drift_amplitude: 0.0,
            jitter_sigma_log2: 0.02,
            drift_window: 0.2,
            rhs_phase_step: 0.1,
            seed: 2023,
        }
    }
}

impl TransientSpec {
    /// Builder: number of steps.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Builder: base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: per-step jitter width and drift-window fraction.
    pub fn with_drift(mut self, sigma_log2: f64, window: f64) -> Self {
        self.jitter_sigma_log2 = sigma_log2;
        self.drift_window = window;
        self
    }

    /// Builder: mass coefficient and its relative time modulation.
    pub fn with_mass(mut self, coefficient: f64, drift_amplitude: f64) -> Self {
        self.mass_coefficient = coefficient;
        self.drift_amplitude = drift_amplitude;
        self
    }

    /// Builder: right-hand-side phase advance per step (the effective time-step
    /// size of the source term).
    pub fn with_rhs_phase(mut self, phase_step: f64) -> Self {
        self.rhs_phase_step = phase_step;
        self
    }
}

/// One step of a transient chain: the system `matrix · x = rhs` to solve.
#[derive(Debug, Clone)]
pub struct SolveStep {
    /// Step number, `0..spec.steps`.
    pub index: usize,
    /// The step's operator (`K_k + m_k·I`), SPD for SPD base operators and
    /// small jitter.
    pub matrix: CsrMatrix,
    /// The step's right-hand side: a smooth source whose phase advances
    /// slowly with the step, so consecutive solutions stay close (the
    /// warm-start regime).
    pub rhs: Vec<f64>,
}

/// SplitMix64: the per-step sub-seed derivation (and the symmetric pair hash
/// of [`perturb_symmetric_pairs`]).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform in `[0, 1)` from the top 53 bits of a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The seeded iterator over a chain's [`SolveStep`]s.
///
/// The chain keeps the stiffness operator as a CSR matrix over one fixed
/// structure, the base's non-zero pattern, so a step is a value update: the
/// drift rewrites the window's non-zeros in place, and emitting the step copies
/// the values once, adds the mass shift at the stored diagonal and shares the
/// structure.
pub struct TransientChain {
    /// The evolving stiffness operator, exactly symmetric inside every window a
    /// drift has touched; its structure is every step's.
    stiffness: CsrMatrix,
    /// `mirror[k]`: the position of entry `k`'s transpose `(c, r)`.
    mirror: Vec<usize>,
    /// `diagonal[r]`: the position of `(r, r)`.
    diagonal: Vec<usize>,
    spec: TransientSpec,
    step: usize,
}

impl TransientChain {
    /// Starts a chain from a base stiffness operator (typically one of the
    /// [`crate::fem`] assemblies).  The base is compressed once (duplicates
    /// summed in row-major order) and its explicit zeros are dropped, as
    /// [`CooMatrix::push`] drops them; what remains is the structure of every
    /// step.
    ///
    /// # Panics
    /// Panics when that structure is not structurally symmetric (every stored
    /// `(r, c)` needs a stored `(c, r)`) or lacks a diagonal entry: the drift
    /// averages each window entry with its transpose and the mass shift lands on
    /// the diagonal, both in place.  [`crate::fem::poisson_2d`] meets both.
    pub fn new(mut base: CooMatrix, spec: TransientSpec) -> Self {
        base.compress();
        let n = base.nrows();
        assert_eq!(
            n,
            base.ncols(),
            "a transient chain's base must be square and structurally symmetric"
        );
        let mut row_ptr = vec![0; n + 1];
        let mut col_idx = Vec::with_capacity(base.nnz());
        let mut stiffness = Vec::with_capacity(base.nnz());
        for (r, c, v) in base.iter().filter(|&(_, _, v)| v != 0.0) {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            stiffness.push(v);
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let stiffness = CsrMatrix::from_raw(n, n, row_ptr, col_idx, stiffness)
            .expect("a compressed base is a valid CSR");
        let (row_ptr, col_idx) = (stiffness.row_ptr(), stiffness.col_idx());
        let find = |r: usize, c: usize| {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            row.binary_search(&c).ok().map(|i| row_ptr[r] + i)
        };
        let diagonal: Vec<usize> = (0..n)
            .map(|r| {
                find(r, r).unwrap_or_else(|| {
                    panic!("a transient chain's base must store every diagonal entry: row {r} has none")
                })
            })
            .collect();
        let mut mirror = Vec::with_capacity(col_idx.len());
        for r in 0..n {
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                mirror.push(find(c, r).unwrap_or_else(|| {
                    panic!(
                        "a transient chain's base must be structurally symmetric: \
                         ({r}, {c}) is stored but ({c}, {r}) is not"
                    )
                }));
            }
        }
        TransientChain {
            stiffness,
            mirror,
            diagonal,
            spec,
            step: 0,
        }
    }

    /// The half-open index window the drift of step `step` is confined to:
    /// `drift_window · n` indices, advancing by a fixed stride per step (a
    /// moving front), as a pure function of the spec and step.
    fn drift_span(&self, step: usize) -> (usize, usize) {
        let n = self.diagonal.len();
        let len = ((self.spec.drift_window * n as f64) as usize).clamp(1, n);
        let stride = (n / 7).max(1);
        let start = (step * stride) % (n - len + 1).max(1);
        (start, start + len)
    }

    /// The positions of row `r`'s entries with a column in `[lo, hi)`: one run,
    /// since a row's columns are sorted.
    fn window_run(&self, r: usize, (lo, hi): (usize, usize)) -> Range<usize> {
        let start = self.stiffness.row_ptr()[r];
        let (cols, _) = self.stiffness.row(r);
        start + cols.partition_point(|&c| c < lo)..start + cols.partition_point(|&c| c < hi)
    }

    /// Applies the per-step coefficient drift: entries with *both* indices in
    /// the window are jittered in CSR order from one stream seeded by the step
    /// (so the deviates are a pure function of the step seed and the window's
    /// entry order) and the result is re-symmetrized; everything outside the
    /// window is untouched — bit-for-bit.
    fn drift(&mut self, step: usize, sigma_log2: f64) {
        if sigma_log2 == 0.0 {
            return;
        }
        let span = self.drift_span(step);
        let runs: Vec<Range<usize>> = (span.0..span.1).map(|r| self.window_run(r, span)).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(self.spec.seed ^ step as u64));
        let values = self.stiffness.values_mut();
        for run in &runs {
            jitter_values(&mut values[run.clone()], sigma_log2, &mut rng);
        }
        // Entrywise jitter breaks symmetry inside the window; average each entry
        // with its transpose there.  The window is a symmetric square region, so
        // every mirror lies inside it, and `0.5·w(r,c) + 0.5·w(c,r)` is one
        // two-term sum, the same bits whichever of the pair computes it.
        for k in runs.into_iter().flatten() {
            let m = self.mirror[k];
            if m >= k {
                let mean = 0.5 * values[k] + 0.5 * values[m];
                values[k] = mean;
                values[m] = mean;
            }
        }
    }
}

impl Iterator for TransientChain {
    type Item = SolveStep;

    fn next(&mut self) -> Option<SolveStep> {
        if self.step >= self.spec.steps {
            return None;
        }
        let step = self.step;
        if step > 0 {
            self.drift(step, self.spec.jitter_sigma_log2);
        }
        let n = self.diagonal.len();
        let phase = (0.3 * step as f64).sin();
        let mass = self.spec.mass_coefficient * (1.0 + self.spec.drift_amplitude * phase);
        let mut values = self.stiffness.values().to_vec();
        for &d in &self.diagonal {
            values[d] += mass;
        }
        let matrix = self.stiffness.with_values(values);
        let rhs: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                1.0 + 0.25
                    * (std::f64::consts::TAU * 3.0 * x + self.spec.rhs_phase_step * step as f64)
                        .sin()
            })
            .collect();
        self.step += 1;
        Some(SolveStep {
            index: step,
            matrix,
            rhs,
        })
    }
}

/// A symmetric per-pair jitter used by tests and benches to perturb a CSR
/// matrix *without* a chain: each unordered index pair gets its own
/// lognormal factor `2^(σ·u)` keyed on `(seed, min(r,c), max(r,c))`, so the
/// result is exactly symmetric for symmetric inputs and deterministic per
/// seed.  `fraction` limits the perturbation to pairs whose hash falls below
/// the threshold (1.0 = every entry, the all-blocks-dirty worst case).  The
/// result keeps `a`'s structure: only values change.
pub fn perturb_symmetric_pairs(
    a: &CsrMatrix,
    sigma_log2: f64,
    fraction: f64,
    seed: u64,
) -> CsrMatrix {
    let mut out = a.clone();
    for ((r, c, _), v) in a.iter().zip(out.values_mut()) {
        let key = splitmix64(seed ^ (((r.min(c) as u64) << 32) | r.max(c) as u64));
        if unit(key) < fraction {
            let s1 = splitmix64(key);
            let s2 = splitmix64(s1);
            let s3 = splitmix64(s2);
            let s4 = splitmix64(s3);
            let u = unit(s1) + unit(s2) + unit(s3) + unit(s4) - 2.0;
            *v *= (sigma_log2 * u).exp2();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fem;
    use crate::generators::apply_lognormal_jitter;

    fn base() -> CooMatrix {
        fem::poisson_2d(10, 10, 0.3, 7)
    }

    fn spec() -> TransientSpec {
        TransientSpec::default().with_steps(6).with_seed(42)
    }

    /// The chain as it was first written, kept as the oracle of the CSR chain:
    /// the stiffness is a compressed COO, each drift splits it into the window
    /// and the rest, jitters the window, pushes every window entry and its
    /// transpose at half weight and compresses again, and each step pushes the
    /// mass on the diagonal and converts to CSR.
    fn reference_chain(base: CooMatrix, spec: &TransientSpec) -> Vec<SolveStep> {
        let mut stiffness = base;
        stiffness.compress();
        let n = stiffness.nrows();
        let mut steps = Vec::with_capacity(spec.steps);
        for step in 0..spec.steps {
            if step > 0 && spec.jitter_sigma_log2 != 0.0 {
                let len = ((spec.drift_window * n as f64) as usize).clamp(1, n);
                let start = (step * (n / 7).max(1)) % (n - len + 1).max(1);
                let (lo, hi) = (start, start + len);
                let in_window = |r: usize, c: usize| r >= lo && r < hi && c >= lo && c < hi;
                let mut window = CooMatrix::new(n, n);
                let mut outside = CooMatrix::with_capacity(n, n, stiffness.nnz());
                for (r, c, v) in stiffness.iter() {
                    if in_window(r, c) {
                        window.push(r, c, v);
                    } else {
                        outside.push(r, c, v);
                    }
                }
                if window.nnz() > 0 {
                    let seed = splitmix64(spec.seed ^ step as u64);
                    apply_lognormal_jitter(&mut window, spec.jitter_sigma_log2, seed);
                    let mut merged = outside;
                    for (r, c, v) in window.iter() {
                        merged.push(r, c, 0.5 * v);
                        merged.push(c, r, 0.5 * v);
                    }
                    merged.compress();
                    stiffness = merged;
                }
            }
            let phase = (0.3 * step as f64).sin();
            let mass = spec.mass_coefficient * (1.0 + spec.drift_amplitude * phase);
            let mut system = stiffness.clone();
            for i in 0..n {
                system.push(i, i, mass);
            }
            let rhs = (0..n)
                .map(|i| {
                    let x = i as f64 / n as f64;
                    1.0 + 0.25
                        * (std::f64::consts::TAU * 3.0 * x + spec.rhs_phase_step * step as f64)
                            .sin()
                })
                .collect();
            steps.push(SolveStep {
                index: step,
                matrix: system.to_csr(),
                rhs,
            });
        }
        steps
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that the chain's steps are the reference's, bit for bit: index,
    /// `row_ptr`, `col_idx`, values and right-hand side.
    fn assert_matches_reference(label: &str, base: CooMatrix, spec: TransientSpec) {
        let expected = reference_chain(base.clone(), &spec);
        let actual: Vec<SolveStep> = TransientChain::new(base, spec).collect();
        assert_eq!(actual.len(), expected.len(), "{label}: step count");
        for (a, e) in actual.iter().zip(&expected) {
            let at = format!("{label}, step {}", e.index);
            assert_eq!(a.index, e.index, "{at}: index");
            assert_eq!(a.matrix.ncols(), e.matrix.ncols(), "{at}: ncols");
            assert_eq!(a.matrix.row_ptr(), e.matrix.row_ptr(), "{at}: row_ptr");
            assert_eq!(a.matrix.col_idx(), e.matrix.col_idx(), "{at}: col_idx");
            assert!(
                bits(a.matrix.values()) == bits(e.matrix.values()),
                "{at}: value bits"
            );
            assert!(bits(&a.rhs) == bits(&e.rhs), "{at}: rhs bits");
        }
    }

    /// The 5-point conduction operator of `examples/heat_equation.rs`: a 100x
    /// conductivity inclusion, face conductivities the mean of their two cells,
    /// and Dirichlet faces on the diagonal.
    fn heat_equation_base(n: usize) -> CooMatrix {
        let conductivity = |i: usize, j: usize| {
            let (x, y) = (i as f64 / n as f64, j as f64 / n as f64);
            if (0.35..0.65).contains(&x) && (0.35..0.65).contains(&y) {
                100.0
            } else {
                1.0
            }
        };
        let mut coo = CooMatrix::new(n * n, n * n);
        for i in 0..n {
            for j in 0..n {
                let (r, k_here) = (i * n + j, conductivity(i, j));
                let mut diag = 0.0;
                for (di, dj) in [(-1, 0), (1, 0), (0, -1), (0, 1)] {
                    let (ii, jj) = (i as isize + di, j as isize + dj);
                    if ii < 0 || jj < 0 || ii as usize >= n || jj as usize >= n {
                        diag += k_here;
                        continue;
                    }
                    let (ii, jj) = (ii as usize, jj as usize);
                    let k_face = 0.5 * (k_here + conductivity(ii, jj));
                    coo.push(r, ii * n + jj, -k_face);
                    diag += k_face;
                }
                coo.push(r, r, diag);
            }
        }
        coo
    }

    /// The chain of `execution_shapes` and the runtime's sequence tests.
    fn shapes_spec(steps: usize, drift: f64, rhs_phase: f64) -> TransientSpec {
        TransientSpec::default()
            .with_steps(steps)
            .with_seed(29)
            .with_drift(drift, 0.25)
            .with_rhs_phase(rhs_phase)
            .with_mass(0.5, 0.0)
    }

    #[test]
    fn the_csr_chain_is_the_coo_chain_bit_for_bit() {
        let small = || fem::poisson_2d(10, 9, 0.2, 13);
        let cases: Vec<(&str, CooMatrix, TransientSpec)> = vec![
            ("module base", base(), spec()),
            (
                "sequence",
                small(),
                TransientSpec::default()
                    .with_steps(6)
                    .with_seed(29)
                    .with_drift(0.02, 0.25)
                    .with_mass(0.5, 0.05),
            ),
            ("refined sequence", small(), shapes_spec(4, 1e-7, 1e-6)),
            ("shapes plain", small(), shapes_spec(3, 0.02, 0.0)),
            ("shapes batch", small(), shapes_spec(2, 0.03, 0.0)),
            ("shapes auto", small(), shapes_spec(3, 0.01, 0.0)),
            (
                "cluster",
                small(),
                TransientSpec::default().with_steps(4).with_seed(29),
            ),
            (
                "warm",
                fem::poisson_2d(13, 11, 0.15, 7),
                TransientSpec::default()
                    .with_steps(12)
                    .with_seed(41)
                    .with_drift(0.03, 0.25)
                    .with_mass(0.6, 0.1),
            ),
            (
                "heat equation",
                heat_equation_base(12),
                TransientSpec::default()
                    .with_steps(12)
                    .with_seed(2023)
                    .with_mass(0.5, 0.0)
                    .with_drift(1e-7, 0.25)
                    .with_rhs_phase(1e-6),
            ),
            (
                "benchmark",
                fem::poisson_2d(96, 96, 0.2, 11),
                TransientSpec::default()
                    .with_steps(20)
                    .with_seed(11)
                    .with_drift(1e-7, 0.25)
                    .with_rhs_phase(1e-6)
                    .with_mass(0.5, 0.0),
            ),
            ("no mass", small(), spec().with_mass(0.0, 0.0)),
            ("no drift", small(), spec().with_drift(0.0, 0.25)),
            ("whole window", small(), spec().with_drift(0.05, 1.0)),
            (
                "dirty",
                small(),
                spec().with_drift(0.3, 1.0).with_mass(0.5, 0.2),
            ),
            ("tiny window", small(), spec().with_drift(0.1, 0.0)),
        ];
        for (label, base, spec) in cases {
            assert_matches_reference(label, base, spec);
        }
    }

    /// The benchmark's full chain over ten seeds.  Slow in a debug build; run
    /// it with `cargo test --release -p refloat-matgen -- --ignored`.
    #[test]
    #[ignore]
    fn the_benchmark_chain_is_the_coo_chain_over_ten_seeds() {
        for seed in 11..=20 {
            assert_matches_reference(
                &format!("seed {seed}"),
                fem::poisson_2d(96, 96, 0.2, seed),
                TransientSpec::default()
                    .with_steps(240)
                    .with_seed(seed)
                    .with_drift(1e-7, 0.25)
                    .with_rhs_phase(1e-6)
                    .with_mass(0.5, 0.0),
            );
        }
    }

    #[test]
    fn an_explicit_zero_leaves_the_structure_where_the_coo_chain_dropped_it_at_the_first_drift() {
        // An explicit zero at a symmetric pair no assembly entry occupies.
        let assembled = fem::poisson_2d(6, 6, 0.2, 3);
        let n = assembled.nrows();
        let mut rows = assembled.row_indices().to_vec();
        let mut cols = assembled.col_indices().to_vec();
        let mut vals = assembled.values().to_vec();
        rows.extend([0, n - 1]);
        cols.extend([n - 1, 0]);
        vals.extend([0.0, 0.0]);
        let base = CooMatrix::from_triplets(n, n, rows, cols, vals).unwrap();
        let spec = spec().with_drift(0.05, 1.0);
        let expected = reference_chain(base.clone(), &spec);
        let actual: Vec<SolveStep> = TransientChain::new(base, spec).collect();
        // Step 0 of the reference still stores the zeros; the same operator
        // without them is step 0 of the chain.
        assert_eq!(expected[0].matrix.nnz(), actual[0].matrix.nnz() + 2);
        let nonzero = |m: &CsrMatrix| -> Vec<(usize, usize, u64)> {
            m.iter()
                .filter(|&(_, _, v)| v != 0.0)
                .map(|(r, c, v)| (r, c, v.to_bits()))
                .collect()
        };
        assert_eq!(nonzero(&actual[0].matrix), nonzero(&expected[0].matrix));
        // From the first drift on the reference has dropped them too.
        for (a, e) in actual.iter().zip(&expected).skip(1) {
            assert_eq!(a.matrix.row_ptr(), e.matrix.row_ptr());
            assert_eq!(a.matrix.col_idx(), e.matrix.col_idx());
            assert_eq!(bits(a.matrix.values()), bits(e.matrix.values()));
        }
    }

    #[test]
    #[should_panic(expected = "must store every diagonal entry")]
    fn a_base_without_a_stored_diagonal_entry_is_refused() {
        let mut base = CooMatrix::new(3, 3);
        for (r, c, v) in [(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (2, 2, 2.0)] {
            base.push(r, c, v);
        }
        let _ = TransientChain::new(base, spec());
    }

    #[test]
    #[should_panic(expected = "must be structurally symmetric")]
    fn a_structurally_unsymmetric_base_is_refused() {
        let mut base = CooMatrix::new(2, 2);
        for (r, c, v) in [(0, 0, 2.0), (0, 1, -1.0), (1, 1, 2.0)] {
            base.push(r, c, v);
        }
        let _ = TransientChain::new(base, spec());
    }

    #[test]
    fn every_step_shares_the_chains_one_structure() {
        let steps: Vec<SolveStep> = TransientChain::new(base(), spec()).collect();
        let first = &steps[0].matrix;
        assert!(steps
            .iter()
            .all(|step| step.matrix.shares_structure_with(first)));
        assert_eq!(first, &base().to_csr().with_values(first.values().to_vec()));
    }

    #[test]
    fn chains_are_bitwise_reproducible() {
        let a: Vec<SolveStep> = TransientChain::new(base(), spec()).collect();
        let b: Vec<SolveStep> = TransientChain::new(base(), spec()).collect();
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.matrix.values(), y.matrix.values());
            assert_eq!(x.matrix.col_idx(), y.matrix.col_idx());
            assert_eq!(x.rhs, y.rhs);
        }
    }

    #[test]
    fn steps_stay_symmetric_and_perturb_locally() {
        let steps: Vec<SolveStep> = TransientChain::new(base(), spec()).collect();
        let mut any_same = 0usize;
        let mut any_diff = 0usize;
        for w in steps.windows(2) {
            assert!(
                w[1].matrix.is_symmetric(0.0),
                "drift must preserve symmetry"
            );
            assert_eq!(w[0].matrix.nnz(), w[1].matrix.nnz(), "structure is stable");
            for ((_, _, a), (_, _, b)) in w[0].matrix.iter().zip(w[1].matrix.iter()) {
                if a.to_bits() == b.to_bits() {
                    any_same += 1;
                } else {
                    any_diff += 1;
                }
            }
        }
        assert!(any_diff > 0, "consecutive steps must differ");
        assert!(
            any_same > any_diff,
            "drift must be local: {any_same} same vs {any_diff} changed"
        );
    }

    #[test]
    fn mass_drift_moves_the_diagonal() {
        let drifting = TransientSpec::default()
            .with_steps(4)
            .with_mass(0.5, 0.2)
            .with_seed(1);
        let steps: Vec<SolveStep> = TransientChain::new(base(), drifting).collect();
        let d0 = steps[0].matrix.diagonal();
        let d1 = steps[1].matrix.diagonal();
        assert!(d0.iter().zip(d1.iter()).any(|(a, b)| a != b));
    }

    #[test]
    fn perturb_symmetric_pairs_is_symmetric_selective_and_deterministic() {
        let a = base().to_csr();
        let full = perturb_symmetric_pairs(&a, 0.1, 1.0, 9);
        let none = perturb_symmetric_pairs(&a, 0.1, 0.0, 9);
        let half = perturb_symmetric_pairs(&a, 0.1, 0.5, 9);
        assert!(full.is_symmetric(0.0));
        assert_eq!(none.values(), a.values());
        assert!(full.values().iter().zip(a.values()).all(|(x, y)| x != y));
        let changed = half
            .values()
            .iter()
            .zip(a.values())
            .filter(|(x, y)| x != y)
            .count();
        assert!(changed > 0 && changed < a.nnz());
        assert_eq!(
            perturb_symmetric_pairs(&a, 0.1, 0.5, 9).values(),
            half.values()
        );
    }
}
