//! Transient solve chains: a seeded, bitwise-reproducible sequence of
//! closely-related systems, the traffic shape of time-stepping and parameter
//! continuation.
//!
//! Each [`SolveStep`]'s matrix is `K_k + m_k·I`: an evolving stiffness
//! operator plus a lumped-mass/time-step shift.  Between steps the stiffness
//! drifts *locally* — coefficient jitter (via
//! [`crate::generators::apply_lognormal_jitter`]) confined to a contiguous
//! index window that advances with the step, like a moving front in the
//! domain — so most ReFloat blocks of step `k` are bitwise identical to step
//! `k−1`'s.  That locality is exactly what the runtime's incremental
//! re-encoding and encoded-cache keying exploit; a nonzero mass drift (which
//! touches every diagonal entry) provides the dirtier regime for worst-case
//! testing.
//!
//! Reproducibility contract: a chain is a pure function of its base matrix
//! and [`TransientSpec`] — re-running the iterator yields bitwise-identical
//! matrices and right-hand sides, independent of wall clock or thread count.

use refloat_sparse::{CooMatrix, CsrMatrix};

use crate::generators::apply_lognormal_jitter;

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
pub struct TransientChain {
    /// The evolving stiffness operator, kept compressed (row-major, no
    /// duplicates) and exactly symmetric between steps.
    stiffness: CooMatrix,
    spec: TransientSpec,
    step: usize,
}

impl TransientChain {
    /// Starts a chain from a base stiffness operator (typically one of the
    /// [`crate::fem`] assemblies).  The base is compressed once so the entry
    /// order every per-step transform sees is deterministic.
    pub fn new(base: CooMatrix, spec: TransientSpec) -> Self {
        let mut stiffness = base;
        stiffness.compress();
        TransientChain {
            stiffness,
            spec,
            step: 0,
        }
    }

    /// The half-open index window the drift of step `step` is confined to:
    /// `drift_window · n` indices, advancing by a fixed stride per step (a
    /// moving front), as a pure function of the spec and step.
    fn drift_span(&self, step: usize) -> (usize, usize) {
        let n = self.stiffness.nrows();
        let len = ((self.spec.drift_window * n as f64) as usize).clamp(1, n);
        let stride = (n / 7).max(1);
        let start = (step * stride) % (n - len + 1).max(1);
        (start, start + len)
    }

    /// Applies the per-step coefficient drift: entries with *both* indices in
    /// the window are jittered through `apply_lognormal_jitter` (run on the
    /// extracted window submatrix, so the deviate stream is a pure function
    /// of the step seed and the window's entry order) and the result is
    /// re-symmetrized; everything outside the window is untouched —
    /// bit-for-bit.
    fn drift(&mut self, step: usize, sigma_log2: f64) {
        if sigma_log2 == 0.0 {
            return;
        }
        let (lo, hi) = self.drift_span(step);
        let n = self.stiffness.nrows();
        let in_window = |r: usize, c: usize| r >= lo && r < hi && c >= lo && c < hi;
        let mut window = CooMatrix::new(n, n);
        let mut outside = CooMatrix::with_capacity(n, n, self.stiffness.nnz());
        for (r, c, v) in self.stiffness.iter() {
            if in_window(r, c) {
                window.push(r, c, v);
            } else {
                outside.push(r, c, v);
            }
        }
        if window.nnz() == 0 {
            return;
        }
        apply_lognormal_jitter(
            &mut window,
            sigma_log2,
            splitmix64(self.spec.seed ^ step as u64),
        );
        // Entrywise jitter breaks symmetry inside the window; average with the
        // transpose there.  The window is a symmetric square region, so the
        // averaging never leaks outside it.
        let mut merged = outside;
        for (r, c, v) in window.iter() {
            merged.push(r, c, 0.5 * v);
            merged.push(c, r, 0.5 * v);
        }
        merged.compress();
        self.stiffness = merged;
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
        let n = self.stiffness.nrows();
        let phase = (0.3 * step as f64).sin();
        let mass = self.spec.mass_coefficient * (1.0 + self.spec.drift_amplitude * phase);
        let mut system = self.stiffness.clone();
        for i in 0..n {
            system.push(i, i, mass);
        }
        let matrix = system.to_csr();
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
/// the threshold (1.0 = every entry, the all-blocks-dirty worst case).
pub fn perturb_symmetric_pairs(
    a: &CsrMatrix,
    sigma_log2: f64,
    fraction: f64,
    seed: u64,
) -> CsrMatrix {
    let mut out = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz());
    for (r, c, v) in a.iter() {
        let key = splitmix64(seed ^ (((r.min(c) as u64) << 32) | r.max(c) as u64));
        let selected = unit(key) < fraction;
        let v = if selected {
            let s1 = splitmix64(key);
            let s2 = splitmix64(s1);
            let s3 = splitmix64(s2);
            let s4 = splitmix64(s3);
            let u = unit(s1) + unit(s2) + unit(s3) + unit(s4) - 2.0;
            v * (sigma_log2 * u).exp2()
        } else {
            v
        };
        out.push(r, c, v);
    }
    out.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fem;

    fn base() -> CooMatrix {
        fem::poisson_2d(10, 10, 0.3, 7)
    }

    fn spec() -> TransientSpec {
        TransientSpec::default().with_steps(6).with_seed(42)
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
