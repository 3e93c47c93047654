//! Random telegraph noise (RTN) — the robustness study of Fig. 10.
//!
//! RTN makes the programmed conductance of a ReRAM cell fluctuate between reads; the
//! paper models it as a multiplicative perturbation with deviation σ (0.1%–25%) applied
//! to the stored matrix values on every use, with error correction disabled.
//! [`NoisyReFloatOperator`] wraps the functional ReFloat operator and perturbs each
//! stored (quantized) matrix value independently on every SpMV.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use refloat_core::ReFloatMatrix;
use refloat_solvers::LinearOperator;

/// A ReFloat operator whose stored values are perturbed by multiplicative RTN noise on
/// every application.
pub struct NoisyReFloatOperator {
    inner: ReFloatMatrix,
    /// The decoded values in block order, copied once at construction: the noise is
    /// drawn per stored value, crossbar by crossbar.
    decoded: Vec<f64>,
    sigma: f64,
    rng: ChaCha8Rng,
}

impl NoisyReFloatOperator {
    /// Wraps a ReFloat matrix with RTN of relative deviation `sigma` (e.g. 0.01 = 1%).
    pub fn new(inner: ReFloatMatrix, sigma: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0, "noise deviation must be non-negative");
        NoisyReFloatOperator {
            decoded: inner.decoded_in_block_order(),
            inner,
            sigma,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The noise deviation σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// A zero-mean, unit-variance deviate — see [`irwin_hall_unit`], which both this
    /// helper and [`apply`](LinearOperator::apply) share so the two cannot drift.
    #[cfg_attr(not(test), allow(dead_code))]
    fn gaussian_like(&mut self) -> f64 {
        irwin_hall_unit(&mut self.rng)
    }
}

/// A zero-mean, unit-variance deviate from the sum of four uniforms (Irwin–Hall,
/// variance 4/12, rescaled by √3) — cheap and close enough to Gaussian for a
/// multiplicative noise model, with support bounded to ±2√3.
///
/// This is the single definition of the deviate: the per-read perturbation in the SpMV
/// loop and the test-facing [`NoisyReFloatOperator::gaussian_like`] both call it, so
/// the sampled distribution can never diverge between the two.
pub(crate) fn irwin_hall_unit(rng: &mut ChaCha8Rng) -> f64 {
    // Four explicit chained adds: same left-to-right order (and bits) as the old
    // iterator sum, without the open-ended `.sum::<f64>()` accumulation pattern.
    let s = rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 2.0;
    s * (3.0f64).sqrt()
}

impl LinearOperator for NoisyReFloatOperator {
    fn nrows(&self) -> usize {
        LinearOperator::nrows(&self.inner)
    }

    fn ncols(&self) -> usize {
        LinearOperator::ncols(&self.inner)
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        let bs = self.inner.config().block_size();
        let sigma = self.sigma;
        // Quantize the input exactly as the noiseless operator would, then accumulate
        // block products with per-read perturbed matrix values.
        let (xq, inner) = self.inner.quantize_input(x);
        for blk in inner.blocks(&self.decoded) {
            let row0 = blk.block_row * bs;
            let col0 = blk.block_col * bs;
            for (ii, jj, v) in blk.iter_decoded() {
                let noise: f64 = if sigma == 0.0 {
                    0.0
                } else {
                    sigma * irwin_hall_unit(&mut self.rng)
                };
                y[row0 + ii as usize] += v * (1.0 + noise) * xq[col0 + jj as usize];
            }
        }
    }

    fn name(&self) -> String {
        format!("{} + RTN σ = {:.3}", self.inner.name(), self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_core::ReFloatConfig;
    use refloat_matgen::{generators, rhs};
    use refloat_solvers::{cg, SolverConfig};
    use refloat_sparse::vecops;

    fn small_refloat() -> ReFloatMatrix {
        let a = generators::laplacian_2d(16, 16, 0.4).to_csr();
        ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8))
    }

    #[test]
    fn zero_noise_matches_the_noiseless_operator() {
        let mut clean = small_refloat();
        let mut noisy = NoisyReFloatOperator::new(small_refloat(), 0.0, 7);
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.01).sin() + 1.0).collect();
        let mut y1 = vec![0.0; 256];
        let mut y2 = vec![0.0; 256];
        clean.apply(&x, &mut y1);
        noisy.apply(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn noise_magnitude_scales_with_sigma() {
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).cos() + 2.0).collect();
        let mut clean = small_refloat();
        let mut y_clean = vec![0.0; 256];
        clean.apply(&x, &mut y_clean);

        let mut err_small = 0.0;
        let mut err_large = 0.0;
        for (sigma, err) in [(0.001, &mut err_small), (0.1, &mut err_large)] {
            let mut noisy = NoisyReFloatOperator::new(small_refloat(), sigma, 42);
            let mut y = vec![0.0; 256];
            noisy.apply(&x, &mut y);
            *err = vecops::rel_err(&y, &y_clean);
        }
        assert!(err_small < err_large);
        assert!(
            err_small < 0.01,
            "0.1% noise should barely perturb: {err_small}"
        );
        assert!(err_large < 0.5, "10% noise stays bounded: {err_large}");
    }

    #[test]
    fn noise_differs_between_applications() {
        // RTN is temporal: two reads of the same operator see different perturbations.
        let mut noisy = NoisyReFloatOperator::new(small_refloat(), 0.05, 3);
        let x = vec![1.0; 256];
        let mut y1 = vec![0.0; 256];
        let mut y2 = vec![0.0; 256];
        noisy.apply(&x, &mut y1);
        noisy.apply(&x, &mut y2);
        assert_ne!(y1, y2);
    }

    #[test]
    fn cg_tolerates_moderate_noise_like_fig10() {
        // Fig. 10: within ~10% noise the solver still converges (with more iterations).
        let a = generators::laplacian_2d(16, 16, 0.4).to_csr();
        let b = rhs::ones(a.nrows());
        let cfg = SolverConfig::relative(1e-8).with_max_iterations(3000);

        let mut clean = small_refloat();
        let r_clean = cg(&mut clean, &b, &cfg);
        assert!(r_clean.converged());

        let mut noisy = NoisyReFloatOperator::new(small_refloat(), 0.01, 11);
        let r_noisy = cg(&mut noisy, &b, &cfg);
        assert!(r_noisy.converged(), "1% RTN should still converge");
        assert!(r_noisy.iterations >= r_clean.iterations);
    }

    #[test]
    fn gaussian_like_deviate_is_roughly_centered() {
        let mut op = NoisyReFloatOperator::new(small_refloat(), 0.1, 5);
        let samples: Vec<f64> = (0..2000).map(|_| op.gaussian_like()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        let variance =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!((variance - 1.0).abs() < 0.2, "variance {variance}");
        assert!(samples
            .iter()
            .all(|s| s.abs() <= 2.0 * 3.0f64.sqrt() + 1e-12));
    }
}
