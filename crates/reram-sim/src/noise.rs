//! Random telegraph noise (RTN) — the robustness study of Fig. 10.
//!
//! RTN makes the programmed conductance of a ReRAM cell fluctuate between reads; the
//! paper models it as a multiplicative perturbation with deviation σ (0.1%–25%) applied
//! to the stored matrix values on every use, with error correction disabled.
//! [`NoisyReFloatOperator`] wraps the functional ReFloat operator and perturbs each
//! stored (quantized) matrix value independently on every SpMV.
//!
//! A draw is keyed, not streamed: the deviate of one value on one read is a pure
//! function of the seed, the read's index and the value's index in the encoding's row
//! order (one hash, [`crate::fault`]'s sub-stream key), so it does not depend on the
//! order the values are visited in.  The SpMV is a row loop over that row order, each
//! row's terms added in ascending column order from zero — the additions of
//! [`ReFloatMatrix::accumulate`], so at σ = 0 the product is its product, bit for bit.

use crate::fault::mix;
use refloat_core::ReFloatMatrix;
use refloat_solvers::LinearOperator;

/// A ReFloat operator whose stored values are perturbed by multiplicative RTN noise on
/// every application.
pub struct NoisyReFloatOperator {
    inner: ReFloatMatrix,
    sigma: f64,
    seed: u64,
    /// The index of the next read: how many applies came before it.
    reads: u64,
}

impl NoisyReFloatOperator {
    /// Wraps a ReFloat matrix with RTN of relative deviation `sigma` (e.g. 0.01 = 1%).
    pub fn new(inner: ReFloatMatrix, sigma: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0, "noise deviation must be non-negative");
        NoisyReFloatOperator {
            inner,
            sigma,
            seed,
            reads: 0,
        }
    }
}

/// A zero-mean, unit-variance deviate from the sum of four uniforms on `[0, 1)`
/// (Irwin–Hall, variance 4/12, rescaled by √3) — cheap and close enough to Gaussian for
/// a multiplicative noise model, with support bounded to ±2√3.
pub(crate) fn irwin_hall(u: [f64; 4]) -> f64 {
    (u[0] + u[1] + u[2] + u[3] - 2.0) * (3.0f64).sqrt()
}

/// The unit deviate of the stored value at row-order index `k` on read `read`: one
/// 64-bit key cut into four 16-bit uniforms, each at the centre of its step.
fn deviate(seed: u64, read: u64, k: usize) -> f64 {
    let key = mix(seed, &[read, k as u64]);
    let uniform = |i: u32| (f64::from((key >> (16 * i)) as u16) + 0.5) / 65536.0;
    irwin_hall([uniform(0), uniform(1), uniform(2), uniform(3)])
}

impl LinearOperator for NoisyReFloatOperator {
    fn nrows(&self) -> usize {
        LinearOperator::nrows(&self.inner)
    }

    fn ncols(&self) -> usize {
        LinearOperator::ncols(&self.inner)
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        let (sigma, seed, read) = (self.sigma, self.seed, self.reads);
        self.reads += 1;
        // Quantize the input exactly as the noiseless operator would, then sum every
        // row with per-read perturbed matrix values.
        let (xq, inner) = self.inner.quantize_input(x);
        let layout = inner.layout();
        let col_idx = layout.col_idx();
        assert_eq!(y.len(), layout.nrows(), "noisy spmv: y length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            inner.visit_decoded_row(r, |k, decoded| {
                let v = decoded * (1.0 + sigma * deviate(seed, read, k));
                acc += v * xq[col_idx[k] as usize];
            });
            *yr = acc;
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
    use refloat_sparse::BlockedMatrix;

    fn small_refloat() -> ReFloatMatrix {
        let a = generators::laplacian_2d(16, 16, 0.4).to_csr();
        ReFloatMatrix::from_csr(&a, ReFloatConfig::new(4, 3, 8, 3, 8))
    }

    fn bits(y: &[f64]) -> Vec<u64> {
        y.iter().map(|v| v.to_bits()).collect()
    }

    /// Read `read` of a σ, `seed` operator over `m`, walked block by block as the
    /// operator once did: the decoded values blocked, and each block's perturbed
    /// products scattered into `y`, every value's deviate keyed by its row-order index
    /// (blocked beside them).
    fn block_order_apply(
        m: &mut ReFloatMatrix,
        (sigma, seed, read): (f64, u64, u64),
        x: &[f64],
    ) -> Vec<f64> {
        let bs = m.config().block_size();
        let (xq, m) = m.quantize_input(x);
        let layout = m.layout();
        let row_order: Vec<f64> = (0..m.nnz()).map(|k| k as f64).collect();
        let keys = BlockedMatrix::over(layout, &row_order);
        let mut y = vec![0.0; layout.nrows()];
        let mut keys = keys.values().iter().map(|&k| k as usize);
        for blk in BlockedMatrix::over(layout, &m.decoded()).blocks() {
            let (row0, col0) = (blk.block_row * bs, blk.block_col * bs);
            for (ii, jj, v) in blk.iter() {
                let k = keys.next().unwrap();
                let v = v * (1.0 + sigma * deviate(seed, read, k));
                y[row0 + ii as usize] += v * xq[col0 + jj as usize];
            }
        }
        y
    }

    #[test]
    fn zero_noise_matches_the_noiseless_operator() {
        let mut clean = small_refloat();
        let mut noisy = NoisyReFloatOperator::new(small_refloat(), 0.0, 7);
        for k in 0..3 {
            let x: Vec<f64> = (0..256)
                .map(|i| (i as f64 * 0.01 * k as f64).sin() + 1.0)
                .collect();
            let mut y1 = vec![0.0; 256];
            let mut y2 = vec![f64::NAN; 256];
            clean.apply(&x, &mut y1);
            noisy.apply(&x, &mut y2);
            assert_eq!(bits(&y1), bits(&y2), "read {k}");
        }
    }

    #[test]
    fn the_row_loop_is_the_block_order_walk_of_the_same_draws_bit_for_bit() {
        // 23 · 23 rows: partial last block row and column at b = 3; a scattered graph.
        // The stencils keep their values by diagonal, the graph in row order.
        let shapes = [
            (generators::laplacian_2d(16, 16, 0.4).to_csr(), 4, true),
            (generators::laplacian_2d(23, 23, 0.3).to_csr(), 3, true),
            (
                generators::random_spd_graph(300, 5, 1.4, 1.0, 7).to_csr(),
                5,
                false,
            ),
        ];
        for (a, b, by_diagonal) in shapes {
            let m = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(b, 3, 8, 3, 8));
            assert_eq!(m.layout().value_order().offsets().is_some(), by_diagonal);
            let (sigma, seed) = (0.1, 9);
            let mut noisy = NoisyReFloatOperator::new(m.clone(), sigma, seed);
            let mut reference = m;
            for read in 0..3 {
                let x = rhs::krylov_like(a.ncols(), read);
                let mut got = vec![f64::NAN; a.nrows()];
                noisy.apply(&x, &mut got);
                let want = block_order_apply(&mut reference, (sigma, seed, read), &x);
                assert_eq!(bits(&got), bits(&want), "b = {b}, read {read}");
            }
        }
    }

    #[test]
    fn one_seed_gives_the_same_bits_on_every_operator() {
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).cos() + 2.0).collect();
        let mut first = NoisyReFloatOperator::new(small_refloat(), 0.05, 17);
        let mut second = NoisyReFloatOperator::new(small_refloat(), 0.05, 17);
        for read in 0..3 {
            let (mut y1, mut y2) = (vec![0.0; 256], vec![0.0; 256]);
            first.apply(&x, &mut y1);
            second.apply(&x, &mut y2);
            assert_eq!(bits(&y1), bits(&y2), "read {read}");
        }
    }

    #[test]
    fn noise_magnitude_scales_with_sigma() {
        // One seed draws the same deviates at every σ, so the perturbation `y − y_clean`
        // is linear in σ up to rounding, and each row's stays inside the deviate's
        // support: |y_r − y_clean_r| ≤ 2√3 · σ · Σ |v · xq|.
        let x: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).cos() + 2.0).collect();
        let mut clean = small_refloat();
        let mut y_clean = vec![0.0; 256];
        clean.apply(&x, &mut y_clean);
        let (xq, m) = clean.quantize_input(&x);
        let (row_ptr, col_idx, decoded) = (m.layout().row_ptr(), m.layout().col_idx(), m.decoded());
        let magnitude: Vec<f64> = row_ptr
            .windows(2)
            .map(|bounds| {
                let row = bounds[0] as usize..bounds[1] as usize;
                let terms = decoded[row.clone()].iter().zip(&col_idx[row]);
                terms.map(|(v, &c)| (v * xq[c as usize]).abs()).sum()
            })
            .collect();
        for seed in 0..20 {
            let [small, large] = [0.001, 0.1].map(|sigma| {
                let mut noisy = NoisyReFloatOperator::new(small_refloat(), sigma, seed);
                let mut y = vec![0.0; 256];
                noisy.apply(&x, &mut y);
                let delta: Vec<f64> = y.iter().zip(&y_clean).map(|(u, v)| u - v).collect();
                let support = 2.0 * 3.0f64.sqrt() * sigma;
                for (r, (d, s)) in delta.iter().zip(&magnitude).enumerate() {
                    assert!(
                        d.abs() <= (support + 1e-12) * s,
                        "seed {seed}, σ {sigma}, row {r}"
                    );
                }
                delta
            });
            assert!(large.iter().any(|&d| d != 0.0), "seed {seed}: no noise");
            for (r, ((s, l), m)) in small.iter().zip(&large).zip(&magnitude).enumerate() {
                let off = (l - 100.0 * s).abs();
                assert!(off <= 1e-10 * m, "seed {seed}, row {r}: {l} vs 100 · {s}");
            }
        }
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
        let keys = (0..2).flat_map(|read| (0..1000).map(move |k| (read, k)));
        let samples: Vec<f64> = keys.map(|(read, k)| deviate(5, read, k)).collect();
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
