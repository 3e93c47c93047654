//! Right-hand-side vectors for the solver experiments.
//!
//! The paper initializes the solution to the all-zero vector and iterates until the
//! residual 2-norm drops below 1e-8 (§VI.A).  The right-hand side is not specified; we
//! follow the common SuiteSparse benchmarking convention of `b = A·x⋆` with a known
//! synthetic solution `x⋆`, and also provide the all-ones vector used by many solver
//! papers.  Both are deterministic so experiments are reproducible.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use refloat_sparse::CsrMatrix;

/// The all-ones right-hand side of length `n`.
pub fn ones(n: usize) -> Vec<f64> {
    vec![1.0; n]
}

/// A deterministic pseudo-random vector with entries uniform in `[-1, 1]`.
pub fn random_uniform(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect()
}

/// A smooth deterministic vector (`sin` profile), representative of the discretized PDE
/// solutions the workloads come from.
pub fn smooth(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * std::f64::consts::PI / n.max(1) as f64).sin() + 0.5)
        .collect()
}

/// A deterministic vector with the statistics of a Krylov iterate part-way through a
/// solve: mixed sign, magnitudes spread log-uniformly over a dozen binades.  This is
/// what the vector converter sees inside a solver, and it costs a branchy converter
/// several times what a smooth positive profile does — benchmark conversion on this.
pub fn krylov_like(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(-1.0..=1.0) * rng.gen_range(-6.0..=6.0f64).exp2())
        .collect()
}

/// Builds `b = A·x⋆` for a known solution `x⋆`, returning `(b, x⋆)`.
///
/// Solving with this right-hand side lets experiments report both the residual norm and
/// the true error `‖x − x⋆‖`.
pub fn from_known_solution(a: &CsrMatrix, x_star: Vec<f64>) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        a.ncols(),
        x_star.len(),
        "rhs: solution length must match matrix"
    );
    let b = a.spmv(&x_star);
    (b, x_star)
}

/// The default right-hand side used by the experiment harness: `b = A·x⋆` with a smooth
/// `x⋆` of unit scale.  Returns `(b, x⋆)`.
pub fn default_rhs(a: &CsrMatrix) -> (Vec<f64>, Vec<f64>) {
    from_known_solution(a, smooth(a.ncols()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn krylov_like_is_seeded_mixed_sign_and_spans_many_binades() {
        let x = krylov_like(4096, 9);
        assert_eq!(x, krylov_like(4096, 9));
        assert_ne!(x, krylov_like(4096, 10));
        let negative = x.iter().filter(|v| **v < 0.0).count();
        assert!((1500..2600).contains(&negative), "{negative} negative");
        let magnitudes = x.iter().map(|v| v.abs()).filter(|m| *m > 0.0);
        let (lo, hi) = magnitudes.fold((f64::MAX, 0.0f64), |(lo, hi), m| (lo.min(m), hi.max(m)));
        assert!(hi / lo > 1024.0, "spans only {lo:e}..{hi:e}");
    }

    #[test]
    fn ones_and_smooth_have_requested_length() {
        assert_eq!(ones(5), vec![1.0; 5]);
        assert_eq!(smooth(17).len(), 17);
        assert!(smooth(17).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn random_uniform_is_deterministic_and_bounded() {
        let a = random_uniform(100, 3);
        let b = random_uniform(100, 3);
        let c = random_uniform(100, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn from_known_solution_reproduces_b() {
        let a = generators::laplacian_2d(8, 8, 0.5).to_csr();
        let (b, x_star) = default_rhs(&a);
        let b2 = a.spmv(&x_star);
        assert_eq!(b, b2);
        assert_eq!(b.len(), a.nrows());
    }
}
