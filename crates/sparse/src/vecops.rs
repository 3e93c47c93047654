//! Dense vector kernels used by the iterative solvers.
//!
//! The Krylov solvers in `refloat-solvers` (CG, BiCGSTAB — Code 1 of the paper) spend
//! their non-SpMV time in level-1 BLAS style operations.  These are deliberately written
//! over plain slices so they impose no container choice on callers and avoid
//! allocation.  The element-wise loops (`axpy`, `xpby`, …) auto-vectorize; the
//! reductions do not: their order of additions is fixed, because it decides the bits,
//! and a strict-order `f64` sum compiles to scalar multiplies and adds.

/// Leaf size of the pairwise reductions: small enough that the worst-case error of the
/// naive base-case loop stays negligible, large enough that the recursion overhead
/// vanishes.  The leaf loop is a strict left-to-right sum, so it stays scalar.
const PAIRWISE_LEAF: usize = 64;

/// Pairwise (cascade) reduction of `Σ xᵢ·yᵢ` over equal-length slices.
///
/// Naive left-to-right accumulation has an error bound that grows like `O(n·ε)`; the
/// pairwise tree brings that down to `O(log n · ε)`, which keeps residual norms stable
/// at `n ≥ 10⁶` and — because the split points depend only on the slice length — makes
/// the result independent of how callers shard the surrounding computation.
fn pairwise_dot(x: &[f64], y: &[f64]) -> f64 {
    if x.len() <= PAIRWISE_LEAF {
        let mut acc = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            acc += a * b;
        }
        return acc;
    }
    let mid = x.len() / 2;
    let (xl, xr) = x.split_at(mid);
    let (yl, yr) = y.split_at(mid);
    pairwise_dot(xl, yl) + pairwise_dot(xr, yr)
}

/// Dot product `xᵀ y`, accumulated pairwise (error `O(log n · ε)` instead of the
/// naive loop's `O(n · ε)`); the summation order is a pure function of the length, so
/// results are bitwise reproducible and independent of caller-side sharding.
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    pairwise_dot(x, y)
}

/// Pairwise (cascade) reduction of `Σ xᵢ` — same tree shape as [`pairwise_dot`].
fn pairwise_sum(x: &[f64]) -> f64 {
    if x.len() <= PAIRWISE_LEAF {
        let mut acc = 0.0;
        for v in x {
            acc += v;
        }
        return acc;
    }
    let mid = x.len() / 2;
    let (l, r) = x.split_at(mid);
    pairwise_sum(l) + pairwise_sum(r)
}

/// Sum `Σ xᵢ`, accumulated pairwise (error `O(log n · ε)` instead of the naive
/// loop's `O(n · ε)`); the summation order is a pure function of the length, so the
/// result is bitwise reproducible.  This is the sanctioned alternative to
/// `.sum::<f64>()` that the naive-float-accumulation lint points at.
pub fn sum(x: &[f64]) -> f64 {
    pairwise_sum(x)
}

/// Euclidean norm `‖x‖₂` (pairwise accumulation, see [`dot`]).
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← a·x + y` (the classic axpy).
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// `y ← x + b·y` (the "xpby" update used by CG's direction update `p ← r + β p`).
///
/// # Panics
/// Panics if the two slices have different lengths.
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = xi + b * *yi;
    }
}

/// `x ← a·x`.
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// `z ← x - y`, element-wise, writing into `z`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub_into(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch (x vs y)");
    assert_eq!(x.len(), z.len(), "sub_into: length mismatch (x vs z)");
    for ((zi, xi), yi) in z.iter_mut().zip(x.iter()).zip(y.iter()) {
        *zi = xi - yi;
    }
}

/// Sets every element of `x` to zero.
pub fn zero(x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi = 0.0;
    }
}

/// Relative difference `‖x − y‖₂ / max(‖y‖₂, ε)`, a convenience for tests and
/// experiment harnesses comparing a reduced-precision result against a reference.
pub fn rel_err(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_err: length mismatch");
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in x.iter().zip(y.iter()) {
        num += (a - b) * (a - b);
        den += b * b;
    }
    num.sqrt() / den.sqrt().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn dot_matches_manual_sum() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, -5.0, 6.0];
        assert_eq!(dot(&x, &y), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn norm2_of_three_four_is_five() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn xpby_matches_cg_direction_update() {
        // p <- r + beta * p
        let r = [1.0, 1.0];
        let mut p = [3.0, -2.0];
        xpby(&r, 0.5, &mut p);
        assert_eq!(p, [2.5, 0.0]);
    }

    #[test]
    fn scale_and_zero() {
        let mut x = [1.0, -2.0, 4.0];
        scale(0.5, &mut x);
        assert_eq!(x, [0.5, -1.0, 2.0]);
        zero(&mut x);
        assert_eq!(x, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn sub_into_computes_difference() {
        let x = [5.0, 7.0];
        let y = [2.0, 10.0];
        let mut z = [0.0; 2];
        sub_into(&x, &y, &mut z);
        assert_eq!(z, [3.0, -3.0]);
    }

    #[test]
    fn rel_err_is_zero_for_identical_vectors_and_scales() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(rel_err(&x, &x), 0.0);
        let y = [1.1, 2.0, 3.0];
        let e = rel_err(&y, &x);
        assert!(e > 0.0 && e < 0.1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    /// Naive left-to-right accumulation, kept only as the error yardstick for the
    /// pairwise regression below.
    fn naive_dot(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y.iter()).fold(0.0, |acc, (a, b)| acc + a * b)
    }

    /// Dot product `xᵀ y` with Kahan (compensated) accumulation: the fp64 reference
    /// the pairwise regression below compares [`dot`] against.
    fn dot_kahan(x: &[f64], y: &[f64]) -> f64 {
        let mut sum = 0.0;
        let mut comp = 0.0;
        for (a, b) in x.iter().zip(y.iter()) {
            let term = a * b - comp;
            let next = sum + term;
            comp = (next - sum) - term;
            sum = next;
        }
        sum
    }

    #[test]
    fn pairwise_dot_tracks_kahan_reference_at_a_million_elements() {
        // A deterministic, poorly-conditioned sum: magnitudes spread over ~6 decades
        // with sign flips, the regime where naive accumulation visibly drifts.
        let n = 1_000_000;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * (1.0 + (i % 977) as f64 * 1e-3) * 10f64.powi((i % 7) - 3)
            })
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 1.0 + ((i * 31) % 613) as f64 * 1e-4)
            .collect();

        let reference = dot_kahan(&x, &y);
        let pairwise = dot(&x, &y);
        let naive = naive_dot(&x, &y);

        // Scale of the summands (not of the cancelled result) bounds the rounding.
        let magnitude: f64 = x
            .iter()
            .zip(y.iter())
            .map(|(a, b)| (a * b).abs())
            .fold(0.0, |acc, t| acc + t);
        let pairwise_err = (pairwise - reference).abs();
        let naive_err = (naive - reference).abs();
        // O(log n · ε) for the pairwise tree: comfortably under 64·ε·Σ|xᵢyᵢ|.
        assert!(
            pairwise_err <= 64.0 * f64::EPSILON * magnitude,
            "pairwise err {pairwise_err:.3e} vs bound {:.3e}",
            64.0 * f64::EPSILON * magnitude
        );
        // And never worse than the naive loop it replaced.
        assert!(
            pairwise_err <= naive_err.max(f64::EPSILON * magnitude),
            "pairwise err {pairwise_err:.3e} should not exceed naive err {naive_err:.3e}"
        );
    }

    #[test]
    fn norm2_is_stable_at_large_n() {
        // 10⁶ copies of the same value: ‖x‖₂ = |v|·√n exactly in real arithmetic.
        let n = 1_000_000usize;
        let v = 0.1_f64;
        let x = vec![v; n];
        let expected = v * (n as f64).sqrt();
        let got = norm2(&x);
        assert!(
            ((got - expected) / expected).abs() < 1e-13,
            "norm2 drifted: {got} vs {expected}"
        );
    }

    #[test]
    fn dot_result_is_independent_of_leaf_alignment() {
        // The pairwise split points depend only on the total length, so computing the
        // same dot twice (and over an identical copy) must be bitwise identical.
        let x: Vec<f64> = (0..10_000)
            .map(|i| ((i * 37) % 101) as f64 - 50.0)
            .collect();
        let y: Vec<f64> = (0..10_000).map(|i| ((i * 53) % 89) as f64 * 0.25).collect();
        let a = dot(&x, &y);
        let b = dot(&x.clone(), &y.clone());
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
