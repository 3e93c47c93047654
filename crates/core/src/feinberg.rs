//! The Feinberg et al. [ISCA'18] baseline as described in §III.C of the ReFloat paper.
//!
//! That design maps double-precision matrices onto crossbars by truncating the exponent
//! to its low 6 bits (the "64 paddings") while keeping all 52 fraction bits.  Matrix
//! values whose exponents fall outside the 6-bit range are handled by FPUs, so the
//! *matrix* is effectively exact.  The *vector*, however, changes every iteration and
//! the design provides no mechanism to re-align it: vector elements whose exponents fall
//! outside the fixed 64-binade window are misrepresented, which is what makes the
//! solvers diverge on the matrices whose values sit far from 1.0 (§VI.B).
//!
//! [`FeinbergOperator`] models exactly that: an exact FP64 SpMV whose *input vector*
//! first passes through a fixed exponent window anchored at the matrix's mean exponent.
//! Elements above the window wrap modulo the window width (the catastrophic "mod 64"
//! failure); elements below it are too small for the fixed-point grid and flush to zero.

use refloat_solvers::LinearOperator;
use refloat_sparse::CsrMatrix;

use crate::block::optimal_exponent_base;
use crate::scalar::{decompose, pow2};

/// Hardware-format parameters of the Feinberg baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeinbergConfig {
    /// Exponent bits kept for the crossbar mapping (6 in the original design — 64
    /// paddings).
    pub exponent_bits: u32,
    /// Fraction bits kept (52 in the original design, i.e. the fraction is exact).
    pub fraction_bits: u32,
}

impl Default for FeinbergConfig {
    fn default() -> Self {
        FeinbergConfig {
            exponent_bits: 6,
            fraction_bits: 52,
        }
    }
}

impl FeinbergConfig {
    /// Width of the representable exponent window, `2^exponent_bits` binades.
    pub fn window_width(&self) -> i32 {
        1i32 << self.exponent_bits
    }
}

/// Statistics of the vector misrepresentation during a solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeinbergStats {
    /// Vector elements whose exponent exceeded the window and wrapped (garbage values).
    pub wrapped: usize,
    /// Vector elements below the window that were flushed to zero.
    pub flushed: usize,
    /// Total nonzero vector elements processed.
    pub nonzero: usize,
}

/// The Feinberg baseline operator: exact matrix, fixed-window vector conversion.
#[derive(Debug, Clone)]
pub struct FeinbergOperator {
    a: CsrMatrix,
    config: FeinbergConfig,
    /// Bottom of the fixed exponent window (anchored at construction time).
    window_lo: i32,
    /// Top of the fixed exponent window (inclusive).
    window_hi: i32,
    stats: FeinbergStats,
    scratch: Vec<f64>,
}

impl FeinbergOperator {
    /// Wraps a matrix with the default 6-bit-exponent Feinberg behaviour.
    pub fn new(a: CsrMatrix) -> Self {
        Self::with_config(a, FeinbergConfig::default())
    }

    /// Wraps a matrix with an explicit configuration.
    ///
    /// The exponent window is anchored at the matrix's mean element exponent (the same
    /// quantity ReFloat would pick as a base, but chosen *once* for the whole matrix and
    /// never adapted), centred so the window covers
    /// `[center − 2^(e−1), center + 2^(e−1) − 1]`.
    pub fn with_config(a: CsrMatrix, config: FeinbergConfig) -> Self {
        let center = optimal_exponent_base(a.values().iter());
        let half = config.window_width() / 2;
        let scratch = vec![0.0; a.ncols()];
        FeinbergOperator {
            a,
            config,
            window_lo: center - half,
            window_hi: center + half - 1,
            stats: FeinbergStats::default(),
            scratch,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FeinbergConfig {
        &self.config
    }

    /// The fixed exponent window `[lo, hi]` (inclusive) applied to vector elements.
    pub fn window(&self) -> (i32, i32) {
        (self.window_lo, self.window_hi)
    }

    /// Conversion statistics accumulated over all applies so far.
    pub fn stats(&self) -> &FeinbergStats {
        &self.stats
    }

    /// Applies the fixed-window conversion to a single value (exposed for tests and for
    /// the Table I truncation study).
    pub fn convert_value(&mut self, v: f64) -> f64 {
        let Some(d) = decompose(v) else {
            return 0.0;
        };
        self.stats.nonzero += 1;
        if d.exponent > self.window_hi {
            // Overflow: the exponent wraps modulo the window width — the "mod 64"
            // behaviour that corrupts the value.
            self.stats.wrapped += 1;
            let width = self.config.window_width();
            let wrapped = self.window_lo + (d.exponent - self.window_lo).rem_euclid(width);
            let mag = d.fraction * pow2(wrapped);
            if d.negative {
                -mag
            } else {
                mag
            }
        } else if d.exponent < self.window_lo {
            // Underflow: below the fixed-point grid, the value vanishes.
            self.stats.flushed += 1;
            0.0
        } else {
            // In range: 52 fraction bits means the value is carried exactly.
            v
        }
    }
}

impl LinearOperator for FeinbergOperator {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }

    fn ncols(&self) -> usize {
        self.a.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.a.ncols(), "Feinberg apply: x length mismatch");
        let mut buf = std::mem::take(&mut self.scratch);
        for (bi, &xi) in buf.iter_mut().zip(x.iter()) {
            *bi = xi;
        }
        for bi in buf.iter_mut() {
            *bi = self.convert_value(*bi);
        }
        self.a.spmv_into(&buf, y);
        self.scratch = buf;
    }

    fn name(&self) -> String {
        format!(
            "feinberg (e = {}, window [{}, {}])",
            self.config.exponent_bits, self.window_lo, self.window_hi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::{generators, rhs};
    use refloat_solvers::{cg, SolverConfig, StopReason};
    use refloat_sparse::stats::exponent_of;

    #[test]
    fn window_is_centred_on_the_matrix_exponents() {
        let a = generators::mass_matrix_3d(5, 5, 5, 1e-12, 0.3, 1).to_csr();
        let op = FeinbergOperator::new(a.clone());
        let (lo, hi) = op.window();
        assert_eq!(hi - lo + 1, 64);
        let center = optimal_exponent_base(a.values().iter());
        assert!(lo <= center && center <= hi);
        assert!(
            center < -30,
            "crystm-like matrices have tiny entries, center = {center}"
        );
    }

    #[test]
    fn in_window_values_pass_through_exactly() {
        let a = generators::laplacian_2d(8, 8, 0.2).to_csr();
        let mut op = FeinbergOperator::new(a.clone());
        let x: Vec<f64> = (0..64).map(|i| 0.5 + (i as f64) * 0.01).collect();
        let mut y = vec![0.0; 64];
        op.apply(&x, &mut y);
        let exact = a.spmv(&x);
        assert_eq!(y, exact);
        assert_eq!(op.stats().wrapped, 0);
        assert_eq!(op.stats().flushed, 0);
    }

    #[test]
    fn out_of_window_values_wrap_or_flush() {
        let a = generators::mass_matrix_3d(4, 4, 4, 1e-12, 0.3, 1).to_csr();
        let mut op = FeinbergOperator::new(a);
        let (lo, hi) = op.window();
        // A value far above the window wraps to garbage inside the window.
        let big = 2.0f64.powi(hi + 40) * 1.5;
        let wrapped = op.convert_value(big);
        assert_ne!(wrapped, big);
        assert!(exponent_of(wrapped) >= lo && exponent_of(wrapped) <= hi);
        // A value below the window flushes to zero.
        let tiny = 2.0f64.powi(lo - 10);
        assert_eq!(op.convert_value(tiny), 0.0);
        assert_eq!(op.stats().wrapped, 1);
        assert_eq!(op.stats().flushed, 1);
    }

    #[test]
    fn converges_on_unit_scale_matrices_like_the_paper() {
        // minsurfo-like workload: values O(1), so the all-ones RHS and the shrinking
        // residual all stay inside the 64-binade window -> Feinberg converges.
        let a = generators::laplacian_2d(20, 20, 0.2).to_csr();
        let b = rhs::ones(a.nrows());
        let cfg = SolverConfig::relative(1e-8);
        let mut op = FeinbergOperator::new(a.clone());
        let r = cg(&mut op, &b, &cfg);
        assert!(r.converged(), "stop = {:?}", r.stop);

        let mut exact = a.clone();
        let r_exact = cg(&mut exact, &b, &cfg);
        assert_eq!(r.iterations, r_exact.iterations);
    }

    #[test]
    fn diverges_on_tiny_value_matrices_like_the_paper() {
        // crystm-like workload: entries ≈1e-12 anchor the window around exponent -40,
        // so the O(1) right-hand side wraps and CG cannot converge (paper §VI.B).
        let a = generators::mass_matrix_3d(6, 6, 6, 1e-12, 0.5, 2).to_csr();
        let b = rhs::ones(a.nrows());
        let cfg = SolverConfig::relative(1e-8).with_max_iterations(500);
        let mut op = FeinbergOperator::new(a.clone());
        let r = cg(&mut op, &b, &cfg);
        assert!(!r.converged(), "Feinberg should not converge here");

        // The same system is solvable in exact arithmetic.
        let mut exact = a;
        let r_exact = cg(&mut exact, &b, &cfg);
        assert!(r_exact.converged());
    }

    #[test]
    fn breaks_down_on_huge_value_matrices() {
        // shallow_water-like workload: entries ≈1e12 anchor the window high above 1.0,
        // so the all-ones RHS flushes to zero and CG breaks down immediately.
        let a = generators::sphere_ring_3regular(256, 1e12, 0.18).to_csr();
        let b = rhs::ones(a.nrows());
        let cfg = SolverConfig::relative(1e-8).with_max_iterations(100);
        let mut op = FeinbergOperator::new(a);
        let r = cg(&mut op, &b, &cfg);
        assert!(!r.converged());
        assert!(matches!(
            r.stop,
            StopReason::Breakdown(_) | StopReason::MaxIterations
        ));
    }

    #[test]
    fn wider_exponent_window_restores_convergence() {
        // With enough exponent bits the window covers everything and the operator is
        // exact — the "11-bit exponent" column of Table I.
        let a = generators::mass_matrix_3d(5, 5, 5, 1e-12, 0.5, 2).to_csr();
        let b = rhs::ones(a.nrows());
        let cfg = SolverConfig::relative(1e-8).with_max_iterations(2000);
        let mut op = FeinbergOperator::with_config(
            a,
            FeinbergConfig {
                exponent_bits: 11,
                fraction_bits: 52,
            },
        );
        let r = cg(&mut op, &b, &cfg);
        assert!(r.converged());
    }
}
