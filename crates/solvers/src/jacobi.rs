//! Jacobi (diagonal) equilibration.
//!
//! The paper's solvers are unpreconditioned.  For badly scaled systems, the diagonal
//! is used here to rescale the system instead of preconditioning the solve:
//! [`Equilibration`] packages the *symmetric diagonal scaling*
//! `D^{-1/2} A D^{-1/2} y = D^{-1/2} b`, `x = D^{-1/2} y` as one typed unit so the
//! matrix, right-hand side and solution can never be scaled against different
//! diagonals (the old free-function API took a raw `diag` slice that was easy to
//! confuse with an *inverse* diagonal, silently producing a wrongly scaled system).

use refloat_sparse::CsrMatrix;

/// A symmetric Jacobi equilibration `A → D^{-1/2} A D^{-1/2}` captured as one object.
///
/// Built once from the matrix ([`Equilibration::of`]), it owns the `D^{-1/2}` weights
/// and exposes every transformation of the equilibrated solve:
///
/// ```text
///   Ã = D^{-1/2} A D^{-1/2}          (scale_matrix)
///   b̃ = D^{-1/2} b                   (scale_rhs)
///   solve Ã y = b̃
///   x = D^{-1/2} y                   (unscale_solution)
/// ```
///
/// so `A x = b` round-trips exactly.  Rows with a non-positive (or missing) diagonal
/// keep a unit weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibration {
    /// The per-row weights `d_i^{-1/2}` (1.0 where the diagonal is non-positive).
    inv_sqrt_diag: Vec<f64>,
}

impl Equilibration {
    /// Builds the equilibration from the diagonal of `a`.
    pub fn of(a: &CsrMatrix) -> Self {
        Equilibration {
            inv_sqrt_diag: a
                .diagonal()
                .iter()
                .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 1.0 })
                .collect(),
        }
    }

    /// Number of rows the equilibration was built for.
    pub fn len(&self) -> usize {
        self.inv_sqrt_diag.len()
    }

    /// Whether the equilibration is empty (zero-row matrix).
    pub fn is_empty(&self) -> bool {
        self.inv_sqrt_diag.is_empty()
    }

    /// The `D^{-1/2}` weights.
    pub fn weights(&self) -> &[f64] {
        &self.inv_sqrt_diag
    }

    /// Computes the symmetrically scaled matrix `Ã = D^{-1/2} A D^{-1/2}`.
    ///
    /// The result has a unit diagonal (wherever `A`'s diagonal was positive), which
    /// concentrates the exponent range of the entries — an alternative way to help
    /// fixed-window formats that we compare against ReFloat in the ablation benchmarks.
    ///
    /// # Panics
    /// Panics if `a` has a different row count than the matrix this equilibration was
    /// built from.
    pub fn scale_matrix(&self, a: &CsrMatrix) -> CsrMatrix {
        assert_eq!(
            a.nrows(),
            self.len(),
            "Equilibration: matrix has {} rows but the weights cover {}",
            a.nrows(),
            self.len()
        );
        let coo = a.to_coo();
        let rows = coo.row_indices().to_vec();
        let cols = coo.col_indices().to_vec();
        let scale = &self.inv_sqrt_diag;
        let vals: Vec<f64> = coo
            .iter()
            .map(|(r, c, v)| v * scale[r] * scale[c])
            .collect();
        refloat_sparse::CooMatrix::from_triplets(a.nrows(), a.ncols(), rows, cols, vals)
            .expect("same structure remains valid")
            .to_csr()
    }

    /// Scales a right-hand side: `b̃ = D^{-1/2} b`.
    ///
    /// # Panics
    /// Panics if `b.len()` disagrees with the equilibration.
    pub fn scale_rhs(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(
            b.len(),
            self.len(),
            "Equilibration: rhs has {} entries but the weights cover {}",
            b.len(),
            self.len()
        );
        b.iter()
            .zip(self.inv_sqrt_diag.iter())
            .map(|(&bi, &wi)| bi * wi)
            .collect()
    }

    /// Recovers the solution of the original system from the equilibrated one:
    /// `x = D^{-1/2} y` (since `Ã y = b̃` with `Ã = D^{-1/2} A D^{-1/2}` means
    /// `A (D^{-1/2} y) = b`).
    ///
    /// # Panics
    /// Panics if `y.len()` disagrees with the equilibration.
    pub fn unscale_solution(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(
            y.len(),
            self.len(),
            "Equilibration: solution has {} entries but the weights cover {}",
            y.len(),
            self.len()
        );
        y.iter()
            .zip(self.inv_sqrt_diag.iter())
            .map(|(&yi, &wi)| yi * wi)
            .collect()
    }
}

/// Computes the symmetrically scaled matrix `D^{-1/2} A D^{-1/2}` (Jacobi
/// equilibration) in one call; use [`Equilibration`] when the right-hand side and
/// solution must be transformed consistently as well.
pub fn symmetric_diagonal_scaling(a: &CsrMatrix) -> CsrMatrix {
    Equilibration::of(a).scale_matrix(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use crate::result::SolverConfig;
    use refloat_matgen::generators;
    use refloat_sparse::vecops;

    #[test]
    fn symmetric_scaling_produces_unit_diagonal() {
        let a = generators::mass_matrix_3d(4, 4, 4, 1e-12, 0.5, 3).to_csr();
        let scaled = symmetric_diagonal_scaling(&a);
        for d in scaled.diagonal() {
            assert!((d - 1.0).abs() < 1e-12, "diagonal entry {d}");
        }
        assert!(scaled.is_symmetric(1e-12));
        assert_eq!(scaled.nnz(), a.nnz());
    }

    #[test]
    fn scale_rhs_applies_the_inverse_sqrt_diagonal() {
        // Diagonal entries 4 and 9 → weights 1/2 and 1/3.  The old free function took
        // a raw `diag` slice here; the typed struct owns the weights so the rhs can no
        // longer be scaled against the wrong (e.g. already-inverted) diagonal.
        let mut coo = refloat_sparse::CooMatrix::new(2, 2);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, 9.0);
        let eq = Equilibration::of(&coo.to_csr());
        assert_eq!(eq.scale_rhs(&[4.0, 9.0]), vec![2.0, 3.0]);
        assert_eq!(eq.weights(), &[0.5, 1.0 / 3.0]);
        assert_eq!(eq.len(), 2);
        assert!(!eq.is_empty());
    }

    #[test]
    fn equilibrated_solve_then_unscale_matches_the_direct_solve() {
        // Regression for the scale_rhs footgun: a badly scaled SPD matrix (diagonal
        // spanning ~6 orders of magnitude) solved directly must match
        // equilibrate → solve → unscale to solver accuracy.
        let a = generators::mass_matrix_3d(4, 4, 4, 1e-6, 0.5, 9).to_csr();
        let b: Vec<f64> = (0..a.nrows())
            .map(|i| 1.0 + (i % 7) as f64 * 0.25)
            .collect();
        let cfg = SolverConfig::relative(1e-12).with_trace(false);

        let mut direct_op = a.clone();
        let direct = cg(&mut direct_op, &b, &cfg);
        assert!(direct.converged());

        let eq = Equilibration::of(&a);
        let mut scaled_op = eq.scale_matrix(&a);
        let scaled_rhs = eq.scale_rhs(&b);
        let scaled = cg(&mut scaled_op, &scaled_rhs, &cfg);
        assert!(scaled.converged());
        let x = eq.unscale_solution(&scaled.x);

        let rel = vecops::rel_err(&x, &direct.x);
        assert!(rel < 1e-9, "equilibrated round-trip drifted: rel err {rel}");

        // And the recovered x solves the *original* system.
        let ax = a.spmv(&x);
        let mut r = vec![0.0; b.len()];
        vecops::sub_into(&b, &ax, &mut r);
        assert!(vecops::norm2(&r) / vecops::norm2(&b) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "weights cover")]
    fn mismatched_rhs_length_is_rejected() {
        let a = generators::logspace_diagonal(4, 1.0, 2.0).to_csr();
        let _ = Equilibration::of(&a).scale_rhs(&[1.0, 2.0]);
    }
}
