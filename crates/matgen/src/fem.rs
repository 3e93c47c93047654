//! Structured-mesh finite-element assembly: 2D Poisson with Q1 (bilinear)
//! elements.
//!
//! The operator is assembled the classical way — a per-element stiffness
//! matrix from a tensorized 2-point Gauss quadrature over the reference
//! element, scattered into the global matrix — with a *seeded lognormal
//! conductivity field* so the exponent spread inside ReFloat blocks is
//! realistic rather than uniform.  Dirichlet boundaries are imposed by
//! symmetric elimination (boundary nodes are simply not unknowns), which keeps
//! the assembled operator symmetric positive definite.
//!
//! It is the base operator of the transient chains in [`crate::transient`]: a
//! time-stepping run perturbs the matrix a little per step, which is exactly
//! the traffic shape incremental re-encoding and warm-started sequences in the
//! runtime exploit.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use refloat_sparse::CooMatrix;

use crate::generators::jitter_values;

/// The 1D 2-point Gauss rule on `[-1, 1]`: nodes `±1/√3`, both weights 1.
/// Tensorized per axis, it integrates Q1 element stiffness entries exactly.
const GAUSS_1D: [f64; 2] = [-0.577_350_269_189_625_7, 0.577_350_269_189_625_7];

/// A seeded per-element lognormal field `2^(σ·u)`: the jitter of
/// [`crate::generators::apply_lognormal_jitter`] applied to a unit field, so
/// both draw their deviates through one body.  `σ = 0` gives the exactly-unit
/// field.
fn coefficient_field(elements: usize, sigma_log2: f64, seed: u64) -> Vec<f64> {
    let mut field = vec![1.0; elements];
    jitter_values(&mut field, sigma_log2, &mut ChaCha8Rng::seed_from_u64(seed));
    field
}

/// The 4×4 Q1 quad Laplace element stiffness `∫ ∇Nₐ·∇N_b` on an `hx × hy`
/// element, by 2×2 Gauss quadrature.  Exactly symmetric: entry `(a, b)` and
/// `(b, a)` are the same floating-point expression up to commuted products.
fn quad_laplace_element(hx: f64, hy: f64) -> [[f64; 4]; 4] {
    // Local node order: (-1,-1), (1,-1), (1,1), (-1,1).
    let xi_n = [-1.0, 1.0, 1.0, -1.0];
    let eta_n = [-1.0, -1.0, 1.0, 1.0];
    let det_j = hx * hy / 4.0;
    let mut k = [[0.0; 4]; 4];
    for &xi in &GAUSS_1D {
        for &eta in &GAUSS_1D {
            let mut g = [[0.0; 2]; 4];
            for a in 0..4 {
                let dn_dxi = 0.25 * xi_n[a] * (1.0 + eta_n[a] * eta);
                let dn_deta = 0.25 * eta_n[a] * (1.0 + xi_n[a] * xi);
                g[a] = [dn_dxi * 2.0 / hx, dn_deta * 2.0 / hy];
            }
            for a in 0..4 {
                for b in 0..4 {
                    k[a][b] += det_j * (g[a][0] * g[b][0] + g[a][1] * g[b][1]);
                }
            }
        }
    }
    k
}

/// Compresses an upper-triangle (`r ≤ c`) assembly and mirrors it across the
/// diagonal.  Element matrices here are exactly symmetric, so assembling one
/// triangle and mirroring yields the same operator as a full assembly — but
/// with *bitwise* symmetry guaranteed regardless of duplicate-summation
/// order (the COO compressor's sort is unstable).
fn mirror_upper(mut upper: CooMatrix) -> CooMatrix {
    upper.compress();
    let mut full = CooMatrix::with_capacity(upper.nrows(), upper.ncols(), 2 * upper.nnz());
    for (r, c, v) in upper.iter() {
        full.push(r, c, v);
        if r != c {
            full.push(c, r, v);
        }
    }
    full
}

/// Assembles the 2D Poisson operator `-∇·(κ ∇u)` on an `nx × ny` Q1 quad mesh
/// over the unit square, with a seeded lognormal per-element conductivity
/// `κ_e = 2^(σ·u)` and homogeneous Dirichlet boundaries (eliminated, so the
/// unknowns are the `(nx−1)(ny−1)` interior nodes).  SPD and weakly
/// diagonally dominant; deterministic per `(nx, ny, sigma_log2, seed)`.
///
/// # Panics
/// Panics when either axis has fewer than 2 elements (no interior nodes).
pub fn poisson_2d(nx: usize, ny: usize, sigma_log2: f64, seed: u64) -> CooMatrix {
    assert!(nx >= 2 && ny >= 2, "need at least 2 elements per axis");
    let ke = quad_laplace_element(1.0 / nx as f64, 1.0 / ny as f64);
    let kappa = coefficient_field(nx * ny, sigma_log2, seed);
    let n = (nx - 1) * (ny - 1);
    let mut a = CooMatrix::with_capacity(n, n, 16 * nx * ny);
    let node = |i: usize, j: usize| -> Option<usize> {
        (i >= 1 && i < nx && j >= 1 && j < ny).then(|| (i - 1) * (ny - 1) + (j - 1))
    };
    for ei in 0..nx {
        for ej in 0..ny {
            let coeff = kappa[ei * ny + ej];
            let nodes = [
                node(ei, ej),
                node(ei + 1, ej),
                node(ei + 1, ej + 1),
                node(ei, ej + 1),
            ];
            for (la, row) in nodes.iter().enumerate() {
                let Some(r) = *row else { continue };
                for (lb, col) in nodes.iter().enumerate() {
                    let Some(c) = *col else { continue };
                    if r <= c {
                        a.push(r, c, coeff * ke[la][lb]);
                    }
                }
            }
        }
    }
    mirror_upper(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_sparse::CsrMatrix;

    fn is_spd_by_gershgorin(a: &CsrMatrix) -> bool {
        (0..a.nrows()).all(|r| {
            let (cols, vals) = a.row(r);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if c as usize == r {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            diag > 0.0 && diag >= off - 1e-12 * diag.abs()
        })
    }

    #[test]
    fn poisson_2d_is_symmetric_spd_and_right_sized() {
        let a = poisson_2d(12, 10, 0.3, 7).to_csr();
        assert_eq!(a.nrows(), 11 * 9);
        assert!(a.is_symmetric(0.0), "exactly symmetric by construction");
        assert!(is_spd_by_gershgorin(&a));
        // Interior nodes couple to their full 9-point Q1 neighborhood.
        assert!(a.nnz() > 9 * (11 * 9) / 2);
    }

    #[test]
    fn poisson_2d_annihilates_constants_away_from_the_boundary() {
        // With σ = 0 the operator is a pure Laplacian: rows of nodes whose whole
        // Q1 neighborhood is interior must sum to ~0 (constants are in the
        // pre-elimination kernel).
        let (nx, ny) = (8, 8);
        let a = poisson_2d(nx, ny, 0.0, 1).to_csr();
        let ones = vec![1.0; a.nrows()];
        let y = a.spmv(&ones);
        for i in 2..nx - 2 {
            for j in 2..ny - 2 {
                let r = (i - 1) * (ny - 1) + (j - 1);
                assert!(y[r].abs() < 1e-12, "row {r} sums to {}", y[r]);
            }
        }
    }

    #[test]
    fn assemblies_are_deterministic_per_seed_and_vary_across_seeds() {
        let a = poisson_2d(9, 9, 0.4, 5).to_csr();
        let b = poisson_2d(9, 9, 0.4, 5).to_csr();
        let c = poisson_2d(9, 9, 0.4, 6).to_csr();
        assert_eq!(a.values(), b.values());
        assert_ne!(a.values(), c.values());
        // σ = 0 collapses the coefficient field: seed must not matter.
        let u = poisson_2d(9, 9, 0.0, 5).to_csr();
        let v = poisson_2d(9, 9, 0.0, 6).to_csr();
        assert_eq!(u.values(), v.values());
    }
}
