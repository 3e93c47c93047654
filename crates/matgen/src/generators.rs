//! Parametric sparse-matrix generators.
//!
//! Each generator returns a [`CooMatrix`]; the Table V analogues in
//! [`crate::workloads`] are thin wrappers that pick parameters.  All generators that use
//! randomness take an explicit seed and use `ChaCha8Rng`, so every experiment in the
//! bench harness is reproducible bit-for-bit.

use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use refloat_sparse::CooMatrix;

/// 2D Poisson 5-point stencil on an `nx × ny` grid with Dirichlet boundary and an
/// additional diagonal shift `shift ≥ 0` (shift > 0 improves the condition number,
/// mimicking the reaction term of the minimal-surface / shifted-Laplace problems).
///
/// The matrix is symmetric positive definite for `shift ≥ 0`.
pub fn laplacian_2d(nx: usize, ny: usize, shift: f64) -> CooMatrix {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut a = CooMatrix::with_capacity(n, n, 5 * n);
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            a.push(r, r, 4.0 + shift);
            if i + 1 < nx {
                a.push(r, idx(i + 1, j), -1.0);
                a.push(idx(i + 1, j), r, -1.0);
            }
            if j + 1 < ny {
                a.push(r, idx(i, j + 1), -1.0);
                a.push(idx(i, j + 1), r, -1.0);
            }
        }
    }
    a
}

/// Anisotropic 9-point stencil on an `nx × ny` grid: the discrete operator
/// `-∂x(εx ∂x) - ∂y(εy ∂y)` with a compact 9-point stencil plus diagonal shift.
///
/// Strong anisotropy (`epsy ≪ epsx`) drives the condition number up, which is how the
/// `gridgena` analogue reaches κ ≈ 5.7e5.  SPD for `epsx, epsy > 0`, `shift ≥ 0`.
pub fn anisotropic_9pt(nx: usize, ny: usize, epsx: f64, epsy: f64, shift: f64) -> CooMatrix {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut a = CooMatrix::with_capacity(n, n, 9 * n);
    // Bilinear (Q1) finite-element stiffness stencil for -εx ∂xx - εy ∂yy on a uniform
    // grid; for εx = εy = ε it reduces to ε/3 · [[-1,-1,-1],[-1,8,-1],[-1,-1,-1]].
    let cx = epsx;
    let cy = epsy;
    let diag = (4.0 / 3.0) * (cx + cy) + shift;
    let edge_x = (-2.0 * cx + cy) / 3.0; // horizontal neighbour (x ± 1)
    let edge_y = (cx - 2.0 * cy) / 3.0; // vertical neighbour (y ± 1)
    let corner = -(cx + cy) / 6.0; // diagonal neighbour
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            a.push(r, r, diag);
            let mut couple = |ii: isize, jj: isize, v: f64| {
                if ii >= 0 && jj >= 0 && (ii as usize) < nx && (jj as usize) < ny {
                    a.push(r, idx(ii as usize, jj as usize), v);
                }
            };
            couple(i as isize - 1, j as isize, edge_x);
            couple(i as isize + 1, j as isize, edge_x);
            couple(i as isize, j as isize - 1, edge_y);
            couple(i as isize, j as isize + 1, edge_y);
            couple(i as isize - 1, j as isize - 1, corner);
            couple(i as isize - 1, j as isize + 1, corner);
            couple(i as isize + 1, j as isize - 1, corner);
            couple(i as isize + 1, j as isize + 1, corner);
        }
    }
    a
}

/// 3D tensor-product *mass* matrix on an `nx × ny × nz` grid (27-point stencil with
/// lumped-consistent weights `[1, 3, 1]/5` in each direction), scaled by `scale` and
/// with a per-node random density in `[1, 1 + jitter]`.
///
/// This mimics the consistent FEM mass matrices of the `crystm*` and `qa8fm` workloads:
/// strictly diagonally dominant, SPD, condition number of a few hundred, and — through
/// `scale` — entries that sit many binades away from 1.0.
pub fn mass_matrix_3d(
    nx: usize,
    ny: usize,
    nz: usize,
    scale: f64,
    jitter: f64,
    seed: u64,
) -> CooMatrix {
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let density: Vec<f64> = (0..n).map(|_| 1.0 + jitter * rng.gen::<f64>()).collect();
    // 1-D weights [1, 3, 1]/5: the tensor product is SPD (each 1-D factor is a strictly
    // diagonally dominant tridiagonal), the 3-D condition number is ≈ 5³/jitter-factor
    // (a few hundred, matching the crystm/qa8fm workloads), and the corner-to-centre
    // weight ratio of 27 keeps the per-block exponent spread within the ±3 offsets of
    // the paper's e = 3 format — the "exponent value locality" the real FEM matrices
    // exhibit (Fig. 3d).
    let w1 = |d: i64| -> f64 {
        match d {
            0 => 3.0 / 5.0,
            _ => 1.0 / 5.0,
        }
    };
    let mut a = CooMatrix::with_capacity(n, n, 27 * n);
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let r = idx(i, j, k);
                for di in -1i64..=1 {
                    for dj in -1i64..=1 {
                        for dk in -1i64..=1 {
                            let (ii, jj, kk) = (i as i64 + di, j as i64 + dj, k as i64 + dk);
                            if ii < 0
                                || jj < 0
                                || kk < 0
                                || ii >= nx as i64
                                || jj >= ny as i64
                                || kk >= nz as i64
                            {
                                continue;
                            }
                            let c = idx(ii as usize, jj as usize, kk as usize);
                            // Only emit the lower triangle + diagonal, mirror the rest,
                            // so the matrix is exactly symmetric.
                            if c > r {
                                continue;
                            }
                            // Scale by the geometric mean of the nodal densities so the
                            // result is D^{1/2} M D^{1/2} with M the SPD tensor-product
                            // mass matrix — a congruence transform, hence still SPD.
                            let w =
                                w1(di) * w1(dj) * w1(dk) * (density[r] * density[c]).sqrt() * scale;
                            if c == r {
                                a.push(r, r, w);
                            } else {
                                a.push(r, c, w);
                                a.push(c, r, w);
                            }
                        }
                    }
                }
            }
        }
    }
    a
}

/// The Wathen finite-element matrix (`gallery('wathen', nx, ny)` in MATLAB): the
/// consistent mass matrix of an `nx × ny` grid of 8-node serendipity elements with a
/// random density per element.
///
/// The dimension is `3·nx·ny + 2·nx + 2·ny + 1`; for `nx = ny = 100` this is exactly the
/// SuiteSparse `wathen100` matrix (30 401 rows, 471 601 non-zeros).  The matrix is SPD
/// with condition number of a few thousand.
pub fn wathen(nx: usize, ny: usize, seed: u64) -> CooMatrix {
    // The 8×8 element matrix, scaled by 1/45 (Higham, "Algorithm 694").
    #[rustfmt::skip]
    const E: [[f64; 8]; 8] = [
        [ 6.0, -6.0,  2.0, -8.0,  3.0, -8.0,  2.0, -6.0],
        [-6.0, 32.0, -6.0, 20.0, -8.0, 16.0, -8.0, 20.0],
        [ 2.0, -6.0,  6.0, -6.0,  2.0, -8.0,  3.0, -8.0],
        [-8.0, 20.0, -6.0, 32.0, -6.0, 20.0, -8.0, 16.0],
        [ 3.0, -8.0,  2.0, -6.0,  6.0, -6.0,  2.0, -8.0],
        [-8.0, 16.0, -8.0, 20.0, -6.0, 32.0, -6.0, 20.0],
        [ 2.0, -8.0,  3.0, -8.0,  2.0, -6.0,  6.0, -6.0],
        [-6.0, 20.0, -8.0, 16.0, -8.0, 20.0, -6.0, 32.0],
    ];
    let n = 3 * nx * ny + 2 * nx + 2 * ny + 1;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rho = Uniform::new(0.0f64, 100.0);
    let mut a = CooMatrix::with_capacity(n, n, 64 * nx * ny);
    for j in 1..=ny {
        for i in 1..=nx {
            // 1-based node numbers of the 8 element nodes (MATLAB convention).
            let mut nn = [0usize; 8];
            nn[0] = 3 * j * nx + 2 * i + 2 * j + 1;
            nn[1] = nn[0] - 1;
            nn[2] = nn[1] - 1;
            nn[3] = (3 * j - 1) * nx + 2 * j + i - 1;
            nn[4] = 3 * (j - 1) * nx + 2 * i + 2 * j - 3;
            nn[5] = nn[4] + 1;
            nn[6] = nn[5] + 1;
            nn[7] = nn[3] + 1;
            let density = rho.sample(&mut rng);
            for (kr, &nr) in nn.iter().enumerate() {
                for (kc, &nc) in nn.iter().enumerate() {
                    a.push(nr - 1, nc - 1, density * E[kr][kc] / 45.0);
                }
            }
        }
    }
    a
}

/// A symmetric matrix whose off-diagonal pattern is a random `k`-neighbour graph, with
/// negative off-diagonal entries and a diagonal equal to `dominance` times the absolute
/// row sum.
///
/// `dominance > 1` makes the matrix strictly diagonally dominant and hence SPD; the
/// condition number is roughly `(2·dominance) / (dominance − 1)` for large `k`, so small
/// `dominance` values give the κ ≈ 10²–10³ range of the thermo-mechanical workloads.
/// The scattered pattern is the important part: with ~6 neighbours drawn uniformly from
/// all columns, almost every non-zero lands in its own 128×128 block, which reproduces
/// the very large cluster requirements the paper reports for `thermomech_TC/dM`.
///
/// `value_scale` multiplies every entry, setting the magnitude profile.
pub fn random_spd_graph(
    n: usize,
    k: usize,
    dominance: f64,
    value_scale: f64,
    seed: u64,
) -> CooMatrix {
    assert!(
        dominance > 1.0,
        "dominance must exceed 1 for positive definiteness"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let col_dist = Uniform::new(0usize, n);
    // Collect symmetric off-diagonal edges (i, j, v) with i < j.
    let mut edges: Vec<(usize, usize, f64)> = Vec::with_capacity(n * k / 2 + n);
    for i in 0..n {
        // Each node proposes ~k/2 edges; symmetry doubles the expected degree to ~k.
        for _ in 0..k.div_ceil(2) {
            let j = col_dist.sample(&mut rng);
            if j == i {
                continue;
            }
            let (lo, hi) = (i.min(j), i.max(j));
            let w = -(0.5 + rng.gen::<f64>());
            edges.push((lo, hi, w));
        }
    }
    let mut row_abs_sum = vec![0.0f64; n];
    for &(i, j, w) in &edges {
        row_abs_sum[i] += w.abs();
        row_abs_sum[j] += w.abs();
    }
    let mut a = CooMatrix::with_capacity(n, n, edges.len() * 2 + n);
    for &(i, j, w) in &edges {
        a.push(i, j, w * value_scale);
        a.push(j, i, w * value_scale);
    }
    for (i, &s) in row_abs_sum.iter().enumerate() {
        // Guarantee a positive diagonal even for isolated nodes.
        a.push(i, i, (dominance * s).max(1.0) * value_scale);
    }
    a
}

/// A circulant symmetric 3-regular "sphere grid" matrix: every row couples to its two
/// ring neighbours and to the antipodal node, mimicking the 4 non-zeros/row and tiny
/// condition number of `shallow_water1`.
///
/// `diag_scale` sets the value magnitude (the real shallow-water matrices carry physical
/// constants far from 1.0); `offdiag_ratio ∈ (0, 1/3)` controls the condition number
/// `κ ≈ (1 + 3·ratio) / (1 − 3·ratio)`.
pub fn sphere_ring_3regular(n: usize, diag_scale: f64, offdiag_ratio: f64) -> CooMatrix {
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "sphere_ring_3regular needs an even n ≥ 4"
    );
    assert!(
        offdiag_ratio > 0.0 && offdiag_ratio < 1.0 / 3.0,
        "offdiag_ratio must lie in (0, 1/3) for positive definiteness"
    );
    let half = n / 2;
    let off = -diag_scale * offdiag_ratio;
    let mut a = CooMatrix::with_capacity(n, n, 4 * n);
    for i in 0..n {
        a.push(i, i, diag_scale);
        a.push(i, (i + 1) % n, off);
        a.push(i, (i + n - 1) % n, off);
        a.push(i, (i + half) % n, off);
    }
    a
}

/// 2D convection–diffusion operator (5-point upwind) — a *non-symmetric* test matrix for
/// the BiCGSTAB solver.  `peclet` controls the strength of convection; `peclet = 0`
/// reduces to the symmetric Laplacian.
pub fn convection_diffusion_2d(nx: usize, ny: usize, peclet: f64) -> CooMatrix {
    let n = nx * ny;
    let idx = |i: usize, j: usize| i * ny + j;
    let mut a = CooMatrix::with_capacity(n, n, 5 * n);
    let h = 1.0 / (nx.max(ny) as f64 + 1.0);
    let c = peclet * h / 2.0;
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            a.push(r, r, 4.0 + 2.0 * c.abs());
            if i + 1 < nx {
                a.push(r, idx(i + 1, j), -1.0 + c);
            }
            if i > 0 {
                a.push(r, idx(i - 1, j), -1.0 - c);
            }
            if j + 1 < ny {
                a.push(r, idx(i, j + 1), -1.0);
            }
            if j > 0 {
                a.push(r, idx(i, j - 1), -1.0);
            }
        }
    }
    a
}

/// A diagonal matrix with logarithmically spaced entries between `min` and `max`
/// (inclusive), useful for tests that need an exactly known condition number `max/min`.
pub fn logspace_diagonal(n: usize, min: f64, max: f64) -> CooMatrix {
    assert!(n >= 1 && min > 0.0 && max >= min);
    let mut a = CooMatrix::with_capacity(n, n, n);
    for i in 0..n {
        let t = if n == 1 {
            0.0
        } else {
            i as f64 / (n - 1) as f64
        };
        a.push(i, i, min * (max / min).powf(t));
    }
    a
}

/// Multiplies every entry of a COO matrix by a per-entry lognormal factor
/// `exp(σ·N(0,1))` — used to widen the exponent spread inside blocks when studying the
/// exponent-locality assumption.
pub fn apply_lognormal_jitter(a: &mut CooMatrix, sigma_log2: f64, seed: u64) {
    let mut vals = a.values().to_vec();
    jitter_values(&mut vals, sigma_log2, &mut ChaCha8Rng::seed_from_u64(seed));
    let rows = a.row_indices().to_vec();
    let cols = a.col_indices().to_vec();
    *a = CooMatrix::from_triplets(a.nrows(), a.ncols(), rows, cols, vals)
        .expect("same structure, still valid");
}

/// The one lognormal jitter body: multiplies each value, in slice order, by
/// `2^(σ·u)`, where `u` is an approximately normal Irwin–Hall deviate (the sum of
/// four uniforms from `rng`, less 2).  A caller that jitters several slices from
/// one `rng` draws one deviate stream across them.
pub(crate) fn jitter_values(values: &mut [f64], sigma_log2: f64, rng: &mut ChaCha8Rng) {
    for v in values {
        // Chained adds keep the exact left-to-right order of the draws.
        let u = rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() + rng.gen::<f64>() - 2.0;
        *v *= (sigma_log2 * u).exp2();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_sparse::{CsrMatrix, MatrixStats};

    fn is_spd_by_gershgorin(a: &CsrMatrix) -> bool {
        // Diagonal dominance with positive diagonal is a sufficient SPD certificate.
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
    fn laplacian_2d_shape_and_symmetry() {
        let a = laplacian_2d(10, 12, 0.5).to_csr();
        assert_eq!(a.nrows(), 120);
        assert!(a.is_symmetric(1e-14));
        assert!(is_spd_by_gershgorin(&a));
        // Interior rows have 5 nonzeros.
        let s = MatrixStats::compute(&a);
        assert_eq!(s.max_row_nnz, 5);
    }

    #[test]
    fn anisotropic_9pt_is_symmetric_and_has_nine_point_rows() {
        let a = anisotropic_9pt(9, 9, 1.0, 0.05, 1e-3).to_csr();
        assert!(a.is_symmetric(1e-12));
        let s = MatrixStats::compute(&a);
        assert_eq!(s.max_row_nnz, 9);
        // Diagonal must be positive.
        assert!(a.diagonal().iter().all(|&d| d > 0.0));
    }

    fn is_positive_definite_by_sampling(a: &CsrMatrix, seed: u64) -> bool {
        // Mass matrices are SPD but not diagonally dominant; check xᵀAx > 0 on a handful
        // of deterministic pseudo-random vectors instead of Gershgorin.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..5).all(|_| {
            let x: Vec<f64> = (0..a.ncols()).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let y = a.spmv(&x);
            refloat_sparse::vecops::dot(&x, &y) > 0.0
        })
    }

    #[test]
    fn mass_matrix_3d_is_spd_and_scaled() {
        let a = mass_matrix_3d(6, 5, 4, 1e-12, 0.5, 7).to_csr();
        assert_eq!(a.nrows(), 120);
        assert!(a.is_symmetric(1e-25));
        assert!(is_positive_definite_by_sampling(&a, 11));
        let s = MatrixStats::compute(&a);
        assert_eq!(s.max_row_nnz, 27);
        // Values should sit around 1e-12, i.e. binary exponents near -40.
        assert!(s.max_exponent < -35 && s.min_exponent > -50, "stats: {s:?}");
    }

    #[test]
    fn wathen_dimension_matches_suitesparse() {
        // wathen(nx, ny) has 3 nx ny + 2 nx + 2 ny + 1 rows; nx = ny = 10 gives 341.
        let a = wathen(10, 10, 1).to_csr();
        assert_eq!(a.nrows(), 341);
        assert!(a.is_symmetric(1e-9));
        assert!(a.diagonal().iter().all(|&d| d > 0.0));
        // The full wathen100 dimension formula (not generated here to keep tests fast).
        assert_eq!(3 * 100 * 100 + 2 * 100 + 2 * 100 + 1, 30401);
    }

    #[test]
    fn wathen_is_deterministic_per_seed() {
        let a = wathen(6, 7, 42).to_csr();
        let b = wathen(6, 7, 42).to_csr();
        let c = wathen(6, 7, 43).to_csr();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_spd_graph_is_dominant_and_scattered() {
        let a = random_spd_graph(2000, 6, 1.4, 1.0, 3).to_csr();
        assert!(a.is_symmetric(1e-12));
        assert!(is_spd_by_gershgorin(&a));
        let s = MatrixStats::compute(&a);
        assert!(
            s.nnz_per_row > 3.0 && s.nnz_per_row < 12.0,
            "nnz/row = {}",
            s.nnz_per_row
        );
        // Scattered structure: bandwidth close to n.
        assert!(s.bandwidth > 1000);
    }

    #[test]
    fn random_spd_graph_scaling_moves_exponents() {
        let a = random_spd_graph(500, 6, 1.4, 1e-10, 5).to_csr();
        let s = MatrixStats::compute(&a);
        assert!(s.max_exponent < -25, "max exponent {}", s.max_exponent);
    }

    #[test]
    fn sphere_ring_has_exactly_four_nonzeros_per_row() {
        let a = sphere_ring_3regular(64, 1e10, 0.18).to_csr();
        assert!(a.is_symmetric(1e-3));
        let s = MatrixStats::compute(&a);
        assert_eq!(s.max_row_nnz, 4);
        assert_eq!(s.nnz, 4 * 64);
        assert!(is_spd_by_gershgorin(&a));
    }

    #[test]
    #[should_panic(expected = "positive definiteness")]
    fn sphere_ring_rejects_bad_ratio() {
        let _ = sphere_ring_3regular(16, 1.0, 0.4);
    }

    #[test]
    fn convection_diffusion_is_nonsymmetric_for_positive_peclet() {
        let sym = convection_diffusion_2d(8, 8, 0.0).to_csr();
        assert!(sym.is_symmetric(1e-14));
        let asym = convection_diffusion_2d(8, 8, 20.0).to_csr();
        assert!(!asym.is_symmetric(1e-14));
    }

    #[test]
    fn logspace_diagonal_has_requested_extremes() {
        let a = logspace_diagonal(11, 1e-3, 1e3).to_csr();
        let d = a.diagonal();
        assert!((d[0] - 1e-3).abs() < 1e-15);
        assert!((d[10] - 1e3).abs() < 1e-9);
        assert_eq!(a.nnz(), 11);
    }

    #[test]
    fn lognormal_jitter_preserves_structure() {
        let mut a = laplacian_2d(6, 6, 0.0);
        let nnz = a.nnz();
        apply_lognormal_jitter(&mut a, 1.0, 9);
        assert_eq!(a.nnz(), nnz);
        // Values changed but signs preserved.
        assert!(a.values().iter().all(|&v| v != 0.0));
    }
}
