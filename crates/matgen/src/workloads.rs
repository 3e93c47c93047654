//! The 12 Table V workloads as synthetic analogues.
//!
//! Every [`Workload`] knows the paper-reported properties of the SuiteSparse matrix it
//! stands in for ([`WorkloadSpec`]) and can [`generate`](Workload::generate) a synthetic
//! matrix reproducing its dimension, sparsity, structure class and value-magnitude
//! profile.  See the README's *Substitutions* for the rationale.

use crate::generators;
use refloat_sparse::{CooMatrix, CsrMatrix};

/// Paper-reported properties of a Table V matrix (SuiteSparse id, name, rows, non-zeros,
/// non-zeros per row and condition number) together with the value-scale class used by
/// the synthetic analogue.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// SuiteSparse collection id used by the paper (e.g. 355 for `crystm03`).
    pub id: u32,
    /// SuiteSparse matrix name.
    pub name: &'static str,
    /// Number of rows reported in Table V.
    pub nrows: usize,
    /// Number of non-zeros reported in Table V.
    pub nnz: usize,
    /// Non-zeros per row reported in Table V.
    pub nnz_per_row: f64,
    /// Condition number reported in Table V.
    pub cond: f64,
    /// Typical magnitude of the matrix entries in the synthetic analogue.  Matrices far
    /// from 1.0 are the ones on which the Feinberg baseline fails to converge.
    pub value_scale: f64,
    /// Default fraction bits for the *vector* segments in the ReFloat solver runs
    /// (Table VII: 8 for most matrices, 16 for `wathen100` and `Dubcova2`).
    pub refloat_fv: u32,
    /// Default fraction bits for the *matrix* blocks in the ReFloat solver runs.  The
    /// paper uses 3 for every matrix; the synthetic mass-matrix analogues (crystm*,
    /// qa8fm) need 8 because their stencil part is worse conditioned than the real FEM
    /// matrices, so a 2^-3 element perturbation would break positive definiteness.
    pub refloat_f: u32,
}

/// The 12 evaluation workloads of the paper, in Table V order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 353 — `crystm01`, FEM crystal-vibration mass matrix (tiny entries ≈ 1e-12).
    Crystm01,
    /// 1313 — `minsurfo`, minimal-surface optimization (5-point grid stencil).
    Minsurfo,
    /// 354 — `crystm02`, FEM crystal-vibration mass matrix.
    Crystm02,
    /// 2261 — `shallow_water1`, sphere shallow-water model (4 nnz/row, κ ≈ 3.6).
    ShallowWater1,
    /// 1288 — `wathen100`, random FEM mass matrix (Wathen element assembly).
    Wathen100,
    /// 1311 — `gridgena`, grid-generation optimization (anisotropic stencil, large κ).
    Gridgena,
    /// 1289 — `wathen120`, larger Wathen matrix.
    Wathen120,
    /// 355 — `crystm03`, FEM crystal-vibration mass matrix (used in Table I / Fig. 10).
    Crystm03,
    /// 2257 — `thermomech_TC`, thermo-mechanical coupling (scattered, entries O(1)).
    ThermomechTC,
    /// 1848 — `Dubcova2`, FEM Poisson problem.
    Dubcova2,
    /// 2259 — `thermomech_dM`, thermo-mechanical mass matrix (scattered, tiny entries).
    ThermomechDM,
    /// 845 — `qa8fm`, 3D acoustic FEM mass matrix (tiny entries).
    Qa8fm,
}

impl Workload {
    /// All 12 workloads in Table V order.
    pub const ALL: [Workload; 12] = [
        Workload::Crystm01,
        Workload::Minsurfo,
        Workload::Crystm02,
        Workload::ShallowWater1,
        Workload::Wathen100,
        Workload::Gridgena,
        Workload::Wathen120,
        Workload::Crystm03,
        Workload::ThermomechTC,
        Workload::Dubcova2,
        Workload::ThermomechDM,
        Workload::Qa8fm,
    ];

    /// The paper-reported properties of this workload (Table V).
    pub fn spec(&self) -> WorkloadSpec {
        match self {
            Workload::Crystm01 => WorkloadSpec {
                id: 353,
                name: "crystm01",
                nrows: 4875,
                nnz: 105_339,
                nnz_per_row: 21.6,
                cond: 4.21e2,
                value_scale: 1e-12,
                refloat_fv: 8,
                refloat_f: 8,
            },
            Workload::Minsurfo => WorkloadSpec {
                id: 1313,
                name: "minsurfo",
                nrows: 40_806,
                nnz: 203_622,
                nnz_per_row: 5.0,
                cond: 8.11e1,
                value_scale: 1.0,
                refloat_fv: 8,
                refloat_f: 3,
            },
            Workload::Crystm02 => WorkloadSpec {
                id: 354,
                name: "crystm02",
                nrows: 13_965,
                nnz: 322_905,
                nnz_per_row: 23.1,
                cond: 4.49e2,
                value_scale: 1e-12,
                refloat_fv: 8,
                refloat_f: 8,
            },
            Workload::ShallowWater1 => WorkloadSpec {
                id: 2261,
                name: "shallow_water1",
                nrows: 81_920,
                nnz: 327_680,
                nnz_per_row: 4.0,
                cond: 3.63,
                value_scale: 1e12,
                refloat_fv: 8,
                refloat_f: 3,
            },
            Workload::Wathen100 => WorkloadSpec {
                id: 1288,
                name: "wathen100",
                nrows: 30_401,
                nnz: 471_601,
                nnz_per_row: 15.5,
                cond: 8.24e3,
                value_scale: 1.0,
                refloat_fv: 16,
                refloat_f: 3,
            },
            Workload::Gridgena => WorkloadSpec {
                id: 1311,
                name: "gridgena",
                nrows: 48_962,
                nnz: 512_084,
                nnz_per_row: 10.5,
                cond: 5.74e5,
                value_scale: 1.0,
                refloat_fv: 8,
                refloat_f: 3,
            },
            Workload::Wathen120 => WorkloadSpec {
                id: 1289,
                name: "wathen120",
                nrows: 36_441,
                nnz: 565_761,
                nnz_per_row: 15.5,
                cond: 4.05e3,
                value_scale: 1.0,
                refloat_fv: 8,
                refloat_f: 3,
            },
            Workload::Crystm03 => WorkloadSpec {
                id: 355,
                name: "crystm03",
                nrows: 24_696,
                nnz: 583_770,
                nnz_per_row: 23.6,
                cond: 4.68e2,
                value_scale: 1e-12,
                refloat_fv: 8,
                refloat_f: 8,
            },
            Workload::ThermomechTC => WorkloadSpec {
                id: 2257,
                name: "thermomech_TC",
                nrows: 102_158,
                nnz: 711_558,
                nnz_per_row: 6.9,
                cond: 1.23e2,
                value_scale: 1.0,
                refloat_fv: 8,
                refloat_f: 3,
            },
            Workload::Dubcova2 => WorkloadSpec {
                id: 1848,
                name: "Dubcova2",
                nrows: 65_025,
                nnz: 1_030_225,
                nnz_per_row: 15.84,
                cond: 1.04e4,
                value_scale: 1.0,
                refloat_fv: 16,
                refloat_f: 3,
            },
            Workload::ThermomechDM => WorkloadSpec {
                id: 2259,
                name: "thermomech_dM",
                nrows: 204_316,
                nnz: 1_423_116,
                nnz_per_row: 6.9,
                cond: 1.24e2,
                value_scale: 1e-10,
                refloat_fv: 8,
                refloat_f: 3,
            },
            Workload::Qa8fm => WorkloadSpec {
                id: 845,
                name: "qa8fm",
                nrows: 66_127,
                nnz: 1_660_579,
                nnz_per_row: 25.1,
                cond: 1.10e2,
                value_scale: 1e-10,
                refloat_fv: 8,
                refloat_f: 8,
            },
        }
    }

    /// Looks a workload up by its SuiteSparse id (the numeric labels used in the paper's
    /// figures), e.g. `355` for `crystm03`.
    pub fn from_id(id: u32) -> Option<Workload> {
        Workload::ALL.iter().copied().find(|w| w.spec().id == id)
    }

    /// Looks a workload up by its SuiteSparse name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL
            .iter()
            .copied()
            .find(|w| w.spec().name.eq_ignore_ascii_case(name))
    }

    /// Generates the synthetic analogue of this workload.
    ///
    /// The generated matrix is symmetric positive definite, matches the Table V
    /// dimension and density to within a few percent, and carries the value-magnitude
    /// profile listed in [`WorkloadSpec::value_scale`].  Generation is deterministic in
    /// `seed`.
    pub fn generate(&self, seed: u64) -> CooMatrix {
        match self {
            // FEM mass matrices with tiny entries: 27-point 3D mass stencils.
            Workload::Crystm01 => generators::mass_matrix_3d(17, 17, 17, 1e-12, 0.8, seed ^ 0x353),
            Workload::Crystm02 => generators::mass_matrix_3d(24, 24, 24, 1e-12, 0.8, seed ^ 0x354),
            Workload::Crystm03 => generators::mass_matrix_3d(29, 29, 29, 1e-12, 0.8, seed ^ 0x355),
            // Minimal-surface: shifted 5-point Laplacian on a 202x202 grid (κ ≈ 80).
            Workload::Minsurfo => generators::laplacian_2d(202, 202, 0.1),
            // Shallow water: 3-regular sphere ring with huge physical constants, κ ≈ 3.6.
            Workload::ShallowWater1 => generators::sphere_ring_3regular(81_920, 1e12, 0.1894),
            // Wathen FEM matrices (exact SuiteSparse construction).
            Workload::Wathen100 => generators::wathen(100, 100, seed ^ 0x1288),
            // SuiteSparse wathen120 is the 120x100-element Wathen matrix (36 441 rows).
            Workload::Wathen120 => generators::wathen(120, 100, seed ^ 0x1289),
            // Grid generation: strongly anisotropic 9-point stencil, κ ≈ 5e5.
            Workload::Gridgena => generators::anisotropic_9pt(221, 221, 1.0, 0.033, 2e-5),
            // Thermo-mechanical problems: scattered random FEM graphs.
            Workload::ThermomechTC => {
                generators::random_spd_graph(102_158, 6, 1.35, 1.0, seed ^ 0x2257)
            }
            Workload::ThermomechDM => {
                generators::random_spd_graph(204_316, 6, 1.35, 1e-10, seed ^ 0x2259)
            }
            // FEM Poisson: 9-point stencil on a 255x255 grid with a small shift.
            Workload::Dubcova2 => generators::anisotropic_9pt(255, 255, 1.0, 1.0, 5e-4),
            // 3D acoustic mass matrix, tiny entries, 27 nnz/row.
            Workload::Qa8fm => generators::mass_matrix_3d(41, 41, 39, 1e-10, 0.6, seed ^ 0x845),
        }
    }

    /// Generates the workload and converts it to CSR.
    pub fn generate_csr(&self, seed: u64) -> CsrMatrix {
        self.generate(seed).to_csr()
    }

    /// Whether the Feinberg baseline converges on this workload according to the paper
    /// (§VI.B: it fails on ids 353, 354, 2261, 355, 2259 and 845 — exactly the matrices
    /// whose entries sit far from 1.0).
    pub fn feinberg_converges_in_paper(&self) -> bool {
        !matches!(
            self,
            Workload::Crystm01
                | Workload::Crystm02
                | Workload::Crystm03
                | Workload::ShallowWater1
                | Workload::ThermomechDM
                | Workload::Qa8fm
        )
    }

    /// Paper-reported iteration counts to convergence (Table VI), as
    /// `(cg_double, cg_refloat, bicgstab_double, bicgstab_refloat)`.
    pub fn paper_iterations(&self) -> (usize, usize, usize, usize) {
        match self {
            Workload::Crystm01 => (68, 85, 49, 51),
            Workload::Minsurfo => (52, 55, 34, 69),
            Workload::Crystm02 => (81, 95, 58, 79),
            Workload::ShallowWater1 => (11, 11, 7, 7),
            Workload::Wathen100 => (262, 305, 195, 205),
            Workload::Gridgena => (1, 1, 1, 1),
            Workload::Wathen120 => (294, 401, 211, 317),
            Workload::Crystm03 => (80, 95, 59, 52),
            Workload::ThermomechTC => (55, 56, 43, 36),
            Workload::Dubcova2 => (162, 214, 118, 145),
            Workload::ThermomechDM => (57, 58, 45, 36),
            Workload::Qa8fm => (53, 54, 41, 35),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_sparse::MatrixStats;

    #[test]
    fn all_has_twelve_unique_ids() {
        let mut ids: Vec<u32> = Workload::ALL.iter().map(|w| w.spec().id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn lookup_by_id_and_name() {
        assert_eq!(Workload::from_id(355), Some(Workload::Crystm03));
        assert_eq!(Workload::from_name("CRYSTM03"), Some(Workload::Crystm03));
        assert_eq!(Workload::from_id(999), None);
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn feinberg_failure_set_matches_paper() {
        let failing: Vec<u32> = Workload::ALL
            .iter()
            .filter(|w| !w.feinberg_converges_in_paper())
            .map(|w| w.spec().id)
            .collect();
        assert_eq!(failing, vec![353, 354, 2261, 355, 2259, 845]);
    }

    #[test]
    fn small_workloads_match_spec_dimensions_approximately() {
        // Only generate the small ones in unit tests; the large ones are covered by the
        // integration tests and the experiment binaries.
        for w in [Workload::Crystm01, Workload::Wathen100] {
            let spec = w.spec();
            let a = w.generate_csr(1);
            let s = MatrixStats::compute(&a);
            let row_ratio = a.nrows() as f64 / spec.nrows as f64;
            assert!(
                (0.85..=1.15).contains(&row_ratio),
                "{}: rows {} vs spec {}",
                spec.name,
                a.nrows(),
                spec.nrows
            );
            assert!(s.symmetric, "{} must be symmetric", spec.name);
            assert!(
                s.nnz_per_row > 0.5 * spec.nnz_per_row && s.nnz_per_row < 2.0 * spec.nnz_per_row,
                "{}: nnz/row {} vs spec {}",
                spec.name,
                s.nnz_per_row,
                spec.nnz_per_row
            );
        }
    }

    #[test]
    fn wathen100_matches_exact_suitesparse_dimension() {
        let a = Workload::Wathen100.generate_csr(1);
        assert_eq!(a.nrows(), 30_401);
        assert_eq!(a.nnz(), 471_601);
    }

    #[test]
    fn wathen120_matches_exact_suitesparse_dimension() {
        // SuiteSparse wathen120 is the 120x100-element Wathen matrix.
        let a = Workload::Wathen120.generate_csr(1);
        assert_eq!(a.nrows(), 36_441);
        assert_eq!(a.nnz(), 565_761);
    }

    #[test]
    fn crystm_analogue_has_tiny_entries_and_minsurfo_has_unit_entries() {
        let crystm = Workload::Crystm01.generate_csr(1);
        let s = MatrixStats::compute(&crystm);
        assert!(
            s.max_abs < 1e-9,
            "crystm01 entries should be ≈1e-12, got {}",
            s.max_abs
        );

        let minsurf = generators::laplacian_2d(32, 32, 0.1).to_csr();
        let s2 = MatrixStats::compute(&minsurf);
        assert!(s2.max_abs > 1.0 && s2.max_abs < 16.0);
    }

    #[test]
    fn paper_iterations_are_consistent_with_table_vi() {
        let (cg_d, cg_r, bi_d, bi_r) = Workload::Crystm03.paper_iterations();
        assert_eq!((cg_d, cg_r), (80, 95));
        assert_eq!((bi_d, bi_r), (59, 52));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::Crystm01.generate_csr(7);
        let b = Workload::Crystm01.generate_csr(7);
        assert_eq!(a, b);
    }
}
