//! Closed-form hardware cost models: crossbar count (Eq. 2) and cycle count (Eq. 3).

/// Eq. 2: the number of crossbars needed for one floating-point MVM on a matrix block
/// with `e_m` exponent bits and `f_m` fraction bits:
/// `C = 4 · (2^{e_m} + f_m + 1)`, where the factor 4 accounts for the sign handling of
/// the matrix block and of the vector segment.
pub fn crossbar_count_eq2(e_m: u32, f_m: u32) -> u64 {
    4 * ((1u64 << e_m) + f_m as u64 + 1)
}

/// Eq. 3: the number of pipeline cycles for one floating-point MVM with a
/// `(e_v, f_v)`-bit vector segment and a `(e_m, f_m)`-bit matrix block:
/// `T = (2^{e_v} + f_v + 1) + (2^{e_m} + f_m + 1) − 1`.
pub fn cycle_count_eq3(e_m: u32, f_m: u32, e_v: u32, f_v: u32) -> u64 {
    ((1u64 << e_v) + f_v as u64 + 1) + ((1u64 << e_m) + f_m as u64 + 1) - 1
}

/// Extra pipeline cycles per block-MVM when the ABFT checksum row is enabled: the
/// checksum row rides in the same crossbar as its block, so its dot product streams
/// through the existing pipeline and costs one additional accumulation cycle (the
/// host-side comparison of `Σy` against the checksum prediction is free — it folds
/// into the reduction the host already performs per SpMV).
pub const ABFT_CHECK_CYCLES_PER_BLOCK: u64 = 1;

/// The per-cluster crossbar count used by the §VI.B capacity arithmetic:
/// `2^e` exponent paddings + `f` fraction bit-slices + 1 leading-one slice.
///
/// **Note the off-by-one against the paper's prose:** for the Feinberg mapping
/// (e = 6, f = 52) this formula gives `2^6 + 52 + 1 = 117`, while §VI.B quotes **118**
/// (the extra crossbar is the sign slice of the full-precision mapping).  Consumers
/// split accordingly: `AcceleratorConfig::feinberg()` hard-codes the quoted 118 so the
/// §VI.B capacity numbers (2221 clusters per chip) reproduce exactly, whereas every
/// ReFloat-format consumer — `AcceleratorConfig::refloat`, the multi-chip capacity
/// arithmetic, and the `refloat_core::autotune` cost model — uses this formula (for the
/// default e = 3, f = 3 it gives the 12 crossbars per cluster the paper also quotes).
pub fn crossbars_per_cluster(e: u32, f: u32) -> u32 {
    (1u32 << e) + f + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp64_costs_match_the_paper_headline_numbers() {
        // §III.B: "In double-precision floating-point (FP64), one MVM in ReRAM consumes
        // 8404 crossbars and 4201 cycles."
        assert_eq!(crossbar_count_eq2(11, 52), 8404);
        assert_eq!(cycle_count_eq3(11, 52, 11, 52), 4201);
    }

    #[test]
    fn feinberg_and_refloat_cycle_counts_match_section_vib() {
        // Feinberg: 6-bit exponent, 52-bit fraction for both operands -> 233 cycles.
        assert_eq!(cycle_count_eq3(6, 52, 6, 52), 233);
        // ReFloat default (e=3, f=3, ev=3, fv=8) -> 28 cycles.
        assert_eq!(cycle_count_eq3(3, 3, 3, 8), 28);
    }

    #[test]
    fn cluster_crossbar_counts_match_section_vib() {
        // ReFloat default: 2^3 + 3 + 1 = 12 crossbars per cluster (§VI.B).  The Feinberg
        // cluster is quoted as 118 crossbars in §VI.B, which is one more than this
        // formula gives for (e, f) = (6, 52); the accelerator model uses the quoted 118.
        assert_eq!(crossbars_per_cluster(6, 52), 117);
        assert_eq!(crossbars_per_cluster(3, 3), 12);
        // Fig. 4 discussion: ReFloat(2,2,3) needs 2^2 + 3 + 1 = 8 per polarity, 16 with
        // both signs (versus 118 in the full-precision mapping).
        assert_eq!(2 * crossbars_per_cluster(2, 3), 16);
    }

    #[test]
    fn crossbar_count_grows_exponentially_in_exponent_and_linearly_in_fraction() {
        let base = crossbar_count_eq2(4, 20);
        assert_eq!(
            crossbar_count_eq2(5, 20) - crossbar_count_eq2(4, 20),
            4 * 16
        );
        assert_eq!(crossbar_count_eq2(4, 21) - base, 4);
    }

    #[test]
    fn cycle_count_is_symmetric_in_matrix_and_vector_roles() {
        assert_eq!(cycle_count_eq3(3, 8, 5, 2), cycle_count_eq3(5, 2, 3, 8));
    }
}
