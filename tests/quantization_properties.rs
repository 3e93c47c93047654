//! Workspace-level property tests: invariants of the ReFloat conversion and of the
//! solvers that must hold for *any* well-scaled SPD input, not just the paper workloads.

use proptest::prelude::*;
use refloat::core::block::ReFloatBlock;
use refloat::core::format::max_offset_for_bits;
use refloat::core::scalar::{fraction_truncation_error_bound, pow2, requantize};
use refloat::core::vector::VectorConverter;
use refloat::prelude::*;
use refloat::sparse::blocked::Block;
use refloat::sparse::vecops;

fn modes(selector: usize) -> (RoundingMode, UnderflowMode) {
    let rounding = if selector.is_multiple_of(2) {
        RoundingMode::Truncate
    } else {
        RoundingMode::RoundNearest
    };
    let underflow = if (selector / 2).is_multiple_of(2) {
        UnderflowMode::Saturate
    } else {
        UnderflowMode::FlushToZero
    };
    (rounding, underflow)
}

/// Asserts that the block encoder (against `base`) and the vector converter (against
/// the base it picks for the one segment `vals` fills) produce exactly
/// `requantize`'s value for every element, and that the block's stored
/// `(sign, offset, fraction_code)` — what `reram-sim`'s bit-level engine multiplies
/// by — reconstruct the decoded value.
fn assert_encoders_match_requantize(vals: &[f64], config: ReFloatConfig, base: i32) {
    assert_eq!(vals.len(), config.block_size());
    let (rounding, underflow) = (config.rounding, config.underflow);
    let indices: Vec<u16> = (0..vals.len() as u16).collect();
    let block = Block {
        block_row: 0,
        block_col: 0,
        rows: &indices,
        cols: &indices,
        vals,
    };
    let enc = ReFloatBlock::encode_with_base(&block, &config, base);
    let mut converter = VectorConverter::new(config);
    let converted = converter.convert(vals);
    let ebv = converter.last_bases()[0];
    for (k, &v) in vals.iter().enumerate() {
        let want = requantize(v, base, config.e, config.f, rounding, underflow);
        let got = enc.decoded[k];
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "block: {v} -> {got}, not {want}"
        );
        let fraction = 1.0 + enc.fraction_codes[k] as f64 / (1u64 << config.f) as f64;
        let magnitude = fraction * pow2(base + enc.offsets[k] as i32);
        let stored = if enc.signs[k] { -magnitude } else { magnitude };
        assert!(
            got == 0.0 || got == stored,
            "block: code of {v} decodes to {stored}, not {got}"
        );
        assert!(enc.offsets[k].unsigned_abs() as i32 <= config.max_offset());

        let want = requantize(v, ebv, config.ev, config.fv, rounding, underflow);
        let got = converted[k];
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "vector: {v} -> {got}, not {want}"
        );
    }
}

#[test]
fn a_round_nearest_carry_at_a_saturated_offset_is_one_rule_in_every_encoder() {
    // ReFloat(3,2,2)(2,2) has offsets in [-1, 1].  Against base 0, 15.9 saturates from
    // above and 3.4 sits at the top of the window; both fractions round up to 2.0,
    // the carry cannot go into the pinned offset, and both must clamp to 1.75·2 = 3.5
    // (the hand-copied encoders used to halve the saturated one to 2.0).
    let config = ReFloatConfig::new(3, 2, 2, 2, 2).with_rounding(RoundingMode::RoundNearest);
    let vals = [15.9, 3.4, 1.0, -1.0, 0.5, -0.3, 0.0, 1.9];
    assert_encoders_match_requantize(&vals, config, 0);
    for v in [15.9, 3.4] {
        assert_eq!(
            requantize(v, 0, 2, 2, config.rounding, config.underflow),
            3.5
        );
    }
}

#[test]
fn the_stored_code_reconstructs_the_decoded_value_in_every_accepted_format() {
    // `ReFloatConfig::new` accepts e ≤ 11 (offsets to ±1023) and f ≤ 52 (codes to
    // 2^52 − 1): offsets beyond ±127 and codes beyond 32 bits must survive storage.
    // Against base 0 these sit up to 250 (e = 9) or 1000 (e = 11) binades away, with
    // fractions that fill all 52 bits.
    let third = 1.0 + 1.0 / 3.0;
    for (e_bits, reach) in [(9u32, 250i32), (11, 1000)] {
        let vals = [
            third * pow2(reach),
            -third * pow2(-reach),
            (2.0 - f64::EPSILON) * pow2(128),
            -1.7 * pow2(-129),
            third * pow2(reach + 20), // saturates from above
            1.9 * pow2(-reach - 20),  // saturates or flushes from below
            0.0,
            1.0,
        ];
        for f_bits in [33u32, 52] {
            for mode_sel in 0..4 {
                let (rounding, underflow) = modes(mode_sel);
                let config = ReFloatConfig::new(3, e_bits, f_bits, e_bits, f_bits)
                    .with_rounding(rounding)
                    .with_underflow(underflow);
                assert_encoders_match_requantize(&vals, config, 0);
            }
        }
    }
}

/// Builds a random SPD matrix: a banded diagonally-dominant matrix with the given
/// off-diagonal density and value scale.
fn random_spd(n: usize, scale: f64, seed: u64) -> CsrMatrix {
    refloat::matgen::generators::random_spd_graph(n, 4, 1.5, scale, seed).to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn refloat_cg_converges_on_random_spd_systems(
        seed in 0u64..1000,
        scale_exp in -40i32..20,
    ) {
        // Any diagonally dominant SPD system, at any value scale (the per-block exponent
        // base absorbs the scale), must converge under the paper's default bits.
        let scale = 2.0f64.powi(scale_exp);
        let a = random_spd(300, scale, seed);
        let b = vec![1.0; a.nrows()];
        let cfg = SolverConfig::relative(1e-8).with_max_iterations(2_000).with_trace(false);
        let mut op = ReFloatMatrix::from_csr(&a, ReFloatConfig::new(5, 3, 3, 3, 8));
        let result = cg(&mut op, &b, &cfg);
        prop_assert!(result.converged(), "stop = {:?}", result.stop);
    }

    #[test]
    fn quantized_matrix_error_is_scale_invariant(
        seed in 0u64..1000,
        scale_exp in -100i32..100,
    ) {
        // Scaling a matrix by a power of two must not change the *relative* quantization
        // error at all (the exponent base shifts, fractions are untouched).
        let a = random_spd(200, 1.0, seed);
        let format = ReFloatConfig::new(5, 3, 3, 3, 8);
        let q_base = ReFloatMatrix::from_csr(&a, format).to_quantized_csr();

        let mut scaled = a.clone();
        let factor = 2.0f64.powi(scale_exp);
        for v in scaled.values_mut() {
            *v *= factor;
        }
        let q_scaled = ReFloatMatrix::from_csr(&scaled, format).to_quantized_csr();

        for ((r, c, v), (_, _, w)) in q_base.iter().zip(q_scaled.iter()) {
            let expected = v * factor;
            prop_assert!(
                (w - expected).abs() <= 1e-12 * expected.abs(),
                "({r},{c}): scaled quantization {w} vs expected {expected}"
            );
        }
    }

    #[test]
    fn quantized_spmv_error_is_relative_to_input_magnitude(
        seed in 0u64..1000,
        magnitude_exp in -20i32..20,
    ) {
        // The SpMV error of the quantized operator must scale down with the input vector
        // — the property that lets the iterative solvers keep making progress as the
        // residual shrinks (§III.D's error argument).
        let a = random_spd(256, 1.0, seed);
        let format = ReFloatConfig::new(5, 3, 8, 3, 8);
        let mut op = ReFloatMatrix::from_csr(&a, format);
        let magnitude = 2.0f64.powi(magnitude_exp);
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| magnitude * (((i * 37 + seed as usize) % 19) as f64 / 19.0 + 0.05))
            .collect();
        let exact = a.spmv(&x);
        let mut approx = vec![0.0; a.nrows()];
        op.apply(&x, &mut approx);
        let err = vecops::rel_err(&approx, &exact);
        prop_assert!(err < 0.05, "relative SpMV error {err} too large at scale 2^{magnitude_exp}");
    }

    #[test]
    fn requantize_is_monotone_in_magnitude_within_the_exponent_window(
        frac_a in 1.0f64..2.0,
        frac_b in 1.0f64..2.0,
        exp_a in -3i32..4,
        exp_b in -3i32..4,
        f_bits in 0u32..12,
        mode_sel in 0usize..4,
    ) {
        // With eb = 0 and e = 3 the representable exponent window is [-3, 3]; inside
        // it, requantize must preserve magnitude ordering under every rounding and
        // underflow mode.  (The saturation-carry fix is what makes this hold at the
        // top of the window: pre-fix, a fraction that rounded to 2.0 at the max offset
        // was halved below its just-smaller neighbours.)
        let (rounding, underflow) = modes(mode_sel);
        let u = frac_a * pow2(exp_a);
        let v = frac_b * pow2(exp_b);
        let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
        let q_lo = requantize(lo, 0, 3, f_bits, rounding, underflow);
        let q_hi = requantize(hi, 0, 3, f_bits, rounding, underflow);
        prop_assert!(
            q_lo <= q_hi,
            "monotonicity violated: {lo} -> {q_lo} but {hi} -> {q_hi} \
             (f = {f_bits}, {rounding:?}, {underflow:?})"
        );
    }

    #[test]
    fn block_encoder_and_vector_converter_equal_requantize_bit_for_bit(
        fracs in proptest::collection::vec(1.0f64..2.0, 8),
        exps in proptest::collection::vec(-6i32..7, 8),
        negative in proptest::collection::vec(proptest::bool::ANY, 8),
        zero_at in 0usize..16,
        e_bits in 0u32..3,
        f_bits in 0u32..5,
        base in -2i32..3,
        mode_sel in 0usize..4,
    ) {
        // Narrow offset windows (e, ev ≤ 2 against exponents spanning 13 binades) make
        // saturation, flushing and the carry at a pinned offset common.
        let (rounding, underflow) = modes(mode_sel);
        let config = ReFloatConfig::new(3, e_bits, f_bits, e_bits, f_bits)
            .with_rounding(rounding)
            .with_underflow(underflow);
        let mut vals: Vec<f64> = (0..8)
            .map(|k| if negative[k] { -fracs[k] } else { fracs[k] } * pow2(exps[k]))
            .collect();
        if let Some(v) = vals.get_mut(zero_at) {
            *v = 0.0;
        }
        assert_encoders_match_requantize(&vals, config, base);
    }

    #[test]
    fn requantize_error_stays_within_the_fraction_and_saturation_bounds(
        frac in 1.0f64..2.0,
        exp in -12i32..13,
        f_bits in 0u32..11,
        e_bits in 0u32..5,
        mode_sel in 0usize..4,
    ) {
        let (rounding, underflow) = modes(mode_sel);
        let v = frac * pow2(exp);
        let q = requantize(v, 0, e_bits, f_bits, rounding, underflow);
        let max_off = max_offset_for_bits(e_bits);
        let f_err = fraction_truncation_error_bound(f_bits);
        let max_representable = (2.0 - f_err) * pow2(max_off);
        let eps = 1e-12;

        // Nothing ever exceeds the largest representable magnitude (this is the
        // saturation-carry fix: a carry at the saturated offset clamps there).
        prop_assert!(q <= max_representable * (1.0 + eps), "q = {q} above the format maximum");
        prop_assert!(q >= 0.0);

        if exp > max_off {
            // Saturated from above: the result keeps its own quantized fraction at
            // the max offset — never more than the input, never below 2^max_off.
            prop_assert!(q <= v);
            prop_assert!(q >= pow2(max_off) * (1.0 - eps));
        } else if exp >= -max_off {
            // In the window the only loss is fraction quantization: 2^(−f) relative.
            let rel = ((q - v) / v).abs();
            prop_assert!(
                rel <= f_err + eps,
                "in-window relative error {rel} above 2^-{f_bits}"
            );
            // And quantization never grows the magnitude beyond the rounding bound.
            prop_assert!(q <= v * (1.0 + f_err + eps));
        } else {
            // Below the window: flushed to exactly zero, or saturated to the smallest
            // representable offset (a magnitude *increase*, bounded by the format).
            match underflow {
                UnderflowMode::FlushToZero => prop_assert_eq!(q, 0.0),
                UnderflowMode::Saturate => {
                    prop_assert!(q >= v * (1.0 - f_err - eps));
                    prop_assert!(q <= (2.0 - f_err) * pow2(-max_off) * (1.0 + eps));
                }
            }
        }
    }

    #[test]
    fn cg_and_bicgstab_solve_the_same_random_system(
        seed in 0u64..500,
    ) {
        let a = random_spd(200, 1.0, seed);
        let x_star: Vec<f64> = (0..a.nrows()).map(|i| ((i % 11) as f64) / 11.0 + 0.1).collect();
        let b = a.spmv(&x_star);
        let cfg = SolverConfig::relative(1e-10).with_trace(false);
        let r_cg = cg(&mut a.clone(), &b, &cfg);
        let r_bi = bicgstab(&mut a.clone(), &b, &cfg);
        prop_assert!(r_cg.converged() && r_bi.converged());
        prop_assert!(vecops::rel_err(&r_cg.x, &x_star) < 1e-6);
        prop_assert!(vecops::rel_err(&r_bi.x, &x_star) < 1e-6);
    }
}
