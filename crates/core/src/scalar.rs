//! Bit-exact decomposition and re-encoding of individual f64 values.
//!
//! A double-precision value is `(−1)^s · (1.b₅₁…b₀) · 2^(E−1023)` (§II.C).  The ReFloat
//! conversion keeps the sign, re-expresses the exponent as an offset from a per-block
//! base `eb`, and keeps only the leading `f` fraction bits (Fig. 5b).  This module
//! implements that per-scalar arithmetic; block-level base selection lives in
//! [`crate::block`].

use crate::format::{max_offset_for_bits, RoundingMode, UnderflowMode};

/// The sign / exponent / fraction decomposition of a finite nonzero f64.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decomposed {
    /// `true` for negative values.
    pub negative: bool,
    /// Unbiased binary exponent `floor(log2 |v|)`.
    pub exponent: i32,
    /// Normalized significand in `[1, 2)`.
    pub fraction: f64,
}

/// Decomposes a finite value into sign, unbiased exponent and normalized fraction.
/// Returns `None` for zero (which has no exponent) and for NaN/infinities.
pub fn decompose(v: f64) -> Option<Decomposed> {
    if v == 0.0 || !v.is_finite() {
        return None;
    }
    let exponent = refloat_sparse::stats::exponent_of(v);
    let fraction = v.abs() / pow2(exponent);
    Some(Decomposed {
        negative: v < 0.0,
        exponent,
        fraction,
    })
}

/// `2^e` as an f64, valid for the full double-precision exponent range (including
/// results that are subnormal or overflow to infinity).
pub fn pow2(e: i32) -> f64 {
    // f64::powi is exact for powers of two within range; use ldexp-style construction
    // for the normal range to avoid any libm dependence on rounding mode.
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        2.0f64.powi(e)
    }
}

/// Quantizes a normalized fraction in `[1, 2)` to `f` explicit fraction bits.
///
/// Truncation keeps the leading bits (the paper's rule); round-to-nearest may round up
/// to exactly 2.0, in which case the caller is responsible for renormalizing
/// ([`quantize`] folds that case into the exponent offset).
pub fn quantize_fraction(fraction: f64, f_bits: u32, mode: RoundingMode) -> f64 {
    debug_assert!(
        (1.0..2.0).contains(&fraction),
        "fraction {fraction} must be in [1, 2)"
    );
    let scale = (1u64 << f_bits) as f64;
    match mode {
        RoundingMode::Truncate => ((fraction - 1.0) * scale).floor() / scale + 1.0,
        RoundingMode::RoundNearest => ((fraction - 1.0) * scale).round() / scale + 1.0,
    }
}

/// Where a value's exponent offset landed relative to the representable window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The offset fits; only the fraction loses bits.
    InRange,
    /// The offset was clamped to the top or (under `Saturate`) the bottom of the window.
    Saturated,
    /// The offset fell below the window under `FlushToZero`: the value is stored as zero.
    Flushed,
}

/// The stored parts of one value encoded against an exponent base (Fig. 4b / Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantized {
    /// Sign bit (`true` = negative), kept even when the value flushes to zero.
    pub negative: bool,
    /// Stored exponent offset, in `[−max_offset, max_offset]`.
    pub offset: i32,
    /// Quantized significand in `[1, 2)`: `1 + code / 2^f`.
    pub fraction: f64,
    /// Whether the offset fit the window.
    pub window: Window,
}

impl Quantized {
    /// The retained `f` fraction bits as an integer in `[0, 2^f)`.
    pub fn fraction_code(&self, f_bits: u32) -> u32 {
        ((self.fraction - 1.0) * (1u64 << f_bits) as f64).round() as u32
    }

    /// The decoded (lossy) value `(−1)^s · fraction · 2^(eb + offset)`.
    pub fn value(&self, eb: i32) -> f64 {
        if self.window == Window::Flushed {
            return 0.0;
        }
        let magnitude = self.fraction * pow2(eb + self.offset);
        if self.negative {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// The scalar kernel of the ReFloat conversion (Eq. 4–7), defined once for matrix
/// blocks and vector segments alike: re-expresses `d`'s exponent as a saturating
/// offset from `eb` within `±max_offset` and keeps `f_bits` of fraction.
#[inline]
pub fn quantize(
    d: Decomposed,
    eb: i32,
    max_offset: i32,
    f_bits: u32,
    rounding: RoundingMode,
    underflow: UnderflowMode,
) -> Quantized {
    let raw = d.exponent - eb;
    let (mut offset, window) = if raw > max_offset {
        (max_offset, Window::Saturated)
    } else if raw >= -max_offset {
        (raw, Window::InRange)
    } else if underflow == UnderflowMode::Saturate {
        (-max_offset, Window::Saturated)
    } else {
        (0, Window::Flushed)
    };
    let mut fraction = match window {
        Window::Flushed => 1.0,
        _ => quantize_fraction(d.fraction, f_bits, rounding),
    };
    if fraction >= 2.0 {
        // Round-to-nearest carried into the exponent.
        if window == Window::InRange && offset < max_offset {
            fraction = 1.0;
            offset += 1;
        } else {
            // The offset is pinned (at either end of the window), so the carry cannot
            // be absorbed: clamp to the largest representable fraction, `2 − 2^(−f)`.
            // At the top, halving the fraction without incrementing the exponent
            // would return ~half the true magnitude; at the bottom, renormalizing
            // *upward* would overshoot a value already below the saturation floor.
            fraction = 2.0 - pow2(-(f_bits as i32));
        }
    }
    Quantized {
        negative: d.negative,
        offset,
        fraction,
        window,
    }
}

/// Re-encodes a single value against an exponent base `eb` with `e_bits` of saturating
/// signed offset and `f_bits` of fraction, returning the decoded (lossy) f64:
/// [`quantize`] followed by [`Quantized::value`].
pub fn requantize(
    v: f64,
    eb: i32,
    e_bits: u32,
    f_bits: u32,
    rounding: RoundingMode,
    underflow: UnderflowMode,
) -> f64 {
    decompose(v).map_or(0.0, |d| {
        quantize(
            d,
            eb,
            max_offset_for_bits(e_bits),
            f_bits,
            rounding,
            underflow,
        )
        .value(eb)
    })
}

/// The worst-case relative error of an `f`-bit truncated fraction: `2^(−f)`.
///
/// Useful for tests and for the error-model discussion in the documentation.
pub fn fraction_truncation_error_bound(f_bits: u32) -> f64 {
    pow2(-(f_bits as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decompose_known_values() {
        let d = decompose(6.0).unwrap();
        assert!(!d.negative);
        assert_eq!(d.exponent, 2);
        assert!((d.fraction - 1.5).abs() < 1e-15);

        let d = decompose(-0.75).unwrap();
        assert!(d.negative);
        assert_eq!(d.exponent, -1);
        assert!((d.fraction - 1.5).abs() < 1e-15);

        assert_eq!(decompose(0.0), None);
        assert_eq!(decompose(f64::NAN), None);
        assert_eq!(decompose(f64::INFINITY), None);
    }

    #[test]
    fn pow2_matches_powi_in_normal_range() {
        for e in [-1022, -300, -1, 0, 1, 52, 1023] {
            assert_eq!(pow2(e), 2.0f64.powi(e), "e = {e}");
        }
        assert_eq!(pow2(-1074), 2.0f64.powi(-1074));
    }

    #[test]
    fn quantize_fraction_truncates_and_rounds() {
        // 1.6875 = 1.1011₂; with 2 fraction bits truncation gives 1.10₂ = 1.5,
        // rounding gives 1.11₂ = 1.75.
        assert_eq!(quantize_fraction(1.6875, 2, RoundingMode::Truncate), 1.5);
        assert_eq!(
            quantize_fraction(1.6875, 2, RoundingMode::RoundNearest),
            1.75
        );
        // With 0 bits everything becomes 1.0 under truncation.
        assert_eq!(quantize_fraction(1.999, 0, RoundingMode::Truncate), 1.0);
        // Already representable values are unchanged.
        assert_eq!(quantize_fraction(1.5, 4, RoundingMode::Truncate), 1.5);
    }

    #[test]
    fn requantize_reproduces_paper_eq6_eq7_example() {
        // Eq. (6)->(7): with eb = 8 and ReFloat(·, 2, 2):
        //   -1.1111·2^7 -> -1.11·2^-1·2^8 = -224.0     336.0 -> 320.0
        //   -1.0000·2^9 -> -512.0                       136.0 -> 128.0
        let eb = 8;
        assert_eq!(
            requantize(
                -248.0,
                eb,
                2,
                2,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            -224.0
        );
        assert_eq!(
            requantize(
                336.0,
                eb,
                2,
                2,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            320.0
        );
        assert_eq!(
            requantize(
                -512.0,
                eb,
                2,
                2,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            -512.0
        );
        assert_eq!(
            requantize(
                136.0,
                eb,
                2,
                2,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            128.0
        );
    }

    #[test]
    fn requantize_saturates_and_flushes_out_of_window_values() {
        // eb = 0, 3 offset bits -> representable exponents [-3, 3].
        let huge = 1024.0; // exponent 10, above the window
        let sat = requantize(
            huge,
            0,
            3,
            4,
            RoundingMode::Truncate,
            UnderflowMode::Saturate,
        );
        assert_eq!(sat, 8.0); // clamped to 2^3 with fraction 1.0
        let tiny = 2.0f64.powi(-20) * 1.5;
        let sat_lo = requantize(
            tiny,
            0,
            3,
            4,
            RoundingMode::Truncate,
            UnderflowMode::Saturate,
        );
        assert_eq!(sat_lo, 1.5 * 2.0f64.powi(-3));
        let flushed = requantize(
            tiny,
            0,
            3,
            4,
            RoundingMode::Truncate,
            UnderflowMode::FlushToZero,
        );
        assert_eq!(flushed, 0.0);
    }

    #[test]
    fn requantize_zero_and_exact_values() {
        assert_eq!(
            requantize(
                0.0,
                5,
                3,
                3,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            0.0
        );
        // A value exactly representable in the window survives untouched.
        assert_eq!(
            requantize(
                1.5,
                0,
                3,
                4,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            1.5
        );
        assert_eq!(
            requantize(
                -3.0,
                0,
                3,
                4,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            -3.0
        );
    }

    #[test]
    fn round_nearest_carry_at_saturated_offset_clamps_to_max_fraction() {
        // Regression: with eb = 0, e = 3 (max offset 3) and f = 8, the value
        // (2 − 2^−9)·2^3 rounds its fraction up to 2.0 while the offset is already
        // saturated.  The carry cannot go into the exponent, so the result must clamp
        // to the max representable fraction (2 − 2^−8)·2^3 — not halve to 1.0·2^3.
        let v = (2.0 - pow2(-9)) * 8.0;
        let q = requantize(
            v,
            0,
            3,
            8,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, (2.0 - pow2(-8)) * 8.0);
        let ratio = q / v;
        assert!(
            ratio >= 1.0 - pow2(-8),
            "saturated carry must not halve the value: ratio = {ratio}"
        );

        // Same mechanism when the value saturates from *above* the window and its
        // fraction rounds up to 2.0.
        let v = (2.0 - pow2(-9)) * 2.0f64.powi(6); // offset 6 > max_off 3
        let q = requantize(
            v,
            0,
            3,
            8,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, (2.0 - pow2(-8)) * 8.0);

        // f = 0 degenerates gracefully: the only representable fraction is 1.0.
        let q0 = requantize(
            1.75 * 8.0,
            0,
            3,
            0,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q0, 8.0);
    }

    #[test]
    fn round_nearest_carry_below_the_window_clamps_at_the_saturation_floor() {
        // A value *below* the window whose fraction rounds up to 2.0 must not
        // renormalize out of the saturation floor: with eb = 0, e = 2 (window
        // [-1, 1]) and f = 0, the value 1.6·2^−3 saturates to offset −1 and its
        // fraction rounds to 2.0 — the result must clamp to (2 − 2^0)·2^−1 = 0.5,
        // not renormalize to 1.0·2^0 (double the floor cap).
        let q = requantize(
            1.6 * pow2(-3),
            0,
            2,
            0,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, 0.5);

        // With fraction bits: 1.99·2^−12 under e = 3, f = 3 saturates to offset −3
        // and rounds its fraction to 2.0 -> clamp to (2 − 2^−3)·2^−3 = 0.234375.
        let q = requantize(
            1.99 * pow2(-12),
            0,
            3,
            3,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, (2.0 - pow2(-3)) * pow2(-3));
        // The below-window result never exceeds the saturation-floor cap.
        assert!(q <= (2.0 - pow2(-3)) * pow2(-3));
    }

    #[test]
    fn saturated_requantize_is_idempotent_and_monotone_near_the_top() {
        // The clamped maximum is itself representable, so re-encoding is a fixed point.
        let top = (2.0 - pow2(-8)) * 8.0;
        let q = requantize(
            top,
            0,
            3,
            8,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, top);
        // Magnitudes just below the carry threshold must not map above the clamped max.
        let below = (2.0 - pow2(-7)) * 8.0;
        let qb = requantize(
            below,
            0,
            3,
            8,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert!(qb <= q);
    }

    #[test]
    fn round_nearest_carry_renormalizes() {
        // 1.96875 with 2 round-to-nearest fraction bits rounds up to 2.0 -> 1.0·2^(e+1).
        let v = 1.96875 * 4.0; // exponent 2
        let q = requantize(
            v,
            2,
            3,
            2,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, 8.0);
    }

    proptest! {
        #[test]
        fn truncation_error_is_bounded_when_offset_in_window(
            sign in proptest::bool::ANY,
            frac in 1.0f64..2.0,
            exp in -8i32..8,
            f_bits in 0u32..12,
        ) {
            // With eb = 0 and a wide-enough offset window the only loss is the fraction
            // truncation, bounded by 2^-f relative error (the bound quoted in §III.D).
            let v = if sign { -frac } else { frac } * pow2(exp);
            let q = requantize(v, 0, 5, f_bits, RoundingMode::Truncate, UnderflowMode::Saturate);
            let rel = ((q - v) / v).abs();
            prop_assert!(rel <= fraction_truncation_error_bound(f_bits) + 1e-15,
                "v = {v}, q = {q}, rel = {rel}");
            // Truncation never increases the magnitude.
            prop_assert!(q.abs() <= v.abs() + 1e-300);
            // Sign is always preserved.
            prop_assert_eq!(q.is_sign_negative(), v.is_sign_negative());
        }

        #[test]
        fn requantize_is_idempotent(
            frac in 1.0f64..2.0,
            exp in -6i32..6,
            f_bits in 0u32..10,
        ) {
            let v = frac * pow2(exp);
            let q1 = requantize(v, 0, 4, f_bits, RoundingMode::Truncate, UnderflowMode::Saturate);
            let q2 = requantize(q1, 0, 4, f_bits, RoundingMode::Truncate, UnderflowMode::Saturate);
            prop_assert_eq!(q1, q2);
        }
    }
}
