//! Bit-exact decomposition and re-encoding of individual f64 values.
//!
//! A double-precision value is `(−1)^s · (1.b₅₁…b₀) · 2^(E−1023)` (§II.C).  The ReFloat
//! conversion keeps the sign, re-expresses the exponent as an offset from a per-block
//! base `eb`, and keeps only the leading `f` fraction bits (Fig. 5b).  This module
//! implements that per-scalar arithmetic, and [`quantize`] is its definition; block-level
//! base selection lives in [`crate::block`].  Beside the definition sits its
//! branch-free bit form, the one quantize step of the vector converter
//! ([`crate::vector`]) and of the matrix encoder ([`crate::matrix`]), which their oracle
//! property tests hold equal to [`quantize`] applied element by element.
//!
//! The hardware converter is shift-and-mask logic, and so is this model: the exponent is
//! read from the bit pattern, dropping fraction bits is a mask (rounding: an add, then
//! the mask) on the 52-bit fraction field, and the decoded value is assembled with
//! `f64::from_bits`.  Floating-point arithmetic appears only where the re-based exponent
//! `eb + offset` leaves the normal range, so that the result rounds (to a subnormal) or
//! overflows exactly as a multiplication would.

use crate::format::{max_offset_for_bits, RoundingMode, UnderflowMode};

/// Width of the IEEE-754 double fraction field.
pub(crate) const FRACTION_BITS: u32 = 52;
/// The fraction field of a double's bit pattern.
pub(crate) const FRACTION_MASK: u64 = (1 << FRACTION_BITS) - 1;
/// Exponent bias of a double.
pub(crate) const BIAS: i32 = 1023;
/// The biased exponent field of NaN and the infinities.
pub(crate) const NON_FINITE: u64 = 0x7ff;
/// The bit pattern of 1.0: a zero fraction field under the exponent of `[1, 2)`.
const ONE: u64 = 1.0f64.to_bits();

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
#[inline]
pub fn decompose(v: f64) -> Option<Decomposed> {
    let bits = v.to_bits();
    let magnitude = bits & (u64::MAX >> 1);
    let biased = magnitude >> FRACTION_BITS;
    // One test separates the normals from everything rare.
    let (exponent, field) = if biased.wrapping_sub(1) < NON_FINITE - 1 {
        (biased as i32 - BIAS, magnitude & FRACTION_MASK)
    } else if magnitude == 0 || biased == NON_FINITE {
        return None;
    } else {
        // Subnormal: |v| = magnitude · 2^−1074 with no implicit one.  Shift the leading
        // one up to the implicit position; every place shifted is one binade lower.
        let shift = magnitude.leading_zeros() - (63 - FRACTION_BITS);
        (
            1 - BIAS - shift as i32,
            (magnitude << shift) & FRACTION_MASK,
        )
    };
    Some(Decomposed {
        negative: bits >> 63 != 0,
        exponent,
        fraction: f64::from_bits(ONE | field),
    })
}

/// `2^e` as an f64, valid for the full double-precision exponent range (including
/// results that are subnormal, underflow to zero or overflow to infinity).
#[inline]
pub fn pow2(e: i32) -> f64 {
    match e {
        -1022..=1023 => f64::from_bits(((e + BIAS) as u64) << FRACTION_BITS),
        -1074..=-1023 => f64::from_bits(1 << (e + 1074)),
        ..=-1075 => 0.0,
        1024.. => f64::INFINITY,
    }
}

/// Keeps the leading `f_bits` of a 52-bit fraction field.  The result is the field of
/// the quantized fraction, or `2^52` when round-to-nearest carried out of the field
/// (the fraction became 2.0).
#[inline]
fn quantize_field(field: u64, f_bits: u32, mode: RoundingMode) -> u64 {
    let dropped = (1u64 << (FRACTION_BITS - f_bits)) - 1;
    let half = match mode {
        RoundingMode::Truncate => 0,
        // Half of the last kept place; ties round up, away from zero.
        RoundingMode::RoundNearest => (dropped + 1) >> 1,
    };
    (field + half) & !dropped
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
    // A carry out of the field lands in the exponent field: 1.0's pattern plus 2^52 is 2.0's.
    let field = quantize_field(fraction.to_bits() & FRACTION_MASK, f_bits, mode);
    f64::from_bits(ONE + field)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantized {
    /// Sign bit (`true` = negative), kept even when the value flushes to zero.
    pub negative: bool,
    /// Stored exponent offset, in `[−max_offset, max_offset]`.
    pub offset: i32,
    /// The quantized significand `1 + code / 2^f` as the fraction field of a double:
    /// the retained `f` bits in the field's leading places, zeros below.
    pub field: u64,
    /// Whether the offset fit the window.
    pub window: Window,
}

impl Quantized {
    /// Quantized significand in `[1, 2)`: `1 + code / 2^f`.
    pub fn fraction(&self) -> f64 {
        f64::from_bits(ONE | self.field)
    }

    /// The retained `f` fraction bits as an integer in `[0, 2^f)` (`f ≤ 52`).
    pub fn fraction_code(&self, f_bits: u32) -> u64 {
        self.field >> (FRACTION_BITS - f_bits)
    }

    /// The decoded (lossy) value `(−1)^s · fraction · 2^(eb + offset)`.
    #[inline]
    pub fn value(&self, eb: i32) -> f64 {
        let exponent = eb + self.offset;
        let magnitude = if (1 - BIAS..=BIAS).contains(&exponent) {
            ((exponent + BIAS) as u64) << FRACTION_BITS | self.field
        } else {
            (self.fraction() * pow2(exponent)).to_bits()
        };
        let bits = (self.negative as u64) << 63 | magnitude;
        // A flushed value decodes to +0.0 whatever its stored sign.
        f64::from_bits(if self.window == Window::Flushed {
            0
        } else {
            bits
        })
    }
}

/// The scalar kernel of the ReFloat conversion (Eq. 4–7), and its definition:
/// re-expresses `d`'s exponent as a saturating offset from `eb` within `±max_offset`
/// and keeps `f_bits` of fraction.  [`crate::block::ReFloatBlock`] runs it on every
/// element; the vector converter and the matrix encoder run `quantize_bits`, its bit
/// form, which their oracle property tests hold equal to this function applied element
/// by element, and keep this function for the values that form cannot assemble.
///
/// Every case is selected arithmetically, so a loop over it runs without branches on
/// the data's sign or position in the window.
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
    let clamped = raw.max(-max_offset).min(max_offset);
    let pinned = clamped != raw;
    let flushed = raw < -max_offset && underflow == UnderflowMode::FlushToZero;

    let rounded = quantize_field(d.fraction.to_bits() & FRACTION_MASK, f_bits, rounding);
    // Round-to-nearest carried out of the field (its low 52 bits are then zero, the
    // fraction 1.0).  The carry goes into the exponent when the offset has room above
    // it; a pinned offset (at either end of the window) cannot absorb it, so the
    // fraction clamps to the largest representable one, `2 − 2^(−f)`: at the top,
    // halving the fraction without incrementing the exponent would return ~half the
    // true magnitude; at the bottom, renormalizing *upward* would overshoot a value
    // already below the saturation floor.
    let carried = rounded >> FRACTION_BITS != 0;
    let absorbed = carried && !pinned && clamped < max_offset;
    let largest = FRACTION_MASK & !(FRACTION_MASK >> f_bits);
    let field = (rounded & FRACTION_MASK) | select(carried && !absorbed, largest);

    Quantized {
        negative: d.negative,
        offset: if flushed {
            0
        } else {
            clamped + absorbed as i32
        },
        field: select(!flushed, field),
        window: if flushed {
            Window::Flushed
        } else if pinned {
            Window::Saturated
        } else {
            Window::InRange
        },
    }
}

/// `value` when `keep`, else 0 — as a mask, not a branch.
#[inline]
pub(crate) fn select(keep: bool, value: u64) -> u64 {
    value & (keep as u64).wrapping_neg()
}

/// The window `[lo, hi]` of biased exponents that a base `eb` allows, `eb ± max_offset`,
/// for [`quantize_bits`]: as exponent fields, and as the smallest magnitudes with
/// biased exponents `lo`, `hi` and `hi + 1` (+Inf past 2046).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    lo: u64,
    hi: u64,
    floor: f64,
    top: f64,
    ceiling: f64,
}

impl Bounds {
    /// The window around `eb`, or `None` when it leaves the normal exponents `[1, 2046]`,
    /// where a decoded value needs [`Quantized::value`]'s floating-point path.
    #[inline]
    pub(crate) fn around(eb: i32, max_offset: i32) -> Option<Self> {
        let (lo, hi) = (eb - max_offset + BIAS, eb + max_offset + BIAS);
        if lo < 1 || hi >= NON_FINITE as i32 {
            return None;
        }
        let (lo, hi) = (lo as u64, hi as u64);
        let power = |biased: u64| f64::from_bits(biased << FRACTION_BITS);
        Some(Bounds {
            lo,
            hi,
            floor: power(lo),
            top: power(hi),
            ceiling: power(hi + 1),
        })
    }
}

/// What keeping `f` fraction bits drops, rounds by and clamps to, for [`quantize_bits`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fraction {
    dropped: u64,
    half: u64,
    largest: u64,
}

impl Fraction {
    /// The masks of an `f_bits`-bit fraction.
    pub(crate) fn new(f_bits: u32) -> Self {
        let dropped = (1u64 << (FRACTION_BITS - f_bits)) - 1;
        Fraction {
            dropped,
            half: (dropped + 1) >> 1,
            largest: FRACTION_MASK & !(FRACTION_MASK >> f_bits),
        }
    }
}

/// The branch-free bit form of [`quantize`] followed by [`Quantized::value`], with the
/// rounding (`NEAREST`) and underflow (`FTZ`) modes as compile-time parameters: `x`
/// against the window `bounds` of its base, keeping `fraction`'s bits.  Returns the
/// decoded value and whether it saturated and whether it was flushed.  The vector
/// converter runs it over a segment, the matrix encoder over a band with a per-block
/// window; both keep it off values whose decoding the bits cannot assemble — a
/// subnormal, or a window [`Bounds::around`] refuses — and run [`quantize`] there.
///
/// Every case is a `bool` combined with `&`, `|` and [`select`], never a branch, so a
/// loop over it runs at one speed whatever share of its values saturates.  The tests on
/// the exponent field are made on the magnitude: for `|x|` as a double, `e < lo` is
/// `|x| < 2^(lo − BIAS)`, and baseline x86-64 (SSE2) compares doubles two at a time but
/// has no 64-bit integer compare.
#[inline(always)]
pub(crate) fn quantize_bits<const NEAREST: bool, const FTZ: bool>(
    x: f64,
    bounds: &Bounds,
    fraction: &Fraction,
) -> (f64, bool, bool) {
    let (bits, a) = (x.to_bits(), x.abs());
    let e = (bits >> FRACTION_BITS) & NON_FINITE;
    // Zeros, NaN and ±Inf have no exponent: they convert to +0.0, uncounted.
    let live = (f64::MIN_POSITIVE..=f64::MAX).contains(&a);
    let (below, above) = (a < bounds.floor, a >= bounds.ceiling);
    let pinned = below | above;
    let c = select(!pinned, e) | select(below, bounds.lo) | select(above, bounds.hi);
    let flush = FTZ & below;
    let (exponent, field) = if NEAREST {
        // A carry out of the field goes into the exponent when it has room above it; a
        // pinned exponent cannot absorb it, and the fraction clamps to the largest one
        // (see `quantize`).  Unpinned, `c < hi` is `e < hi`.
        let rounded = ((bits & FRACTION_MASK) + fraction.half) & !fraction.dropped;
        let carried = rounded > FRACTION_MASK;
        let absorbed = carried & !pinned & (a < bounds.top);
        let field = rounded & FRACTION_MASK | select(carried & !absorbed, fraction.largest);
        (c + absorbed as u64, field)
    } else {
        (c, bits & FRACTION_MASK & !fraction.dropped)
    };
    let keep = live & !flush;
    let decoded = f64::from_bits(select(
        keep,
        bits & 1 << 63 | exponent << FRACTION_BITS | field,
    ));
    (decoded, pinned & keep, flush & live)
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

/// The floating-point definition of the conversion, as the format was first written
/// down: divide out the exponent, scale, `floor`/`round`, branch on the window.  The
/// integer kernel above must agree with it bit for bit.
#[cfg(test)]
mod reference {
    use super::{pow2, RoundingMode, UnderflowMode, Window};

    pub struct Quantized {
        pub negative: bool,
        pub offset: i32,
        pub fraction: f64,
        pub window: Window,
    }

    pub fn decompose(v: f64) -> Option<(bool, i32, f64)> {
        if v == 0.0 || !v.is_finite() {
            return None;
        }
        let exponent = refloat_sparse::stats::exponent_of(v);
        Some((v < 0.0, exponent, v.abs() / pow2(exponent)))
    }

    pub fn quantize_fraction(fraction: f64, f_bits: u32, mode: RoundingMode) -> f64 {
        assert!((1.0..2.0).contains(&fraction));
        let scale = (1u64 << f_bits) as f64;
        match mode {
            RoundingMode::Truncate => ((fraction - 1.0) * scale).floor() / scale + 1.0,
            RoundingMode::RoundNearest => ((fraction - 1.0) * scale).round() / scale + 1.0,
        }
    }

    pub fn quantize(
        (negative, exponent, fraction): (bool, i32, f64),
        eb: i32,
        max_offset: i32,
        f_bits: u32,
        rounding: RoundingMode,
        underflow: UnderflowMode,
    ) -> Quantized {
        let raw = exponent - eb;
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
            _ => quantize_fraction(fraction, f_bits, rounding),
        };
        if fraction >= 2.0 {
            if window == Window::InRange && offset < max_offset {
                fraction = 1.0;
                offset += 1;
            } else {
                fraction = 2.0 - pow2(-(f_bits as i32));
            }
        }
        Quantized {
            negative,
            offset,
            fraction,
            window,
        }
    }

    impl Quantized {
        pub fn fraction_code(&self, f_bits: u32) -> u64 {
            ((self.fraction - 1.0) * (1u64 << f_bits) as f64).round() as u64
        }

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

        // The smallest subnormal is 1.0 · 2^−1074.
        let d = decompose(-f64::from_bits(1)).unwrap();
        assert_eq!((d.negative, d.exponent, d.fraction), (true, -1074, 1.0));

        assert_eq!(decompose(0.0), None);
        assert_eq!(decompose(-0.0), None);
        assert_eq!(decompose(f64::NAN), None);
        assert_eq!(decompose(f64::INFINITY), None);
        assert_eq!(decompose(f64::NEG_INFINITY), None);
    }

    #[test]
    fn pow2_is_exact_over_the_whole_exponent_range() {
        for e in [-1022, -300, -1, 0, 1, 52, 1023] {
            assert_eq!(pow2(e), 2.0f64.powi(e), "e = {e}");
        }
        // Below the normal range `powi` underflows to zero; the subnormal powers of two
        // are still exact.
        assert_eq!(pow2(-1023), f64::MIN_POSITIVE / 2.0);
        assert_eq!(pow2(-1074), f64::from_bits(1));
        assert_eq!(pow2(-1075), 0.0);
        assert_eq!(pow2(1024), f64::INFINITY);
    }

    const MODES: [(RoundingMode, UnderflowMode); 4] = [
        (RoundingMode::Truncate, UnderflowMode::Saturate),
        (RoundingMode::Truncate, UnderflowMode::FlushToZero),
        (RoundingMode::RoundNearest, UnderflowMode::Saturate),
        (RoundingMode::RoundNearest, UnderflowMode::FlushToZero),
    ];

    /// Asserts that the integer kernel and the float reference agree on `v` against
    /// `eb`, in all four mode pairs: same decomposition, offset, fraction code and
    /// window, and the same decoded value bit for bit.
    fn assert_matches_reference(v: f64, eb: i32, e_bits: u32, f_bits: u32) {
        let max_offset = max_offset_for_bits(e_bits);
        let (Some(d), Some(r)) = (decompose(v), reference::decompose(v)) else {
            assert!(decompose(v).is_none() && reference::decompose(v).is_none());
            return;
        };
        assert_eq!((d.negative, d.exponent), (r.0, r.1), "decompose({v:e})");
        assert_eq!(d.fraction.to_bits(), r.2.to_bits(), "decompose({v:e})");
        for (rounding, underflow) in MODES {
            let context = format!(
                "{v:e} ({:#018x}) against eb {eb}, e {e_bits}, f {f_bits}, {rounding:?}, {underflow:?}",
                v.to_bits()
            );
            let got = quantize(d, eb, max_offset, f_bits, rounding, underflow);
            let want = reference::quantize(r, eb, max_offset, f_bits, rounding, underflow);
            assert_eq!(got.negative, want.negative, "{context}");
            assert_eq!(got.offset, want.offset, "{context}");
            assert_eq!(got.window, want.window, "{context}");
            assert_eq!(
                got.fraction().to_bits(),
                want.fraction.to_bits(),
                "{context}"
            );
            assert_eq!(
                got.fraction_code(f_bits),
                want.fraction_code(f_bits),
                "{context}"
            );
            assert_eq!(
                got.value(eb).to_bits(),
                want.value(eb).to_bits(),
                "{context}"
            );
            assert_eq!(
                requantize(v, eb, e_bits, f_bits, rounding, underflow).to_bits(),
                want.value(eb).to_bits(),
                "{context}"
            );
        }
    }

    #[test]
    fn the_integer_quantiser_equals_the_float_reference_on_the_pinned_cases() {
        // The RoundNearest carry at a pinned offset: 15.9 saturates from above, 3.4 sits
        // at the top of the window, both clamp to 1.75 · 2.
        for v in [15.9, 3.4] {
            assert_matches_reference(v, 0, 2, 2);
            assert_eq!(
                requantize(
                    v,
                    0,
                    2,
                    2,
                    RoundingMode::RoundNearest,
                    UnderflowMode::Saturate
                ),
                3.5
            );
        }
        for v in [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_matches_reference(v, 0, 3, 8);
            for (rounding, underflow) in MODES {
                let q = requantize(v, 0, 3, 8, rounding, underflow);
                assert_eq!(q.to_bits(), 0, "{v} must requantize to +0.0");
            }
        }
        // A carry absorbed at the top binade overflows; a subnormal result rounds once.
        assert_matches_reference(f64::MAX, 1020, 3, 4);
        assert_matches_reference(f64::MIN_POSITIVE * 1.75, -1019, 3, 1);
        assert_matches_reference(f64::from_bits(0b1011), -1071, 3, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn the_integer_quantiser_equals_the_float_reference_bit_for_bit(
            bits in prop_oneof![
                // Any pattern: normals of every binade, now and then NaN or ±Inf.
                0u64..=u64::MAX,
                // Subnormals of every magnitude.
                (0u64..=u64::MAX, 12u32..=63)
                    .prop_map(|(bits, shift)| bits & 1 << 63 | (bits & u64::MAX >> 1) >> shift),
                // The first and last binades, where `eb + offset` leaves the normal range.
                (0u64..=u64::MAX, 0usize..6).prop_map(|(bits, pick)| {
                    let biased = [1u64, 2, 3, 2044, 2045, 2046][pick];
                    bits & !(0x7ff << 52) | biased << 52
                }),
                // Leading fraction bits all ones: round-to-nearest carries.
                (0u64..=u64::MAX, 0u32..=52)
                    .prop_map(|(bits, ones)| bits | FRACTION_MASK & !(FRACTION_MASK >> ones)),
            ],
            e_bits in 0u32..=11,
            f_bits in 0u32..=52,
            edge in 0usize..3,
            spread in -3i32..=3,
        ) {
            // Aim the raw offset at the bottom, the middle or the top of the window,
            // give or take a few binades.
            let v = f64::from_bits(bits);
            let max_offset = max_offset_for_bits(e_bits);
            let target = [-max_offset, 0, max_offset][edge] + spread;
            let eb = reference::decompose(v).map_or(0, |(_, exponent, _)| exponent - target);
            assert_matches_reference(v, eb, e_bits, f_bits);
        }
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
