//! The vector converter (Fig. 6d): per-segment re-encoding of the solver vectors.
//!
//! Before every SpMV the input vector is split into segments of length `2^b`; each
//! segment gets its own exponent base `ebv` (the rounded mean of its element exponents,
//! the same Eq. 5 optimum used for matrix blocks), and each element is re-encoded with
//! `ev` offset bits and `fv` fraction bits.  Because the base is recomputed *every
//! iteration*, the representable window tracks the solver vectors as they shrink toward
//! convergence — this is exactly the property the Feinberg baseline lacks (§III.C).
//!
//! The converter runs before every quantized SpMV, so it is a segment kernel over raw
//! bit patterns, not a loop over [`quantize`]'s decompose-and-assemble.  Each segment
//! takes two passes:
//!
//! 1. **Exponent sum.**  Sum and count the biased exponents of the segment's normals;
//!    `ebv` is their rounded mean (Eq. 5), which is [`optimal_exponent_base`]'s value
//!    whenever the segment holds no subnormal.
//! 2. **Quantize.**  Clamp each biased exponent into the window `ebv ± max_offset`, keep
//!    (or round) the leading `fv` bits of the fraction field with a mask, and put the
//!    sign back, with no branch on the data.  The rounding and underflow modes are
//!    compile-time parameters of one generic body, chosen once per call.
//!
//! An *edge segment* — one holding a subnormal, or whose window leaves the normal
//! exponent range, where decoding needs the floating-point path — runs the
//! per-element [`quantize`] loop instead, with its base from [`optimal_exponent_base`].
//! [`quantize`] stays the one definition of the conversion; the kernel is its segment
//! form, held equal to the per-element loop (outputs, bases and statistics) by a
//! property test over all four modes.

use std::sync::Arc;

use crate::block::{optimal_exponent_base, rounded_mean};
use crate::format::{ReFloatConfig, RoundingMode, UnderflowMode};
use crate::scalar::{
    decompose, quantize, select, Window, BIAS, FRACTION_BITS, FRACTION_MASK, NON_FINITE,
};

/// Statistics of one vector conversion, useful for instrumentation and tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConversionStats {
    /// Number of elements whose exponent offset saturated (above or below the window).
    pub saturated: usize,
    /// Number of elements flushed to zero (only in `FlushToZero` mode).
    pub flushed: usize,
    /// Number of nonzero elements converted.
    pub nonzero: usize,
}

/// Converts solver vectors into ReFloat segment encoding.
///
/// The converter owns its scratch statistics; one instance per operator is enough.
#[derive(Debug, Clone)]
pub struct VectorConverter {
    config: ReFloatConfig,
    /// Per-segment exponent bases of the most recent conversion.
    last_bases: Vec<i32>,
    /// Statistics of the most recent conversion.
    last_stats: ConversionStats,
}

impl VectorConverter {
    /// Creates a converter for the given format configuration.
    pub fn new(config: ReFloatConfig) -> Self {
        VectorConverter {
            config,
            last_bases: Vec::new(),
            last_stats: ConversionStats::default(),
        }
    }

    /// The format configuration in use.
    pub fn config(&self) -> &ReFloatConfig {
        &self.config
    }

    /// The per-segment exponent bases `ebv` chosen by the most recent conversion.
    pub fn last_bases(&self) -> &[i32] {
        &self.last_bases
    }

    /// Statistics of the most recent conversion.
    pub fn last_stats(&self) -> &ConversionStats {
        &self.last_stats
    }

    /// Quantizes `x` segment-by-segment into `out` (both length `n`), returning nothing;
    /// bases and statistics are retrievable afterwards.
    ///
    /// Each segment is two passes over its bit patterns: an exponent sum that gives
    /// `ebv`, then the quantize kernel, specialised per rounding × underflow mode.  An
    /// edge segment (a subnormal, or a window past the normal exponent range) runs the
    /// per-element [`quantize`] loop with [`optimal_exponent_base`] instead.  Every
    /// segment gets the same base, bits and statistics either way.
    ///
    /// # Panics
    /// Panics if `out.len() != x.len()`.
    pub fn convert_into(&mut self, x: &[f64], out: &mut [f64]) {
        assert_eq!(
            x.len(),
            out.len(),
            "vector converter: output length mismatch"
        );
        self.last_bases.clear();
        self.last_bases
            .reserve(x.len().div_ceil(self.config.block_size()));
        use {RoundingMode::*, UnderflowMode::*};
        self.last_stats = match (self.config.rounding, self.config.underflow) {
            (Truncate, Saturate) => self.convert_segments::<false, false>(x, out),
            (Truncate, FlushToZero) => self.convert_segments::<false, true>(x, out),
            (RoundNearest, Saturate) => self.convert_segments::<true, false>(x, out),
            (RoundNearest, FlushToZero) => self.convert_segments::<true, true>(x, out),
        };
    }

    /// [`convert_into`](Self::convert_into)'s segment loop for one rounding
    /// (`NEAREST`) × underflow (`FTZ`) mode; pushes the bases, returns the statistics.
    fn convert_segments<const NEAREST: bool, const FTZ: bool>(
        &mut self,
        x: &[f64],
        out: &mut [f64],
    ) -> ConversionStats {
        let (seg, max_offset) = (self.config.block_size(), self.config.max_offset_vector());
        let mut stats = ConversionStats::default();
        for (segment, out) in x.chunks(seg).zip(out.chunks_mut(seg)) {
            let (sum, count, subnormals) = exponent_sum(segment);
            let ebv = rounded_mean(sum - BIAS as i64 * count, count);
            let (lo, hi) = (ebv - max_offset + BIAS, ebv + max_offset + BIAS);
            if subnormals != 0 || lo < 1 || hi >= NON_FINITE as i32 {
                let ebv = optimal_exponent_base(segment);
                self.last_bases.push(ebv);
                quantize_by_element(segment, out, ebv, &self.config, &mut stats);
                continue;
            }
            self.last_bases.push(ebv);
            let (saturated, flushed) = quantize_segment::<NEAREST, FTZ>(
                segment,
                out,
                lo as u64,
                hi as u64,
                self.config.fv,
            );
            stats.nonzero += count as usize;
            stats.saturated += saturated;
            stats.flushed += flushed;
        }
        stats
    }

    /// Allocating convenience wrapper around [`convert_into`](Self::convert_into).
    pub fn convert(&mut self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.convert_into(x, &mut out);
        out
    }
}

/// The sum and the count of the biased exponents of `segment`'s normals, and the number
/// of its subnormals.
///
/// Every element's exponent field is summed, and counts correct the sum: zeros and
/// subnormals add 0, NaN and ±Inf add [`NON_FINITE`] each.  The counts come from
/// comparing magnitudes as doubles, which x86-64's baseline SSE2 does two at a time.
/// It has no 64-bit integer compare: testing the exponent field instead ran this pass
/// at 0.66 G elements/s against 1.70 G (one 2-core x86-64 host, 128-element segments).
#[inline]
fn exponent_sum(segment: &[f64]) -> (i64, i64, u64) {
    let (mut sum, mut finite, mut tiny, mut zeros) = (0u64, 0u64, 0u64, 0u64);
    for x in segment {
        let a = x.abs();
        sum += (x.to_bits() >> FRACTION_BITS) & NON_FINITE;
        finite += (a <= f64::MAX) as u64;
        tiny += (a < f64::MIN_POSITIVE) as u64;
        zeros += (a == 0.0) as u64;
    }
    let non_finite = segment.len() as u64 - finite;
    let normals = finite - tiny;
    (
        (sum - NON_FINITE * non_finite) as i64,
        normals as i64,
        tiny - zeros,
    )
}

/// The segment form of [`quantize`] followed by [`Quantized::value`](crate::scalar::Quantized::value),
/// for a segment with no subnormal whose window `[lo, hi]` of biased exponents lies in
/// the normal range, so every output is assembled from its fields.  Returns the numbers
/// of saturated and flushed elements.
///
/// Every case is a `bool` combined with `&`, `|` and [`select`], never a branch, so the
/// loop runs at one speed whatever share of the segment saturates.  The tests on the
/// exponent field are made on the magnitude, for the reason [`exponent_sum`] gives: for
/// `|x|` as a double, `e < lo` is `|x| < 2^(lo − BIAS)`.
#[inline(always)]
fn quantize_segment<const NEAREST: bool, const FTZ: bool>(
    segment: &[f64],
    out: &mut [f64],
    lo: u64,
    hi: u64,
    fv: u32,
) -> (usize, usize) {
    let dropped = (1u64 << (FRACTION_BITS - fv)) - 1;
    let half = (dropped + 1) >> 1;
    let largest = FRACTION_MASK & !(FRACTION_MASK >> fv);
    // The smallest magnitudes with biased exponents lo, hi and hi + 1 (+Inf past 2046).
    let power = |biased: u64| f64::from_bits(biased << FRACTION_BITS);
    let (floor, top, ceiling) = (power(lo), power(hi), power(hi + 1));
    let (mut saturated, mut flushed) = (0, 0);
    for (x, o) in segment.iter().zip(out) {
        let (bits, a) = (x.to_bits(), x.abs());
        let e = (bits >> FRACTION_BITS) & NON_FINITE;
        // Zeros, NaN and ±Inf have no exponent: they convert to +0.0, uncounted.
        let live = (f64::MIN_POSITIVE..=f64::MAX).contains(&a);
        let (below, above) = (a < floor, a >= ceiling);
        let pinned = below | above;
        let c = select(!pinned, e) | select(below, lo) | select(above, hi);
        let flush = FTZ & below;
        let (exponent, field) = if NEAREST {
            // A carry out of the field goes into the exponent when it has room above
            // it; a pinned exponent cannot absorb it, and the fraction clamps to the
            // largest one (see `quantize`).  Unpinned, `c < hi` is `e < hi`.
            let rounded = ((bits & FRACTION_MASK) + half) & !dropped;
            let carried = rounded > FRACTION_MASK;
            let absorbed = carried & !pinned & (a < top);
            let field = rounded & FRACTION_MASK | select(carried & !absorbed, largest);
            (c + absorbed as u64, field)
        } else {
            (c, bits & FRACTION_MASK & !dropped)
        };
        let keep = live & !flush;
        *o = f64::from_bits(select(
            keep,
            bits & 1 << 63 | exponent << FRACTION_BITS | field,
        ));
        saturated += (pinned & keep) as usize;
        flushed += (flush & live) as usize;
    }
    (saturated, flushed)
}

/// The per-element conversion of one segment against `ebv`: [`quantize`] and
/// [`Quantized::value`](crate::scalar::Quantized::value) on every element with an
/// exponent, adding into `stats`.  It runs the edge segments, and over every segment it
/// is the reference the kernel is tested against.
fn quantize_by_element(
    segment: &[f64],
    out: &mut [f64],
    ebv: i32,
    config: &ReFloatConfig,
    stats: &mut ConversionStats,
) {
    let max_offset = config.max_offset_vector();
    for (xi, oi) in segment.iter().zip(out) {
        // Zeros — and NaN/±Inf, which have no exponent either — convert to +0.0 and are
        // not counted.
        let Some(d) = decompose(*xi) else {
            *oi = 0.0;
            continue;
        };
        let q = quantize(
            d,
            ebv,
            max_offset,
            config.fv,
            config.rounding,
            config.underflow,
        );
        stats.nonzero += 1;
        stats.saturated += (q.window == Window::Saturated) as usize;
        stats.flushed += (q.window == Window::Flushed) as usize;
        *oi = q.value(ebv);
    }
}

/// The quantized copy of an operator's input vector.  It is scratch, not state: sized
/// on the first conversion, and a clone starts empty instead of copying `O(ncols)`
/// values its owner may never read.  It sits behind an `Arc` so that the helper lanes
/// of a split apply can read it; they let go of it before the apply returns, so the
/// next conversion writes in place.
#[derive(Debug, Default)]
pub(crate) struct Scratch(Arc<Vec<f64>>);

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl Scratch {
    /// Converts `x` into the scratch.
    pub(crate) fn convert(&mut self, converter: &mut VectorConverter, x: &[f64]) {
        // Copies only if a lane still held the vector, which `Lanes::run` rules out.
        let buffer = Arc::make_mut(&mut self.0);
        buffer.resize(x.len(), 0.0);
        converter.convert_into(x, buffer);
    }

    /// The latest conversion.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// The latest conversion, for a lane to hold while it reads it.
    pub(crate) fn shared(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::pow2;
    use proptest::prelude::*;
    use refloat_sparse::vecops;

    const MODES: [(RoundingMode, UnderflowMode); 4] = [
        (RoundingMode::Truncate, UnderflowMode::Saturate),
        (RoundingMode::Truncate, UnderflowMode::FlushToZero),
        (RoundingMode::RoundNearest, UnderflowMode::Saturate),
        (RoundingMode::RoundNearest, UnderflowMode::FlushToZero),
    ];

    /// The converter as a per-element loop: every segment's base from
    /// [`optimal_exponent_base`], every element through [`quantize`].  Returns the
    /// output bits, the bases and the statistics.
    fn reference(config: ReFloatConfig, x: &[f64]) -> (Vec<u64>, Vec<i32>, ConversionStats) {
        let seg = config.block_size();
        let mut out = vec![0.0; x.len()];
        let (mut bases, mut stats) = (Vec::new(), ConversionStats::default());
        for (segment, out) in x.chunks(seg).zip(out.chunks_mut(seg)) {
            let ebv = optimal_exponent_base(segment);
            bases.push(ebv);
            quantize_by_element(segment, out, ebv, &config, &mut stats);
        }
        (out.iter().map(|v| v.to_bits()).collect(), bases, stats)
    }

    /// Asserts that the converter equals [`reference`] on `x` in all four modes: output
    /// bits, `last_bases()` and `last_stats()`.
    fn assert_matches_reference(b: u32, ev: u32, fv: u32, x: &[f64]) {
        for (rounding, underflow) in MODES {
            let config = ReFloatConfig::new(b, 3, 8, ev, fv)
                .with_rounding(rounding)
                .with_underflow(underflow);
            let (bits, bases, stats) = reference(config, x);
            let mut conv = VectorConverter::new(config);
            let got: Vec<u64> = conv.convert(x).iter().map(|v| v.to_bits()).collect();
            let context = format!("b {b}, ev {ev}, fv {fv}, {rounding:?}, {underflow:?}, x {x:?}");
            assert_eq!(got, bits, "{context}");
            assert_eq!(conv.last_bases(), bases, "{context}");
            assert_eq!(conv.last_stats(), &stats, "{context}");
        }
    }

    #[test]
    fn negative_zero_in_an_in_window_segment_converts_to_positive_zero() {
        let x = [1.5, -0.0, -3.0, 2.25];
        assert_matches_reference(2, 3, 8, &x);
        let mut conv = VectorConverter::new(ReFloatConfig::new(2, 3, 8, 3, 8));
        let q = conv.convert(&x);
        assert_eq!(q[1].to_bits(), 0);
        assert_eq!((q[0], q[2], q[3]), (1.5, -3.0, 2.25));
        assert_eq!(conv.last_stats().nonzero, 3);
    }

    #[test]
    fn a_subnormal_among_normals_takes_part_in_the_base() {
        // Exponents 0, 1, −1072 and 2 average to −267.25: the subnormal's own exponent
        // is in the mean, not the field's 0.
        let x = [1.0, 2.0, f64::from_bits(5), 4.0];
        assert_matches_reference(2, 3, 8, &x);
        assert_matches_reference(2, 11, 52, &x);
        let mut conv = VectorConverter::new(ReFloatConfig::new(2, 3, 8, 3, 8));
        conv.convert(&x);
        assert_eq!(conv.last_bases(), [-267]);
    }

    #[test]
    fn a_window_past_the_normal_range_converts_like_the_scalar_kernel() {
        // With ev = 11 the window spans ±1023 binades around 2^±1020, so it leaves the
        // normal exponents on one side.
        for scale in [pow2(1020), pow2(-1020)] {
            let x: Vec<f64> = [1.0, -1.75, 3.0, 0.6, f64::MAX / scale, 0.0]
                .iter()
                .map(|v| v * scale)
                .collect();
            for (b, ev, fv) in [(2, 11, 4), (1, 11, 52), (2, 10, 0), (0, 11, 8)] {
                assert_matches_reference(b, ev, fv, &x);
            }
        }
    }

    #[test]
    fn a_round_nearest_carry_at_the_top_of_the_window_clamps_the_fraction() {
        // ev = 2 leaves offsets ±1; the exponents 0, 1, 2 give ebv = 1.  At offset 0 the
        // carry goes into the exponent (1.9999·2 → 4); at the top offset, unpinned, it
        // has nowhere to go and the fraction clamps: (2 − 2^−4)·4 = 7.75.
        let x = [1.0, 1.9999 * 2.0, 1.9999 * 4.0, 0.0];
        assert_matches_reference(2, 2, 4, &x);
        let config = ReFloatConfig::new(2, 3, 8, 2, 4).with_rounding(RoundingMode::RoundNearest);
        let mut conv = VectorConverter::new(config);
        assert_eq!(conv.convert(&x), [1.0, 4.0, 7.75, 0.0]);
        assert_eq!(conv.last_bases(), [1]);
        let stats = ConversionStats {
            nonzero: 3,
            ..ConversionStats::default()
        };
        assert_eq!(conv.last_stats(), &stats);
    }

    #[test]
    fn conversion_error_is_small_for_well_scaled_segments() {
        let config = ReFloatConfig::new(3, 3, 8, 3, 8);
        let mut conv = VectorConverter::new(config);
        let x: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.37).sin() + 1.5).collect();
        let q = conv.convert(&x);
        assert!(vecops::rel_err(&q, &x) < 2.0 * 2.0f64.powi(-8));
        assert_eq!(conv.last_bases().len(), 8);
        assert_eq!(conv.last_stats().flushed, 0);
    }

    #[test]
    fn bases_adapt_per_segment_and_per_call() {
        // Two segments with wildly different scales get different bases; scaling the
        // vector between calls moves the bases — the adaptivity the paper relies on.
        let config = ReFloatConfig::new(2, 3, 8, 3, 8);
        let mut conv = VectorConverter::new(config);
        let mut x = vec![1.0e-9; 4];
        x.extend_from_slice(&[1.0e9; 4]);
        let q1 = conv.convert(&x);
        let bases1 = conv.last_bases().to_vec();
        assert!(bases1[0] < -25 && bases1[1] > 25, "bases {bases1:?}");
        assert!(vecops::rel_err(&q1, &x) < 1e-2);

        let scaled: Vec<f64> = x.iter().map(|v| v * 2.0f64.powi(-40)).collect();
        let q2 = conv.convert(&scaled);
        let bases2 = conv.last_bases().to_vec();
        assert_eq!(bases2[0], bases1[0] - 40);
        assert!(vecops::rel_err(&q2, &scaled) < 1e-2);
    }

    #[test]
    fn zeros_and_short_tail_segments_are_handled() {
        let config = ReFloatConfig::new(3, 3, 8, 3, 8);
        let mut conv = VectorConverter::new(config);
        let x = vec![0.0; 11]; // not a multiple of the segment length
        let q = conv.convert(&x);
        assert_eq!(q, x);
        assert_eq!(conv.last_bases().len(), 2);
        assert_eq!(conv.last_stats().nonzero, 0);
    }

    #[test]
    fn zeros_nans_and_infinities_convert_to_positive_zero_and_are_not_counted() {
        // Nothing without an exponent takes part: not in the output, not in the
        // statistics, not in the segment's base.
        let mut conv = VectorConverter::new(ReFloatConfig::new(2, 3, 8, 3, 8));
        let x = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -3.0,
            0.0,
        ];
        let q = conv.convert(&x);
        for k in [0, 1, 2, 3, 4, 7] {
            assert_eq!(q[k].to_bits(), 0, "element {k} ({}) -> {}", x[k], q[k]);
        }
        assert_eq!((q[5], q[6]), (1.5, -3.0));
        let counted = ConversionStats {
            nonzero: 2,
            ..ConversionStats::default()
        };
        assert_eq!(conv.last_stats(), &counted);
        // An empty segment's base is 0; exponents 0 and 1 average to 0.5, rounded to 1.
        assert_eq!(conv.last_bases(), [0, 1]);
    }

    #[test]
    fn saturation_vs_flush_statistics() {
        let config = ReFloatConfig::new(2, 2, 8, 2, 8); // offsets only span ±1
        let x = vec![1.0, 2.0f64.powi(-30), 4.0, 1.0];
        let mut sat = VectorConverter::new(config);
        let _ = sat.convert(&x);
        assert!(sat.last_stats().saturated >= 1);
        assert_eq!(sat.last_stats().flushed, 0);

        let mut ftz = VectorConverter::new(config.with_underflow(UnderflowMode::FlushToZero));
        let q = ftz.convert(&x);
        assert_eq!(ftz.last_stats().flushed, 1);
        assert_eq!(q[1], 0.0);
    }

    /// One element's bit pattern from a draw `(bits, kind, param, delta)`, as the scalar
    /// kernel's reference test draws them: any pattern (kind 0), a subnormal or a signed
    /// zero (1), the first and last binades or NaN / ±Inf (2), and otherwise an exponent
    /// `delta` binades from the vector's `centre`, so that segments also cluster inside
    /// their windows; kind 3 sets the leading `param` fraction bits, so that
    /// round-to-nearest carries.  A `plain` vector draws no subnormal and no extreme
    /// binade — kind 1 is a signed zero, kind 2 NaN or ±Inf, kind 0 clustered — so that
    /// its long segments are not edge segments.
    fn pattern(
        (bits, kind, param, delta): (u64, usize, u32, i64),
        centre: i64,
        plain: bool,
    ) -> u64 {
        let with_exponent =
            |biased: u64| bits & !(NON_FINITE << FRACTION_BITS) | biased << FRACTION_BITS;
        let magnitude = bits & u64::MAX >> 1;
        match (kind, plain) {
            (0, false) => bits,
            (1, false) => bits & 1 << 63 | magnitude.checked_shr(12 + param).unwrap_or(0),
            (1, true) => bits & 1 << 63,
            (2, false) => with_exponent([1, 2, 3, 2044, 2045, 2046, 2047][param as usize % 7]),
            (2, true) => with_exponent(NON_FINITE),
            _ => {
                let clustered = with_exponent((centre + delta).clamp(0, NON_FINITE as i64) as u64);
                let ones = FRACTION_MASK & !(FRACTION_MASK >> (param % 53));
                clustered | select(kind == 3, ones)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn the_segment_kernel_equals_the_per_element_loop(
            draws in proptest::collection::vec(
                (0u64..=u64::MAX, 0usize..12, 0u32..64, -6i64..=6),
                0..80,
            ),
            (centre, plain) in (1i64..=2046, proptest::bool::ANY),
            b in 0u32..=4,
            ev in 0u32..=11,
            fv in 0u32..=52,
        ) {
            // Lengths are mostly not multiples of the segment, so tails are short.
            let x: Vec<f64> = draws
                .iter()
                .map(|&draw| f64::from_bits(pattern(draw, centre, plain)))
                .collect();
            assert_matches_reference(b, ev, fv, &x);
        }
    }

    proptest! {
        #[test]
        fn conversion_preserves_signs_and_zero_pattern(
            x in proptest::collection::vec(-1e6f64..1e6, 1..200),
        ) {
            let mut conv = VectorConverter::new(ReFloatConfig::paper_default());
            let q = conv.convert(&x);
            prop_assert_eq!(q.len(), x.len());
            for (&orig, &quant) in x.iter().zip(q.iter()) {
                if orig == 0.0 {
                    prop_assert_eq!(quant, 0.0);
                } else if quant != 0.0 {
                    prop_assert_eq!(orig.is_sign_negative(), quant.is_sign_negative());
                }
            }
        }

        #[test]
        fn segment_error_is_bounded_relative_to_segment_max(
            x in proptest::collection::vec(0.5f64..2.0e3, 128),
        ) {
            // For positive segments spanning ≤ 12 binades, ev = 3 covers offsets ±3 from
            // the mean; elements further away saturate but the error stays bounded by
            // the segment maximum times 2^-fv plus the saturation window error.
            let config = ReFloatConfig::paper_default();
            let mut conv = VectorConverter::new(config);
            let q = conv.convert(&x);
            let max = x.iter().cloned().fold(0.0f64, f64::max);
            for (&orig, &quant) in x.iter().zip(q.iter()) {
                prop_assert!((quant - orig).abs() <= max, "orig {orig} quant {quant}");
            }
        }
    }
}
