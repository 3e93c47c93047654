//! The vector converter (Fig. 6d): per-segment re-encoding of the solver vectors.
//!
//! Before every SpMV the input vector is split into segments of length `2^b`; each
//! segment gets its own exponent base `ebv` (the rounded mean of its element exponents,
//! the same Eq. 5 optimum used for matrix blocks), and each element is re-encoded with
//! `ev` offset bits and `fv` fraction bits.  Because the base is recomputed *every
//! iteration*, the representable window tracks the solver vectors as they shrink toward
//! convergence — this is exactly the property the Feinberg baseline lacks (§III.C).

use crate::block::optimal_exponent_base;
use crate::format::ReFloatConfig;
use crate::scalar::{decompose, quantize, Window};

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
    /// # Panics
    /// Panics if `out.len() != x.len()`.
    pub fn convert_into(&mut self, x: &[f64], out: &mut [f64]) {
        assert_eq!(
            x.len(),
            out.len(),
            "vector converter: output length mismatch"
        );
        let seg = self.config.block_size();
        self.last_bases.clear();
        self.last_bases.reserve(x.len().div_ceil(seg));
        let mut stats = ConversionStats::default();

        let max_offset = self.config.max_offset_vector();
        let (fv, rounding, underflow) =
            (self.config.fv, self.config.rounding, self.config.underflow);

        for (segment, out) in x.chunks(seg).zip(out.chunks_mut(seg)) {
            let ebv = optimal_exponent_base(segment.iter());
            self.last_bases.push(ebv);
            // Counted per segment, in registers, by adding comparison results.
            let (mut skipped, mut saturated, mut flushed) = (0, 0, 0);
            for (xi, oi) in segment.iter().zip(out) {
                // Zeros — and NaN/±Inf, which have no exponent either — convert to +0.0
                // and are not counted.
                let Some(d) = decompose(*xi) else {
                    skipped += 1;
                    *oi = 0.0;
                    continue;
                };
                let q = quantize(d, ebv, max_offset, fv, rounding, underflow);
                saturated += (q.window == Window::Saturated) as usize;
                flushed += (q.window == Window::Flushed) as usize;
                *oi = q.value(ebv);
            }
            stats.nonzero += segment.len() - skipped;
            stats.saturated += saturated;
            stats.flushed += flushed;
        }
        self.last_stats = stats;
    }

    /// Allocating convenience wrapper around [`convert_into`](Self::convert_into).
    pub fn convert(&mut self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.convert_into(x, &mut out);
        out
    }
}

/// The quantized copy of an operator's input vector.  It is scratch, not state: sized
/// on the first conversion, and a clone starts empty instead of copying `O(ncols)`
/// values its owner may never read.
#[derive(Debug, Default)]
pub(crate) struct Scratch(Vec<f64>);

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl Scratch {
    /// Converts `x` into the scratch.
    pub(crate) fn convert(&mut self, converter: &mut VectorConverter, x: &[f64]) {
        self.0.resize(x.len(), 0.0);
        converter.convert_into(x, &mut self.0);
    }

    /// The latest conversion.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::UnderflowMode;
    use proptest::prelude::*;
    use refloat_sparse::vecops;

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
