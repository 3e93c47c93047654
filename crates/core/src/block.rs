//! Per-block encoding: exponent-base selection (Eq. 4–5) and block conversion.
//!
//! Two consumers encode blocks.  [`crate::matrix::ReFloatMatrix`] keeps only what this
//! crate adds to the layout `refloat-sparse` owns — one exponent base per block, the
//! [`optimal_exponent_base`] of its values, and one decoded value per non-zero, in row
//! order; it takes the bases from integer exponent sums (`rounded_mean`) and
//! quantizes with the scalar kernel's bit form.  [`ReFloatBlock`] is the single-block
//! **bit-level record**: it owns the per-element sign, exponent offset and fraction
//! code of Fig. 4(b)/Fig. 5, wide enough for every format [`ReFloatConfig::new`]
//! accepts, and is encoded on demand by whoever needs the stored bits (the crossbar
//! engine in `reram-sim`, the format ablation, the property tests) by running every
//! element through the one scalar kernel, [`crate::scalar::quantize`].

use crate::format::ReFloatConfig;
use crate::memory::storage_bits;
use crate::scalar::{decompose, quantize, Quantized};
use refloat_sparse::blocked::Block;

/// Chooses the exponent base `eb` for a set of values.
///
/// Eq. 4 defines the conversion loss `L = Σ ((a)_e − eb)²` and Eq. 5 gives the closed
/// form optimum `eb = [ (1/|A_c|) Σ (a)_e ]` — the element-exponent mean, rounded to the
/// nearest integer.  Zero values carry no exponent and are excluded; an all-zero set
/// returns 0.
pub fn optimal_exponent_base<'a, I>(values: I) -> i32
where
    I: IntoIterator<Item = &'a f64>,
{
    let mut sum = 0i64;
    let mut count = 0i64;
    for &v in values {
        if let Some(d) = decompose(v) {
            sum += d.exponent as i64;
            count += 1;
        }
    }
    rounded_mean(sum, count)
}

/// The base of Eq. 5 from the integer sum and count of a set's element exponents: their
/// mean, rounded half away from zero (the `[·]` nearest integer), or 0 when there is
/// none.  The sum does not depend on the order of the values, so an encode can gather it
/// in whatever order it reads them.
///
/// The mean is a multiple of `1 / count` below 2^11 in magnitude: either a half-integer,
/// which the division and the addition of ½ below hold exactly, or at least
/// `1 / (2 · count)` away from one, far more than their rounding error (< 2^−42) for
/// any count below 2^40.  So adding ½ away from zero and truncating rounds as
/// `f64::round` does, without the library call baseline x86-64 (no SSE4.1) makes for
/// it — once per block, where a block can hold a handful of values.
pub(crate) fn rounded_mean(sum: i64, count: i64) -> i32 {
    if count == 0 {
        return 0;
    }
    let mean = sum as f64 / count as f64;
    (mean + 0.5f64.copysign(mean)) as i32
}

/// The squared-error loss `L(eb)` of Eq. 4 for a candidate base — exposed so tests and
/// ablation benchmarks can verify that [`optimal_exponent_base`] actually minimizes it.
pub fn exponent_base_loss<'a, I>(values: I, eb: i32) -> f64
where
    I: IntoIterator<Item = &'a f64>,
{
    values
        .into_iter()
        .filter_map(|&v| decompose(v))
        .map(|d| {
            let diff = (d.exponent - eb) as f64;
            diff * diff
        })
        .sum()
}

/// Quantizes block values against the base `eb` in the matrix format `(e, f)`.  A zero
/// has no exponent and yields `None`: it is stored as an all-zero code.
fn quantize_values<'a>(
    vals: &'a [f64],
    config: &ReFloatConfig,
    eb: i32,
) -> impl Iterator<Item = Option<Quantized>> + 'a {
    let (max_offset, f) = (config.max_offset(), config.f);
    let (rounding, underflow) = (config.rounding, config.underflow);
    vals.iter()
        .map(move |&v| decompose(v).map(|d| quantize(d, eb, max_offset, f, rounding, underflow)))
}

/// One matrix block encoded in ReFloat format, down to the stored bits.
///
/// The encoded fields mirror Fig. 4(b)/Fig. 5: per-element sign, saturating `e`-bit
/// exponent offset and `f`-bit fraction code, plus the per-block base `eb`, beside the
/// decoded f64 values (`2^eb · (−1)^s · 1.frac · 2^offset`) they stand for.
#[derive(Debug, Clone, PartialEq)]
pub struct ReFloatBlock {
    /// Block-row index of the block.
    pub block_row: usize,
    /// Block-column index of the block.
    pub block_col: usize,
    /// The exponent base `eb` shared by every element of the block.
    pub eb: i32,
    /// Local row index (`ii`) per element.
    pub rows: Vec<u16>,
    /// Local column index (`jj`) per element.
    pub cols: Vec<u16>,
    /// Sign bit per element (`true` = negative).
    pub signs: Vec<bool>,
    /// Saturated exponent offset per element (fits in `e` bits by construction; `e` may
    /// be 11, so offsets reach ±1023).
    pub offsets: Vec<i16>,
    /// Fraction code per element: the retained `f` bits (up to 52) as an integer in
    /// `[0, 2^f)`.
    pub fraction_codes: Vec<u64>,
    /// Decoded values (what the crossbars effectively compute with).
    pub decoded: Vec<f64>,
}

impl ReFloatBlock {
    /// Encodes a [`Block`] of f64 values into ReFloat format.
    pub fn encode(block: &Block, config: &ReFloatConfig) -> Self {
        let eb = optimal_exponent_base(block.vals);
        Self::encode_with_base(block, config, eb)
    }

    /// Encodes a block using an explicitly chosen exponent base (used by the ablation
    /// that compares the Eq. 5 optimum against naive base choices).
    pub fn encode_with_base(block: &Block, config: &ReFloatConfig, eb: i32) -> Self {
        let n = block.vals.len();
        let mut signs = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n);
        let mut fraction_codes = Vec::with_capacity(n);
        let mut decoded = Vec::with_capacity(n);
        for q in quantize_values(block.vals, config, eb) {
            signs.push(q.is_some_and(|q| q.negative));
            offsets.push(q.map_or(0, |q| q.offset as i16));
            fraction_codes.push(q.map_or(0, |q| q.fraction_code(config.f)));
            decoded.push(q.map_or(0.0, |q| q.value(eb)));
        }

        ReFloatBlock {
            block_row: block.block_row,
            block_col: block.block_col,
            eb,
            rows: block.rows.to_vec(),
            cols: block.cols.to_vec(),
            signs,
            offsets,
            fraction_codes,
            decoded,
        }
    }

    /// Number of encoded elements.
    pub fn nnz(&self) -> usize {
        self.decoded.len()
    }

    /// Iterates over `(ii, jj, decoded_value)`.
    pub fn iter_decoded(&self) -> impl Iterator<Item = (u16, u16, f64)> + '_ {
        self.rows
            .iter()
            .zip(self.cols.iter())
            .zip(self.decoded.iter())
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Worst-case relative element error of this encoding against the original block.
    pub fn max_relative_error(&self, original: &Block) -> f64 {
        original
            .vals
            .iter()
            .zip(self.decoded.iter())
            .filter(|(&o, _)| o != 0.0)
            .map(|(&o, &d)| ((d - o) / o).abs())
            .fold(0.0, f64::max)
    }

    /// Number of storage bits for this block under the Fig. 4 accounting
    /// ([`crate::memory::storage_bits`]).
    pub fn storage_bits(&self, config: &ReFloatConfig) -> u64 {
        storage_bits(self.nnz(), 1, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::UnderflowMode;
    use crate::scalar::pow2;
    use proptest::prelude::*;

    /// Local `(rows, cols)` for a block of `n` entries; a [`Block`] only borrows.
    fn local_indices(n: usize) -> (Vec<u16>, Vec<u16>) {
        let rows = (0..n).map(|i| i as u16).collect();
        let cols = (0..n).map(|i| (i * 2 % 4) as u16).collect();
        (rows, cols)
    }

    fn block_over<'a>(indices: &'a (Vec<u16>, Vec<u16>), vals: &'a [f64]) -> Block<'a> {
        Block {
            block_row: 3,
            block_col: 5,
            rows: &indices.0,
            cols: &indices.1,
            vals,
        }
    }

    #[test]
    fn optimal_base_is_the_rounded_mean_exponent() {
        // Exponents 7, 8, 9, 7 -> mean 7.75 -> eb = 8 (the paper's Eq. 6 example).
        let vals = [-248.0, 336.0, -512.0, 136.0];
        assert_eq!(optimal_exponent_base(vals.iter()), 8);
        // All zeros -> 0 by convention.
        assert_eq!(optimal_exponent_base([0.0, 0.0].iter()), 0);
        // A single value -> its own exponent.
        assert_eq!(optimal_exponent_base([6.0].iter()), 2);
    }

    #[test]
    fn optimal_base_minimizes_the_eq4_loss() {
        let vals = [1e-3, 2e-2, 5e-1, 3.0, 80.0, 0.25];
        let eb = optimal_exponent_base(vals.iter());
        let loss_opt = exponent_base_loss(vals.iter(), eb);
        for candidate in (eb - 6)..=(eb + 6) {
            assert!(
                loss_opt <= exponent_base_loss(vals.iter(), candidate) + 1e-9,
                "candidate {candidate} beats the optimum {eb}"
            );
        }
    }

    #[test]
    fn encode_matches_paper_eq7() {
        let indices = local_indices(4);
        let block = block_over(&indices, &[-248.0, 336.0, -512.0, 136.0]);
        let config = ReFloatConfig::new(2, 2, 2, 2, 2);
        let enc = ReFloatBlock::encode(&block, &config);
        assert_eq!(enc.eb, 8);
        assert_eq!(enc.decoded, vec![-224.0, 320.0, -512.0, 128.0]);
        assert_eq!(enc.signs, vec![true, false, true, false]);
        // Offsets: exponents 7, 8, 9, 7 minus eb=8 -> -1, 0, 1, -1.
        assert_eq!(enc.offsets, vec![-1, 0, 1, -1]);
    }

    #[test]
    fn zeros_are_preserved_exactly() {
        let indices = local_indices(3);
        let block = block_over(&indices, &[0.0, 3.0, 0.0]);
        let enc = ReFloatBlock::encode(&block, &ReFloatConfig::paper_default());
        assert_eq!(enc.decoded[0], 0.0);
        assert_eq!(enc.decoded[2], 0.0);
        assert_eq!(enc.decoded[1], 3.0);
    }

    #[test]
    fn saturation_and_flush_modes_differ_for_wide_blocks() {
        // One element 2^20 below the rest.
        let vals = [1.0, 1.5, 1.25, 1.5e-6];
        let indices = local_indices(vals.len());
        let block = block_over(&indices, &vals);
        let sat_cfg = ReFloatConfig::new(2, 3, 8, 3, 8);
        let ftz_cfg = sat_cfg.with_underflow(UnderflowMode::FlushToZero);
        let sat = ReFloatBlock::encode(&block, &sat_cfg);
        let ftz = ReFloatBlock::encode(&block, &ftz_cfg);
        // Saturated: the tiny element is pulled up to the bottom of the window.
        assert!(sat.decoded[3] > vals[3]);
        // Flushed: it becomes zero.
        assert_eq!(ftz.decoded[3], 0.0);
        // The in-window elements agree between the two modes.
        assert_eq!(sat.decoded[..3], ftz.decoded[..3]);
    }

    #[test]
    fn storage_bits_match_fig4() {
        // Fig. 4: 8 values in ReFloat(2,2,3) -> 151 bits.
        let vals = [8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let indices = local_indices(vals.len());
        let block = block_over(&indices, &vals);
        let config = ReFloatConfig::new(2, 2, 3, 2, 3);
        let enc = ReFloatBlock::encode(&block, &config);
        assert_eq!(enc.storage_bits(&config), 151);
    }

    proptest! {
        #[test]
        fn the_rounded_mean_rounds_like_f64_round(
            count in prop_oneof![1i64..=8, 1i64..=1 << 20, Just(1i64 << 30)],
            mean in -1100i64..=1100,
            offset in -64i64..=64,
            half in proptest::bool::ANY,
        ) {
            // Sums at, beside and halfway between multiples of the count.
            let sum = mean * count + offset + if half { count / 2 } else { 0 };
            let want = (sum as f64 / count as f64).round() as i32;
            prop_assert_eq!(rounded_mean(sum, count), want, "sum {} count {}", sum, count);
        }

        #[test]
        fn relative_error_is_bounded_when_exponent_locality_holds(
            exps in proptest::collection::vec(-1i32..=2, 1..64),
            fracs in proptest::collection::vec(1.0f64..2.0, 64),
            f_bits in 1u32..12,
        ) {
            // Values whose exponents span at most 3 binades always fit the e = 3 offset
            // window around the rounded-mean base (the base lies inside [min, max], so
            // no offset exceeds the spread), leaving only the f-bit fraction truncation:
            // relative error ≤ 2^-f.
            let vals: Vec<f64> = exps.iter().zip(fracs.iter())
                .map(|(&e, &m)| m * pow2(e))
                .collect();
            let indices = local_indices(vals.len());
            let block = block_over(&indices, &vals);
            let config = ReFloatConfig::new(6, 3, f_bits, 3, f_bits);
            let enc = ReFloatBlock::encode(&block, &config);
            let err = enc.max_relative_error(&block);
            prop_assert!(err <= pow2(-(f_bits as i32)) + 1e-12,
                "relative error {err} exceeds 2^-{f_bits}");
        }

        #[test]
        fn offsets_always_fit_in_e_bits(
            vals in proptest::collection::vec(
                prop_oneof![
                    (-1e30f64..1e30).prop_filter("nonzero", |v| *v != 0.0),
                    Just(0.0),
                ],
                1..128,
            ),
            e_bits in 1u32..6,
        ) {
            let indices = local_indices(vals.len());
            let block = block_over(&indices, &vals);
            let config = ReFloatConfig::new(7, e_bits, 4, e_bits, 4);
            let enc = ReFloatBlock::encode(&block, &config);
            let max_off = config.max_offset();
            for &o in &enc.offsets {
                prop_assert!((o as i32).abs() <= max_off);
            }
            for &code in &enc.fraction_codes {
                prop_assert!(code < (1 << config.f));
            }
            // Decoded signs match the originals (zeros excepted).
            for (&v, &d) in block.vals.iter().zip(enc.decoded.iter()) {
                if v != 0.0 && d != 0.0 {
                    prop_assert_eq!(v.is_sign_negative(), d.is_sign_negative());
                }
            }
        }
    }
}
