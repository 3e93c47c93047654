//! The `ReFloat(b, e, f)(ev, fv)` configuration.

use std::fmt;

/// How fraction bits beyond `f` are removed.
///
/// The paper keeps "the leading `f` bits from the original fraction bits and removes the
/// rest" (§IV.B), i.e. truncation toward zero; round-to-nearest is provided as an
/// ablation knob because it halves the worst-case fraction error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum RoundingMode {
    /// Drop the trailing fraction bits (the paper's conversion; default).
    #[default]
    Truncate,
    /// Round the retained fraction to the nearest representable value.
    RoundNearest,
}

/// How values whose exponent offset falls *below* the representable window are handled.
///
/// The paper clamps to the smallest representable offset (§III.D).  Flushing to zero is
/// provided as an ablation: it trades a large *relative* error on tiny elements for a
/// much smaller *absolute* error, which can matter for extremely wide-dynamic-range
/// vector segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum UnderflowMode {
    /// Clamp the offset to the smallest representable value (the paper's rule; default).
    #[default]
    Saturate,
    /// Represent the value as exactly zero.
    FlushToZero,
}

/// The `ReFloat(b, e, f)(ev, fv)` format configuration (Table II of the paper).
///
/// * `b` — the block-size exponent; blocks (and crossbars) are `2^b × 2^b`,
/// * `e`, `f` — exponent-offset and fraction bits for **matrix** elements,
/// * `ev`, `fv` — exponent-offset and fraction bits for **vector** elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReFloatConfig {
    /// Block-size exponent `b` (blocks are `2^b × 2^b`); 7 for the 128×128 crossbars of
    /// Table IV.
    pub b: u32,
    /// Exponent-offset bits for matrix elements.
    pub e: u32,
    /// Fraction bits for matrix elements.
    pub f: u32,
    /// Exponent-offset bits for vector elements.
    pub ev: u32,
    /// Fraction bits for vector elements.
    pub fv: u32,
    /// Fraction rounding behaviour (paper: truncate).
    pub rounding: RoundingMode,
    /// Below-window exponent handling (paper: saturate).
    pub underflow: UnderflowMode,
}

impl ReFloatConfig {
    /// Creates a `ReFloat(b, e, f)(ev, fv)` configuration with the paper's conversion
    /// rules (truncated fractions, saturating offsets).
    ///
    /// # Panics
    /// Panics if `b > 15` (local block indices no longer fit in 16 bits), if `e > 11`
    /// or `ev > 11` (wider than the IEEE-754 double exponent), or if `f > 52` or
    /// `fv > 52` (wider than the double fraction).
    pub fn new(b: u32, e: u32, f: u32, ev: u32, fv: u32) -> Self {
        assert!(b <= 15, "ReFloat: block exponent b must be ≤ 15, got {b}");
        assert!(
            e <= 11 && ev <= 11,
            "ReFloat: exponent bits must be ≤ 11 (got e={e}, ev={ev})"
        );
        assert!(
            f <= 52 && fv <= 52,
            "ReFloat: fraction bits must be ≤ 52 (got f={f}, fv={fv})"
        );
        ReFloatConfig {
            b,
            e,
            f,
            ev,
            fv,
            rounding: RoundingMode::default(),
            underflow: UnderflowMode::default(),
        }
    }

    /// The default solver configuration of the paper (Table VII):
    /// `ReFloat(7, 3, 3)(3, 8)` on 128×128 crossbars.
    pub fn paper_default() -> Self {
        ReFloatConfig::new(7, 3, 3, 3, 8)
    }

    /// The Table VII variant used for `wathen100` (1288) and `Dubcova2` (1848):
    /// identical except `fv = 16`.
    pub fn paper_wide_vector() -> Self {
        ReFloatConfig::new(7, 3, 3, 3, 16)
    }

    /// Builder-style setter for the rounding mode.
    pub fn with_rounding(mut self, rounding: RoundingMode) -> Self {
        self.rounding = rounding;
        self
    }

    /// Builder-style setter for the underflow mode.
    pub fn with_underflow(mut self, underflow: UnderflowMode) -> Self {
        self.underflow = underflow;
        self
    }

    /// Block edge length `2^b`.
    pub fn block_size(&self) -> usize {
        1 << self.b
    }

    /// The largest representable exponent offset, `2^(e−1) − 1` (0 when `e == 0`).
    pub fn max_offset(&self) -> i32 {
        max_offset_for_bits(self.e)
    }

    /// The smallest representable exponent offset, `−(2^(e−1) − 1)` (0 when `e == 0`).
    pub fn min_offset(&self) -> i32 {
        -max_offset_for_bits(self.e)
    }

    /// The largest representable *vector* exponent offset.
    pub fn max_offset_vector(&self) -> i32 {
        max_offset_for_bits(self.ev)
    }

    /// Bits per encoded matrix element: sign + exponent offset + fraction.
    pub fn matrix_value_bits(&self) -> u32 {
        1 + self.e + self.f
    }

    /// Bits per encoded vector element: sign + exponent offset + fraction.
    pub fn vector_value_bits(&self) -> u32 {
        1 + self.ev + self.fv
    }

    /// Bits per element used for the *local* block index `(ii, jj)` (Fig. 4/5): two
    /// `b`-bit integers.
    pub fn local_index_bits(&self) -> u32 {
        2 * self.b
    }

    /// Bits of per-block metadata: two `(32 − b)`-bit block coordinates plus the 11-bit
    /// exponent base `eb` (Fig. 4).
    pub fn block_metadata_bits(&self) -> u32 {
        2 * (32 - self.b) + 11
    }
}

impl Default for ReFloatConfig {
    fn default() -> Self {
        ReFloatConfig::paper_default()
    }
}

impl fmt::Display for ReFloatConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReFloat({}, {}, {})({}, {})",
            self.b, self.e, self.f, self.ev, self.fv
        )
    }
}

/// The largest representable signed offset for an `e`-bit exponent field:
/// `2^(e−1) − 1`, and 0 for `e == 0` (no offset bits at all).
pub fn max_offset_for_bits(e: u32) -> i32 {
    if e == 0 {
        0
    } else {
        (1i32 << (e - 1)) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_vii() {
        let c = ReFloatConfig::paper_default();
        assert_eq!((c.b, c.e, c.f, c.ev, c.fv), (7, 3, 3, 3, 8));
        assert_eq!(c.block_size(), 128);
        assert_eq!(c.to_string(), "ReFloat(7, 3, 3)(3, 8)");
        let wide = ReFloatConfig::paper_wide_vector();
        assert_eq!(wide.fv, 16);
    }

    #[test]
    fn offset_range_matches_paper_formula() {
        // With e-bit offsets the representable exponent range is
        // [eb − 2^(e−1) + 1, eb + 2^(e−1) − 1]  (§III.D).
        let c = ReFloatConfig::new(7, 3, 3, 3, 8);
        assert_eq!(c.max_offset(), 3);
        assert_eq!(c.min_offset(), -3);
        let c2 = ReFloatConfig::new(7, 2, 3, 2, 8);
        assert_eq!(c2.max_offset(), 1);
        assert_eq!(c2.min_offset(), -1);
        let c0 = ReFloatConfig::new(7, 0, 3, 0, 8);
        assert_eq!(c0.max_offset(), 0);
        assert_eq!(c0.min_offset(), 0);
    }

    #[test]
    fn bit_accounting_matches_fig4_example() {
        // Fig. 4 uses ReFloat(2, 2, 3): each scalar needs two 2-bit local indices and a
        // 1+2+3 = 6-bit value; the block needs two 30-bit indices and an 11-bit eb.
        let c = ReFloatConfig::new(2, 2, 3, 2, 3);
        assert_eq!(c.local_index_bits(), 4);
        assert_eq!(c.matrix_value_bits(), 6);
        assert_eq!(c.block_metadata_bits(), 2 * 30 + 11);
        // Eight scalars: 8·(4 + 6) + 71 = 151 bits, versus 8·(32+32+64) = 1024 bits.
        let refloat_bits =
            8 * (c.local_index_bits() + c.matrix_value_bits()) + c.block_metadata_bits();
        assert_eq!(refloat_bits, 151);
    }

    #[test]
    fn builders_set_modes() {
        let c = ReFloatConfig::paper_default()
            .with_rounding(RoundingMode::RoundNearest)
            .with_underflow(UnderflowMode::FlushToZero);
        assert_eq!(c.rounding, RoundingMode::RoundNearest);
        assert_eq!(c.underflow, UnderflowMode::FlushToZero);
    }

    #[test]
    #[should_panic(expected = "fraction bits")]
    fn rejects_overwide_fraction() {
        let _ = ReFloatConfig::new(7, 3, 53, 3, 8);
    }

    #[test]
    #[should_panic(expected = "exponent bits")]
    fn rejects_overwide_exponent() {
        let _ = ReFloatConfig::new(7, 12, 3, 3, 8);
    }
}
