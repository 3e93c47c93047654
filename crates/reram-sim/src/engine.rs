//! The floating-point processing engine of Fig. 6(b)/(c): one ReFloat matrix block
//! multiplied by one vector segment through the bit-exact integer crossbar pipeline.
//!
//! The engine demonstrates (and lets the tests verify) that the functional ReFloat
//! operator in `refloat-core` computes exactly what the hardware would: encoded matrix
//! fractions and exponent paddings become an unsigned fixed-point matrix, the encoded
//! vector segment becomes an unsigned fixed-point input, signs are handled by two
//! crossbar clusters per operand (four partial products combined by subtraction, step 5
//! in Fig. 6b), and the final result is scaled by `2^{eb + ebv}` (steps 7–9).

use refloat_core::block::ReFloatBlock;
use refloat_core::format::ReFloatConfig;
use refloat_core::scalar::{decompose, pow2};
use refloat_core::vector::VectorConverter;

use crate::cost;
use crate::xbar::FixedPointMvm;

/// A processing engine configured for one ReFloat format.
#[derive(Debug, Clone)]
pub struct ProcessingEngine {
    config: ReFloatConfig,
}

/// The result of one block × segment multiplication.
#[derive(Debug, Clone)]
pub struct EngineOutput {
    /// The output vector segment (length `2^b`) in double precision — what the engine
    /// hands to the MAC units for accumulation across block columns (Eq. 9).
    pub segment: Vec<f64>,
    /// Crossbars occupied by the block (both sign polarities).
    pub crossbars_used: u32,
    /// Pipeline cycles consumed (Eq. 3).
    pub cycles: u64,
}

impl ProcessingEngine {
    /// Creates an engine for the given format.
    pub fn new(config: ReFloatConfig) -> Self {
        ProcessingEngine { config }
    }

    /// The format configuration.
    pub fn config(&self) -> &ReFloatConfig {
        &self.config
    }

    /// Multiplies one encoded block by one raw vector segment (length `2^b`; shorter
    /// tail segments are zero-padded), returning the FP64 output segment plus the
    /// hardware cost of the operation.
    ///
    /// # Panics
    /// Panics if the segment is longer than the block size.
    pub fn block_mvm(&self, block: &ReFloatBlock, x_segment: &[f64]) -> EngineOutput {
        let bs = self.config.block_size();
        assert!(
            x_segment.len() <= bs,
            "segment length {} exceeds block size {bs}",
            x_segment.len()
        );

        // --- Vector conversion (Fig. 6d): per-segment base + (ev, fv) encoding.
        let mut converter = VectorConverter::new(self.config);
        let mut padded = vec![0.0; bs];
        padded[..x_segment.len()].copy_from_slice(x_segment);
        let quantized = converter.convert(&padded);
        let ebv = converter.last_bases()[0];

        // --- Fixed-point encodings.
        let max_off_m = self.config.max_offset();
        let max_off_v = self.config.max_offset_vector();
        // Matrix integer = (2^f + code) << (offset + max_off); value = int · 2^(eb - f - max_off).
        let m_scale_exp = block.eb - self.config.f as i32 - max_off_m;
        // Vector integer derived from the quantized value; value = int · 2^(ebv - fv - max_off_v).
        let v_scale_exp = ebv - self.config.fv as i32 - max_off_v;

        let mut m_pos = vec![0u64; bs * bs];
        let mut m_neg = vec![0u64; bs * bs];
        for (k, (&ii, &jj)) in block.rows.iter().zip(block.cols.iter()).enumerate() {
            if block.decoded[k] == 0.0 {
                continue;
            }
            let mantissa = (1u64 << self.config.f) + block.fraction_codes[k];
            let shift = (block.offsets[k] as i32 + max_off_m) as u32;
            let int = mantissa << shift;
            let idx = ii as usize * bs + jj as usize;
            if block.signs[k] {
                m_neg[idx] = int;
            } else {
                m_pos[idx] = int;
            }
        }
        let mut v_pos = vec![0u64; bs];
        let mut v_neg = vec![0u64; bs];
        for (slot, &q) in quantized.iter().enumerate() {
            let Some(d) = decompose(q) else { continue };
            // The quantized value is exactly (1.frac_fv) · 2^(ebv + off) by construction.
            let offset = d.exponent - ebv;
            debug_assert!(offset.abs() <= max_off_v, "vector offset out of window");
            let mantissa = (d.fraction * (1u64 << self.config.fv) as f64).round() as u64;
            let int = mantissa << (offset + max_off_v) as u32;
            if d.negative {
                v_neg[slot] = int;
            } else {
                v_pos[slot] = int;
            }
        }

        // --- Four sign-split fixed-point MVMs (two crossbar clusters × two input signs).
        let matrix_bits = 1 + self.config.f + 2 * max_off_m as u32;
        let vector_bits = 1 + self.config.fv + 2 * max_off_v as u32;
        let pos_engine = FixedPointMvm::new(&m_pos, bs, matrix_bits);
        let neg_engine = FixedPointMvm::new(&m_neg, bs, matrix_bits);
        let pp = pos_engine.multiply(&v_pos, vector_bits);
        let pn = pos_engine.multiply(&v_neg, vector_bits);
        let np = neg_engine.multiply(&v_pos, vector_bits);
        let nn = neg_engine.multiply(&v_neg, vector_bits);

        // --- Combine signs and scale back to floating point (steps 5–9 of Fig. 6b).
        let scale = pow2(m_scale_exp + v_scale_exp);
        let segment: Vec<f64> = (0..bs)
            .map(|i| {
                let positive = pp[i] + nn[i];
                let negative = pn[i] + np[i];
                let signed = positive as i128 - negative as i128;
                signed as f64 * scale
            })
            .collect();

        EngineOutput {
            segment,
            crossbars_used: 2 * cost::crossbars_per_cluster(self.config.e, self.config.f),
            cycles: cost::cycle_count_eq3(
                self.config.e,
                self.config.f,
                self.config.ev,
                self.config.fv,
            ),
        }
    }

    /// The functional (pure f64) reference for [`block_mvm`](Self::block_mvm): the same
    /// quantized block and quantized segment multiplied in double precision.
    pub fn reference_block_mvm(&self, block: &ReFloatBlock, x_segment: &[f64]) -> Vec<f64> {
        let bs = self.config.block_size();
        let mut converter = VectorConverter::new(self.config);
        let mut padded = vec![0.0; bs];
        padded[..x_segment.len()].copy_from_slice(x_segment);
        let quantized = converter.convert(&padded);
        let mut out = vec![0.0; bs];
        for (ii, jj, v) in block.iter_decoded() {
            out[ii as usize] += v * quantized[jj as usize];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use refloat_sparse::blocked::Block;

    fn encode_block(vals: &[(u16, u16, f64)], config: &ReFloatConfig) -> ReFloatBlock {
        let rows: Vec<u16> = vals.iter().map(|v| v.0).collect();
        let cols: Vec<u16> = vals.iter().map(|v| v.1).collect();
        let vals: Vec<f64> = vals.iter().map(|v| v.2).collect();
        let block = Block {
            block_row: 0,
            block_col: 0,
            rows: &rows,
            cols: &cols,
            vals: &vals,
        };
        ReFloatBlock::encode(&block, config)
    }

    #[test]
    fn engine_matches_functional_reference_on_a_small_block() {
        let config = ReFloatConfig::new(3, 3, 3, 3, 8);
        let entries = vec![
            (0u16, 0u16, 1.5),
            (0, 1, -2.25),
            (1, 1, 0.75),
            (2, 5, 3.0),
            (7, 7, -0.5),
            (4, 2, 1.0e-1),
        ];
        let block = encode_block(&entries, &config);
        let engine = ProcessingEngine::new(config);
        let x: Vec<f64> = (0..8).map(|i| 0.3 * (i as f64) - 1.0).collect();
        let hw = engine.block_mvm(&block, &x);
        let reference = engine.reference_block_mvm(&block, &x);
        for (h, r) in hw.segment.iter().zip(reference.iter()) {
            assert!(
                (h - r).abs() <= 1e-12 * r.abs().max(1e-30),
                "hw {h} vs ref {r}"
            );
        }
        assert_eq!(hw.crossbars_used, 2 * (8 + 3 + 1));
        assert_eq!(hw.cycles, (8 + 8 + 1) + (8 + 3 + 1) - 1);
    }

    #[test]
    fn engine_handles_tiny_value_blocks_via_the_exponent_base() {
        // crystm-like magnitudes: the integer pipeline never sees the 2^-40 scale, it is
        // carried entirely by eb/ebv.
        let config = ReFloatConfig::new(2, 3, 3, 3, 8);
        let entries = vec![
            (0u16, 0u16, 3.0e-12),
            (1, 1, -1.2e-12),
            (2, 3, 5.0e-13),
            (3, 0, 2.2e-12),
        ];
        let block = encode_block(&entries, &config);
        let engine = ProcessingEngine::new(config);
        let x = vec![1.0, -2.0, 0.5, 4.0];
        let hw = engine.block_mvm(&block, &x);
        let reference = engine.reference_block_mvm(&block, &x);
        for (h, r) in hw.segment.iter().zip(reference.iter()) {
            assert!(
                (h - r).abs() <= 1e-12 * r.abs().max(1e-300),
                "hw {h} vs ref {r}"
            );
        }
    }

    #[test]
    fn short_tail_segments_are_zero_padded() {
        let config = ReFloatConfig::new(2, 3, 4, 3, 8);
        let block = encode_block(&[(0, 0, 2.0), (3, 3, 4.0)], &config);
        let engine = ProcessingEngine::new(config);
        let hw = engine.block_mvm(&block, &[1.0, 1.0]); // only 2 of 4 entries provided
        assert_eq!(hw.segment.len(), 4);
        assert_eq!(hw.segment[0], 2.0);
        assert_eq!(hw.segment[3], 0.0); // x[3] padded to zero
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn hardware_pipeline_matches_functional_model(
            entries in proptest::collection::vec(
                (0u16..8, 0u16..8, -10.0f64..10.0), 1..24),
            x in proptest::collection::vec(-5.0f64..5.0, 8),
            f_bits in 1u32..6,
            fv_bits in 2u32..10,
        ) {
            let config = ReFloatConfig::new(3, 3, f_bits, 3, fv_bits);
            // Deduplicate positions (last write wins) to keep the block well formed.
            let mut grid = std::collections::BTreeMap::new();
            for (r, c, v) in &entries {
                grid.insert((*r, *c), *v);
            }
            let list: Vec<(u16, u16, f64)> = grid.into_iter()
                .map(|((r, c), v)| (r, c, v))
                .collect();
            let block = encode_block(&list, &config);
            let engine = ProcessingEngine::new(config);
            let hw = engine.block_mvm(&block, &x);
            let reference = engine.reference_block_mvm(&block, &x);
            for (h, r) in hw.segment.iter().zip(reference.iter()) {
                prop_assert!((h - r).abs() <= 1e-10 * r.abs().max(1e-12),
                    "hw {h} vs functional {r}");
            }
        }
    }
}
