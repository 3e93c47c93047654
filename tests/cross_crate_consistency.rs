//! Consistency checks between independent implementations of the same quantity:
//! the functional ReFloat operator vs the bit-exact crossbar pipeline, the storage model
//! vs the encoded blocks, and the locality analysis vs the format defaults.

use refloat::core::locality::exponent_locality;
use refloat::core::memory;
use refloat::prelude::*;
use refloat::sim::engine::ProcessingEngine;

#[test]
fn hardware_pipeline_and_functional_operator_agree_on_real_workload_blocks() {
    // Take real blocks from a crystm-like workload and compare the processing-engine
    // result (bit-sliced integer crossbars) against the functional decoded-f64 product.
    let a = refloat::matgen::generators::mass_matrix_3d(6, 6, 6, 1e-12, 0.8, 9).to_csr();
    let format = ReFloatConfig::new(4, 3, 3, 3, 8);
    let blocked = BlockedMatrix::from_csr(&a, format.b).unwrap();
    let engine = ProcessingEngine::new(format);
    let x: Vec<f64> = (0..a.ncols())
        .map(|i| (i as f64 * 0.17).sin() + 1.1)
        .collect();
    let bs = format.block_size();

    let mut checked = 0;
    for block in blocked.blocks().take(20) {
        let encoded = refloat::core::block::ReFloatBlock::encode(&block, &format);
        let seg_lo = block.block_col * bs;
        let seg_hi = (seg_lo + bs).min(x.len());
        let hw = engine.block_mvm(&encoded, &x[seg_lo..seg_hi]);
        let reference = engine.reference_block_mvm(&encoded, &x[seg_lo..seg_hi]);
        for (h, r) in hw.segment.iter().zip(reference.iter()) {
            assert!(
                (h - r).abs() <= 1e-9 * r.abs().max(1e-300),
                "pipeline {h} vs functional {r}"
            );
        }
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn storage_model_matches_the_encoded_matrix_bit_count() {
    let a = refloat::matgen::generators::laplacian_2d(40, 40, 0.1).to_csr();
    let format = ReFloatConfig::new(5, 3, 3, 3, 8);
    let blocked = BlockedMatrix::from_csr(&a, format.b).unwrap();
    let encoded = ReFloatMatrix::from_blocked(&blocked, format);
    // Two independent accountings of the same storage.
    assert_eq!(
        encoded.storage_bits(),
        memory::refloat_storage_bits(&blocked, &format)
    );
    let ratio = memory::memory_overhead_ratio(&blocked, &format);
    assert!(ratio > 0.0 && ratio < 0.5);
}

#[test]
fn exponent_locality_explains_why_three_offset_bits_suffice() {
    // The Fig. 3(d) claim chained end-to-end: per-block exponent spreads of the mass
    // matrix analogue fit in 3 offset bits, therefore the only quantization error left
    // is fraction truncation, therefore the e=3 matrix encoding has bounded error.
    let a = refloat::matgen::generators::mass_matrix_3d(8, 8, 8, 1e-12, 0.8, 5).to_csr();
    let blocked = BlockedMatrix::from_csr(&a, 7).unwrap();
    let report = exponent_locality(&blocked);
    assert!(
        report.max_block_bits <= 4,
        "block locality = {}",
        report.max_block_bits
    );

    // Give the format one offset bit more than the locality analysis reports (the
    // per-block base is the rounded *mean*, not the midpoint, so the worst offset can
    // reach the full block spread): the remaining element error must then be pure
    // fraction truncation.
    let format = ReFloatConfig::new(7, report.max_block_bits + 1, 8, 3, 8);
    let encoded = ReFloatMatrix::from_blocked(&blocked, format);
    let quantized = encoded.to_quantized_csr();
    let mut worst: f64 = 0.0;
    for (r, c, v) in a.iter() {
        let q = quantized.get(r, c);
        worst = worst.max(((q - v) / v).abs());
    }
    assert!(
        worst <= 2.0f64.powi(-8) + 1e-12,
        "worst relative element error {worst} exceeds the fraction bound"
    );
}

#[test]
fn matrix_market_roundtrip_preserves_solver_behaviour() {
    let a = refloat::matgen::generators::wathen(6, 6, 3).to_csr();
    let dir = std::env::temp_dir().join("refloat_integration_mm");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wathen6.mtx");
    refloat::sparse::mm::write_coo(&path, &a.to_coo(), "integration test").unwrap();
    let back = refloat::sparse::mm::read_coo(&path).unwrap().to_csr();
    assert_eq!(a, back);

    let b = vec![1.0; a.nrows()];
    let cfg = SolverConfig::relative(1e-8);
    let r1 = cg(&mut a.clone(), &b, &cfg);
    let r2 = cg(&mut back.clone(), &b, &cfg);
    assert_eq!(r1.iterations, r2.iterations);
}

#[test]
fn table_v_small_workloads_generate_and_block_consistently() {
    // The smallest Table V workload end-to-end through the blocking invariants.
    let w = Workload::Crystm01;
    let csr = w.generate_csr(1);
    let blocked = BlockedMatrix::from_csr(&csr, 7).unwrap();
    assert_eq!(blocked.nnz(), csr.nnz());
    assert_eq!(blocked.to_csr(), csr);
    // Cluster requirement = non-empty blocks; must be well below the ReFloat capacity
    // (21845) for this small matrix, as §VI.B assumes.
    assert!(blocked.num_blocks() < 21_845);
}

#[test]
fn autotune_cost_model_matches_reram_sim_cost_over_the_whole_grid() {
    // `refloat_core::autotune` restates the Eq. 2/3 closed forms because it sits
    // *below* `reram-sim` in the dependency graph; this test pins the two
    // implementations together so they can never drift.
    use refloat::core::autotune;
    use refloat::sim::cost;

    for config in autotune::candidate_grid(7) {
        assert_eq!(
            autotune::crossbars_per_cluster(config.e, config.f),
            cost::crossbars_per_cluster(config.e, config.f),
            "crossbars per cluster diverge at {config}"
        );
        assert_eq!(
            autotune::cycles_per_block_mvm(config.e, config.f, config.ev, config.fv),
            cost::cycle_count_eq3(config.e, config.f, config.ev, config.fv),
            "Eq. 3 cycles diverge at {config}"
        );
    }
    // The paper's headline points hold through the autotune mirror too.
    assert_eq!(autotune::cycles_per_block_mvm(11, 52, 11, 52), 4201);
    assert_eq!(autotune::cycles_per_block_mvm(3, 3, 3, 8), 28);
    assert_eq!(autotune::crossbars_per_cluster(3, 3), 12);
}
