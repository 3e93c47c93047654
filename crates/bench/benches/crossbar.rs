//! Cost of the bit-exact crossbar pipeline (the validation path of the simulator): the
//! bit-sliced integer MVM of Fig. 2 and one full processing-engine block MVM (Fig. 6).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use refloat_core::block::ReFloatBlock;
use refloat_core::ReFloatConfig;
use refloat_sparse::blocked::Block;
use reram_sim::engine::ProcessingEngine;
use reram_sim::xbar::FixedPointMvm;

fn bench_crossbar(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let size = 128;
    let matrix: Vec<u64> = (0..size * size).map(|_| rng.gen_range(0..16)).collect();
    let x: Vec<u64> = (0..size).map(|_| rng.gen_range(0..512)).collect();
    let engine = FixedPointMvm::new(&matrix, size, 4);

    let mut group = c.benchmark_group("crossbar");
    group.bench_function("bit_sliced_mvm_128x128_4bit", |b| {
        b.iter(|| engine.multiply(&x, 9));
    });

    // Processing-engine block MVM with the paper's default bits on a 32x32 block.
    let config = ReFloatConfig::new(5, 3, 3, 3, 8);
    let rows: Vec<u16> = (0..32).flat_map(|r| std::iter::repeat_n(r, 8)).collect();
    let cols: Vec<u16> = (0..32).flat_map(|_| (0..8).map(|k| k * 4)).collect();
    let vals: Vec<f64> = (0..256)
        .map(|i| ((i % 17) as f64 - 8.0) * 1e-3 + 0.5)
        .collect();
    let block = Block {
        block_row: 0,
        block_col: 0,
        rows: &rows,
        cols: &cols,
        vals: &vals,
    };
    let encoded = ReFloatBlock::encode(&block, &config);
    let pe = ProcessingEngine::new(config);
    let segment: Vec<f64> = (0..32).map(|i| (i as f64 * 0.2).sin() + 1.0).collect();
    group.bench_function("processing_engine_block_mvm_32x32", |b| {
        b.iter(|| pe.block_mvm(&encoded, &segment));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_crossbar
}
criterion_main!(benches);
