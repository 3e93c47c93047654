//! Conversion throughput: encoding a matrix into ReFloat format (the one-time cost paid
//! before a solve) and re-encoding a solver vector (paid every iteration).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use refloat_core::vector::VectorConverter;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::{generators, rhs};
use refloat_sparse::blocked::BlockLayout;
use refloat_sparse::BlockedMatrix;

fn bench_convert(c: &mut Criterion) {
    let a = generators::mass_matrix_3d(24, 24, 24, 1e-12, 0.8, 3).to_csr();
    let blocked = BlockedMatrix::from_csr(&a, 7).unwrap();
    let config = ReFloatConfig::paper_default();

    let mut group = c.benchmark_group("refloat_convert");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("encode_matrix_blocks", |b| {
        b.iter(|| ReFloatMatrix::from_blocked(&blocked, config));
    });
    group.finish();

    // The two matrix shapes the repo benchmark's cold-cache workload encodes on every
    // job, in its `(7,3,8)(5,16)` format: a block-local mass matrix and a scattered
    // graph with a handful of non-zeros per block.  `blocking_*` is the layout alone.
    let wide = ReFloatConfig::new(7, 3, 8, 5, 16);
    for (shape, a) in [
        ("mass_24", a.clone()),
        (
            "graph_27648",
            generators::random_spd_graph(27_648, 6, 1.35, 1.0, 5).to_csr(),
        ),
    ] {
        let mut group = c.benchmark_group("encode");
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(format!("encode_from_csr_{shape}"), |b| {
            b.iter(|| ReFloatMatrix::from_csr(&a, wide));
        });
        group.bench_function(format!("blocking_{shape}"), |b| {
            b.iter(|| BlockLayout::from_csr(&a, wide.b).unwrap());
        });
        group.finish();
    }

    // What the converter is fed inside a solve — mixed sign, many binades — not a
    // smooth positive profile, which a branch predictor learns.  Three windows over it:
    // the paper's `(3, 8)`, the repo benchmark's wide `(5, 16)`, and a narrow `ev = 2`
    // one that saturates in most segments, the kernel's clamping path.
    let x = rhs::krylov_like(a.ncols(), 17);
    let mut out = vec![0.0; x.len()];
    let mut group = c.benchmark_group("vector_converter");
    group.throughput(Throughput::Elements(x.len() as u64));
    for (name, config) in [
        ("convert_vector", config),
        ("convert_vector_wide_5_16", wide),
        (
            "convert_vector_narrow_2_8",
            ReFloatConfig::new(7, 3, 8, 2, 8),
        ),
    ] {
        let mut converter = VectorConverter::new(config);
        group.bench_function(name, |b| {
            b.iter(|| converter.convert_into(&x, &mut out));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_convert
}
criterion_main!(benches);
