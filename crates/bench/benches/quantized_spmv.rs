//! Per-application cost of the quantized operators relative to plain FP64 CSR SpMV —
//! the functional-simulation overhead of the ReFloat and Feinberg models.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use refloat_core::feinberg::FeinbergOperator;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::{generators, rhs};
use refloat_solvers::LinearOperator;

fn bench_quantized_spmv(c: &mut Criterion) {
    let a = generators::laplacian_2d(256, 256, 0.2).to_csr();
    // A solver-like input (mixed sign, many binades): a smooth positive one hides the
    // vector converter's data-dependent cost.
    let x = rhs::krylov_like(a.ncols(), 17);
    let mut y = vec![0.0; a.nrows()];

    let mut csr = a.clone();
    let mut refloat = ReFloatMatrix::from_csr(&a, ReFloatConfig::paper_default());
    let mut feinberg = FeinbergOperator::new(a.clone());

    let mut group = c.benchmark_group("quantized_spmv");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("fp64_csr", |b| {
        b.iter(|| LinearOperator::apply(&mut csr, &x, &mut y))
    });
    group.bench_function("refloat", |b| b.iter(|| refloat.apply(&x, &mut y)));
    group.bench_function("feinberg", |b| b.iter(|| feinberg.apply(&x, &mut y)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_quantized_spmv
}
criterion_main!(benches);
