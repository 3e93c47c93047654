//! Per-application cost of the quantized operators relative to plain FP64 CSR SpMV —
//! the functional-simulation overhead of the ReFloat and Feinberg models — and of the
//! ReFloat apply and CG iteration split over lanes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use refloat_core::feinberg::FeinbergOperator;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::{generators, rhs};
use refloat_solvers::{cg, LinearOperator, SolverConfig};
use refloat_sparse::parallel::Lanes;

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

/// One apply on one lane against two, on the two matrices of the repo benchmark's
/// `solve_refined` workload (its dense-block and scattered shapes, in its format), on a
/// smaller one that still splits, and on one below `MIN_NNZ_PER_LANE` that must not
/// (its two cases should read the same).
fn bench_apply_lanes(c: &mut Criterion) {
    let format = ReFloatConfig::new(7, 3, 8, 5, 16);
    let matrices = [
        (
            "mass_29",
            generators::mass_matrix_3d(29, 29, 29, 1e-12, 0.8, 2023 ^ 0x355),
        ),
        (
            "graph_20000",
            generators::random_spd_graph(20_000, 6, 1.35, 1.0, 2023 ^ 0x2257),
        ),
        ("poisson_96", generators::laplacian_2d(96, 96, 0.2)),
        ("poisson_16", generators::laplacian_2d(16, 16, 0.2)),
    ];
    let two = Arc::new(Lanes::new(2).expect("spawn a helper lane"));
    let mut group = c.benchmark_group("apply_lanes");
    for (name, coo) in matrices {
        let a = coo.to_csr();
        let x = rhs::krylov_like(a.ncols(), 17);
        let mut y = vec![0.0; a.nrows()];
        let mut one = ReFloatMatrix::from_csr(&a, format);
        let mut split = one.clone().with_lanes(&two);
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(format!("{name}_1_lane"), |b| {
            b.iter(|| one.apply(&x, &mut y))
        });
        group.bench_function(format!("{name}_2_lanes"), |b| {
            b.iter(|| split.apply(&x, &mut y))
        });
    }
    group.finish();
}

/// CG iterations on one lane against two, on the `solve_refined` matrices and the
/// `transient_chain` one, in their format: on two lanes the vectors stay on the lanes
/// and an iteration is three lane phases.  Each sample is a solve capped at
/// `ITERATIONS` iterations, so the per-iteration cost is the time over `ITERATIONS`.
fn bench_cg_iteration_lanes(c: &mut Criterion) {
    const ITERATIONS: usize = 16;
    let format = ReFloatConfig::new(7, 3, 8, 5, 16);
    let matrices = [
        (
            "mass_29",
            generators::mass_matrix_3d(29, 29, 29, 1e-12, 0.8, 2023 ^ 0x355),
        ),
        (
            "graph_20000",
            generators::random_spd_graph(20_000, 6, 1.35, 1.0, 2023 ^ 0x2257),
        ),
        ("poisson_96", generators::laplacian_2d(96, 96, 0.2)),
    ];
    let two = Arc::new(Lanes::new(2).expect("spawn a helper lane"));
    let config = SolverConfig::relative(0.0)
        .with_max_iterations(ITERATIONS)
        .with_trace(false);
    let mut group = c.benchmark_group("cg_iteration_lanes");
    for (name, coo) in matrices {
        let a = coo.to_csr();
        let b = rhs::krylov_like(a.nrows(), 17);
        let mut one = ReFloatMatrix::from_csr(&a, format);
        let mut split = one.clone().with_lanes(&two);
        group.throughput(Throughput::Elements((ITERATIONS * a.nnz()) as u64));
        group.bench_function(format!("{name}_1_lane"), |bench| {
            bench.iter(|| cg(&mut one, &b, &config))
        });
        group.bench_function(format!("{name}_2_lanes"), |bench| {
            bench.iter(|| cg(&mut split, &b, &config))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_quantized_spmv, bench_apply_lanes, bench_cg_iteration_lanes
}
criterion_main!(benches);
