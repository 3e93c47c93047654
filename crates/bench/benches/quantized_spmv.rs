//! Per-application cost of the quantized operators relative to plain FP64 CSR SpMV —
//! the functional-simulation overhead of the ReFloat and Feinberg models — and the cost
//! of a CG iteration on one lane and on two.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use refloat_core::feinberg::FeinbergOperator;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::{generators, rhs};
use refloat_solvers::{cg, LanedCsr, LinearOperator, SolverConfig};
use refloat_sparse::parallel::Lanes;
use refloat_sparse::vecops;

/// The three operators on a banded matrix, whose encoding keeps its values by diagonal,
/// and on a scattered one of the same non-zero count, whose encoding keeps them in row
/// order: the two kernels of `refloat_sparse::order`.
fn bench_quantized_spmv(c: &mut Criterion) {
    let matrices = [
        ("laplacian_256", generators::laplacian_2d(256, 256, 0.2)),
        (
            "graph_65536",
            generators::random_spd_graph(65_536, 4, 1.4, 1.0, 17),
        ),
    ];
    let mut group = c.benchmark_group("quantized_spmv");
    for (name, coo) in matrices {
        let a = coo.to_csr();
        // A solver-like input (mixed sign, many binades): a smooth positive one hides
        // the vector converter's data-dependent cost.
        let x = rhs::krylov_like(a.ncols(), 17);
        let mut y = vec![0.0; a.nrows()];

        let mut csr = a.clone();
        let mut refloat = ReFloatMatrix::from_csr(&a, ReFloatConfig::paper_default());
        let mut feinberg = FeinbergOperator::new(a.clone());

        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(format!("{name}_fp64_csr"), |b| {
            b.iter(|| LinearOperator::apply(&mut csr, &x, &mut y))
        });
        group.bench_function(format!("{name}_refloat"), |b| {
            b.iter(|| refloat.apply(&x, &mut y))
        });
        group.bench_function(format!("{name}_feinberg"), |b| {
            b.iter(|| feinberg.apply(&x, &mut y))
        });
    }
    group.finish();
}

/// CG iterations on one lane against two, on the `solve_refined` matrices and the
/// `transient_chain` one, in their format: on two lanes the vectors stay on the lanes
/// and an iteration is three lane phases.  On one lane they are a single band on the
/// calling thread, which three cases time alone: the 48 × 48 Laplacian in the format
/// of `serve_hot`'s busiest entry, and two matrices in fp64 CSR through the operator's
/// default banded apply.  Each sample is a solve capped at `ITERATIONS` iterations, so
/// the per-iteration cost is the time over `ITERATIONS`.  The last two cases time one
/// exact fp64 residual `b − A·x` on the `transient_chain` matrix, as a refined solve
/// measures each pass's, through `LanedCsr` on one lane and on two.
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
    let laplacian = generators::laplacian_2d(48, 48, 0.1).to_csr();
    let b = rhs::krylov_like(laplacian.nrows(), 17);
    let mut one = ReFloatMatrix::from_csr(&laplacian, ReFloatConfig::new(7, 3, 3, 3, 8));
    group.throughput(Throughput::Elements((ITERATIONS * laplacian.nnz()) as u64));
    group.bench_function("poisson_48_1_lane", |bench| {
        bench.iter(|| cg(&mut one, &b, &config))
    });
    let graph = generators::random_spd_graph(20_000, 6, 1.35, 1.0, 2023 ^ 0x2257).to_csr();
    for (name, mut fp64) in [("poisson_48", laplacian), ("graph_20000", graph)] {
        let b = rhs::krylov_like(fp64.nrows(), 17);
        group.throughput(Throughput::Elements((ITERATIONS * fp64.nnz()) as u64));
        group.bench_function(format!("{name}_fp64_1_lane"), |bench| {
            bench.iter(|| cg(&mut fp64, &b, &config))
        });
    }
    let chain = Arc::new(generators::laplacian_2d(96, 96, 0.2).to_csr());
    let (b, x) = (
        rhs::krylov_like(chain.nrows(), 17),
        rhs::krylov_like(chain.nrows(), 5),
    );
    let (mut ax, mut r) = (vec![0.0; chain.nrows()], vec![0.0; chain.nrows()]);
    group.throughput(Throughput::Elements(chain.nnz() as u64));
    let one = Arc::new(Lanes::default());
    for (lanes, name) in [(&one, "1_lane"), (&two, "2_lanes")] {
        let mut exact = LanedCsr::new(Arc::clone(&chain), lanes);
        group.bench_function(format!("poisson_96_exact_residual_{name}"), |bench| {
            bench.iter(|| {
                exact.apply(&x, &mut ax);
                vecops::sub_into(&b, &ax, &mut r);
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_quantized_spmv, bench_cg_iteration_lanes
}
criterion_main!(benches);
