//! Conversion throughput: encoding a matrix into ReFloat format (the one-time cost paid
//! before a solve) and re-encoding a solver vector (paid every iteration).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use refloat_core::incremental::{reencode_incremental, reencode_incremental_on};
use refloat_core::vector::VectorConverter;
use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_matgen::transient::{perturb_symmetric_pairs, TransientChain, TransientSpec};
use refloat_matgen::{fem, generators, rhs};
use refloat_solvers::LinearOperator;
use refloat_sparse::blocked::BlockLayout;
use refloat_sparse::parallel::Lanes;
use refloat_sparse::vecops::LanedVectors;
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
    // graph with a handful of non-zeros per block.  `encode_from_csr_*` finds the
    // blocks as it encodes, as a miss with nothing to adopt does; `encode_over_donor_*`
    // reads a live encoding's table instead, as a miss on a structure already encoded
    // does; `blocking_*` is the layout alone.
    let wide = ReFloatConfig::new(7, 3, 8, 5, 16);
    let one = Lanes::default();
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
        let (donor, a) = (ReFloatMatrix::from_csr(&a, wide), Arc::new(a));
        group.bench_function(format!("encode_over_donor_{shape}"), |b| {
            b.iter(|| ReFloatMatrix::from_csr_over_on(&a, wide, &donor, &one));
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

/// The vector converter of a laned solve's apply on one lane against two: the apply of
/// an identity matrix, whose row loop is next to nothing, so the converter is most of
/// it.  One lane is the plain apply; two lanes is the banded apply over two resident
/// bands, each lane converting its own.
fn bench_laned_convert(c: &mut Criterion) {
    let format = ReFloatConfig::new(7, 3, 8, 5, 16);
    let two = Arc::new(Lanes::new(2).expect("spawn a helper lane"));
    let mut group = c.benchmark_group("convert_lanes");
    for (name, n) in [("n_24389", 24_389), ("n_20000", 20_000), ("n_9216", 9216)] {
        let identity = generators::logspace_diagonal(n, 1.0, 1.0).to_csr();
        let x = rhs::krylov_like(n, 17);
        let mut y = vec![0.0; n];
        let mut one = ReFloatMatrix::from_csr(&identity, format);
        let mut split = one.clone().with_lanes(&two);
        let mut bands = LanedVectors::new(&two, &x);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("{name}_1_lane"), |b| {
            b.iter(|| one.apply(&x, &mut y))
        });
        group.bench_function(format!("{name}_2_lanes"), |b| {
            b.iter(|| split.apply_bands(&mut bands, None))
        });
    }
    group.finish();
}

/// `from_csr` and the same-structure re-encode on one lane against two, on the
/// `serve_cold` shapes and the `transient_chain` matrix, in the benchmark's format.
/// `reencode_poisson_96` perturbs every block row; `reencode_transient_96` re-encodes
/// one step of the benchmark's chain against its predecessor, whose drift leaves most
/// block rows clean, so it times the delta: a value diff, the dirty rows quantized and
/// the clean ones copied.
fn bench_laned_encode(c: &mut Criterion) {
    let format = ReFloatConfig::new(7, 3, 8, 5, 16);
    let two = Lanes::new(2).expect("spawn a helper lane");
    let mut group = c.benchmark_group("encode_lanes");
    for (name, a) in [
        (
            "mass_24",
            generators::mass_matrix_3d(24, 24, 24, 1e-12, 0.8, 3),
        ),
        (
            "graph_27648",
            generators::random_spd_graph(27_648, 6, 1.35, 1.0, 5),
        ),
        ("poisson_96", generators::laplacian_2d(96, 96, 0.2)),
    ] {
        let a = Arc::new(a.to_csr());
        let next = Arc::new(perturb_symmetric_pairs(&a, 0.05, 0.2, 11));
        let previous = ReFloatMatrix::from_csr(&a, format);
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_function(format!("from_csr_{name}_1_lane"), |b| {
            b.iter(|| ReFloatMatrix::from_csr(&a, format))
        });
        group.bench_function(format!("from_csr_{name}_2_lanes"), |b| {
            b.iter(|| ReFloatMatrix::from_csr_on(&a, format, &two))
        });
        group.bench_function(format!("reencode_{name}_1_lane"), |b| {
            b.iter(|| reencode_incremental(&previous, &a, &next))
        });
        group.bench_function(format!("reencode_{name}_2_lanes"), |b| {
            b.iter(|| reencode_incremental_on(&previous, &a, &next, &two))
        });
    }
    let mut steps = TransientChain::new(fem::poisson_2d(96, 96, 0.2, 11), benchmark_chain(3))
        .skip(1)
        .map(|step| Arc::new(step.matrix));
    let (a, next) = (steps.next().unwrap(), steps.next().unwrap());
    let previous = ReFloatMatrix::from_csr(&a, format);
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("reencode_transient_96_1_lane", |b| {
        b.iter(|| reencode_incremental(&previous, &a, &next))
    });
    group.bench_function("reencode_transient_96_2_lanes", |b| {
        b.iter(|| reencode_incremental_on(&previous, &a, &next, &two))
    });
    group.finish();
}

/// The repo benchmark's `transient_chain` spec, cut to `steps` of its 240.
fn benchmark_chain(steps: usize) -> TransientSpec {
    TransientSpec::default()
        .with_steps(steps)
        .with_seed(11)
        .with_drift(1e-7, 0.25)
        .with_rhs_phase(1e-6)
        .with_mass(0.5, 0.0)
}

/// Building the repo benchmark's `transient_chain` chain, the matrices its
/// re-encodes consume: `poisson_2d(96, 96, 0.2, 11)` under the workload's spec,
/// 24 of its 240 steps.  Throughput is in steps.
fn bench_transient_chain(c: &mut Criterion) {
    const STEPS: usize = 24;
    let base = fem::poisson_2d(96, 96, 0.2, 11);
    let spec = benchmark_chain(STEPS);
    let mut group = c.benchmark_group("transient_chain");
    group.throughput(Throughput::Elements(STEPS as u64));
    group.bench_function("transient_chain_96", |b| {
        b.iter(|| {
            TransientChain::new(base.clone(), spec.clone())
                .map(|step| step.matrix.nnz())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_convert, bench_laned_convert, bench_laned_encode, bench_transient_chain
}
criterion_main!(benches);
