//! Overhead of the runtime's serving layer itself: encoded-matrix cache lookups
//! (hit path), matrix fingerprinting, and the full per-job
//! overhead of a batch whose solves are trivial (1-iteration cap on a hot cached
//! matrix) — everything except the solver is runtime tax.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use refloat_core::ReFloatConfig;
use refloat_matgen::generators;
use refloat_runtime::{
    fingerprint_csr, EncodedMatrixCache, MatrixHandle, RuntimeConfig, SolvePlan, SolveRuntime,
};
use refloat_solvers::SolverConfig;

fn bench_runtime_overhead(c: &mut Criterion) {
    let a = generators::laplacian_2d(16, 16, 0.3).to_csr();
    let handle = MatrixHandle::new("poisson-16", a.clone());
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);

    let mut group = c.benchmark_group("runtime");

    // Cache hot path: every lookup after the first is a hit.
    let cache = EncodedMatrixCache::new(8);
    let key = refloat_runtime::CacheKey::whole(handle.fingerprint(), format);
    let clock = refloat_telemetry::WallClock::new();
    cache.get_or_encode(key, &clock, || {
        refloat_core::ReFloatMatrix::from_csr(&a, format)
    });
    group.bench_function("cache_hit_lookup", |b| {
        b.iter(|| cache.get_or_encode(key, &clock, || unreachable!("entry is cached")))
    });

    // Content fingerprinting, the per-handle one-time cost.
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function("fingerprint_poisson_16x16", |b| {
        b.iter(|| fingerprint_csr(&a))
    });
    // At the size of the repo benchmark's `serve_cold` mass matrices.
    let mass = generators::mass_matrix_3d(24, 24, 24, 1e-12, 0.8, 1).to_csr();
    group.throughput(Throughput::Elements(mass.nnz() as u64));
    group.bench_function("fingerprint_mass_24", |b| b.iter(|| fingerprint_csr(&mass)));
    group.finish();

    // Whole-service overhead per job: 16 jobs, hot cache, 1-iteration solves.
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 4,
        queue_capacity: 16,
        cache_capacity: 8,
        ..RuntimeConfig::default()
    });
    let one_iter = SolverConfig::relative(1e-8)
        .with_max_iterations(1)
        .with_trace(false);
    // Warm the cache so the measured batches never encode.
    runtime.run_batch(vec![SolvePlan::new("warm", handle.clone(), format)
        .solver_config(one_iter.clone())
        .build()
        .expect("valid plan")]);
    let mut group = c.benchmark_group("runtime_batch");
    group.sample_size(10);
    group.throughput(Throughput::Elements(16));
    group.bench_function("overhead_16_trivial_jobs_4_workers", |b| {
        b.iter(|| {
            let plans: Vec<SolvePlan> = (0..16)
                .map(|i| {
                    SolvePlan::new(format!("t{i}"), handle.clone(), format)
                        .solver_config(one_iter.clone())
                        .build()
                        .expect("valid plan")
                })
                .collect();
            runtime.run_batch(plans)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_runtime_overhead
}
criterion_main!(benches);
