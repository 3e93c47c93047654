//! SpMV throughput: the serial CSR kernel on a Table V-sized workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use refloat_matgen::generators;

fn bench_csr_spmv(c: &mut Criterion) {
    let a = generators::wathen(40, 40, 7).to_csr();
    let x: Vec<f64> = (0..a.ncols())
        .map(|i| (i as f64 * 0.013).sin() + 1.0)
        .collect();
    let mut y = vec![0.0; a.nrows()];

    let mut group = c.benchmark_group("spmv");
    group.throughput(Throughput::Elements(a.nnz() as u64));
    group.bench_function(BenchmarkId::new("csr_serial", a.nnz()), |b| {
        b.iter(|| a.spmv_into(&x, &mut y));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_csr_spmv
}
criterion_main!(benches);
