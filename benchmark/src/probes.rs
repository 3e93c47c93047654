//! Probes: one public function at a time, timed in isolation on the workload's own
//! largest matrix.  Each sample runs for at least 50 ms; the median of five is kept.

use std::hint::black_box;
use std::time::{Duration, Instant};

use refloat_core::vector::VectorConverter;
use refloat_core::ReFloatMatrix;
use refloat_runtime::cluster::{Router, RouterPolicy};
use refloat_runtime::{fingerprint_csr, JobScheduler, Priority, SchedulerPolicy};
use refloat_solvers::LinearOperator;
use refloat_sparse::{vecops, BlockedMatrix};

use crate::stats::median;
use crate::workloads::Inputs;

const SAMPLE: Duration = Duration::from_millis(50);
const SAMPLES: usize = 5;

/// Depth the scheduler is held at while one push/pop pair is timed.
const SCHED_DEPTH: u64 = 64;

pub struct Probes {
    pub csr_spmv_nnz_per_s: f64,
    pub blocking_nnz_per_s: f64,
    pub dot_elems_per_s: f64,
    pub axpy_elems_per_s: f64,
    pub convert_elems_per_s: f64,
    pub convert_share_of_apply: f64,
    pub fingerprint_nnz_per_s: f64,
    pub sched_push_pop_ns: f64,
    pub router_place_ns: f64,
}

/// Median seconds per call of `once`, over `samples` samples of at least `sample`.
/// The clock is read once per `block` calls, so that reading it does not show in a
/// call that takes tens of nanoseconds.
fn seconds_per_call(sample: Duration, samples: usize, block: u64, mut once: impl FnMut()) -> f64 {
    once();
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            let mut calls = 0u64;
            while started.elapsed() < sample {
                for _ in 0..block {
                    once();
                }
                calls += block;
            }
            started.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&per_call)
}

pub fn run(inputs: &Inputs, smoke: bool) -> Probes {
    // Smoke runs only check that every probe produces a number.
    let (sample, samples) = if smoke {
        (Duration::from_millis(2), 2)
    } else {
        (SAMPLE, SAMPLES)
    };
    let time = |once: &mut dyn FnMut()| seconds_per_call(sample, samples, 1, once);
    let time_tiny = |once: &mut dyn FnMut()| seconds_per_call(sample, samples, 256, once);

    let entry = inputs
        .entries
        .iter()
        .max_by_key(|e| e.handle.csr().nnz())
        .expect("a workload has at least one matrix");
    let csr = entry.handle.csr();
    let (n, nnz) = (csr.nrows(), csr.nnz() as f64);
    let x: Vec<f64> = (0..n).map(|i| 0.5 + (i % 17) as f64 / 17.0).collect();
    let mut y = vec![0.0; n];

    let csr_spmv_s = time(&mut || csr.spmv_into(black_box(&x), black_box(&mut y)));
    let blocking_s = time(&mut || {
        black_box(BlockedMatrix::from_csr(black_box(csr), entry.format.b).expect("valid b"));
    });
    let fingerprint_s = time(&mut || {
        black_box(fingerprint_csr(black_box(csr)));
    });
    let dot_s = time(&mut || {
        black_box(vecops::dot(black_box(&x), black_box(&y)));
    });
    let axpy_s = time(&mut || vecops::axpy(black_box(1e-9), black_box(&x), black_box(&mut y)));

    let mut converter = VectorConverter::new(entry.format);
    let mut converted = vec![0.0; n];
    let convert_s = time(&mut || converter.convert_into(black_box(&x), black_box(&mut converted)));
    let mut encoded = ReFloatMatrix::from_csr(csr, entry.format);
    let apply_s = time(&mut || encoded.apply(black_box(&x), black_box(&mut y)));

    // One pop + push at a steady depth; ids keep rising like submission ids do.
    let sched: JobScheduler<u64> =
        JobScheduler::new(2 * SCHED_DEPTH as usize, SchedulerPolicy::default());
    for id in 0..SCHED_DEPTH {
        sched
            .push(id, Priority::Standard, None, id)
            .expect("open scheduler");
    }
    let mut next_id = SCHED_DEPTH;
    let sched_s = time_tiny(&mut || {
        let popped = sched.pop().expect("never empty");
        sched.finish_one();
        sched
            .push(next_id, Priority::Standard, None, black_box(popped.payload))
            .expect("open scheduler");
        next_id += 1;
    });

    // Eight resident fingerprints over two nodes: the sticky-hit path.
    let router = Router::new(RouterPolicy::default());
    let (loads, chips) = ([3usize, 5], [8usize, 8]);
    let mut turn = 0u64;
    let place_s = time_tiny(&mut || {
        black_box(router.place(black_box(turn % 8), 1, &loads, &chips));
        turn += 1;
    });

    Probes {
        csr_spmv_nnz_per_s: nnz / csr_spmv_s,
        blocking_nnz_per_s: nnz / blocking_s,
        dot_elems_per_s: n as f64 / dot_s,
        axpy_elems_per_s: n as f64 / axpy_s,
        convert_elems_per_s: n as f64 / convert_s,
        convert_share_of_apply: convert_s / apply_s,
        fingerprint_nnz_per_s: nnz / fingerprint_s,
        sched_push_pop_ns: sched_s * 1e9,
        router_place_ns: place_s * 1e9,
    }
}
