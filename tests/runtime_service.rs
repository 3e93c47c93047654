//! Workspace-level tests of the `refloat-runtime` solve service: concurrent execution
//! must be bit-identical to serial execution, the encoded-matrix cache must actually
//! skip re-encoding, reports must reflect the batch, and the service-mode API
//! (`SolveClient` tickets, QoS scheduling, cancellation, drain/shutdown) must honour
//! its contract.

use std::sync::Arc;
use std::time::Duration;

use refloat::prelude::*;
use refloat::runtime::{
    AutoFormatSpec, CacheOutcomeKind, JobOutcome, PlanViolation, RefinementSpec, SubmitError,
};

/// A mixed-workload, mixed-format catalog of small matrices.
fn catalog() -> Vec<(MatrixHandle, ReFloatConfig, SolverKind)> {
    let gen = &refloat::matgen::generators::laplacian_2d;
    vec![
        (
            MatrixHandle::new("poisson-16", gen(16, 16, 0.3).to_csr()),
            ReFloatConfig::new(4, 3, 8, 3, 8),
            SolverKind::Cg,
        ),
        (
            MatrixHandle::new(
                "mass-6",
                refloat::matgen::generators::mass_matrix_3d(6, 6, 6, 1e-12, 0.5, 7).to_csr(),
            ),
            ReFloatConfig::new(4, 3, 8, 3, 8),
            SolverKind::Cg,
        ),
        (
            MatrixHandle::new("poisson-12", gen(12, 12, 0.4).to_csr()),
            ReFloatConfig::new(5, 3, 3, 3, 8),
            SolverKind::Cg,
        ),
        (
            MatrixHandle::new(
                "convdiff-10",
                refloat::matgen::generators::convection_diffusion_2d(10, 10, 6.0).to_csr(),
            ),
            ReFloatConfig::new(4, 3, 8, 3, 8),
            SolverKind::BiCgStab,
        ),
    ]
}

fn trace_plans(count: usize) -> Vec<SolvePlan> {
    let catalog = catalog();
    (0..count)
        .map(|i| {
            // Deterministic skew: two thirds of the traffic goes to the first matrix.
            let which = if i % 3 != 2 {
                0
            } else {
                1 + (i / 3) % (catalog.len() - 1)
            };
            let (handle, format, solver) = &catalog[which];
            SolvePlan::new(format!("tenant-{}", i % 7), handle.clone(), *format)
                .solver(*solver)
                .solver_config(
                    SolverConfig::relative(1e-8)
                        .with_max_iterations(2_000)
                        .with_trace(false),
                )
                .build()
                .expect("valid trace plan")
        })
        .collect()
}

/// Serial reference execution of a plan: exactly what a downstream user would run by
/// hand with the umbrella crate.
fn solve_serial(plan: &SolvePlan) -> SolveResult {
    let mut op = ReFloatMatrix::from_csr(plan.matrix().csr(), plan.format());
    let ones = vec![1.0; plan.matrix().csr().nrows()];
    let rhs: &[f64] = match plan.rhs() {
        Some(b) => b,
        None => &ones,
    };
    match plan.solver() {
        SolverKind::Cg => cg(&mut op, rhs, plan.solver_config()),
        SolverKind::BiCgStab => bicgstab(&mut op, rhs, plan.solver_config()),
    }
}

#[test]
fn concurrent_results_are_bit_identical_to_serial_execution() {
    let plans = trace_plans(72); // >= 64 jobs, mixed matrices/formats/solvers
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 6, // >= 4 workers
        queue_capacity: 8,
        cache_capacity: 8,
        ..RuntimeConfig::default()
    });
    let outcome = runtime.run_batch(plans.clone());
    assert_eq!(outcome.jobs.len(), 72);

    for (plan, out) in plans.iter().zip(outcome.jobs.iter()) {
        let serial = solve_serial(plan);
        assert_eq!(
            serial.iterations, out.result.iterations,
            "job {}",
            out.job_id
        );
        assert_eq!(serial.stop, out.result.stop, "job {}", out.job_id);
        // Bit-identical solution vectors: same operator, same order of operations.
        assert_eq!(serial.x.len(), out.result.x.len());
        for (a, b) in serial.x.iter().zip(out.result.x.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "job {}", out.job_id);
        }
    }

    // Every worker should have participated in a 72-job batch.
    assert_eq!(outcome.report.per_worker_jobs.iter().sum::<u64>(), 72);
    assert_eq!(outcome.report.per_worker_jobs.len(), 6);
}

#[test]
fn a_one_worker_runtime_solves_on_its_lanes_and_keeps_the_serial_bits() {
    // One worker takes every spare core as a lane, so on a machine with two or more
    // cores this matrix's encode runs in block-row bands over helper threads, and its
    // CG solve keeps its vectors in bands on them.  The matrix is above both minimums
    // for up to four lanes.
    let a = refloat::matgen::generators::mass_matrix_3d(21, 21, 21, 1e-12, 0.8, 3).to_csr();
    assert!(a.nnz() >= 4 * refloat::core::matrix::MIN_NNZ_PER_LANE);
    assert!(a.nrows() >= 4 * refloat::sparse::vecops::MIN_LEN_PER_LANE);
    let format = ReFloatConfig::new(5, 3, 8, 5, 16);
    let config = SolverConfig::relative(1e-8).with_max_iterations(2_000);
    let rhs = Arc::new(refloat::matgen::rhs::krylov_like(a.nrows(), 21));
    let serial = cg(&mut ReFloatMatrix::from_csr(&a, format), &rhs, &config);
    let handle = MatrixHandle::new("mass-21", a);
    let plan = SolvePlan::new("lanes", handle, format)
        .rhs(Arc::clone(&rhs))
        .solver_config(config)
        .build()
        .expect("valid plan");
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    });
    let outcome = client
        .submit(plan)
        .unwrap()
        .wait()
        .completed()
        .expect("ran");
    assert_eq!(outcome.result.iterations, serial.iterations);
    assert!(serial.iterations > 10);
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&outcome.result.x), bits(&serial.x));

    // A sequence of refined steps: each step re-encodes against its predecessor and
    // every rung's CG keeps its vectors on the lanes.  The serial reference is the same
    // ladder by hand, warm-started from the previous step's solution.
    let base = refloat::matgen::fem::poisson_2d(96, 96, 0.2, 11);
    let steps = TransientChain::new(base, TransientSpec::default().with_steps(3).with_seed(5));
    let spec = RefinementSpec::to_target(1e-10);
    let format = ReFloatConfig::new(7, 3, 8, 5, 16);
    let (mut sequence, mut guess) = (client.sequence(), None::<Vec<f64>>);
    for step in steps {
        let mut ladder = refloat::solvers::OperatorLadder::new(SolverKind::Cg);
        for rung in spec.escalation.ladder(format) {
            ladder.push(Box::new(ReFloatMatrix::from_csr(&step.matrix, rung)));
        }
        if spec.escalation.fp64_fallback {
            ladder.push(Box::new(step.matrix.clone()));
        }
        let config = spec.refinement_config();
        let mut exact = &step.matrix;
        let guessed = guess.as_deref();
        let serial =
            refloat::solvers::refine_warm(&mut exact, &step.rhs, guessed, &mut ladder, &config);
        let serial = serial.into_solve_result();
        let handle = MatrixHandle::new(format!("heat-{}", step.index), step.matrix.clone());
        let plan = SolvePlan::new("lanes", handle, format)
            .rhs(Arc::new(step.rhs.clone()))
            .refinement(spec.clone())
            .build()
            .expect("valid plan");
        let outcome = sequence.step(plan).unwrap().completed().expect("ran");
        assert!(outcome.result.converged(), "step {}", step.index);
        assert_eq!(
            outcome.result.iterations, serial.iterations,
            "step {}",
            step.index
        );
        assert_eq!(
            bits(&outcome.result.x),
            bits(&serial.x),
            "step {}",
            step.index
        );
        guess = Some(serial.x);
    }
    assert_eq!(sequence.steps(), 3);
    client.shutdown();
}

#[test]
fn two_runs_of_the_same_batch_agree_bitwise() {
    let runtime_a = SolveRuntime::new(RuntimeConfig {
        workers: 4,
        ..Default::default()
    });
    let runtime_b = SolveRuntime::new(RuntimeConfig {
        workers: 7,
        ..Default::default()
    });
    let a = runtime_a.run_batch(trace_plans(30));
    let b = runtime_b.run_batch(trace_plans(30));
    for (ja, jb) in a.jobs.iter().zip(b.jobs.iter()) {
        assert_eq!(ja.result.iterations, jb.result.iterations);
        let bits_a: Vec<u64> = ja.result.x.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = jb.result.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b);
    }

    // Turning tracing on must not perturb the numerics: a third run with a live
    // TraceSink agrees bitwise with the untraced runs, and actually traced.
    let sink = Arc::new(refloat::runtime::TraceSink::wall());
    let traced = SolveRuntime::new(RuntimeConfig {
        workers: 4,
        trace: Some(sink.clone()),
        ..Default::default()
    })
    .run_batch(trace_plans(30));
    assert!(!sink.is_empty(), "tracing was enabled but recorded nothing");
    for (ja, jt) in a.jobs.iter().zip(traced.jobs.iter()) {
        assert_eq!(ja.result.iterations, jt.result.iterations);
        let bits_a: Vec<u64> = ja.result.x.iter().map(|v| v.to_bits()).collect();
        let bits_t: Vec<u64> = jt.result.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_t, "tracing changed job {} numerics", ja.job_id);
    }
}

#[test]
fn scheduling_policy_never_changes_numerics() {
    // The QoS scheduler reorders *when* jobs run, never *what* they compute: a
    // FIFO run and a priority run of the same trace agree bitwise, job by job.
    let fifo = SolveRuntime::new(RuntimeConfig {
        workers: 3,
        scheduler: SchedulerPolicy::fifo(),
        ..Default::default()
    })
    .run_batch(trace_plans(24));
    let prio = SolveRuntime::new(RuntimeConfig {
        workers: 3,
        scheduler: SchedulerPolicy::priority(4),
        ..Default::default()
    })
    .run_batch(trace_plans(24));
    for (ja, jb) in fifo.jobs.iter().zip(prio.jobs.iter()) {
        assert_eq!(ja.job_id, jb.job_id);
        let bits_a: Vec<u64> = ja.result.x.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = jb.result.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "job {}", ja.job_id);
    }
}

#[test]
fn resubmitting_a_matrix_hits_the_cache_and_skips_encoding() {
    let (handle, format, _) = catalog().remove(0);
    let plan = |tenant: &str, format: ReFloatConfig| {
        SolvePlan::new(tenant, handle.clone(), format)
            .build()
            .unwrap()
    };
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });

    let first = runtime.run_batch(vec![plan("t0", format)]);
    assert_eq!(first.jobs[0].telemetry.cache, CacheOutcomeKind::Miss);
    assert!(
        first.jobs[0].telemetry.encode_s > 0.0,
        "the miss pays the encode"
    );

    // Second submission of the same matrix + format: a hit, zero encode time.
    let second = runtime.run_batch(vec![plan("t1", format)]);
    assert_eq!(second.jobs[0].telemetry.cache, CacheOutcomeKind::Hit);
    assert_eq!(second.jobs[0].telemetry.encode_s, 0.0);
    assert_eq!(second.report.cache.misses, 0);

    // A *different* format on the same matrix is its own entry (and a miss).
    let wide = ReFloatConfig::new(format.b, format.e, format.f, format.ev, 16);
    let third = runtime.run_batch(vec![plan("t2", wide)]);
    assert_eq!(third.jobs[0].telemetry.cache, CacheOutcomeKind::Miss);
}

#[test]
fn matrices_of_one_structure_share_one_layout_and_keep_their_bits() {
    // Two mass matrices of one mesh: one structure, other values.
    let mass = |seed| refloat::matgen::generators::mass_matrix_3d(6, 6, 6, 1e-12, 0.5, seed);
    let (a, b) = (mass(7).to_csr(), mass(8).to_csr());
    assert_eq!((a.row_ptr(), a.col_idx()), (b.row_ptr(), b.col_idx()));
    assert_ne!(a.values(), b.values());
    let (a, b) = (MatrixHandle::new("a", a), MatrixHandle::new("b", b));
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);
    // Another rung of `b`'s ladder (same b) adopts too; another b blocks afresh.
    let (rung, other_b) = (
        ReFloatConfig::new(4, 3, 16, 3, 8),
        ReFloatConfig::new(3, 3, 8, 3, 8),
    );
    let jobs = [(&a, format), (&b, format), (&b, rung), (&b, other_b)];
    let plans = || jobs.map(|(handle, format)| SolvePlan::new("t", handle.clone(), format));
    let plans = || plans().map(|plan| plan.build().unwrap());
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let outcome = runtime.run_batch(plans());
    assert!(outcome
        .jobs
        .iter()
        .all(|job| job.telemetry.cache == CacheOutcomeKind::Miss));
    let cached = |handle: &MatrixHandle, format| {
        let key = refloat::runtime::CacheKey::new(handle.fingerprint(), format);
        runtime
            .cache()
            .peek(&key)
            .expect("every encoding is cached")
    };
    let first = cached(&a, format);
    assert!(cached(&b, format).shares_layout_with(&first));
    assert!(cached(&b, rung).shares_layout_with(&first));
    assert!(!cached(&b, other_b).shares_layout_with(&first));
    // Each job's bits are those of a runtime that encoded its matrix alone.
    for (job, plan) in outcome.jobs.iter().zip(plans()) {
        let cold = SolveRuntime::new(RuntimeConfig::default()).run_batch(vec![plan]);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&job.result.x), bits(&cold.jobs[0].result.x));
    }
}

#[test]
fn skewed_traffic_reaches_a_high_hit_rate_and_sane_report() {
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 4,
        queue_capacity: 16,
        cache_capacity: 8,
        ..RuntimeConfig::default()
    });
    let outcome = runtime.run_batch(trace_plans(64));
    let report = &outcome.report;
    assert_eq!(report.jobs, 64);
    assert_eq!(report.converged, 64);
    // 4 distinct (matrix, format) keys for 64 jobs: at least 60/64 skip the encode.
    assert!(report.hit_rate() > 0.9, "hit rate {:.2}", report.hit_rate());
    assert!(report.throughput_jobs_per_s > 0.0);
    assert!(report.latency_p50_s <= report.latency_p99_s);
    assert!(report.latency_p99_s <= report.latency_max_s + 1e-12);
    assert!(report.queue_wait_p50_s <= report.queue_wait_p99_s);
    assert!(report.queue_depth_peak >= 1);
    assert!(report.queue_depth_peak <= 16);
    assert_eq!(report.cancelled_jobs, 0);
    // All trace traffic is standard priority; every lane is reported regardless.
    assert_eq!(report.per_priority.len(), 3);
    let standard = report
        .per_priority
        .iter()
        .find(|lane| lane.priority == Priority::Standard)
        .expect("standard lane present");
    assert_eq!(standard.jobs, 64);
    assert!(report
        .per_priority
        .iter()
        .all(|lane| lane.priority == Priority::Standard || lane.jobs == 0));
    assert!(report.simulated_cycles > 0);
    assert!(report.simulated_total_s > 0.0);
    let rendered = report.render();
    assert!(rendered.contains("hit rate"));
    assert!(rendered.contains("jobs/s"));
    assert!(rendered.contains("peak depth"));
}

#[test]
fn refined_jobs_reach_fp64_accuracy_where_plain_low_precision_stalls() {
    let a = refloat::matgen::generators::laplacian_2d(16, 16, 0.3).to_csr();
    let handle = MatrixHandle::new("poisson-16", a.clone());
    let b = vec![1.0; a.nrows()];
    // 3 fraction bits: far too coarse for 1e-12, stalls well above 1e-6.
    let format = ReFloatConfig::new(4, 3, 3, 3, 8);
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 3,
        ..Default::default()
    });
    let outcome = runtime.run_batch(vec![
        SolvePlan::new("plain", handle.clone(), format)
            .build()
            .unwrap(),
        SolvePlan::new("refined", handle.clone(), format)
            .refinement(RefinementSpec::to_target(1e-12))
            .build()
            .unwrap(),
    ]);

    let plain_rel = a.relative_residual(&b, &outcome.jobs[0].result.x);
    assert!(
        plain_rel > 1e-6,
        "plain low-precision solve should stall above 1e-6, got {plain_rel:.3e}"
    );
    let refined_rel = a.relative_residual(&b, &outcome.jobs[1].result.x);
    assert!(
        refined_rel <= 1e-12,
        "refined solve should reach fp64 accuracy, got {refined_rel:.3e}"
    );

    let tele = outcome.jobs[1]
        .telemetry
        .refinement
        .as_ref()
        .expect("refined job carries refinement telemetry");
    assert!(tele.final_relative_residual <= 1e-12);
    assert!(tele.outer_iterations >= 2);
    assert!(!tele.stalled);
    // The outer loop's fp64 residual work is charged to the host model.
    assert!(outcome.jobs[1].telemetry.simulated.host_fp64_s > 0.0);
    assert!(outcome.jobs[0].telemetry.refinement.is_none());
    assert_eq!(outcome.report.refined_jobs, 1);
}

#[test]
fn refined_jobs_are_deterministic_and_share_rung_encodings_via_the_cache() {
    let plans = || {
        let handle = MatrixHandle::new(
            "poisson-12",
            refloat::matgen::generators::laplacian_2d(12, 12, 0.4).to_csr(),
        );
        (0..6)
            .map(|i| {
                SolvePlan::new(
                    format!("tenant-{i}"),
                    handle.clone(),
                    ReFloatConfig::new(4, 3, 3, 3, 8),
                )
                .refinement(RefinementSpec::to_target(1e-12))
                .build()
                .unwrap()
            })
            .collect::<Vec<_>>()
    };

    let a = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    })
    .run_batch(plans());
    let b = SolveRuntime::new(RuntimeConfig {
        workers: 5,
        ..Default::default()
    })
    .run_batch(plans());

    for (ja, jb) in a.jobs.iter().zip(b.jobs.iter()) {
        let bits_a: Vec<u64> = ja.result.x.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = jb.result.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "refined job {} numerics differ", ja.job_id);
        assert_eq!(
            ja.telemetry
                .refinement
                .as_ref()
                .map(|r| (r.outer_iterations, r.escalations)),
            jb.telemetry
                .refinement
                .as_ref()
                .map(|r| (r.outer_iterations, r.escalations)),
        );
    }

    // Six identical refined jobs share one encode per rung actually used: the miss
    // count is bounded by the ladder depth, not by the job count.
    let spec = RefinementSpec::default();
    let rungs = spec
        .escalation
        .ladder(ReFloatConfig::new(4, 3, 3, 3, 8))
        .len() as u64;
    assert!(
        a.report.cache.misses <= rungs,
        "{} misses for {} quantized rungs",
        a.report.cache.misses,
        rungs
    );
    assert!(a.report.cache.hits + a.report.cache.coalesced > 0);
}

#[test]
fn refined_sharded_solves_are_the_refined_whole_solve_bit_for_bit() {
    // Every rung keeps the job's `b`, so every rung shares the layout and the
    // block-row cuts: a refined job spread over chips prices each rung over the
    // job's bands while the host runs the same ladder it runs on one chip.
    let a = refloat::matgen::generators::laplacian_2d(24, 24, 0.3).to_csr();
    let handle = MatrixHandle::new("poisson-24", a);
    // 3 fraction bits: the ladder has to escalate to reach 1e-12.
    let format = ReFloatConfig::new(4, 3, 3, 3, 8);
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let chips = [1usize, 2, 4];
    let outcome = runtime.run_batch(chips.iter().map(|&chips| {
        SolvePlan::new(format!("chips-{chips}"), handle.clone(), format)
            .refinement(RefinementSpec::to_target(1e-12))
            .sharding(chips)
            .build()
            .unwrap()
    }));
    let refined = |job: &JobOutcome| {
        let bits: Vec<u64> = job.result.x.iter().map(|v| v.to_bits()).collect();
        let tele = job
            .telemetry
            .refinement
            .as_ref()
            .expect("refined telemetry");
        let passes = (
            tele.outer_iterations,
            tele.inner_iterations,
            tele.escalations,
            tele.final_level.clone(),
            tele.fp64_spmvs,
        );
        let end = (tele.final_relative_residual.to_bits(), tele.stalled);
        (bits, job.result.iterations, passes, end)
    };
    let whole = refined(&outcome.jobs[0]);
    assert!(whole.2 .2 > 0, "the reference must escalate");
    for (job, &chips) in outcome.jobs.iter().zip(&chips) {
        assert_eq!(refined(job), whole, "{chips} chips");
        let tele = &job.telemetry;
        assert_eq!(tele.shards, chips);
        assert_eq!(tele.simulated.reduction_s > 0.0, chips > 1, "{chips} chips");
    }
    assert_eq!(outcome.report.refined_jobs, 3);
    assert_eq!(outcome.report.sharded_jobs, 2);
}

#[test]
fn explicit_rhs_and_custom_tolerance_are_honoured() {
    let (handle, format, _) = catalog().remove(0);
    let n = handle.csr().nrows();
    let rhs = Arc::new(refloat::matgen::rhs::smooth(n));
    let runtime = SolveRuntime::new(RuntimeConfig::default());
    let outcome = runtime.run_batch(vec![
        SolvePlan::new("t", handle.clone(), format)
            .rhs(Arc::clone(&rhs))
            .solver_config(SolverConfig::relative(1e-4).with_max_iterations(500))
            .build()
            .unwrap(),
        SolvePlan::new("t", handle, format)
            .rhs(rhs)
            .solver_config(SolverConfig::relative(1e-10).with_max_iterations(500))
            .build()
            .unwrap(),
    ]);
    let loose = &outcome.jobs[0].result;
    let tight = &outcome.jobs[1].result;
    assert!(loose.converged() && tight.converged());
    assert!(loose.iterations < tight.iterations);
}

#[test]
fn sharded_solves_are_bitwise_identical_across_chip_counts() {
    // The determinism contract of the shard -> chip -> reduction pipeline: the same
    // job solved on 1, 2, 4 and 8 chips produces bit-identical iterates, because shard
    // cuts sit on block-row boundaries and the gather reorders nothing.
    let a = refloat::matgen::generators::laplacian_2d(24, 24, 0.3).to_csr();
    let handle = MatrixHandle::new("poisson-24", a);
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        // Tiny chips (2^9 crossbars -> 42 clusters at e = f = 3 paddings): the matrix
        // exceeds one chip's budget, the regime sharding exists for.
        chip_crossbars: Some(1 << 9),
        ..Default::default()
    });
    let outcome = runtime.run_batch([1usize, 2, 4, 8].into_iter().map(|chips| {
        SolvePlan::new(format!("chips-{chips}"), handle.clone(), format)
            .sharding(chips)
            .build()
            .unwrap()
    }));

    let reference: Vec<u64> = outcome.jobs[0]
        .result
        .x
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for job in &outcome.jobs[1..] {
        let bits: Vec<u64> = job.result.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits, reference,
            "{} numerics differ from the single-chip solve",
            job.telemetry.tenant
        );
        assert_eq!(job.result.iterations, outcome.jobs[0].result.iterations);
    }

    // Sharded jobs report their chip span and pay an inter-chip reduction; the
    // single-chip job does not.
    assert_eq!(outcome.jobs[0].telemetry.simulated.reduction_s, 0.0);
    for (job, chips) in outcome.jobs[1..].iter().zip([2usize, 4, 8]) {
        assert_eq!(job.telemetry.shards, chips);
        assert!(job.telemetry.simulated.reduction_s > 0.0);
    }
    assert_eq!(outcome.report.sharded_jobs, 3);
    assert!(outcome.report.reduction_total_s > 0.0);

    // Sharding an oversized matrix beats streaming it through one small chip.
    let single = outcome.jobs[0].telemetry.simulated.total_s;
    let quad = outcome.jobs[2].telemetry.simulated.total_s;
    assert!(
        single > 1.5 * quad,
        "4-chip makespan should win: {single:.3e}s vs {quad:.3e}s"
    );
}

#[test]
fn one_encoding_serves_every_shard_count_through_the_cache() {
    let a = refloat::matgen::generators::laplacian_2d(20, 20, 0.3).to_csr();
    let handle = MatrixHandle::new("poisson-20", a);
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);
    let plan = |tenant: &str, shards: usize| {
        SolvePlan::new(tenant, handle.clone(), format)
            .sharding(shards)
            .build()
            .unwrap()
    };
    // One worker, so every job runs on the same chip.
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let client = runtime.client();
    let run = |tenant: &str, shards: usize| {
        let job = client.submit(plan(tenant, shards)).unwrap().wait();
        let tele = job.completed().expect("completes").telemetry;
        assert_eq!(tele.shards, shards, "{tenant}");
        (tele.cache, tele.simulated.remapped)
    };
    use CacheOutcomeKind::{Hit, Miss};

    // The first 4-chip job encodes the whole matrix, once.
    assert_eq!(run("a", 4), (Miss, true));
    // The same job again hits, and its chips still hold their bands.
    assert_eq!(run("b", 4), (Hit, false));
    // A whole job reads the same entry, but a chip held a band, not the matrix: the
    // chip is re-programmed.
    assert_eq!(run("c", 1), (Hit, true));
    // So is a 2-chip job's pool.
    assert_eq!(run("d", 2), (Hit, true));
    let cache = client.shutdown().cache;
    assert_eq!((cache.misses, cache.hits), (1, 3));
    assert_eq!(runtime.cache().len(), 1);
}

#[test]
fn a_matrix_with_no_rows_shards_into_one_band_and_completes() {
    let handle = MatrixHandle::new("empty", CooMatrix::new(0, 0).to_csr());
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    for shards in [1usize, 2] {
        let plan = SolvePlan::new("t", handle.clone(), format)
            .sharding(shards)
            .build()
            .unwrap();
        match client.submit(plan).unwrap().wait() {
            TicketOutcome::Completed(job) => assert_eq!(job.telemetry.shards, 1),
            other => panic!("{shards} shards of a 0x0 matrix: {other:?}"),
        }
    }
    client.shutdown();
}

#[test]
fn multi_rhs_batches_solve_every_column_bitwise_like_separate_jobs() {
    let a = refloat::matgen::generators::laplacian_2d(16, 16, 0.3).to_csr();
    let n = a.nrows();
    let handle = MatrixHandle::new("poisson-16", a);
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);
    let rhss: Vec<std::sync::Arc<Vec<f64>>> = (0..3)
        .map(|k| {
            std::sync::Arc::new(
                (0..n)
                    .map(|i| 1.0 + ((i * (k + 3)) % 11) as f64 * 0.1)
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();

    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });
    // One batched job + the same three RHS as separate jobs.
    let mut plans = vec![SolvePlan::new("batched", handle.clone(), format)
        .rhs_batch(rhss.clone())
        .build()
        .unwrap()];
    plans.extend(rhss.iter().map(|rhs| {
        SolvePlan::new("solo", handle.clone(), format)
            .rhs(rhs.clone())
            .build()
            .unwrap()
    }));
    let outcome = runtime.run_batch(plans);

    let batched = &outcome.jobs[0];
    assert_eq!(batched.extra_results.len(), 2);
    assert_eq!(batched.telemetry.rhs_count, 3);
    let batched_solutions: Vec<&Vec<f64>> = std::iter::once(&batched.result.x)
        .chain(batched.extra_results.iter().map(|r| &r.x))
        .collect();
    for (k, solo) in outcome.jobs[1..].iter().enumerate() {
        let solo_bits: Vec<u64> = solo.result.x.iter().map(|v| v.to_bits()).collect();
        let batch_bits: Vec<u64> = batched_solutions[k].iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            solo_bits, batch_bits,
            "rhs {k} differs between batch and solo"
        );
    }

    // The batch programmed the chip once for three solves; the telemetry shows the
    // amortization (its simulated total is below three cold solos).
    assert!(batched.telemetry.converged);
    assert_eq!(outcome.report.rhs_total, 6);
}

#[test]
fn auto_format_decisions_are_keyed_by_solver() {
    // CG and BiCGSTAB converge differently on the same quantized operator, so their
    // verification-measured decisions must not be shared (the iteration cap derived
    // from a CG trial could truncate a BiCGSTAB solve).
    let a = refloat::matgen::generators::laplacian_2d(12, 12, 0.4).to_csr();
    let handle = MatrixHandle::new("poisson-12", a.clone());
    let base = ReFloatConfig::new(4, 3, 8, 3, 8);
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let outcome = runtime.run_batch(vec![
        SolvePlan::new("cg", handle.clone(), base)
            .auto_format(1e-6)
            .build()
            .unwrap(),
        SolvePlan::new("bicg", handle.clone(), base)
            .solver(SolverKind::BiCgStab)
            .auto_format(1e-6)
            .build()
            .unwrap(),
    ]);
    assert_eq!(
        outcome.report.decisions.misses, 2,
        "one analysis per solver"
    );
    let b = vec![1.0; a.nrows()];
    for job in &outcome.jobs {
        let tele = job.telemetry.autotune.as_ref().unwrap();
        assert!(!tele.decision_cached);
        assert!(job.telemetry.converged, "{} job", job.telemetry.tenant);
        assert!(a.relative_residual(&b, &job.result.x) <= 1e-6);
    }
}

#[test]
fn auto_format_jobs_converge_and_memoize_the_decision() {
    let a = refloat::matgen::generators::laplacian_2d(16, 16, 0.3).to_csr();
    let handle = MatrixHandle::new("poisson-16", a.clone());
    let b = vec![1.0; a.nrows()];
    let tolerance = 1e-6;
    // The job format only contributes its blocking b = 4; (e, f)(ev, fv) are tuned.
    let base = ReFloatConfig::new(4, 3, 8, 3, 8);
    let auto = |tenant: &str| {
        SolvePlan::new(tenant, handle.clone(), base)
            .auto_format(tolerance)
            .build()
            .unwrap()
    };
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1, // serial workers: the second job must be a clean decision HIT
        ..Default::default()
    });

    let outcome = runtime.run_batch(vec![auto("t0"), auto("t1")]);
    let first = outcome.jobs[0]
        .telemetry
        .autotune
        .as_ref()
        .expect("auto job telemetry");
    let second = outcome.jobs[1]
        .telemetry
        .autotune
        .as_ref()
        .expect("auto job telemetry");

    // The first job paid for the analysis; the second identical job hit the
    // decision cache (the acceptance criterion of the auto-tuning subsystem).
    assert!(!first.decision_cached);
    assert!(first.analysis_s > 0.0);
    assert!(second.decision_cached);
    assert_eq!(second.analysis_s, 0.0);
    assert_eq!(first.chosen_format, second.chosen_format);
    assert_eq!(outcome.report.autotuned_jobs, 2);
    assert_eq!(outcome.report.autotune_decision_hits, 1);
    assert_eq!(outcome.report.autotune_fallbacks, 0);
    assert!(outcome.report.render().contains("autotune"));

    // The tuned format preserves the blocking, converges in true residual, and the
    // prediction is comparable to the achieved iteration count.
    assert_eq!(first.chosen_format.b, 4);
    assert!(!first.fell_back);
    assert!(first.achieved_relative_residual <= tolerance);
    let true_rel = a.relative_residual(&b, &outcome.jobs[0].result.x);
    assert!(true_rel <= tolerance, "true residual {true_rel:.3e}");
    assert!(first.predicted_iterations > 0);
    assert!(first.achieved_iterations > 0);
    assert!(first.kappa.is_finite() && first.kappa > 1.0);
    assert!(first.predicted_convergent && !first.degraded_confidence);
    // The residual check is charged to the host model even without a fallback.
    assert!(outcome.jobs[0].telemetry.simulated.host_fp64_s > 0.0);

    // A fresh batch on the same runtime still hits the persistent decision cache.
    let again = runtime.run_batch(vec![auto("t2")]);
    assert!(
        again.jobs[0]
            .telemetry
            .autotune
            .as_ref()
            .unwrap()
            .decision_cached
    );
    assert_eq!(again.report.decisions.hits, 1);
    assert_eq!(again.report.decisions.misses, 0);
}

#[test]
fn auto_format_decisions_are_keyed_by_tolerance() {
    let handle = MatrixHandle::new(
        "poisson-12",
        refloat::matgen::generators::laplacian_2d(12, 12, 0.4).to_csr(),
    );
    let base = ReFloatConfig::new(4, 3, 8, 3, 8);
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let outcome = runtime.run_batch(vec![
        SolvePlan::new("loose", handle.clone(), base)
            .auto_format(1e-3)
            .build()
            .unwrap(),
        SolvePlan::new("tight", handle.clone(), base)
            .auto_format(1e-8)
            .build()
            .unwrap(),
    ]);
    assert_eq!(
        outcome.report.decisions.misses, 2,
        "two tolerances, two analyses"
    );
    let loose = outcome.jobs[0].telemetry.autotune.as_ref().unwrap();
    let tight = outcome.jobs[1].telemetry.autotune.as_ref().unwrap();
    // A tighter target can never be predicted cheaper per SpMV.
    assert!(loose.predicted_cycles_per_spmv <= tight.predicted_cycles_per_spmv);
    assert!(outcome.jobs.iter().all(|j| j.telemetry.converged));
}

#[test]
fn auto_format_falls_back_to_the_refinement_ladder_when_nothing_survives() {
    // κ ≈ 1e30: the eigen estimate degrades, no candidate is predicted convergent,
    // and the plain attempt at the best-effort format cannot reach the tolerance —
    // the refinement ladder must engage (and honestly report its stall).
    let a = refloat::matgen::generators::logspace_diagonal(600, 1e-30, 1.0).to_csr();
    let handle = MatrixHandle::new("singular-600", a);
    let base = ReFloatConfig::new(4, 3, 8, 3, 8);
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let spec = AutoFormatSpec::to_target(1e-8).with_escalation(EscalationPolicy::fp64_only());
    let outcome = runtime.run_batch(vec![SolvePlan::new("t", handle, base)
        .solver_config(SolverConfig::relative(1e-8).with_max_iterations(500))
        .auto_format_spec(spec)
        .build()
        .unwrap()]);

    let tele = outcome.jobs[0].telemetry.autotune.as_ref().unwrap();
    assert!(tele.degraded_confidence);
    assert!(!tele.predicted_convergent);
    assert!(tele.fell_back, "the refinement fallback must engage");
    assert!(
        outcome.jobs[0].telemetry.refinement.is_some(),
        "fallback jobs carry refinement telemetry"
    );
    assert_eq!(outcome.report.autotune_fallbacks, 1);
    // The matrix is numerically singular, so even the ladder may stall — but the
    // telemetry must say so rather than claim convergence.
    let refinement = outcome.jobs[0].telemetry.refinement.as_ref().unwrap();
    assert_eq!(
        outcome.jobs[0].telemetry.converged,
        refinement.final_relative_residual <= 1e-8
    );
}

#[test]
fn auto_format_composes_with_sharding() {
    let a = refloat::matgen::generators::laplacian_2d(20, 20, 0.3).to_csr();
    let handle = MatrixHandle::new("poisson-20", a.clone());
    let b = vec![1.0; a.nrows()];
    let base = ReFloatConfig::new(4, 3, 8, 3, 8);
    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        chip_crossbars: Some(1 << 10),
        ..Default::default()
    });
    let outcome = runtime.run_batch(vec![SolvePlan::new("t", handle, base)
        .auto_format(1e-6)
        .sharding(2)
        .build()
        .unwrap()]);
    let job = &outcome.jobs[0];
    assert_eq!(job.telemetry.shards, 2);
    assert!(job.telemetry.simulated.reduction_s > 0.0);
    let tele = job.telemetry.autotune.as_ref().unwrap();
    assert!(!tele.fell_back);
    assert!(job.telemetry.converged);
    let true_rel = a.relative_residual(&b, &job.result.x);
    assert!(true_rel <= 1e-6, "true residual {true_rel:.3e}");
}

#[test]
fn sharded_multi_rhs_jobs_combine_both_axes() {
    let a = refloat::matgen::generators::laplacian_2d(20, 20, 0.4).to_csr();
    let n = a.nrows();
    let handle = MatrixHandle::new("poisson-20", a);
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);
    let rhss: Vec<std::sync::Arc<Vec<f64>>> = (0..2)
        .map(|k| std::sync::Arc::new(vec![1.0 + k as f64; n]))
        .collect();

    let runtime = SolveRuntime::new(RuntimeConfig {
        workers: 2,
        chip_crossbars: Some(1 << 9),
        ..Default::default()
    });
    let reference = runtime.run_batch(vec![SolvePlan::new("ref", handle.clone(), format)
        .rhs_batch(rhss.clone())
        .build()
        .unwrap()]);
    let sharded = runtime.run_batch(vec![SolvePlan::new("sharded", handle.clone(), format)
        .rhs_batch(rhss)
        .sharding(4)
        .build()
        .unwrap()]);

    let r = &reference.jobs[0];
    let s = &sharded.jobs[0];
    for (a_res, b_res) in std::iter::once((&r.result, &s.result))
        .chain(r.extra_results.iter().zip(s.extra_results.iter()))
    {
        let ab: Vec<u64> = a_res.x.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u64> = b_res.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb);
    }
    assert_eq!(s.telemetry.shards, 4);
    assert_eq!(s.telemetry.rhs_count, 2);
    assert!(s.telemetry.simulated.reduction_s > 0.0);
}

// ---------------------------------------------------------------------------
// Service mode: SolveClient tickets, QoS scheduling, cancellation, drain.
// ---------------------------------------------------------------------------

#[test]
fn tickets_resolve_through_wait_try_get_and_wait_timeout() {
    let (handle, format, _) = catalog().remove(0);
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 2,
        ..Default::default()
    });

    let t0 = client
        .submit(SolvePlan::new("w", handle.clone(), format).build().unwrap())
        .expect("open client admits");
    let outcome = t0.wait().completed().expect("ran to completion");
    assert!(outcome.result.converged());

    let t1 = client
        .submit(
            SolvePlan::new("wt", handle.clone(), format)
                .build()
                .unwrap(),
        )
        .expect("open client admits");
    // Generous timeout: the job is a cache hit on a warm pool.
    let outcome = match t1.wait_timeout(Duration::from_secs(60)) {
        Ok(outcome) => outcome.completed().expect("ran to completion"),
        Err(_) => panic!("a 60 s timeout must suffice for a tiny solve"),
    };
    assert!(outcome.result.converged());

    // try_get eventually observes the completion without blocking.
    let mut t2 = client
        .submit(
            SolvePlan::new("tg", handle.clone(), format)
                .build()
                .unwrap(),
        )
        .expect("open client admits");
    let outcome = loop {
        match t2.try_get() {
            Ok(outcome) => break outcome,
            Err(ticket) => {
                t2 = ticket;
                std::thread::yield_now();
            }
        }
    };
    assert!(outcome.completed().expect("completed").result.converged());

    let report = client.shutdown();
    assert_eq!(report.jobs, 3);
    assert_eq!(report.converged, 3);
}

#[test]
fn submit_after_drain_returns_the_plan_instead_of_dropping_it() {
    // Regression: the old teardown path lost (or panicked on) jobs pushed after the
    // queue closed.  The service hands the plan back as a typed error.
    let (handle, format, _) = catalog().remove(0);
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let ticket = client
        .submit(
            SolvePlan::new("early", handle.clone(), format)
                .build()
                .unwrap(),
        )
        .expect("open client admits");
    client.drain();
    // The accepted job completed; the late one is refused with its plan intact.
    assert!(ticket.wait().completed().is_some());
    let late = SolvePlan::new("late", handle.clone(), format)
        .priority(Priority::Interactive)
        .build()
        .unwrap();
    match client.submit(late) {
        Err(SubmitError::Closed(plan)) => {
            assert_eq!(plan.tenant(), "late");
            assert_eq!(plan.priority(), Priority::Interactive);
        }
        Ok(_) => panic!("a drained client must not admit new plans"),
        Err(other) => panic!("a client without admission bounds never sheds, got {other}"),
    }
    let report = client.shutdown();
    assert_eq!(report.jobs, 1, "the late plan was refused, not lost");
}

#[test]
fn cancel_before_start_refunds_everything() {
    // A cancelled-before-start job must be a complete refund: no simulated cycles,
    // no cache traffic, no telemetry row — the report matches a run that never
    // submitted it.
    let slow = MatrixHandle::new(
        "poisson-48",
        refloat::matgen::generators::laplacian_2d(48, 48, 0.2).to_csr(),
    );
    let format = ReFloatConfig::new(4, 3, 8, 3, 8);

    // Reference: just the long job, alone.
    let reference = SolveRuntime::new(RuntimeConfig {
        workers: 1,
        ..Default::default()
    })
    .run_batch(vec![SolvePlan::new("only", slow.clone(), format)
        .build()
        .unwrap()]);
    let reference_cycles = reference.report.simulated_cycles;
    assert!(reference_cycles > 0);

    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let running = client
        .submit(
            SolvePlan::new("only", slow.clone(), format)
                .build()
                .unwrap(),
        )
        .unwrap();
    // Queue three batch jobs behind the long solve and cancel them before the
    // single worker can reach them.
    let queued: Vec<_> = (0..3)
        .map(|i| {
            client
                .submit(
                    SolvePlan::new(format!("cancel-{i}"), slow.clone(), format)
                        .priority(Priority::Batch)
                        .build()
                        .unwrap(),
                )
                .unwrap()
        })
        .collect();
    for ticket in &queued {
        assert!(ticket.cancel(), "job should still be pending");
        assert!(!ticket.cancel(), "double cancel finds nothing to dequeue");
    }
    for ticket in queued {
        assert!(ticket.wait().is_cancelled());
    }
    assert!(running.wait().completed().is_some());

    let report = client.shutdown();
    assert_eq!(report.jobs, 1);
    assert_eq!(report.cancelled_jobs, 3);
    assert_eq!(
        report.simulated_cycles, reference_cycles,
        "cancelled jobs must not charge chip cycles"
    );
    assert_eq!(report.cache.misses, reference.report.cache.misses);
    assert!(report.render().contains("cancelled"));
}

#[test]
fn sustained_interactive_load_does_not_starve_batch_jobs() {
    // One batch job submitted into an interactive flood on a single worker: with
    // age promotion it must overtake the tail of the flood (under strict priority
    // with no promotion it would run dead last).  Queue waits grow monotonically
    // with dequeue order on a single worker, so wait comparisons recover the order.
    let (handle, format, _) = catalog().remove(2); // poisson-12, quick solves
    let plan = |tenant: &str, priority: Priority| {
        SolvePlan::new(tenant, handle.clone(), format)
            .priority(priority)
            .build()
            .unwrap()
    };
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        queue_capacity: 64,
        scheduler: SchedulerPolicy::priority(2),
        ..Default::default()
    });
    let mut interactive = Vec::new();
    for i in 0..20 {
        interactive.push(
            client
                .submit(plan(&format!("i{i}"), Priority::Interactive))
                .unwrap(),
        );
    }
    let batch = client.submit(plan("batch", Priority::Batch)).unwrap();
    for i in 20..40 {
        interactive.push(
            client
                .submit(plan(&format!("i{i}"), Priority::Interactive))
                .unwrap(),
        );
    }
    let batch_wait = batch
        .wait()
        .completed()
        .expect("batch job completes")
        .telemetry
        .queue_wait_s;
    let interactive_waits: Vec<f64> = interactive
        .into_iter()
        .map(|t| {
            t.wait()
                .completed()
                .expect("completes")
                .telemetry
                .queue_wait_s
        })
        .collect();
    let overtaken = interactive_waits
        .iter()
        .filter(|&&w| w > batch_wait)
        .count();
    assert!(
        overtaken >= 10,
        "age promotion should let the batch job overtake most of the late flood; \
         it overtook only {overtaken}/40"
    );
    let report = client.shutdown();
    assert_eq!(report.jobs, 41);
    // Interactive and batch saw traffic; the standard lane still reports (empty).
    assert_eq!(report.per_priority.len(), 3);
}

#[test]
fn invalid_plans_are_typed_errors_not_panics() {
    // The workspace-level guarantee behind the API redesign: every invalid
    // combination surfaces as a PlanError before submission; nothing panics.
    let (handle, format, _) = catalog().remove(0);
    let n = handle.csr().nrows();
    let err = SolvePlan::new("t", handle.clone(), format)
        .sharding(0)
        .refinement(RefinementSpec::to_target(1e-10))
        .auto_format(f64::NAN)
        .rhs_batch(vec![Arc::new(vec![1.0; n + 1])])
        .build()
        .unwrap_err();
    assert!(err.contains(&PlanViolation::ZeroShards));
    assert!(err.contains(&PlanViolation::RefinementWithAutoFormat));
    assert!(err.contains(&PlanViolation::RhsLengthMismatch {
        index: 0,
        expected: n,
        got: n + 1
    }));
    assert!(err
        .violations
        .iter()
        .any(|v| matches!(v, PlanViolation::InvalidTolerance { .. })));
    // Display lists every violation for the operator.
    let rendered = err.to_string();
    assert!(rendered.contains("violation"));
}

#[test]
fn a_refinement_spec_the_driver_cannot_run_never_reaches_a_worker() {
    // Before plan validation checked the spec, a zero or NaN tolerance or an
    // out-of-range stall threshold reached the refinement driver's asserts and
    // resolved the ticket `Failed`.  Now the plan never builds, so nothing is
    // submitted, and the pool serves the next valid refined plan as usual.
    let (handle, format, _) = catalog().remove(0);
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        ..Default::default()
    });
    let mut nan_inner = RefinementSpec::to_target(1e-10);
    nan_inner.config.inner.tolerance = f64::NAN;
    let mut no_reduction = RefinementSpec::to_target(1e-10);
    no_reduction.config.min_reduction = 0.0;
    for (field, spec) in [
        ("refinement.config.target", RefinementSpec::to_target(0.0)),
        ("refinement.config.inner.tolerance", nan_inner),
        ("refinement.config.min_reduction", no_reduction),
    ] {
        let err = SolvePlan::new("bad", handle.clone(), format)
            .refinement(spec)
            .build()
            .unwrap_err();
        assert!(
            matches!(
                err.violations.as_slice(),
                [PlanViolation::InvalidRefinement { field: f, .. }] if *f == field
            ),
            "{err}"
        );
    }
    assert_eq!(client.submitted(), 0);

    let ticket = client
        .submit(
            SolvePlan::new("good", handle.clone(), format)
                .refinement(RefinementSpec::to_target(1e-10))
                .build()
                .unwrap(),
        )
        .expect("open client admits");
    let outcome = ticket
        .wait()
        .completed()
        .expect("a valid refined plan completes");
    assert!(outcome.result.converged());
    let report = client.shutdown();
    assert_eq!(report.jobs, 1);
    assert_eq!(report.failed_jobs, 0);
}
