//! The execution-shape safety net: one worker, a `ManualClock`, and a fixed job list
//! covering every shape a job can take through the worker — plain, batched, sharded,
//! refined (escalating, reaching the fp64 rung, spanning two chips), auto-format
//! (converging, falling back, sharded), plain / refined / auto-format sequences (a
//! refined one on two chips too), and the fault policy's pristine, retry, degrade and
//! ABFT-off arms.
//!
//! Everything a job reports that is not host wall time goes into one digest: the
//! ticket outcome, the solutions bit for bit, every `SimulatedRun` field, the cache
//! outcome, the sequence / refinement / autotune telemetry, the fault counters and
//! the ordered list of trace span kinds.  The main constant was captured before the
//! worker's execution paths were collapsed into one pipeline and must not change:
//! a refactor of the worker or the accelerator model is behaviour-preserving exactly
//! when this test still passes.  Shapes added since carry digests of their own.

use std::sync::Arc;

use refloat::prelude::*;
use refloat::runtime::fingerprint::{fnv1a_u64, FNV_OFFSET};
use refloat::runtime::{
    CacheOutcomeKind, DegradedReason, JobOutcome, ManualClock, SpanKind, TraceSink,
};
use refloat::sim::FaultModelConfig;

/// The digest of the whole job list (captured on the pre-pipeline worker).  Re-baselined
/// once, when a sharded job stopped encoding its bands under their own keys and read
/// the whole matrix's cache entry instead: only `seq-sharded-0/1` moved, and only in
/// their cache outcome (Miss → Hit, their matrices being `seq-plain-0/1`'s).  And once
/// more when every charge came to fold its phases' seconds into `total_s` in execution
/// order: only `clean/refined-escalating` and `pristine/refined` moved, and only in
/// `total_s`, by one ulp each (a refined job used to add its programming and host
/// seconds after its chip passes).  And once more when a refined solve's inner solves
/// came to ask one digit past their rung's last contraction instead of a fixed 1e-6:
/// only the refined jobs moved (`clean/refined-escalating`, `clean/seq-refined-0/1/2`
/// and `pristine/refined`: fewer inner iterations, hence other solution bits and
/// chip seconds, with the same passes and spans); `seq-refined-1/2` run one pass each
/// but start from `seq-refined-0`'s solution.  `clean/auto-falls-back` did not move.
const EXPECTED_DIGEST: u64 = 0xd27d_a36f_4b06_2eb9;

/// The digest of the refined jobs that span chips (captured when refined jobs began
/// to shard), kept apart so that `EXPECTED_DIGEST` still pins every older shape.
const REFINED_SHARDED_DIGEST: u64 = 0x2396_dc2a_1a17_0965;

/// FNV-1a accumulator over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    fn word(&mut self, word: u64) {
        self.0 = fnv1a_u64(self.0, word);
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn flag(&mut self, value: bool) {
        self.word(u64::from(value));
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }

    fn format(&mut self, format: &ReFloatConfig) {
        for field in [format.b, format.e, format.f, format.ev, format.fv] {
            self.word(u64::from(field));
        }
    }

    fn result(&mut self, result: &SolveResult) {
        self.word(result.iterations as u64);
        self.flag(result.converged());
        self.word(result.x.len() as u64);
        for value in &result.x {
            self.float(*value);
        }
    }
}

/// One runtime under the deterministic contract: a single worker, FIFO dequeue, and a
/// `ManualClock` trace sink, so every host-time field is exactly zero.
struct Harness {
    name: &'static str,
    sink: Arc<TraceSink>,
    client: SolveClient,
    /// `(label, digest of everything but the trace)` per resolved ticket, in
    /// submission order.
    jobs: Vec<(String, u64)>,
}

impl Harness {
    fn new(name: &'static str, fault: Option<FaultPolicy>) -> Self {
        let sink = Arc::new(TraceSink::new(Arc::new(ManualClock::new())));
        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            scheduler: SchedulerPolicy::fifo(),
            trace: Some(Arc::clone(&sink)),
            fault,
            ..RuntimeConfig::default()
        });
        Harness {
            name,
            sink,
            client,
            jobs: Vec::new(),
        }
    }

    /// Submits one plan, waits for it, and records the resolved ticket.
    fn run(&mut self, label: &str, plan: SolvePlan) -> TicketOutcome {
        let outcome = self.client.submit(plan).expect("accepting").wait();
        self.record(label, &outcome);
        outcome
    }

    /// Like [`run`](Self::run), for tickets that must resolve `Completed`.
    fn completed(&mut self, label: &str, plan: SolvePlan) -> JobOutcome {
        match self.run(label, plan) {
            TicketOutcome::Completed(outcome) => *outcome,
            other => panic!("{label}: expected a clean completion, got {other:?}"),
        }
    }

    fn record(&mut self, label: &str, outcome: &TicketOutcome) {
        let mut digest = Digest::new();
        match outcome {
            TicketOutcome::Completed(job) => {
                digest.word(0);
                hash_job(&mut digest, job);
            }
            TicketOutcome::Degraded(degraded) => {
                digest.word(1);
                digest.word(match degraded.reason {
                    DegradedReason::AbftUnresolved => 0,
                    DegradedReason::ChipKilled => 1,
                });
                match &degraded.outcome {
                    Some(job) => hash_job(&mut digest, job),
                    None => digest.word(u64::MAX),
                }
            }
            TicketOutcome::Cancelled => digest.word(2),
            TicketOutcome::Failed(message) => {
                digest.word(3);
                digest.text(message);
            }
        }
        self.jobs.push((format!("{}/{label}", self.name), digest.0));
    }

    /// Shuts the runtime down and folds every job's digest plus its ordered trace
    /// span kinds into `total`, appending one human-readable line per job to `log`.
    /// The submit-side `Admit`/`Route` instants are left out of the hash: they say
    /// how a job reached its node, not how the worker executed it, so the constant
    /// predates them.  Their place is pinned instead: every job's trace begins with
    /// exactly `[admit, route]`, and neither kind appears again.
    fn finish(self, total: &mut Digest, log: &mut Vec<String>) {
        self.client.shutdown();
        let events = self.sink.snapshot();
        for (job_id, (label, digest)) in self.jobs.iter().enumerate() {
            let traced: Vec<SpanKind> = events
                .iter()
                .filter(|e| e.job_id == job_id as u64)
                .map(|e| e.kind)
                .collect();
            assert!(
                traced.starts_with(&[SpanKind::Admit, SpanKind::Route]),
                "{label}: job {job_id} must enter by the front door, got {traced:?}"
            );
            let kinds = &traced[2..];
            assert!(
                !kinds.contains(&SpanKind::Admit) && !kinds.contains(&SpanKind::Route),
                "{label}: job {job_id} was admitted or routed twice, got {traced:?}"
            );
            assert!(!kinds.is_empty(), "{label}: job {job_id} left no trace");
            total.word(*digest);
            total.word(kinds.len() as u64);
            for kind in kinds {
                total.text(kind.label());
            }
            let spans: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
            log.push(format!("{label}: {digest:016x} [{}]", spans.join(" ")));
        }
    }
}

fn hash_job(digest: &mut Digest, job: &JobOutcome) {
    digest.result(&job.result);
    digest.word(job.extra_results.len() as u64);
    for extra in &job.extra_results {
        digest.result(extra);
    }
    let tele = &job.telemetry;
    digest.word(tele.iterations as u64);
    digest.flag(tele.converged);
    let sim = &tele.simulated;
    digest.word(sim.cycles);
    for seconds in [
        sim.compute_s,
        sim.stream_write_s,
        sim.program_s,
        sim.reduction_s,
        sim.host_fp64_s,
        sim.total_s,
    ] {
        digest.float(seconds);
    }
    digest.flag(sim.remapped);
    digest.word(match tele.cache {
        CacheOutcomeKind::Hit => 0,
        CacheOutcomeKind::Miss => 1,
        CacheOutcomeKind::Coalesced => 2,
    });
    digest.word(tele.shards as u64);
    digest.word(tele.rhs_count as u64);
    // ManualClock: every host-time field is exactly zero, so they are digest-safe.
    for seconds in [
        tele.queue_wait_s,
        tele.encode_s,
        tele.solve_s,
        tele.latency_s,
    ] {
        digest.float(seconds);
    }
    match &tele.sequence {
        None => digest.word(0),
        Some(seq) => {
            digest.word(1);
            digest.flag(seq.warm_start_used);
            digest.float(seq.initial_residual.unwrap_or(-1.0));
            digest.flag(seq.incremental);
            digest.word(seq.blocks_reencoded);
            digest.word(seq.blocks_reused);
            digest.flag(seq.decision_cache_hit);
        }
    }
    match &tele.refinement {
        None => digest.word(0),
        Some(refinement) => {
            digest.word(1);
            digest.word(refinement.outer_iterations as u64);
            digest.word(refinement.inner_iterations as u64);
            digest.word(refinement.escalations as u64);
            digest.text(&refinement.final_level);
            digest.word(refinement.fp64_spmvs as u64);
            digest.float(refinement.final_relative_residual);
            digest.flag(refinement.stalled);
        }
    }
    match &tele.autotune {
        None => digest.word(0),
        Some(autotune) => {
            digest.word(1);
            digest.format(&autotune.chosen_format);
            digest.float(autotune.tolerance);
            digest.flag(autotune.decision_cached);
            digest.float(autotune.analysis_s);
            digest.float(autotune.kappa);
            digest.flag(autotune.degraded_confidence);
            digest.flag(autotune.predicted_convergent);
            digest.word(autotune.predicted_iterations);
            digest.word(autotune.predicted_cycles_per_spmv);
            digest.word(autotune.achieved_iterations);
            digest.float(autotune.achieved_relative_residual);
            digest.flag(autotune.fell_back);
        }
    }
    digest.word(tele.faults_detected);
    digest.word(tele.fault_retries);
}

fn poisson(n: usize, shift: f64) -> MatrixHandle {
    MatrixHandle::new(
        format!("poisson-{n}"),
        refloat::matgen::generators::laplacian_2d(n, n, shift).to_csr(),
    )
}

fn wide() -> ReFloatConfig {
    ReFloatConfig::new(4, 3, 8, 3, 8)
}

/// Three fraction bits: stalls far above 1e-12, so refinement has to escalate.
fn coarse() -> ReFloatConfig {
    ReFloatConfig::new(4, 3, 3, 3, 8)
}

fn rhs_batch(n: usize, count: usize) -> Vec<Arc<Vec<f64>>> {
    (0..count)
        .map(|k| {
            Arc::new(
                (0..n)
                    .map(|i| 1.0 + ((i * (k + 3)) % 11) as f64 * 0.1)
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

fn chain(steps: usize, drift: f64, rhs_phase: f64) -> Vec<SolveStep> {
    TransientChain::new(
        refloat::matgen::fem::poisson_2d(10, 9, 0.2, 13),
        TransientSpec::default()
            .with_steps(steps)
            .with_seed(29)
            .with_drift(drift, 0.25)
            .with_rhs_phase(rhs_phase)
            .with_mass(0.5, 0.0),
    )
    .collect()
}

/// Runs `steps` through one `SolveSequence` and records each step as
/// `<label>-<index>`; every step must complete cleanly.
fn run_sequence(
    h: &mut Harness,
    label: &str,
    steps: &[SolveStep],
    plan: impl Fn(MatrixHandle, Arc<Vec<f64>>) -> SolvePlan,
) -> Vec<JobOutcome> {
    let mut seq = h.client.sequence();
    let outcomes: Vec<TicketOutcome> = steps
        .iter()
        .map(|step| {
            let handle = MatrixHandle::new(format!("{label}-{}", step.index), step.matrix.clone());
            seq.step(plan(handle, Arc::new(step.rhs.clone()))).unwrap()
        })
        .collect();
    outcomes
        .into_iter()
        .enumerate()
        .map(|(index, outcome)| {
            h.record(&format!("{label}-{index}"), &outcome);
            match outcome {
                TicketOutcome::Completed(job) => *job,
                other => panic!("{label}-{index}: sequence steps complete, got {other:?}"),
            }
        })
        .collect()
}

/// Every shape the fault-free runtime serves, in an order that also exercises the
/// programmed-operator hand-offs between shapes (whole → sharded → whole, refined
/// base rung → plain on the same key).
fn clean_shapes(total: &mut Digest, log: &mut Vec<String>) {
    let mut h = Harness::new("clean", None);
    let p16 = poisson(16, 0.3);
    let p20 = poisson(20, 0.3);
    let n16 = p16.csr().nrows();
    let n20 = p20.csr().nrows();
    let plain = |handle: &MatrixHandle, format| SolvePlan::new("t", handle.clone(), format);

    let first = h.completed("plain-miss", plain(&p16, wide()).build().unwrap());
    assert!(first.telemetry.simulated.remapped);
    let again = h.completed("plain-hit", plain(&p16, wide()).build().unwrap());
    assert_eq!(again.telemetry.cache, CacheOutcomeKind::Hit);
    assert!(!again.telemetry.simulated.remapped);
    let batch = h.completed(
        "batch-3",
        plain(&p16, wide())
            .rhs_batch(rhs_batch(n16, 3))
            .build()
            .unwrap(),
    );
    assert_eq!(batch.extra_results.len(), 2);
    let sharded = h.completed(
        "sharded-4",
        plain(&p20, wide()).sharding(4).build().unwrap(),
    );
    assert!(sharded.telemetry.shards > 1);
    assert!(sharded.telemetry.simulated.reduction_s > 0.0);
    let sharded_batch = h.completed(
        "sharded-4-batch-2",
        plain(&p20, wide())
            .sharding(4)
            .rhs_batch(rhs_batch(n20, 2))
            .build()
            .unwrap(),
    );
    assert!(!sharded_batch.telemetry.simulated.remapped);
    h.completed("bicgstab-after-sharded", {
        plain(&p16, wide())
            .solver(SolverKind::BiCgStab)
            .build()
            .unwrap()
    });

    let escalating = h.completed(
        "refined-escalating",
        plain(&p16, coarse())
            .refinement(RefinementSpec::to_target(1e-12))
            .build()
            .unwrap(),
    );
    let tele = escalating.telemetry.refinement.as_ref().unwrap();
    assert!(tele.escalations > 0 && tele.final_relative_residual <= 1e-12);
    assert!(!tele.final_level.contains("fp64"));
    let to_fp64 = h.completed(
        "refined-to-fp64",
        plain(&p16, coarse())
            .refinement(
                RefinementSpec::to_target(1e-12).with_escalation(EscalationPolicy::fp64_only()),
            )
            .build()
            .unwrap(),
    );
    let tele = to_fp64.telemetry.refinement.as_ref().unwrap();
    assert!(tele.final_level.contains("fp64"), "{}", tele.final_level);
    assert!(to_fp64.telemetry.simulated.host_fp64_s > 0.0);
    h.completed(
        "plain-on-refined-base",
        plain(&p16, coarse()).build().unwrap(),
    );

    let auto = h.completed(
        "auto-converges",
        plain(&p16, wide()).auto_format(1e-6).build().unwrap(),
    );
    let tele = auto.telemetry.autotune.as_ref().unwrap();
    assert!(!tele.fell_back && !tele.decision_cached);
    let cached = h.completed(
        "auto-decision-hit",
        plain(&p16, wide()).auto_format(1e-6).build().unwrap(),
    );
    assert!(cached.telemetry.autotune.as_ref().unwrap().decision_cached);
    let auto_sharded = h.completed(
        "auto-sharded-2",
        plain(&p20, wide())
            .auto_format(1e-6)
            .sharding(2)
            .build()
            .unwrap(),
    );
    assert_eq!(auto_sharded.telemetry.shards, 2);
    let singular = MatrixHandle::new(
        "singular-600",
        refloat::matgen::generators::logspace_diagonal(600, 1e-30, 1.0).to_csr(),
    );
    let fallback = h.completed(
        "auto-falls-back",
        SolvePlan::new("t", singular, wide())
            .solver_config(SolverConfig::relative(1e-8).with_max_iterations(500))
            .auto_format_spec(
                AutoFormatSpec::to_target(1e-8).with_escalation(EscalationPolicy::fp64_only()),
            )
            .build()
            .unwrap(),
    );
    assert!(fallback.telemetry.autotune.as_ref().unwrap().fell_back);
    assert!(fallback.telemetry.refinement.is_some());

    // Sequences: incremental re-encode + warm start on steps after the first.
    let plain_seq = run_sequence(&mut h, "seq-plain", &chain(3, 0.02, 0.0), |m, b| {
        plain(&m, wide()).rhs(b).build().unwrap()
    });
    let refined_seq = run_sequence(&mut h, "seq-refined", &chain(3, 1e-7, 1e-6), |m, b| {
        plain(&m, wide())
            .rhs(b)
            .refinement(RefinementSpec::to_target(1e-8))
            .build()
            .unwrap()
    });
    // Only the primary right-hand side of a batched step is warm-started.
    let batch_seq = run_sequence(&mut h, "seq-batch", &chain(2, 0.03, 0.0), |m, b| {
        let doubled = Arc::new(b.iter().map(|v| 2.0 * v).collect::<Vec<f64>>());
        plain(&m, wide())
            .rhs_batch(vec![b, doubled])
            .build()
            .unwrap()
    });
    for job in plain_seq.iter().chain(&refined_seq).chain(&batch_seq) {
        let seq = job.telemetry.sequence.as_ref().expect("sequence row");
        let first = job.telemetry.matrix.ends_with("-0");
        assert_eq!(seq.warm_start_used, !first, "{}", job.telemetry.matrix);
        assert_eq!(seq.incremental, !first, "{}", job.telemetry.matrix);
    }
    let auto_seq = run_sequence(&mut h, "seq-auto", &chain(3, 0.01, 0.0), |m, b| {
        plain(&m, wide()).rhs(b).auto_format(1e-6).build().unwrap()
    });
    for job in &auto_seq[1..] {
        assert!(job.telemetry.sequence.as_ref().unwrap().decision_cache_hit);
    }
    // A sharded step carries the sequence row but reuses nothing.
    let sharded_seq = run_sequence(&mut h, "seq-sharded", &chain(2, 0.02, 0.0), |m, b| {
        plain(&m, wide()).rhs(b).sharding(2).build().unwrap()
    });
    for job in &sharded_seq {
        let seq = job.telemetry.sequence.as_ref().expect("sequence row");
        assert!(!seq.warm_start_used && !seq.incremental);
    }
    // One block row cannot be cut: the 2-chip request degenerates to a 1-chip pool.
    let tiny = h.completed(
        "sharded-degenerate",
        plain(&poisson(4, 0.3), wide()).sharding(2).build().unwrap(),
    );
    assert_eq!(tiny.telemetry.shards, 1);
    h.finish(total, log);
}

/// Refined jobs spread over two chips: an escalating solve, and a refined sequence
/// whose later steps re-encode incrementally and warm-start like the one-chip chain.
fn refined_sharded_shapes(total: &mut Digest, log: &mut Vec<String>) {
    let mut h = Harness::new("clean", None);
    let escalating = h.completed(
        "refined-sharded-2",
        SolvePlan::new("t", poisson(20, 0.3), coarse())
            .refinement(RefinementSpec::to_target(1e-12))
            .sharding(2)
            .build()
            .unwrap(),
    );
    let tele = &escalating.telemetry;
    assert_eq!(tele.shards, 2);
    assert!(tele.simulated.reduction_s > 0.0);
    let refinement = tele.refinement.as_ref().unwrap();
    assert!(refinement.escalations > 0 && refinement.final_relative_residual <= 1e-12);
    let steps = chain(3, 1e-7, 1e-6);
    let chained = run_sequence(&mut h, "seq-refined-sharded", &steps, |m, b| {
        SolvePlan::new("t", m, wide())
            .rhs(b)
            .refinement(RefinementSpec::to_target(1e-8))
            .sharding(2)
            .build()
            .unwrap()
    });
    for (index, job) in chained.iter().enumerate() {
        assert_eq!(job.telemetry.shards, 2, "step {index}");
        let seq = job.telemetry.sequence.as_ref().expect("sequence row");
        assert_eq!(seq.warm_start_used, index > 0, "step {index}");
        assert_eq!(seq.incremental, index > 0, "step {index}");
    }
    h.finish(total, log);
}

/// Stuck rates high enough that the 2+2 spare budget cannot absorb every defect.
fn heavy_faults(seed: u64) -> FaultModelConfig {
    FaultModelConfig {
        seed,
        stuck_low_rate: 2e-2,
        stuck_high_rate: 4e-3,
        drift_sigma: 0.0,
        wear_growth: 0.0,
    }
}

fn fault_plan(handle: &MatrixHandle) -> SolvePlan {
    SolvePlan::new("t", handle.clone(), wide())
        .solver_config(
            SolverConfig::relative(1e-8)
                .with_max_iterations(2_000)
                .with_trace(false),
        )
        .build()
        .unwrap()
}

/// The fault policy's arms: a pristine device (bit-clean, pays the ABFT cycle and
/// the probe), heavy faults with a retry budget, a zero budget (typed `Degraded`),
/// and the ABFT-off control.  Shapes the fault wrapper does not admit (sharded,
/// refined, auto-format) still run on a fault-modelled chip in the pristine arm.
fn fault_shapes(total: &mut Digest, log: &mut Vec<String>) {
    let p16 = poisson(16, 0.3);
    let p20 = poisson(20, 0.3);
    let n16 = p16.csr().nrows();

    let pristine = FaultPolicy::realistic(7).with_model(FaultModelConfig::pristine(7));
    let mut h = Harness::new("pristine", Some(pristine));
    let first = h.completed("plain", fault_plan(&p16));
    assert_eq!(first.telemetry.faults_detected, 0);
    h.completed("plain-again", fault_plan(&p16));
    h.completed(
        "batch-3",
        SolvePlan::new("t", p16.clone(), wide())
            .rhs_batch(rhs_batch(n16, 3))
            .build()
            .unwrap(),
    );
    h.completed(
        "sharded-2",
        SolvePlan::new("t", p20.clone(), wide())
            .sharding(2)
            .build()
            .unwrap(),
    );
    h.completed(
        "refined",
        SolvePlan::new("t", p16.clone(), coarse())
            .refinement(RefinementSpec::to_target(1e-12))
            .build()
            .unwrap(),
    );
    h.completed(
        "auto",
        SolvePlan::new("t", p16.clone(), wide())
            .auto_format(1e-6)
            .build()
            .unwrap(),
    );
    h.completed("plain-after-auto", fault_plan(&p16));
    // The fault wrapper ignores sequence context: no incremental encode, no warm start.
    let faulty_seq = run_sequence(&mut h, "seq", &chain(2, 0.02, 0.0), |m, b| {
        SolvePlan::new("t", m, wide()).rhs(b).build().unwrap()
    });
    for job in &faulty_seq {
        let seq = job.telemetry.sequence.as_ref().expect("sequence row");
        assert!(!seq.warm_start_used && !seq.incremental);
    }
    h.finish(total, log);

    let mut h = Harness::new(
        "heavy",
        Some(FaultPolicy::realistic(3).with_model(heavy_faults(3))),
    );
    let (mut retried, mut degraded) = (0u64, 0usize);
    for i in 0..6 {
        match h.run(&format!("plain-{i}"), fault_plan(&p16)) {
            TicketOutcome::Completed(job) => retried += job.telemetry.fault_retries,
            TicketOutcome::Degraded(job) => {
                assert_eq!(job.reason, DegradedReason::AbftUnresolved);
                let best_effort = job.outcome.as_ref().expect("best-effort outcome");
                retried += best_effort.telemetry.fault_retries;
                degraded += 1;
            }
            other => panic!("a faulty chip must not lose or fail jobs: {other:?}"),
        }
    }
    assert!(
        retried > 0,
        "heavy stuck rates must force a re-encode retry"
    );
    assert!(degraded > 0, "some job must exhaust the retry budget");
    h.finish(total, log);

    // A marginal fault map: the first crossbar range trips the probe, the re-encode
    // onto a fresh range comes back clean, and the job completes after one retry.
    let marginal = FaultModelConfig {
        seed: 7,
        stuck_low_rate: 1.4e-2,
        stuck_high_rate: 2.8e-3,
        drift_sigma: 0.0,
        wear_growth: 0.0,
    };
    let mut h = Harness::new(
        "retry-recovers",
        Some(FaultPolicy::realistic(7).with_model(marginal)),
    );
    for i in 0..2 {
        let job = h.completed(&format!("plain-{i}"), fault_plan(&p16));
        assert_eq!(job.telemetry.fault_retries, 1, "one retry, then clean");
    }
    h.finish(total, log);

    // The realistic model adds conductance drift and wear on top of stuck cells.
    let mut h = Harness::new("realistic", Some(FaultPolicy::realistic(5)));
    for i in 0..3 {
        h.run(&format!("plain-{i}"), fault_plan(&p16));
    }
    h.finish(total, log);

    let mut h = Harness::new(
        "no-retries",
        Some(
            FaultPolicy::realistic(3)
                .with_model(heavy_faults(3))
                .with_max_retries(0),
        ),
    );
    let mut degraded = 0;
    for i in 0..3 {
        if h.run(&format!("plain-{i}"), fault_plan(&p16)).is_degraded() {
            degraded += 1;
        }
    }
    assert!(degraded > 0, "a zero retry budget degrades detected jobs");
    h.finish(total, log);

    let mut h = Harness::new(
        "abft-off",
        Some(
            FaultPolicy::realistic(3)
                .with_model(heavy_faults(3))
                .without_abft(),
        ),
    );
    for i in 0..2 {
        let job = h.completed(&format!("plain-{i}"), fault_plan(&p16));
        assert_eq!(job.telemetry.faults_detected, 0, "no ABFT, no detections");
    }
    h.finish(total, log);
}

#[test]
fn every_execution_shape_reproduces_the_captured_digest() {
    let mut total = Digest::new();
    let mut log = Vec::new();
    clean_shapes(&mut total, &mut log);
    fault_shapes(&mut total, &mut log);
    assert_eq!(
        total.0,
        EXPECTED_DIGEST,
        "execution-shape digest drifted ({:016x}); per-job digests and spans:\n{}",
        total.0,
        log.join("\n")
    );
}

#[test]
fn refined_sharded_shapes_reproduce_their_digest() {
    let mut total = Digest::new();
    let mut log = Vec::new();
    refined_sharded_shapes(&mut total, &mut log);
    assert_eq!(
        total.0,
        REFINED_SHARDED_DIGEST,
        "refined x sharded digest drifted ({:016x}); per-job digests and spans:\n{}",
        total.0,
        log.join("\n")
    );
}

/// Under the `ManualClock` above every encode takes exactly zero seconds, so no
/// `Encode` span is ever emitted; a wall clock makes each miss emit one.  Only the
/// kinds are compared (timestamps are wall time), which pins where the encode span
/// sits relative to the lookup and the solve for each operator shape.
#[test]
fn encode_spans_keep_their_place_under_a_wall_clock() {
    use SpanKind::*;
    let sink = Arc::new(TraceSink::wall());
    let client = SolveRuntime::start(RuntimeConfig {
        workers: 1,
        scheduler: SchedulerPolicy::fifo(),
        trace: Some(Arc::clone(&sink)),
        ..RuntimeConfig::default()
    });
    let (p16, p20) = (poisson(16, 0.3), poisson(20, 0.3));
    let plans = [
        SolvePlan::new("t", p16.clone(), wide()).build().unwrap(),
        SolvePlan::new("t", p20, wide())
            .sharding(2)
            .build()
            .unwrap(),
        SolvePlan::new("t", p16, coarse())
            .refinement(RefinementSpec::to_target(1e-6))
            .build()
            .unwrap(),
    ];
    for plan in plans {
        assert!(client.submit(plan).unwrap().wait().completed().is_some());
    }
    client.shutdown();
    let events = sink.snapshot();
    let kinds = |job: u64| -> Vec<SpanKind> {
        events
            .iter()
            .filter(|e| e.job_id == job && e.kind != ChipPhase)
            .map(|e| e.kind)
            .collect()
    };
    assert_eq!(
        kinds(0),
        [
            Admit,
            Route,
            QueueWait,
            Dequeue,
            CacheLookup,
            Encode,
            Execute
        ],
        "plain miss"
    );
    assert_eq!(
        kinds(1),
        [
            Admit,
            Route,
            QueueWait,
            Dequeue,
            CacheLookup,
            Encode,
            Execute,
            ShardExecute,
            ShardExecute
        ],
        "sharded miss"
    );
    let refined = kinds(2);
    assert_eq!(
        refined[..7],
        [
            Admit,
            Route,
            QueueWait,
            Dequeue,
            Execute,
            CacheLookup,
            Encode
        ],
        "refined miss"
    );
    assert!(refined[7..].iter().all(|k| *k == RefinementPass));
}
