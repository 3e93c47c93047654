//! Transient solve sequences: a [`SolveSequence`] handle that threads each step's
//! outcome into the next step's submission.
//!
//! Transient workloads (time-stepping FEM, parameter continuation, quasi-static
//! load stepping) submit a *chain* of solves whose matrices differ by a small
//! perturbation and whose solutions evolve smoothly.  Submitted as independent
//! jobs, every step pays the full model cycle: analysis, quantization, crossbar
//! programming, and a cold Krylov solve.  A sequence reuses what the previous
//! step already paid for:
//!
//! * **incremental re-encode** — the worker encodes the step's matrix over the
//!   predecessor's cached layout when the sparsity structure is unchanged, and
//!   diffs it against the predecessor block by block
//!   ([`refloat_core::incremental`]); crossbar reprogramming is charged only for
//!   the blocks whose values actually changed (the chip pass carries a
//!   [`DeltaProgramming`](crate::accel::DeltaProgramming), honoured while the chip
//!   still holds the predecessor).  The incremental encoding is **bitwise
//!   identical** to encoding from scratch, so sequence numerics never drift from
//!   the non-sequence path;
//! * **warm start** — the previous solution seeds the next solve in residual-
//!   guarded correction form (`refloat_solvers::warm`): a useful guess saves
//!   Krylov iterations, a stale one costs exactly one SpMV and falls back to the
//!   cold solve bit-for-bit;
//! * **decision reuse** — auto-format steps inherit the predecessor's memoized
//!   [`FormatDecision`](refloat_core::autotune::FormatDecision) instead of
//!   re-running the analysis; the worker's true-residual epilogue re-verifies
//!   the choice on *this* matrix and falls back to refinement if the inherited
//!   decision no longer holds.
//!
//! Jobs submitted outside a sequence are untouched: every reuse path is gated on
//! the job carrying a `SequenceSpec` (`crate::job`), so the
//! non-sequence service remains bit-identical to the pre-sequence runtime.
//!
//! ```
//! use refloat_core::ReFloatConfig;
//! use refloat_matgen::{fem, TransientChain, TransientSpec};
//! use refloat_runtime::{MatrixHandle, RuntimeConfig, SolvePlan, SolveRuntime};
//!
//! let base = fem::poisson_2d(9, 9, 0.2, 7);
//! let chain = TransientChain::new(base, TransientSpec::default().with_steps(4).with_seed(11));
//! let client = SolveRuntime::start(RuntimeConfig { workers: 1, ..Default::default() });
//! let mut seq = client.sequence();
//! for step in chain {
//!     let handle = MatrixHandle::new(format!("heat-{}", step.index), step.matrix);
//!     let outcome = seq
//!         .step(
//!             SolvePlan::new("sim", handle, ReFloatConfig::new(4, 3, 8, 3, 8))
//!                 .rhs(std::sync::Arc::new(step.rhs))
//!                 .build()
//!                 .unwrap(),
//!         )
//!         .unwrap();
//!     assert!(outcome.completed().unwrap().result.converged());
//! }
//! assert_eq!(seq.steps(), 4);
//! let report = client.shutdown();
//! assert_eq!(report.seq_steps, 4);
//! assert_eq!(report.warm_start_hits, 3);
//! ```

use std::sync::Arc;

use refloat_sparse::CsrMatrix;

use crate::client::{SolveClient, SubmitError, TicketOutcome};
use crate::job::{SequencePredecessor, SequenceSpec};
use crate::plan::SolvePlan;

/// What the sequence remembers about its last completed step.
struct StepMemory {
    /// The previous matrix's content fingerprint (keys its cached encoding and
    /// format decision).
    fingerprint: u64,
    /// The previous matrix itself — the incremental re-encoder needs the raw
    /// values (encoded blocks store only quantized data).
    csr: Arc<CsrMatrix>,
    /// The previous solution, offered as the next step's warm-start guess.
    solution: Arc<Vec<f64>>,
}

/// A handle threading a chain of related solves through a [`SolveClient`].
///
/// Created by [`SolveClient::sequence`].  Each [`step`](Self::step) attaches the
/// previous step's matrix and solution to the submitted plan, then blocks until
/// the step resolves (the chain is inherently serial — step *N+1*'s warm start
/// *is* step *N*'s solution).  Steps that do not complete cleanly (cancelled,
/// failed, degraded) leave the memory untouched, so the next step simply chains
/// off the last *completed* one.
///
/// A sequence holds no locks and owns no jobs; dropping it mid-chain is safe and
/// costs nothing.  Multiple sequences can run against one client concurrently —
/// they share the encoded-matrix and decision caches but each threads only its
/// own memory.
pub struct SolveSequence<'a> {
    client: &'a SolveClient,
    memory: Option<StepMemory>,
    steps: usize,
}

impl<'a> SolveSequence<'a> {
    pub(crate) fn new(client: &'a SolveClient) -> Self {
        SolveSequence {
            client,
            memory: None,
            steps: 0,
        }
    }

    /// Steps completed cleanly so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Drops the chain memory: the next step runs cold (full encode, no guess),
    /// as if it were the first.  Use after a discontinuity the chain cannot
    /// smooth over (remeshing, a load jump) to avoid paying the one guarded SpMV
    /// on a guess that cannot help.
    pub fn reset(&mut self) {
        self.memory = None;
    }

    /// Submits one step of the chain and blocks until it resolves.
    ///
    /// The plan is submitted with a `SequenceSpec` attached: the previous
    /// step's matrix as incremental-re-encode predecessor and its solution as
    /// the warm-start guess (both absent on the first step, after
    /// [`reset`](Self::reset), or when the matrix's dimensions differ from the
    /// previous step's: such a step runs cold).  On clean completion the step's
    /// matrix and solution become the next step's memory.  Admission errors hand
    /// the plan back intact, exactly like [`SolveClient::submit`].
    pub fn step(&mut self, mut plan: SolvePlan) -> Result<TicketOutcome, SubmitError> {
        let fingerprint = plan.job.matrix.fingerprint();
        let csr = plan.job.matrix.csr_arc();
        let dims = |a: &CsrMatrix| (a.nrows(), a.ncols());
        let memory = (self.memory.as_ref()).filter(|memory| dims(&memory.csr) == dims(&csr));
        plan.job.sequence = Some(match memory {
            Some(memory) => SequenceSpec {
                predecessor: Some(SequencePredecessor {
                    fingerprint: memory.fingerprint,
                    csr: Arc::clone(&memory.csr),
                }),
                initial_guess: Some(Arc::clone(&memory.solution)),
            },
            None => SequenceSpec::default(),
        });
        let outcome = self.client.submit(plan)?.wait();
        if let TicketOutcome::Completed(job) = &outcome {
            self.memory = Some(StepMemory {
                fingerprint,
                csr,
                solution: Arc::new(job.result.x.clone()),
            });
            self.steps += 1;
        }
        Ok(outcome)
    }
}

impl std::fmt::Debug for SolveSequence<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveSequence")
            .field("steps", &self.steps)
            .field("warm", &self.memory.is_some())
            .finish()
    }
}

impl SolveClient {
    /// Starts a solve sequence against this client (see [`SolveSequence`]).
    pub fn sequence(&self) -> SolveSequence<'_> {
        SolveSequence::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MatrixHandle;
    use crate::telemetry::metric_names;
    use crate::{RuntimeConfig, SolveRuntime};
    use refloat_core::ReFloatConfig;
    use refloat_matgen::fem::poisson_2d;
    use refloat_matgen::{TransientChain, TransientSpec};

    fn chain(steps: usize) -> TransientChain {
        TransientChain::new(
            poisson_2d(10, 9, 0.2, 13),
            TransientSpec::default()
                .with_steps(steps)
                .with_seed(29)
                .with_drift(0.02, 0.25)
                .with_mass(0.5, 0.05),
        )
    }

    fn format() -> ReFloatConfig {
        ReFloatConfig::new(4, 3, 8, 3, 8)
    }

    #[test]
    fn a_sequence_reuses_blocks_and_warm_starts_every_step_after_the_first() {
        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let mut seq = client.sequence();
        for step in chain(6) {
            let handle = MatrixHandle::new(format!("step-{}", step.index), step.matrix);
            let outcome = seq
                .step(
                    SolvePlan::new("t", handle, format())
                        .rhs(std::sync::Arc::new(step.rhs))
                        .build()
                        .unwrap(),
                )
                .unwrap()
                .completed()
                .expect("sequence steps complete");
            assert!(outcome.result.converged());
            let tele = outcome.telemetry.sequence.as_ref().expect("sequence rows");
            if step.index == 0 {
                assert!(!tele.warm_start_used && !tele.incremental);
            } else {
                assert!(tele.warm_start_used, "step {} ran cold", step.index);
                assert!(
                    tele.incremental,
                    "step {} re-encoded from scratch",
                    step.index
                );
                assert!(
                    tele.blocks_reused > 0,
                    "a 2% perturbation must leave some blocks untouched"
                );
            }
        }
        assert_eq!(seq.steps(), 6);
        let report = client.shutdown();
        assert_eq!(report.seq_steps, 6);
        assert_eq!(report.warm_start_hits, 5);
        assert!(report.blocks_reused > 0);
        assert!(report.blocks_reencoded > 0);
        let rendered = report.render();
        assert!(
            rendered.contains("sequences"),
            "report renders the sequence line"
        );
    }

    #[test]
    fn live_metrics_snapshot_serves_the_sequence_vocabulary_undrained() {
        // The sequence counters are observable on a *live* (undrained) client —
        // present-and-zero before any sequence traffic like every other row of the
        // metric table, correct mid-service afterwards.
        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let before = client.metrics_snapshot();
        for (name, source) in crate::METRIC_TABLE {
            if matches!(source, crate::MetricSource::RowCounter(..)) {
                assert_eq!(before.counter(name), Some(0), "{name}");
            }
        }

        let mut seq = client.sequence();
        for step in chain(3) {
            let handle = MatrixHandle::new(format!("live-{}", step.index), step.matrix);
            seq.step(
                SolvePlan::new("t", handle, format())
                    .rhs(std::sync::Arc::new(step.rhs))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        }
        // No drain, no shutdown: the client is still admitting.
        let live = client.metrics_snapshot();
        assert_eq!(live.counter(metric_names::SEQ_STEPS), Some(3));
        assert_eq!(live.counter(metric_names::WARM_START_HITS), Some(2));
        assert!(live.counter(metric_names::BLOCKS_REUSED).unwrap() > 0);
        assert!(live.counter(metric_names::BLOCKS_REENCODED).unwrap() > 0);
        client.shutdown();
    }

    #[test]
    fn an_incrementally_encoded_step_solves_bitwise_identically_to_a_cold_client() {
        // The incremental encoding is bitwise-identical to from-scratch by
        // construction (refloat_core::incremental asserts it in-tree); this checks
        // the property end-to-end through the service: the *solution* of a
        // predecessor-chained step (no warm-start guess, so the solver runs the
        // exact cold iteration) matches a fresh client bit for bit.
        let steps: Vec<_> = chain(2).collect();
        let handle0 = MatrixHandle::new("s0", steps[0].matrix.clone());
        let handle1 = MatrixHandle::new("s1", steps[1].matrix.clone());

        let cold_client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let cold = cold_client
            .submit(
                SolvePlan::new("t", handle1.clone(), format())
                    .rhs(std::sync::Arc::new(steps[1].rhs.clone()))
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .wait()
            .completed()
            .unwrap();
        cold_client.shutdown();

        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        client
            .submit(
                SolvePlan::new("t", handle0.clone(), format())
                    .rhs(std::sync::Arc::new(steps[0].rhs.clone()))
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .wait()
            .completed()
            .unwrap();
        // Chain the predecessor but withhold the guess: in-crate surgery on the
        // built plan, the same trick client.rs tests use.
        let mut plan = SolvePlan::new("t", handle1, format())
            .rhs(std::sync::Arc::new(steps[1].rhs.clone()))
            .build()
            .unwrap();
        plan.job.sequence = Some(SequenceSpec {
            predecessor: Some(SequencePredecessor {
                fingerprint: handle0.fingerprint(),
                csr: handle0.csr_arc(),
            }),
            initial_guess: None,
        });
        let incremental = client.submit(plan).unwrap().wait().completed().unwrap();
        let tele = incremental.telemetry.sequence.as_ref().unwrap();
        assert!(tele.incremental, "the predecessor's encoding was in cache");
        assert!(!tele.warm_start_used);
        client.shutdown();

        assert_eq!(cold.result.iterations, incremental.result.iterations);
        let cold_bits: Vec<u64> = cold.result.x.iter().map(|v| v.to_bits()).collect();
        let inc_bits: Vec<u64> = incremental.result.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            cold_bits, inc_bits,
            "incremental encode must not change numerics"
        );
    }

    #[test]
    fn auto_format_steps_inherit_the_predecessor_decision() {
        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let mut seq = client.sequence();
        let mut hits = 0u32;
        for step in chain(4) {
            let handle = MatrixHandle::new(format!("af-{}", step.index), step.matrix);
            let outcome = seq
                .step(
                    SolvePlan::new("t", handle, ReFloatConfig::paper_default())
                        .rhs(std::sync::Arc::new(step.rhs))
                        .auto_format(1e-6)
                        .build()
                        .unwrap(),
                )
                .unwrap()
                .completed()
                .expect("auto-format sequence steps complete");
            assert!(outcome.result.converged());
            let tele = outcome.telemetry.sequence.as_ref().unwrap();
            if tele.decision_cache_hit {
                hits += 1;
            }
        }
        assert_eq!(
            hits, 3,
            "every step after the first inherits the memoized decision"
        );
        let report = client.shutdown();
        assert_eq!(report.seq_decision_cache_hits, 3);
        // The inherited decisions still converged: the true-residual epilogue
        // verified each one on its own matrix.
        assert_eq!(report.converged, 4);
    }

    #[test]
    fn refined_sequence_steps_warm_start_the_outer_loop_and_encode_incrementally() {
        // The refined path is where a warm start actually pays: the outer loop
        // measures *exact* fp64 residuals, so a carried-over solution starts the
        // refinement decades below ‖b‖ and skips cold passes while still hitting
        // the same true-residual target.
        use crate::job::RefinementSpec;
        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let mut seq = client.sequence();
        let steps: Vec<_> = TransientChain::new(
            poisson_2d(10, 9, 0.2, 13),
            TransientSpec::default()
                .with_steps(4)
                .with_seed(29)
                .with_drift(1e-7, 0.25)
                .with_rhs_phase(1e-6)
                .with_mass(0.5, 0.0),
        )
        .collect();
        let mut cold_chip_iters = 0;
        for step in &steps {
            let handle = MatrixHandle::new(format!("ref-{}", step.index), step.matrix.clone());
            let outcome = seq
                .step(
                    SolvePlan::new("t", handle, format())
                        .rhs(std::sync::Arc::new(step.rhs.clone()))
                        .refinement(RefinementSpec::to_target(1e-8))
                        .build()
                        .unwrap(),
                )
                .unwrap()
                .completed()
                .expect("refined sequence steps complete");
            assert!(outcome.result.converged());
            assert!(
                step.matrix.relative_residual(&step.rhs, &outcome.result.x) <= 1e-8,
                "step {} missed the true-residual target",
                step.index
            );
            let tele = outcome.telemetry.sequence.as_ref().expect("sequence rows");
            if step.index == 0 {
                assert!(!tele.warm_start_used && !tele.incremental);
                cold_chip_iters = outcome.result.iterations;
            } else {
                assert!(tele.warm_start_used, "step {} ran cold", step.index);
                assert!(
                    tele.initial_residual.is_some(),
                    "a warm refined step records its guarded r0"
                );
                assert!(
                    tele.incremental,
                    "step {} re-encoded from scratch",
                    step.index
                );
                assert!(tele.blocks_reused > 0);
                assert!(
                    outcome.result.iterations < cold_chip_iters,
                    "warm refinement must skip cold passes ({} >= {cold_chip_iters})",
                    outcome.result.iterations
                );
            }
        }
        let report = client.shutdown();
        assert_eq!(report.seq_steps, 4);
        assert_eq!(report.warm_start_hits, 3);
    }

    #[test]
    fn a_step_whose_matrix_changes_dimension_runs_cold_and_completes() {
        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let mut seq = client.sequence();
        for (index, grid) in [10, 12].into_iter().enumerate() {
            let a = poisson_2d(grid, grid, 0.2, 13).to_csr();
            let rhs = std::sync::Arc::new(vec![1.0; a.nrows()]);
            let handle = MatrixHandle::new(format!("grid-{grid}"), a);
            let outcome = seq
                .step(
                    SolvePlan::new("t", handle, format())
                        .rhs(rhs)
                        .build()
                        .unwrap(),
                )
                .unwrap();
            let TicketOutcome::Completed(job) = outcome else {
                panic!("step {index} resolved {outcome:?}");
            };
            let tele = job.telemetry.sequence.as_ref().unwrap();
            assert!(!tele.incremental && !tele.warm_start_used, "step {index}");
        }
        assert_eq!(seq.steps(), 2);
        client.shutdown();
    }

    #[test]
    fn a_step_that_empties_one_block_and_fills_another_solves_like_a_cold_client() {
        // Step 2 drops every entry of block (0, 1) at b = 4 (and its mirror) and adds
        // a symmetric pair in block (0, 4), empty before: the structure changes, so the
        // re-encode blocks the new matrix and matches the two block tables by key.
        let steps: Vec<_> = chain(3).collect();
        let (n, last) = (steps[2].matrix.nrows(), &steps[2].matrix);
        let mut edited = refloat_sparse::CooMatrix::new(n, n);
        for (r, c, v) in last.iter() {
            if !matches!((r >> 4, c >> 4), (0, 1) | (1, 0)) {
                edited.push(r, c, v);
            }
        }
        edited.push_sym(0, 64, -0.125);
        let edited = MatrixHandle::new("s2", edited.to_csr());
        let plan = |handle: &MatrixHandle, rhs: &[f64]| {
            let rhs = std::sync::Arc::new(rhs.to_vec());
            SolvePlan::new("t", handle.clone(), format())
                .rhs(rhs)
                .build()
                .unwrap()
        };

        let cold_client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let cold = cold_client.submit(plan(&edited, &steps[2].rhs)).unwrap();
        let cold = cold.wait().completed().unwrap();
        cold_client.shutdown();

        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let mut seq = client.sequence();
        let handles: Vec<_> = (steps[..2].iter())
            .map(|step| MatrixHandle::new(format!("s{}", step.index), step.matrix.clone()))
            .collect();
        for (handle, step) in handles.iter().zip(&steps) {
            seq.step(plan(handle, &step.rhs)).unwrap();
        }
        // Chain the predecessor but withhold the guess, so the solver runs the cold
        // iteration: in-crate surgery on the built plan, as in the test above.
        let mut plan = plan(&edited, &steps[2].rhs);
        plan.job.sequence = Some(SequenceSpec {
            predecessor: Some(SequencePredecessor {
                fingerprint: handles[1].fingerprint(),
                csr: handles[1].csr_arc(),
            }),
            initial_guess: None,
        });
        let step = client.submit(plan).unwrap().wait().completed().unwrap();
        let tele = step.telemetry.sequence.as_ref().unwrap();
        assert!(tele.incremental, "the predecessor's encoding was in cache");
        client.shutdown();

        assert_eq!(cold.result.iterations, step.result.iterations);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&cold.result.x), bits(&step.result.x));
    }

    #[test]
    fn reset_drops_the_chain_memory() {
        let client = SolveRuntime::start(RuntimeConfig {
            workers: 1,
            ..Default::default()
        });
        let mut seq = client.sequence();
        let steps: Vec<_> = chain(2).collect();
        for step in &steps {
            let handle = MatrixHandle::new(format!("r-{}", step.index), step.matrix.clone());
            seq.step(
                SolvePlan::new("t", handle, format())
                    .rhs(std::sync::Arc::new(step.rhs.clone()))
                    .build()
                    .unwrap(),
            )
            .unwrap();
        }
        seq.reset();
        let handle = MatrixHandle::new("r-again", steps[1].matrix.clone());
        let outcome = seq
            .step(
                SolvePlan::new("t", handle, format())
                    .rhs(std::sync::Arc::new(steps[1].rhs.clone()))
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .completed()
            .unwrap();
        let tele = outcome.telemetry.sequence.as_ref().unwrap();
        assert!(
            !tele.warm_start_used && !tele.incremental,
            "reset runs cold"
        );
        assert_eq!(seq.steps(), 3, "a post-reset step still counts");
        client.shutdown();
    }
}
