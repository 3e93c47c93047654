//! The layer replay: the same job list as the service run, executed serially on one
//! thread through the layers' **public functions only**, with the benchmark's own
//! spans around every call.
//!
//! The replay mirrors what a worker does for a job — cache lookup, encode on a miss
//! (blocking, then quantising; or an incremental re-encode for a sequence step),
//! clone on a programmed-key change, solve or refine — so each layer's self time is
//! attributable, and its result digest must equal the service run's: that equality
//! is the proof the replay timed the same work.  No span lives inside any crate.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use refloat_core::incremental::reencode_incremental;
use refloat_core::{EscalationPolicy, ReFloatConfig, ReFloatMatrix};
use refloat_runtime::{CacheKey, EncodedMatrixCache, RefinementSpec, WallClock};
use refloat_solvers::{
    refine_warm, LinearOperator, PrecisionLadder, SolveResult, SolverConfig, SolverKind,
};
use refloat_sparse::{BlockedMatrix, CsrMatrix};

use crate::stats::DigestRow;
use crate::workloads::{Drive, Inputs, Job, REFINED_TARGET};

pub const JOB: &str = "job";
pub const LOOKUP: &str = "runtime.cache.get_or_encode";
pub const ENCODE: &str = "core.matrix.encode";
pub const BLOCKING: &str = "sparse.blocked.from_csr";
pub const QUANTISE: &str = "core.matrix.from_blocked";
pub const REENCODE: &str = "core.incremental.reencode";
pub const CLONE: &str = "core.matrix.clone";
pub const DROP: &str = "core.matrix.drop";
pub const SOLVE: &str = "solvers.solve";
pub const REFINE: &str = "solvers.refine";
pub const APPLY: &str = "core.matrix.apply";
pub const SPMV: &str = "sparse.csr.spmv";

/// One span: a layer boundary crossed on behalf of a job.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub job: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span log; written out (if asked) only when the replay has ended.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u64,
    /// Non-zeros multiplied / encoded under each span name.
    nnz: BTreeMap<&'static str, u64>,
    /// Warm-up jobs are replayed (they fill the cache) but not recorded.
    recording: bool,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            nnz: BTreeMap::new(),
            recording: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            job: self.job,
        });
    }

    fn exit(&mut self, nnz: u64) {
        if !self.recording {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[index].end_ns = end_ns;
        if nnz > 0 {
            *self.nnz.entry(self.spans[index].name).or_insert(0) += nnz;
        }
    }
}

type Rec = RefCell<Recorder>;

fn span<T>(rec: &Rec, name: &'static str, nnz: u64, work: impl FnOnce() -> T) -> T {
    rec.borrow_mut().enter(name);
    let out = work();
    rec.borrow_mut().exit(nnz);
    out
}

/// A `LinearOperator` that records a span per `apply` and forwards it unchanged.
struct TimedOp<'a, A: LinearOperator + ?Sized> {
    inner: &'a mut A,
    rec: &'a Rec,
    name: &'static str,
    nnz: u64,
}

impl<A: LinearOperator + ?Sized> LinearOperator for TimedOp<'_, A> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn apply(&mut self, x: &[f64], y: &mut [f64]) {
        span(self.rec, self.name, self.nnz, || self.inner.apply(x, y));
    }
}

/// The state a worker carries between jobs, plus the shared cache.
struct Layers<'a> {
    rec: &'a Rec,
    cache: EncodedMatrixCache,
    clock: WallClock,
    /// The operator the (single) simulated chip holds programmed.
    programmed: Option<(CacheKey, ReFloatMatrix)>,
}

/// A sequence step's predecessor: the previous matrix and solution.
struct Memory<'a> {
    fingerprint: u64,
    csr: &'a CsrMatrix,
    solution: Vec<f64>,
}

impl Layers<'_> {
    /// `get_or_encode` with the encode split into its two public halves (exactly
    /// what `ReFloatMatrix::from_csr` does), or the incremental re-encode against a
    /// sequence predecessor whose encoding is still cached.
    fn fetch(
        &self,
        csr: &CsrMatrix,
        key: CacheKey,
        predecessor: Option<&Memory<'_>>,
        reuse: &mut Reuse,
    ) -> Arc<ReFloatMatrix> {
        let (rec, cache) = (self.rec, &self.cache);
        let nnz = csr.nnz() as u64;
        span(rec, LOOKUP, 0, || {
            cache
                .get_or_encode(key, &self.clock, || {
                    if let Some(pred) = predecessor {
                        let pred_key = CacheKey::whole(pred.fingerprint, key.format);
                        if let Some(previous) = cache.peek(&pred_key) {
                            let inc = span(rec, REENCODE, nnz, || {
                                reencode_incremental(&previous, pred.csr, csr)
                            });
                            reuse.blocks_reencoded += inc.stats.blocks_reencoded() as u64;
                            reuse.blocks_reused += inc.stats.blocks_reused as u64;
                            return inc.matrix;
                        }
                    }
                    span(rec, ENCODE, nnz, || {
                        let blocked = span(rec, BLOCKING, nnz, || {
                            BlockedMatrix::from_csr(csr, key.format.b)
                                .expect("benchmark formats carry a valid block exponent")
                        });
                        span(rec, QUANTISE, 0, || {
                            ReFloatMatrix::from_blocked(&blocked, key.format)
                        })
                    })
                })
                .0
        })
    }

    /// Adopts the programmed operator when it is this very key, else drops it and
    /// clones the cached encoding — the worker's chip-switch cost.
    fn program(&mut self, key: CacheKey, encoded: &ReFloatMatrix) -> ReFloatMatrix {
        match self.programmed.take() {
            Some((held, op)) if held == key => op,
            other => {
                span(self.rec, DROP, 0, || drop(other));
                span(self.rec, CLONE, 0, || encoded.clone())
            }
        }
    }

    fn plain(&mut self, inputs: &Inputs, job: &Job, rhs: &[f64]) -> SolveResult {
        let entry = &inputs.entries[job.entry];
        let csr = entry.handle.csr();
        let key = CacheKey::whole(entry.handle.fingerprint(), entry.format);
        let encoded = self.fetch(csr, key, None, &mut Reuse::default());
        let mut op = self.program(key, &encoded);
        let result = span(self.rec, SOLVE, 0, || {
            let mut timed = TimedOp {
                inner: &mut op,
                rec: self.rec,
                name: APPLY,
                nnz: csr.nnz() as u64,
            };
            entry.solver.solve(&mut timed, rhs, &inputs.solver_config)
        });
        self.programmed = Some((key, op));
        result
    }

    fn refined(
        &mut self,
        inputs: &Inputs,
        job: &Job,
        rhs: &[f64],
        memory: Option<&Memory<'_>>,
        reuse: &mut Reuse,
    ) -> Refined {
        let entry = &inputs.entries[job.entry];
        let csr = entry.handle.csr();
        let spec = RefinementSpec::to_target(REFINED_TARGET);
        let policy: EscalationPolicy = spec.escalation;
        let mut ladder = Ladder {
            layers: self,
            csr,
            fingerprint: entry.handle.fingerprint(),
            formats: policy.ladder(entry.format),
            fp64_fallback: policy.fp64_fallback,
            solver: entry.solver,
            ops: Vec::new(),
            predecessor: memory,
            reuse,
        };
        ladder.ops.resize_with(ladder.formats.len(), || None);
        let rec = ladder.layers.rec;
        let guess = memory.map(|m| m.solution.as_slice());
        let result = span(rec, REFINE, 0, || {
            let mut exact = csr;
            let mut fp64 = TimedOp {
                inner: &mut exact,
                rec,
                name: SPMV,
                nnz: csr.nnz() as u64,
            };
            refine_warm(
                &mut fp64,
                rhs,
                guess,
                &mut ladder,
                &spec.refinement_config(),
            )
        });
        // The base rung stays programmed for the next job; wider rungs are dropped.
        let base_key = CacheKey::whole(ladder.fingerprint, ladder.formats[0]);
        let mut ops = std::mem::take(&mut ladder.ops);
        let layers = ladder.layers;
        if let Some(base) = ops[0].take() {
            let previous = layers.programmed.replace((base_key, base));
            span(rec, DROP, 0, || drop((previous, ops)));
        }
        Refined {
            passes: result.outer_iterations as u64,
            fp64_spmvs: result.fp64_spmvs as u64,
            warm_start_used: result.warm_path.used(),
            result: result.into_solve_result(),
        }
    }
}

struct Refined {
    result: SolveResult,
    passes: u64,
    fp64_spmvs: u64,
    warm_start_used: bool,
}

/// Block accounting of incremental re-encodes, as the worker reports it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Reuse {
    pub blocks_reencoded: u64,
    pub blocks_reused: u64,
}

/// The worker's cache-backed ladder, rebuilt from public parts: quantised rungs are
/// fetched (and cloned or adopted) on first use, the exact CSR is the last rung.
struct Ladder<'a, 'l> {
    layers: &'a mut Layers<'l>,
    csr: &'a CsrMatrix,
    fingerprint: u64,
    formats: Vec<ReFloatConfig>,
    fp64_fallback: bool,
    solver: SolverKind,
    ops: Vec<Option<ReFloatMatrix>>,
    predecessor: Option<&'a Memory<'a>>,
    reuse: &'a mut Reuse,
}

impl PrecisionLadder for Ladder<'_, '_> {
    fn levels(&self) -> usize {
        self.formats.len() + usize::from(self.fp64_fallback)
    }

    fn level_name(&self, level: usize) -> String {
        match self.formats.get(level) {
            Some(format) => format.to_string(),
            None => "fp64 (exact)".to_string(),
        }
    }

    fn solve(&mut self, level: usize, rhs: &[f64], config: &SolverConfig) -> SolveResult {
        let rec = self.layers.rec;
        let nnz = self.csr.nnz() as u64;
        if level >= self.formats.len() {
            return span(rec, SOLVE, 0, || {
                let mut exact = self.csr;
                let mut timed = TimedOp {
                    inner: &mut exact,
                    rec,
                    name: SPMV,
                    nnz,
                };
                self.solver.solve(&mut timed, rhs, config)
            });
        }
        if self.ops[level].is_none() {
            let key = CacheKey::whole(self.fingerprint, self.formats[level]);
            let encoded = self
                .layers
                .fetch(self.csr, key, self.predecessor, self.reuse);
            self.ops[level] = Some(self.layers.program(key, &encoded));
        }
        let op = self.ops[level].as_mut().expect("rung fetched above");
        span(rec, SOLVE, 0, || {
            let mut timed = TimedOp {
                inner: op,
                rec,
                name: APPLY,
                nnz,
            };
            self.solver.solve(&mut timed, rhs, config)
        })
    }
}

/// Everything the replay measured.
#[derive(Default)]
pub struct Replay {
    pub spans: Vec<Span>,
    /// First timed job's start to last timed job's end.
    pub wall_s: f64,
    pub digest_rows: Vec<DigestRow>,
    pub nnz: BTreeMap<&'static str, u64>,
    pub iterations: u64,
    pub refinement_passes: u64,
    pub fp64_spmvs: u64,
    pub warm_starts: u64,
    pub reuse: Reuse,
}

/// Replays warm-up (unrecorded) and timed jobs in submission order.  `job_ids` are
/// the ids the service gave the timed jobs, so the digests are comparable.
pub fn run(inputs: &Inputs, job_ids: &[u64]) -> Replay {
    assert_eq!(job_ids.len(), inputs.jobs.len(), "one id per timed job");
    let rec = RefCell::new(Recorder::new());
    let mut layers = Layers {
        rec: &rec,
        cache: EncodedMatrixCache::new(inputs.service.cache_capacity),
        clock: WallClock::new(),
        programmed: None,
    };
    let mut replay = Replay::default();
    let mut memory: Option<Memory<'_>> = None;
    let mut run_job = |layers: &mut Layers<'_>, replay: &mut Replay, job: &Job, id: u64| {
        let rhs = inputs.rhs_of(job);
        let result = if inputs.refined {
            let chained = memory.as_ref().filter(|_| inputs.drive == Drive::Sequence);
            let refined = layers.refined(inputs, job, &rhs, chained, &mut replay.reuse);
            replay.refinement_passes += refined.passes;
            replay.fp64_spmvs += refined.fp64_spmvs;
            replay.warm_starts += u64::from(refined.warm_start_used);
            refined.result
        } else {
            layers.plain(inputs, job, &rhs)
        };
        replay.iterations += result.iterations as u64;
        replay
            .digest_rows
            .push(DigestRow::of(id, result.iterations, &result.x));
        if inputs.drive == Drive::Sequence {
            let handle = &inputs.entries[job.entry].handle;
            memory = Some(Memory {
                fingerprint: handle.fingerprint(),
                csr: handle.csr(),
                solution: result.x,
            });
        }
    };

    let mut scratch = Replay::default();
    for job in &inputs.warmup {
        run_job(&mut layers, &mut scratch, job, 0);
    }
    rec.borrow_mut().recording = true;
    let started = Instant::now();
    for (job, &id) in inputs.jobs.iter().zip(job_ids) {
        rec.borrow_mut().job = id;
        span(&rec, JOB, 0, || run_job(&mut layers, &mut replay, job, id));
    }
    replay.wall_s = started.elapsed().as_secs_f64();
    drop(layers);
    let recorder = rec.into_inner();
    replay.spans = recorder.spans;
    replay.nnz = recorder.nnz;
    replay
}

/// Per span name: total duration, total self time (duration minus direct
/// children), count, and the self times themselves split by "had children".
#[derive(Debug, Default, Clone)]
pub struct LayerTime {
    pub total_s: f64,
    pub self_s: f64,
    pub count: u64,
    /// Self time of the spans that caused no child span.
    pub leaf_self_s: Vec<f64>,
    /// Summed self time of the spans that did.
    pub parent_self_s: f64,
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children_s = vec![0.0f64; spans.len()];
    let mut has_child = vec![false; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_s[parent as usize] += span.duration_s();
            has_child[parent as usize] = true;
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let layer = layers.entry(span.name).or_default();
        let self_s = (span.duration_s() - children_s[index]).max(0.0);
        layer.total_s += span.duration_s();
        layer.self_s += self_s;
        layer.count += 1;
        if has_child[index] {
            layer.parent_self_s += self_s;
        } else {
            layer.leaf_self_s.push(self_s);
        }
    }
    layers
}

/// Writes the spans as JSON lines: name, start, end, parent span, job id.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
            span.name, span.start_ns, span.end_ns, span.job
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_is_a_span_minus_its_direct_children() {
        let spans = vec![
            fixed(JOB, 0, 1_000, None),
            fixed(SOLVE, 100, 900, Some(0)),
            fixed(APPLY, 200, 400, Some(1)),
            fixed(APPLY, 500, 800, Some(1)),
        ];
        let layers = layer_times(&spans);
        assert!((layers[JOB].self_s - 200e-9).abs() < 1e-15);
        assert!((layers[SOLVE].self_s - 300e-9).abs() < 1e-15);
        assert!((layers[APPLY].self_s - 500e-9).abs() < 1e-15);
        assert_eq!(layers[APPLY].count, 2);
        assert_eq!(layers[APPLY].leaf_self_s.len(), 2);
        assert!((layers[SOLVE].parent_self_s - 300e-9).abs() < 1e-15);
        // Self times add up to the root: nothing is counted twice or lost.
        let total: f64 = layers.values().map(|l| l.self_s).sum();
        assert!((total - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn the_recorder_nests_spans_and_ignores_unrecorded_work() {
        let rec = RefCell::new(Recorder::new());
        span(&rec, JOB, 0, || ());
        assert!(rec.borrow().spans.is_empty(), "warm-up is not recorded");
        rec.borrow_mut().recording = true;
        span(&rec, JOB, 0, || {
            span(&rec, SOLVE, 0, || span(&rec, APPLY, 7, || ()));
            span(&rec, CLONE, 0, || ());
        });
        let recorder = rec.into_inner();
        let parents: Vec<Option<u32>> = recorder.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert_eq!(recorder.nnz[APPLY], 7);
        assert!(recorder.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
