//! Data-parallel work: contiguous chunks of an index space, and the lanes that run them.
//!
//! The HPC guides used in this workspace recommend Rayon-style data parallelism: split
//! the work into independent contiguous chunks, hand each chunk to a worker, and never
//! share mutable state between workers.  This module cuts the chunks — evenly, or
//! [`balance_by_weight`] proportionally to a prefix-sum weight (e.g. the CSR `row_ptr`,
//! so each shard gets roughly the same number of nonzeros) — and runs them on
//! [`Lanes`]: the calling thread plus persistent helper threads, each helper's task
//! returning what it computed to the caller.
//!
//! The helpers persist because a task is short: one phase of a laned CG iteration,
//! its band of the SpMV among them.  Spawning scoped threads costs
//! about 30 µs per call on a 2-core x86-64 host, as much as splitting a 50 k-nonzero
//! SpMV saves; handing a task to a helper that is still spinning costs well under a
//! microsecond.  A helper spins for half a millisecond after each task, then parks on a
//! condition variable, so an idle owner burns no core.  Both sides yield the core as
//! they spin: the scheduler wakes a parked helper on its caller's core, and a spin
//! that kept the core there stalled the pair for the whole half millisecond.  And a
//! caller done with its own part takes back a task its helper has not started: on a
//! host that lends the helper's core elsewhere, waiting for it doubled a split's time.
//!
//! State can stay on the lanes too: the crate keeps one value per helper, behind a
//! lock that only that helper's tasks take, and one for the caller, from one run to the
//! next.  A laned Krylov solve keeps each lane's bands of its vectors there for the
//! whole solve ([`LanedVectors`](crate::vecops::LanedVectors)), so a phase moves only
//! its few partial sums between cores, never a vector.  On one lane it holds only the
//! caller's state, and a phase is a plain call.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Splits `0..n` into at most `chunks` contiguous ranges of nearly equal length.
///
/// Fewer ranges are returned when `n < chunks`; empty ranges are never returned
/// (except that an empty input produces an empty vector).
fn even_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.max(1).min(n);
    let base = n / chunks;
    let rem = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Splits `0..prefix.len()-1` into at most `chunks` contiguous ranges whose total
/// *weights* are balanced, where `prefix` is a non-decreasing prefix-sum array
/// (`prefix[i+1] - prefix[i]` is the weight of item `i`, e.g. nonzeros in row `i`).
///
/// # Panics
/// Panics if `prefix` is empty.
pub fn balance_by_weight(prefix: &[usize], chunks: usize) -> Vec<Range<usize>> {
    assert!(
        !prefix.is_empty(),
        "balance_by_weight: prefix-sum array must be non-empty"
    );
    let n = prefix.len() - 1;
    if n == 0 {
        return Vec::new();
    }
    let chunks = chunks.max(1).min(n);
    let total = prefix[n] - prefix[0];
    if total == 0 {
        return even_ranges(n, chunks);
    }
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0usize;
    for i in 0..chunks {
        if start >= n {
            break;
        }
        // Target cumulative weight at the end of chunk i.
        let target = prefix[0] + ((i as u128 + 1) * total as u128 / chunks as u128) as usize;
        // Find an end > start with prefix[end] >= target (binary search).
        let mut end = match prefix.binary_search(&target) {
            Ok(k) => k,
            Err(k) => k,
        };
        // A run of zero-weight items (empty rows) shows up as duplicate prefix values;
        // `binary_search` may land anywhere inside the run.  Bias the cut to the *end*
        // of the run: the trailing empties join this chunk (costing it nothing) instead
        // of starving the next chunks into weight-0 slivers and letting the last chunk
        // absorb the whole remainder.
        while end < n && prefix[end + 1] == prefix[end] {
            end += 1;
        }
        end = end.clamp(start + 1, n);
        if i + 1 == chunks {
            end = n;
        }
        out.push(start..end);
        start = end;
    }
    out
}

/// The fewest non-zeros per lane for which a sparse matrix's work splits over lanes:
/// an encode's block-row bands, and the exact fp64 SpMV's row bands.  Handing a band
/// to a helper and copying it back costs a few microseconds: on a 2-core x86-64 host a
/// 2-lane split of a 2-D Laplacian's SpMV broke even near 4 k non-zeros per lane and
/// gained from about 8 k, and an encode costs more per non-zero than an SpMV.  The
/// `encode_lanes` bench measures a split encode, `cg_iteration_lanes` a split SpMV.
pub const MIN_NNZ_PER_LANE: usize = 8192;

/// How long a helper lane, or a caller waiting for one, spins before it blocks.  It
/// covers the gap between two SpMVs of a Krylov iteration on the matrices this
/// workspace solves, so a solve keeps its helpers awake from one apply to the next.
const SPIN: Duration = Duration::from_micros(500);

/// A helper lane's task, its value boxed as `catch_unwind` boxes a panic, so that one
/// mailbox slot carries either.
type Job = Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>;

/// The calling thread plus `count() − 1` persistent helper threads.
///
/// [`run`](Self::run) hands one task to each helper it needs, runs its own part on the
/// calling thread, then waits for every helper and returns what each task computed, in
/// order.  A task its helper has not started by then — the helper's core is taken, say
/// by another tenant of the host — goes back to the caller, which runs it itself.  A
/// panic in any part resumes on the caller once every helper is done, as the panic of a
/// serial loop would.  Dropping the lanes joins the helpers.
///
/// One `run` at a time uses the helpers: a `run` that finds them busy — another thread
/// sharing these lanes, or a task that itself calls `run` — executes every task on its
/// own thread instead, with the same results.
pub struct Lanes {
    helpers: Vec<Arc<Helper>>,
    threads: Vec<JoinHandle<()>>,
    busy: AtomicBool,
}

/// What a helper thread and its caller share.
struct Helper {
    mailbox: Mutex<Mailbox>,
    /// Wakes a parked helper (a task or close was posted) or a blocked caller (the task
    /// is done).  The two never wait at once: a caller waits only while a task is out.
    signal: Condvar,
    /// Whether a task (or close) is posted, and whether a result is, read while
    /// spinning.  The mailbox's mutex carries the data; these only say when to look.
    posted: AtomicBool,
    finished: AtomicBool,
}

#[derive(Default)]
struct Mailbox {
    task: Option<Job>,
    /// The outcome of the last task: its value, or its panic.
    done: Option<std::thread::Result<Box<dyn Any + Send>>>,
    parked: bool,
    caller_waiting: bool,
    closed: bool,
}

impl Default for Lanes {
    /// One lane: the calling thread alone.
    fn default() -> Self {
        Lanes {
            helpers: Vec::new(),
            threads: Vec::new(),
            busy: AtomicBool::new(false),
        }
    }
}

impl Lanes {
    /// `count` lanes (at least one): the caller's and `count − 1` helper threads.
    ///
    /// # Errors
    /// Returns the error of a helper thread that could not be spawned; the helpers
    /// spawned before it are joined.
    pub fn new(count: usize) -> std::io::Result<Self> {
        let mut lanes = Lanes::default();
        for index in 1..count {
            let helper = Arc::new(Helper {
                mailbox: Mutex::default(),
                signal: Condvar::new(),
                posted: AtomicBool::new(false),
                finished: AtomicBool::new(false),
            });
            let serving = Arc::clone(&helper);
            let thread = std::thread::Builder::new()
                .name(format!("refloat-lane-{index}"))
                .spawn(move || serving.serve())?;
            lanes.helpers.push(helper);
            lanes.threads.push(thread);
        }
        Ok(lanes)
    }

    /// The number of lanes, the calling thread's included.
    pub fn count(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Whether every helper is parked (blocked, not spinning); true with no helpers.
    #[cfg(test)]
    fn all_parked(&self) -> bool {
        self.helpers.iter().all(|helper| helper.lock().parked)
    }

    /// Runs `tasks[i]` on helper `i` and `local` on the calling thread, and returns the
    /// tasks' values, in order, and `local`'s.  A task runs on another thread, so it
    /// owns (or shares through `Arc`s) everything it reads.
    ///
    /// # Panics
    /// Panics if there are more tasks than helpers, and resumes the first panic of
    /// `local` or a task once every helper has finished.
    pub fn run<I, T, R>(&self, tasks: I, local: impl FnOnce() -> R) -> (Vec<T>, R)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let tasks = tasks.into_iter();
        let posted = tasks.len();
        assert!(posted <= self.helpers.len(), "more tasks than helper lanes");
        if self.busy.swap(true, Ordering::Acquire) {
            let mine = local();
            return (tasks.map(|task| task()).collect(), mine);
        }
        for (helper, task) in self.helpers.iter().zip(tasks) {
            helper.post(Box::new(move || Box::new(task()) as Box<dyn Any + Send>));
        }
        let mut outcome =
            catch_unwind(AssertUnwindSafe(local)).map(|mine| (Vec::with_capacity(posted), mine));
        for helper in &self.helpers[..posted] {
            // A helper that has not taken its task yet — its core is busy elsewhere —
            // hands it back, and the caller runs it rather than wait for that core.
            let done = match helper.retract() {
                Some(task) if outcome.is_ok() => catch_unwind(AssertUnwindSafe(task)),
                Some(_) => continue,
                None => helper.finish(),
            };
            match (&mut outcome, done) {
                (Ok((values, _)), Ok(value)) => {
                    values.push(*value.downcast().expect("a task's value is its own type"));
                }
                (Ok(_), Err(payload)) => outcome = Err(payload),
                (Err(_), _) => {}
            }
        }
        self.busy.store(false, Ordering::Release);
        outcome.unwrap_or_else(|payload| resume_unwind(payload))
    }
}

impl Drop for Lanes {
    fn drop(&mut self) {
        for helper in &self.helpers {
            helper.lock().closed = true;
            helper.posted.store(true, Ordering::Relaxed);
            helper.signal.notify_one();
        }
        for thread in self.threads.drain(..) {
            // A helper catches its tasks' panics, so its thread ends cleanly.
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for Lanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lanes")
            .field("count", &self.count())
            .finish()
    }
}

impl Helper {
    /// The mailbox.  No code panics while holding it — tasks run outside it — so a
    /// poisoned guard still holds a consistent mailbox.
    fn lock(&self) -> MutexGuard<'_, Mailbox> {
        self.mailbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, mailbox: MutexGuard<'a, Mailbox>) -> MutexGuard<'a, Mailbox> {
        self.signal
            .wait(mailbox)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper thread: take a task, run it, post its outcome; spin for the next
    /// task, then park; return once closed.
    fn serve(&self) {
        loop {
            spin_until(|| self.posted.load(Ordering::Relaxed));
            let mut mailbox = self.lock();
            let task = loop {
                if let Some(task) = mailbox.task.take() {
                    break task;
                }
                if mailbox.closed {
                    return;
                }
                mailbox.parked = true;
                mailbox = self.wait(mailbox);
                mailbox.parked = false;
            };
            self.posted.store(false, Ordering::Relaxed);
            drop(mailbox);
            // The task, and every `Arc` it holds but does not return, is dropped before
            // the caller hears that it is done.
            let outcome = catch_unwind(AssertUnwindSafe(task));
            let mut mailbox = self.lock();
            mailbox.done = Some(outcome);
            self.finished.store(true, Ordering::Relaxed);
            if mailbox.caller_waiting {
                self.signal.notify_one();
            }
        }
    }

    fn post(&self, task: Job) {
        let mut mailbox = self.lock();
        mailbox.task = Some(task);
        self.posted.store(true, Ordering::Relaxed);
        if mailbox.parked {
            self.signal.notify_one();
        }
    }

    /// Takes the posted task back if the helper has not started it.
    fn retract(&self) -> Option<Job> {
        let task = self.lock().task.take()?;
        self.posted.store(false, Ordering::Relaxed);
        Some(task)
    }

    /// Waits for the posted task and returns its outcome.
    fn finish(&self) -> std::thread::Result<Box<dyn Any + Send>> {
        spin_until(|| self.finished.load(Ordering::Relaxed));
        let mut mailbox = self.lock();
        let outcome = loop {
            if let Some(outcome) = mailbox.done.take() {
                break outcome;
            }
            mailbox.caller_waiting = true;
            mailbox = self.wait(mailbox);
            mailbox.caller_waiting = false;
        };
        self.finished.store(false, Ordering::Relaxed);
        outcome
    }
}

/// State kept on the lanes across [`run`](Self::run)s: one `T` per helper lane, behind
/// a lock that only that helper's tasks take, and the caller's own.
///
/// A task that finds the lanes busy runs on the calling thread (see [`Lanes::run`]); it
/// still takes its helper's state, so the results are the same.
pub(crate) struct Resident<T> {
    lanes: Arc<Lanes>,
    helpers: Vec<Arc<Mutex<T>>>,
    local: T,
}

impl<T: Send + 'static> Resident<T> {
    /// Places `states` on `lanes`: every one but the last on a helper, in order, the last
    /// on the caller.
    ///
    /// # Panics
    /// Panics if `states` is empty or holds more states than there are lanes.
    pub(crate) fn new(lanes: &Arc<Lanes>, mut states: Vec<T>) -> Self {
        let local = states.pop().expect("a resident state for the caller");
        assert!(
            states.len() < lanes.count(),
            "more resident states than lanes"
        );
        Resident {
            lanes: Arc::clone(lanes),
            helpers: states
                .into_iter()
                .map(|s| Arc::new(Mutex::new(s)))
                .collect(),
            local,
        }
    }

    /// Runs `task` on every helper's state, on its lane, and `local` on the caller's,
    /// and returns the helpers' values, in order, and the caller's.  With no helpers it
    /// is a plain call of `local`.
    ///
    /// # Panics
    /// Resumes the first panic of a task or `local` (see [`Lanes::run`]).
    pub(crate) fn run<F, V, R>(&mut self, task: F, local: impl FnOnce(&mut T) -> R) -> (Vec<V>, R)
    where
        F: Fn(&mut T) -> V + Clone + Send + 'static,
        V: Send + 'static,
    {
        if self.helpers.is_empty() {
            return (Vec::new(), local(&mut self.local));
        }
        let tasks = self.helpers.iter().map(|band| {
            let (band, task) = (Arc::clone(band), task.clone());
            move || task(&mut lock(&band))
        });
        let state = &mut self.local;
        self.lanes.run(tasks, || local(state))
    }

    /// The caller's state, when it is the only one.
    pub(crate) fn alone(&mut self) -> Option<&mut T> {
        self.helpers.is_empty().then_some(&mut self.local)
    }

    /// Every state, the helpers' first, the caller's last.
    pub(crate) fn into_states(self) -> Vec<T>
    where
        T: Default,
    {
        let helpers = self
            .helpers
            .iter()
            .map(|band| std::mem::take(&mut *lock(band)));
        helpers.chain([self.local]).collect()
    }
}

impl<T> std::fmt::Debug for Resident<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resident")
            .field("count", &(self.helpers.len() + 1))
            .finish()
    }
}

/// A helper's resident state.  A task that panicked holding it poisons it, and the
/// panic resumes on the caller, so a poisoned state is never read again as if whole.
fn lock<T>(band: &Mutex<T>) -> MutexGuard<'_, T> {
    band.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spins until `ready` or for [`SPIN`], whichever comes first, yielding the core on
/// every turn: the scheduler may have put the thread it waits for on the same core (it
/// wakes a parked helper on its caller's), and a spin that keeps the core stalls that
/// thread for the whole [`SPIN`].  With the core to itself a yield returns at once.
fn spin_until(ready: impl Fn() -> bool) {
    // refloat-analysis: allow(wall-clock-in-deterministic-path) — how long a lane
    // spins before it blocks is host time by nature, and it decides no result.
    let now = Instant::now;
    let deadline = now() + SPIN;
    while !ready() && now() < deadline {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_ranges_cover_and_balance() {
        let r = even_ranges(10, 3);
        assert_eq!(r, vec![0..4, 4..7, 7..10]);
        assert_eq!(even_ranges(0, 4), vec![]);
        assert_eq!(even_ranges(2, 8), vec![0..1, 1..2]);
    }

    #[test]
    fn balance_by_weight_splits_by_nnz() {
        // Three rows with weights 10, 1, 1: two chunks should isolate the heavy row.
        let prefix = [0usize, 10, 11, 12];
        let r = balance_by_weight(&prefix, 2);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], 0..1);
        assert_eq!(r[1], 1..3);
    }

    #[test]
    fn balance_by_weight_handles_uniform_and_zero_weights() {
        let prefix: Vec<usize> = (0..=8).map(|i| i * 3).collect();
        let r = balance_by_weight(&prefix, 4);
        assert_eq!(r.iter().map(|x| x.len()).sum::<usize>(), 8);
        assert_eq!(r.len(), 4);

        let zeros = vec![0usize; 9];
        let r = balance_by_weight(&zeros, 4);
        assert_eq!(r.iter().map(|x| x.len()).sum::<usize>(), 8);
    }

    #[test]
    fn balance_by_weight_biases_cuts_past_empty_row_runs() {
        // Row weights [10, 0, 0, 0, 10]: the run of empties straddles the 2-chunk
        // midpoint.  Cutting at the first duplicate used to produce a weight-0 middle
        // chunk and dump both heavy rows on the edges; biasing to the end of the run
        // yields two weight-10 chunks.
        let prefix = [0usize, 10, 10, 10, 10, 20];
        let r = balance_by_weight(&prefix, 4);
        let weights: Vec<usize> = r.iter().map(|c| prefix[c.end] - prefix[c.start]).collect();
        assert!(
            weights.iter().all(|&w| w > 0),
            "no chunk may be starved to weight 0: {weights:?}"
        );
        assert_eq!(weights.iter().sum::<usize>(), 20);
    }

    /// A boxed task, so that tasks of different bodies share one run.
    type Task<T> = Box<dyn FnOnce() -> T + Send>;

    /// A task returning `len` copies of `value`.
    fn fill(len: usize, value: f64) -> Task<Vec<f64>> {
        Box::new(move || vec![value; len])
    }

    /// A task that panics.
    fn boom<T>() -> Task<T> {
        Box::new(|| panic!("band task failed"))
    }

    /// Runs one `fill(i + 1, i)` task per helper and returns their values.
    fn run_fills(lanes: &Lanes) -> Vec<Vec<f64>> {
        let helpers = lanes.count() - 1;
        let tasks = (0..helpers).map(|i| fill(i + 1, i as f64));
        lanes.run(tasks, || {}).0
    }

    /// One helper whose thread never comes, so every task it is handed comes back.
    fn stalled() -> (Arc<Helper>, Lanes) {
        let stalled = Arc::new(Helper {
            mailbox: Mutex::default(),
            signal: Condvar::new(),
            posted: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        });
        let lanes = Lanes {
            helpers: vec![Arc::clone(&stalled)],
            threads: Vec::new(),
            busy: AtomicBool::new(false),
        };
        (stalled, lanes)
    }

    #[test]
    fn lanes_run_every_task_and_return_the_values_in_order() {
        for count in 1..=4 {
            let lanes = Lanes::new(count).unwrap();
            assert_eq!(lanes.count(), count);
            for _ in 0..3 {
                let want: Vec<Vec<f64>> = (0..count - 1).map(|i| vec![i as f64; i + 1]).collect();
                assert_eq!(run_fills(&lanes), want);
            }
            // Fewer tasks than helpers leave the rest idle.
            let (values, local) = lanes.run(std::iter::empty::<Task<f64>>(), || "local ran");
            assert_eq!((values, local), (vec![], "local ran"));
        }
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller_and_the_lanes_keep_working() {
        let lanes = Lanes::new(3).unwrap();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lanes.run([fill(2, 1.0), boom()], || {});
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"band task failed"));
        // A panic of the caller's own part also waits for the helpers first.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lanes.run([fill(2, 1.0)], || panic!("local part failed"));
        }));
        assert!(caught.is_err());
        assert_eq!(run_fills(&lanes), vec![vec![0.0], vec![1.0; 2]]);
    }

    #[test]
    fn a_run_inside_a_run_executes_on_its_own_thread() {
        let lanes = Lanes::new(2).unwrap();
        let (outer, inner) = lanes.run([fill(1, 5.0)], || lanes.run([fill(3, 7.0)], || 9));
        assert_eq!((outer, inner), (vec![vec![5.0]], (vec![vec![7.0; 3]], 9)));
    }

    #[test]
    fn a_task_its_helper_has_not_started_runs_on_the_caller() {
        let (stalled, lanes) = stalled();
        for _ in 0..2 {
            assert_eq!(run_fills(&lanes), vec![vec![0.0]]);
            assert!(stalled.lock().task.is_none());
        }
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lanes.run([boom::<f64>()], || {});
        }));
        assert!(caught.is_err());
        assert_eq!(run_fills(&lanes), vec![vec![0.0]]);
    }

    /// A task of a value that is no `f64`: its lane, and that many copies of it.
    fn tagged(lane: usize) -> Task<(usize, Vec<i32>)> {
        Box::new(move || (lane, vec![lane as i32; lane]))
    }

    #[test]
    fn a_task_of_any_type_returns_its_value_in_lane_order_on_every_path() {
        let want = |tasks: usize| -> Vec<(usize, Vec<i32>)> {
            (0..tasks)
                .map(|lane| (lane, vec![lane as i32; lane]))
                .collect()
        };
        // Run by its helper: the caller waits until every helper has started its task,
        // so none is left to take back.
        let lanes = Lanes::new(4).unwrap();
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let tasks = (0..3).map(|lane| {
            let (started, task) = (Arc::clone(&started), tagged(lane));
            move || {
                started.fetch_add(1, Ordering::SeqCst);
                task()
            }
        });
        let (values, mine) = lanes.run(tasks, || {
            while started.load(Ordering::SeqCst) < 3 {
                std::thread::yield_now();
            }
            "caller"
        });
        assert_eq!((values, mine), (want(3), "caller"));
        // Taken back by the caller.
        let (_, stalled) = stalled();
        assert_eq!(stalled.run([tagged(0)], || ()).0, want(1));
        // Run inline by a run inside a run.
        let (outer, (inner, ())) =
            lanes.run((0..3).map(tagged), || lanes.run((0..2).map(tagged), || ()));
        assert_eq!((outer, inner), (want(3), want(2)));
    }

    #[test]
    fn a_panic_resumes_only_once_every_helper_has_finished_and_the_lanes_keep_working() {
        let lanes = Lanes::new(3).unwrap();
        let (started, finished) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let slow: Task<(usize, Vec<i32>)> = {
            let (started, finished) = (Arc::clone(&started), Arc::clone(&finished));
            Box::new(move || {
                started.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                finished.store(true, Ordering::SeqCst);
                (1, vec![1])
            })
        };
        // The first helper's task panics; the second's is still running when the caller
        // hears of it.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lanes.run([boom(), slow], || {
                while !started.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            })
        }));
        assert!(caught.is_err());
        assert!(
            finished.load(Ordering::SeqCst),
            "the panic waited for the slow helper"
        );
        let (values, ()) = lanes.run((0..2).map(tagged), || ());
        assert_eq!(values, vec![(0, vec![]), (1, vec![1])]);
    }

    #[test]
    fn idle_helpers_park() {
        let lanes = Lanes::new(3).unwrap();
        run_fills(&lanes);
        // Spinning ends after `SPIN`; poll the parked flags, sleeping between reads, for
        // far longer than that before calling it a failure.
        let parked = (0..5_000).any(|_| {
            std::thread::sleep(Duration::from_millis(1));
            lanes.all_parked()
        });
        assert!(parked, "an idle helper must park, not spin");
        // A parked helper wakes for the next task.
        assert_eq!(run_fills(&lanes).len(), 2);
    }

    #[test]
    fn dropping_the_lanes_joins_their_threads() {
        let lanes = Lanes::new(3).unwrap();
        run_fills(&lanes);
        let helpers: Vec<_> = lanes.helpers.iter().map(Arc::downgrade).collect();
        drop(lanes);
        // Each helper thread held its `Arc` until it returned; joined, none is left.
        assert!(helpers.iter().all(|helper| helper.upgrade().is_none()));
    }

    mod proptests {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Adversarial prefixes: unit-weight rows interleaved with arbitrary runs
            // of empty rows.  With the cut biased past duplicate runs, chunk weights
            // may differ by at most one unit, so max/min ≤ 2 whenever every chunk can
            // get at least one unit of weight.
            #[test]
            fn chunk_weights_stay_balanced_for_empty_row_runs(
                (flags, chunks) in (
                    proptest::collection::vec(proptest::bool::ANY, 2..200),
                    2usize..8,
                ).prop_filter("need at least `chunks` nonzero rows", |(flags, chunks)| {
                    flags.iter().filter(|&&f| f).count() >= *chunks
                })
            ) {
                let mut prefix = vec![0usize];
                for &f in &flags {
                    prefix.push(prefix.last().unwrap() + usize::from(f));
                }
                let ranges = balance_by_weight(&prefix, chunks);

                // The ranges tile 0..n in order.
                prop_assert_eq!(ranges[0].start, 0);
                prop_assert_eq!(ranges.last().unwrap().end, flags.len());
                for w in ranges.windows(2) {
                    prop_assert_eq!(w[0].end, w[1].start);
                }

                let weights: Vec<usize> = ranges
                    .iter()
                    .map(|r| prefix[r.end] - prefix[r.start])
                    .collect();
                let max = *weights.iter().max().unwrap();
                let min = *weights.iter().min().unwrap();
                prop_assert!(min > 0, "starved chunk in {:?}", weights);
                prop_assert!(
                    max <= 2 * min,
                    "imbalance {}/{} from weights {:?} (prefix {:?}, {} chunks)",
                    max, min, weights, prefix, chunks
                );
            }
        }
    }
}
