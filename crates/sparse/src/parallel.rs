//! Data-parallel work: contiguous chunks of an index space, and the lanes that run them.
//!
//! The HPC guides used in this workspace recommend Rayon-style data parallelism: split
//! the work into independent contiguous chunks, hand each chunk to a worker, and never
//! share mutable state between workers.  This module cuts the chunks — [`even_ranges`]
//! evenly, [`balance_by_weight`] proportionally to a prefix-sum weight (e.g. the CSR
//! `row_ptr`, so each shard gets roughly the same number of nonzeros) — and runs them
//! on [`Lanes`]: the calling thread plus persistent helper threads, each helper filling
//! its own output band for the caller to copy out.
//!
//! The helpers persist because a split SpMV is short.  Spawning scoped threads costs
//! about 30 µs per call on a 2-core x86-64 host, as much as splitting a 50 k-nonzero
//! SpMV saves; handing a task to a helper that is still spinning costs well under a
//! microsecond.  A helper spins for half a millisecond after each task, then parks on a
//! condition variable, so an idle owner burns no core.

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
pub fn even_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
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

/// How long a helper lane, or a caller waiting for one, spins before it blocks.  It
/// covers the gap between two SpMVs of a Krylov iteration on the matrices this
/// workspace solves, so a solve keeps its helpers awake from one apply to the next.
const SPIN: Duration = Duration::from_micros(500);

/// One band of work for a helper lane: it fills the lane's output buffer, resized to
/// what it writes.  It runs on another thread, so it owns (or shares through `Arc`s)
/// everything it reads.
pub type BandTask = Box<dyn FnOnce(&mut Vec<f64>) + Send>;

/// The calling thread plus `count() − 1` persistent helper threads.
///
/// [`run`](Self::run) hands one [`BandTask`] to each helper it needs, runs its own part
/// on the calling thread, then waits for every helper and passes each one's output band
/// to the caller in order.  A panic in any part resumes on the caller once every helper
/// is done, as the panic of a serial loop would.  Dropping the lanes joins the helpers.
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
    task: Option<BandTask>,
    /// The outcome of the last task: `Err` holds its panic.
    done: Option<std::thread::Result<()>>,
    /// The helper's output band, reused from task to task.
    band: Vec<f64>,
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

    /// Runs `tasks[i]` on helper `i` and `local` on the calling thread, then calls
    /// `gather(i, band)` with each helper's output band, in order.
    ///
    /// # Panics
    /// Panics if there are more tasks than helpers, and resumes the first panic of
    /// `local`, a task or `gather` once every helper has finished.
    pub fn run<I>(&self, tasks: I, local: impl FnOnce(), mut gather: impl FnMut(usize, &[f64]))
    where
        I: IntoIterator<Item = BandTask>,
        I::IntoIter: ExactSizeIterator,
    {
        let tasks = tasks.into_iter();
        let posted = tasks.len();
        assert!(
            posted <= self.helpers.len(),
            "more band tasks than helper lanes"
        );
        if self.busy.swap(true, Ordering::Acquire) {
            let mut band = Vec::new();
            local();
            for (index, task) in tasks.enumerate() {
                task(&mut band);
                gather(index, &band);
            }
            return;
        }
        for (helper, task) in self.helpers.iter().zip(tasks) {
            helper.post(task);
        }
        let mut failure = catch_unwind(AssertUnwindSafe(local)).err();
        for (index, helper) in self.helpers[..posted].iter().enumerate() {
            let copied = catch_unwind(AssertUnwindSafe(|| {
                helper.finish(|band| {
                    if failure.is_none() {
                        gather(index, band);
                    }
                })
            }));
            failure = failure.or(copied.and_then(|outcome| outcome).err());
        }
        self.busy.store(false, Ordering::Release);
        if let Some(payload) = failure {
            resume_unwind(payload);
        }
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

    /// The helper thread: take a task, run it into the band, post the outcome; spin
    /// for the next task, then park; return once closed.
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
            let mut band = std::mem::take(&mut mailbox.band);
            drop(mailbox);
            // The task, and every `Arc` it holds, is dropped before the caller hears
            // that it is done.
            let outcome = catch_unwind(AssertUnwindSafe(|| task(&mut band)));
            let mut mailbox = self.lock();
            mailbox.band = band;
            mailbox.done = Some(outcome);
            self.finished.store(true, Ordering::Relaxed);
            if mailbox.caller_waiting {
                self.signal.notify_one();
            }
        }
    }

    fn post(&self, task: BandTask) {
        let mut mailbox = self.lock();
        mailbox.task = Some(task);
        self.posted.store(true, Ordering::Relaxed);
        if mailbox.parked {
            self.signal.notify_one();
        }
    }

    /// Waits for the posted task; on success passes its band to `read`.
    fn finish(&self, read: impl FnOnce(&[f64])) -> std::thread::Result<()> {
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
        outcome.map(|()| read(&mailbox.band))
    }
}

/// Spins until `ready` or for [`SPIN`], whichever comes first.
fn spin_until(ready: impl Fn() -> bool) {
    // refloat-analysis: allow(wall-clock-in-deterministic-path) — how long a lane
    // spins before it blocks is host time by nature, and it decides no result.
    let now = Instant::now;
    let deadline = now() + SPIN;
    while !ready() && now() < deadline {
        std::hint::spin_loop();
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

    /// A task writing `len` copies of `value` into its band.
    fn fill(len: usize, value: f64) -> BandTask {
        Box::new(move |band: &mut Vec<f64>| {
            band.clear();
            band.resize(len, value);
        })
    }

    /// Runs one `fill(i + 1, i)` task per helper and returns what `gather` saw.
    fn run_fills(lanes: &Lanes) -> Vec<(usize, Vec<f64>)> {
        let helpers = lanes.count() - 1;
        let mut seen = Vec::new();
        let tasks = (0..helpers).map(|i| fill(i + 1, i as f64));
        lanes.run(tasks, || {}, |i, band| seen.push((i, band.to_vec())));
        seen
    }

    #[test]
    fn lanes_run_every_task_and_gather_the_bands_in_order() {
        for count in 1..=4 {
            let lanes = Lanes::new(count).unwrap();
            assert_eq!(lanes.count(), count);
            for _ in 0..3 {
                let want: Vec<(usize, Vec<f64>)> =
                    (0..count - 1).map(|i| (i, vec![i as f64; i + 1])).collect();
                assert_eq!(run_fills(&lanes), want);
            }
            // Fewer tasks than helpers leave the rest idle.
            let mut local_ran = false;
            lanes.run(
                std::iter::empty(),
                || local_ran = true,
                |_, _| panic!("no band"),
            );
            assert!(local_ran);
        }
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller_and_the_lanes_keep_working() {
        let lanes = Lanes::new(3).unwrap();
        let boom: BandTask = Box::new(|_| panic!("band task failed"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lanes.run([fill(2, 1.0), boom], || {}, |_, _| {});
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"band task failed"));
        // A panic of the caller's own part also waits for the helpers first.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            lanes.run([fill(2, 1.0)], || panic!("local part failed"), |_, _| {});
        }));
        assert!(caught.is_err());
        assert_eq!(run_fills(&lanes), vec![(0, vec![0.0]), (1, vec![1.0; 2])]);
    }

    #[test]
    fn a_run_inside_a_run_executes_on_its_own_thread() {
        let lanes = Lanes::new(2).unwrap();
        let mut inner = Vec::new();
        lanes.run(
            [fill(1, 5.0)],
            || {
                lanes.run(
                    [fill(3, 7.0)],
                    || {},
                    |i, band| inner.push((i, band.to_vec())),
                )
            },
            |i, band| assert_eq!((i, band), (0, &[5.0][..])),
        );
        assert_eq!(inner, vec![(0, vec![7.0; 3])]);
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
