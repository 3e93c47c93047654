//! The QoS-aware job scheduler: priority classes, soft deadlines, age-based
//! anti-starvation promotion, and deterministic tie-breaking.
//!
//! One scheduler sits in front of each node's worker pool, behind the client's
//! router: a push blocks while the pending set is at capacity (backpressure), and
//! workers dequeue not in arrival order but the *most urgent* admissible job.
//!
//! # Scheduling order
//!
//! Each pending job carries a [`Priority`] class and an optional soft deadline.
//! When a worker asks for work, the scheduler picks the minimum of the key
//!
//! ```text
//! (effective class, seniority band, deadline, submission id)
//! ```
//!
//! where
//!
//! 1. **effective class** is the job's class rank (interactive `0`, standard `1`,
//!    batch `2`) minus its age-based promotions (below), saturating at `0`;
//! 2. **seniority band** splits one effective class into *senior* jobs — those that
//!    have already waited at least [`promote_every`](SchedulerPolicy::promote_every)
//!    dequeues — ahead of fresh jobs with a soft deadline, ahead of fresh
//!    deadline-free jobs.  Seniors run in submission order; the band is what keeps a
//!    sustained deadline-carrying flood from starving an old deadline-free job;
//! 3. **deadline** orders the fresh-deadline band earliest-deadline-first (a soft
//!    deadline lets a job overtake *fresh* deadline-free peers of its class, never a
//!    senior);
//! 4. **submission id** breaks every remaining tie.
//!
//! # Anti-starvation promotion
//!
//! A waiting job is promoted one class for every
//! [`promote_every`](SchedulerPolicy::promote_every) jobs the scheduler dequeues
//! while it waits (and, independently of class, enters the senior band of its
//! current effective class at the first promotion interval).  Age is measured in
//! *dequeues*, not wall-clock time, which makes the promotion point — and therefore
//! the whole dequeue order — a deterministic function of the submission sequence.
//! A batch-class job can be overtaken by at most `2 × promote_every` later arrivals
//! (two classes to climb; by then it is also senior, so neither fresher ids *nor
//! fresher deadlines* outrank it) plus the better-ranked jobs that were already
//! pending when it was submitted.  The same bound holds against deadline-carrying
//! floods: a deadline never jumps a senior job.
//!
//! # Determinism guarantees
//!
//! * **Job numerics never depend on the scheduler.**  Every job is a pure function
//!   of its matrix, right-hand side(s) and configuration, so reordering affects
//!   wall-clock telemetry only (see the crate-level *Determinism* section).
//! * **Equal-priority traffic keeps today's FIFO order.**  Ties inside one
//!   effective class (no deadlines) break by submission id, so a trace submitted at
//!   a single priority dequeues in exactly arrival order — byte-for-byte the
//!   telemetry attribution and the bitwise-deterministic result digest of a plain
//!   FIFO queue.
//! * **The dequeue order itself is deterministic** given the interleaving of
//!   submissions and dequeues, because promotion ages in dequeue counts: no
//!   wall-clock reading participates in the ordering unless soft deadlines are
//!   used (deadlines are resolved to clock seconds at submission and compared as
//!   plain values, so two runs submitting the same deadlines in the same order
//!   still agree — and a `ManualClock` pins them exactly).

use std::sync::{Condvar, Mutex};

use refloat_telemetry::sync;

/// The service class of a job: how urgently the scheduler should run it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic; always scheduled first.
    Interactive,
    /// The default class.
    #[default]
    Standard,
    /// Throughput traffic that tolerates waiting (but is never starved: see the
    /// module docs on anti-starvation promotion).
    Batch,
}

impl Priority {
    /// Every class, in rank order (most to least urgent).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// The class rank the scheduler orders by (0 = most urgent).
    pub fn rank(self) -> u8 {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }

    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }
}

/// A class serialises as its [`label`](Priority::label).
impl serde::Serialize for Priority {
    fn to_value(&self) -> serde::Value {
        self.label().to_value()
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which dequeue order the scheduler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Strict arrival order (the pre-service behaviour); priorities and deadlines
    /// are recorded in telemetry but ignored for ordering.
    Fifo,
    /// Priority classes with deadline ordering and anti-starvation promotion (the
    /// default; see the module docs).
    Priority,
}

/// Scheduler knobs of a [`RuntimeConfig`](crate::RuntimeConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerPolicy {
    /// Dequeue order.
    pub mode: SchedulingMode,
    /// A waiting job is promoted one class per this many dequeues (0 disables
    /// promotion, which can starve batch traffic under sustained interactive
    /// load).  Ignored in [`SchedulingMode::Fifo`].
    pub promote_every: u64,
}

impl SchedulerPolicy {
    /// Strict FIFO (the pre-service behaviour).
    pub fn fifo() -> Self {
        SchedulerPolicy {
            mode: SchedulingMode::Fifo,
            promote_every: 0,
        }
    }

    /// Priority scheduling with the given promotion age (in dequeues per class).
    pub fn priority(promote_every: u64) -> Self {
        SchedulerPolicy {
            mode: SchedulingMode::Priority,
            promote_every,
        }
    }
}

impl Default for SchedulerPolicy {
    fn default() -> Self {
        SchedulerPolicy::priority(32)
    }
}

/// Counters the scheduler exposes to the runtime report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Most jobs ever pending at once (the high-water mark of queue depth).
    pub peak_depth: usize,
    /// Jobs dequeued so far (the promotion clock).
    pub dequeues: u64,
}

/// One pending job, as the scheduler holds it.
struct Pending<T> {
    id: u64,
    priority: Priority,
    /// Soft deadline, in the runtime clock's seconds (see `telemetry::clock`).
    deadline: Option<f64>,
    /// Value of the dequeue counter when this job was submitted (ages the job for
    /// anti-starvation promotion).
    enqueued_at_dequeue: u64,
    payload: T,
}

struct SchedState<T> {
    pending: Vec<Pending<T>>,
    closed: bool,
    /// Jobs dequeued so far — the promotion clock.
    dequeues: u64,
    /// Jobs popped but not yet reported finished (drain accounting).
    inflight: usize,
    peak_depth: usize,
}

/// A job handed to a worker.
pub struct Popped<T> {
    /// The job's submission id.
    pub id: u64,
    /// The QoS class it was scheduled under.
    pub priority: Priority,
    /// The queued payload.
    pub payload: T,
}

/// A bounded, priority-aware MPMC job scheduler (`Mutex` + `Condvar`, no async
/// runtime).  See the module docs for the ordering and determinism contract.
///
/// Public so simulation harnesses (e.g. the `fig_cluster` discrete-event driver)
/// can schedule their own payload type with the *exact* production policy; the
/// service itself instantiates it with an in-crate payload.
pub struct JobScheduler<T> {
    state: Mutex<SchedState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    idle: Condvar,
    capacity: usize,
    policy: SchedulerPolicy,
}

impl<T> JobScheduler<T> {
    /// A scheduler admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize, policy: SchedulerPolicy) -> Self {
        assert!(capacity >= 1, "scheduler capacity must be at least 1");
        JobScheduler {
            state: Mutex::new(SchedState {
                pending: Vec::with_capacity(capacity),
                closed: false,
                dequeues: 0,
                inflight: 0,
                peak_depth: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            idle: Condvar::new(),
            capacity,
            policy,
        }
    }

    /// Jobs currently pending (excludes in-flight jobs).
    #[cfg(test)]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        sync::lock(&self.state).pending.len()
    }

    /// Submits a job, blocking while the pending set is at capacity
    /// (backpressure).  Returns the payload back if the scheduler has been closed.
    pub fn push(
        &self,
        id: u64,
        priority: Priority,
        deadline: Option<f64>,
        payload: T,
    ) -> Result<(), T> {
        let mut state = sync::lock(&self.state);
        while state.pending.len() >= self.capacity && !state.closed {
            state = sync::wait(&self.not_full, state);
        }
        if state.closed {
            return Err(payload);
        }
        let enqueued_at_dequeue = state.dequeues;
        state.pending.push(Pending {
            id,
            priority,
            deadline,
            enqueued_at_dequeue,
            payload,
        });
        state.peak_depth = state.peak_depth.max(state.pending.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Effective class rank of a pending job under the promotion clock.
    fn effective_rank(&self, job: &Pending<T>, dequeues: u64) -> u8 {
        let base = job.priority.rank();
        if self.policy.promote_every == 0 {
            return base;
        }
        let waited = dequeues.saturating_sub(job.enqueued_at_dequeue);
        let promotions = (waited / self.policy.promote_every).min(u64::from(base));
        base - promotions as u8
    }

    /// Seniority band within an effective class: `0` for senior jobs (waited at
    /// least one promotion interval — a deadline never jumps these), `1` for fresh
    /// jobs with a soft deadline (EDF among themselves), `2` for fresh
    /// deadline-free jobs.
    fn band(&self, job: &Pending<T>, dequeues: u64) -> u8 {
        let promote_every = self.policy.promote_every;
        if promote_every > 0 && dequeues.saturating_sub(job.enqueued_at_dequeue) >= promote_every {
            0
        } else if job.deadline.is_some() {
            1
        } else {
            2
        }
    }

    /// Index of the job the policy dequeues next.  `pending` must be non-empty.
    fn select(&self, state: &SchedState<T>) -> usize {
        let mut best = 0usize;
        for i in 1..state.pending.len() {
            if self.orders_before(&state.pending[i], &state.pending[best], state.dequeues) {
                best = i;
            }
        }
        best
    }

    /// Whether `a` dequeues before `b` under the policy.  The comparison realises
    /// the key `(effective class, seniority band, deadline, id)` — a per-job key
    /// function, so the order is total (ids are unique) and transitive.
    fn orders_before(&self, a: &Pending<T>, b: &Pending<T>, dequeues: u64) -> bool {
        if self.policy.mode == SchedulingMode::Fifo {
            return a.id < b.id;
        }
        let (ra, rb) = (
            self.effective_rank(a, dequeues),
            self.effective_rank(b, dequeues),
        );
        if ra != rb {
            return ra < rb;
        }
        let (ba, bb) = (self.band(a, dequeues), self.band(b, dequeues));
        if ba != bb {
            return ba < bb;
        }
        if ba == 1 {
            // Both fresh with deadlines: earliest-deadline-first (total_cmp keeps
            // the order total even for pathological NaN deadlines).
            if let (Some(da), Some(db)) = (a.deadline, b.deadline) {
                match da.total_cmp(&db) {
                    std::cmp::Ordering::Less => return true,
                    std::cmp::Ordering::Greater => return false,
                    std::cmp::Ordering::Equal => {}
                }
            }
        }
        a.id < b.id
    }

    /// Dequeues the most urgent job, blocking while the pending set is empty and
    /// the scheduler is open.  Returns `None` once the scheduler is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<Popped<T>> {
        let mut state = sync::lock(&self.state);
        loop {
            if !state.pending.is_empty() {
                let idx = self.select(&state);
                let job = state.pending.remove(idx);
                state.dequeues += 1;
                state.inflight += 1;
                drop(state);
                self.not_full.notify_one();
                return Some(Popped {
                    id: job.id,
                    priority: job.priority,
                    payload: job.payload,
                });
            }
            if state.closed {
                return None;
            }
            state = sync::wait(&self.not_empty, state);
        }
    }

    /// Dequeues the most urgent job if one is pending, without blocking.  Unlike
    /// [`pop`](Self::pop) this never waits: an empty pending set returns `None`
    /// whether or not the scheduler is closed.  Event-driven dispatchers (the
    /// virtual-time cluster bench) pull work with this while thread pools block on
    /// `pop`.
    pub fn try_pop(&self) -> Option<Popped<T>> {
        let mut state = sync::lock(&self.state);
        if state.pending.is_empty() {
            return None;
        }
        let idx = self.select(&state);
        let job = state.pending.remove(idx);
        state.dequeues += 1;
        state.inflight += 1;
        drop(state);
        self.not_full.notify_one();
        Some(Popped {
            id: job.id,
            priority: job.priority,
            payload: job.payload,
        })
    }

    /// Jobs currently in the system: pending in the queue plus popped-but-unfinished.
    /// The cluster router reads this as a node's instantaneous load.
    pub fn load(&self) -> usize {
        let state = sync::lock(&self.state);
        state.pending.len() + state.inflight
    }

    /// Removes a not-yet-dequeued job, returning its payload; `None` when the job
    /// already started (or finished, or never existed) — in-flight jobs cannot be
    /// recalled.
    pub fn cancel(&self, id: u64) -> Option<T> {
        let mut state = sync::lock(&self.state);
        let idx = state.pending.iter().position(|p| p.id == id)?;
        let job = state.pending.remove(idx);
        drop(state);
        self.not_full.notify_one();
        self.idle.notify_all();
        Some(job.payload)
    }

    /// Marks one popped job finished (drain accounting).
    pub fn finish_one(&self) {
        let mut state = sync::lock(&self.state);
        debug_assert!(state.inflight > 0, "finish_one without a matching pop");
        state.inflight = state.inflight.saturating_sub(1);
        if state.inflight == 0 && state.pending.is_empty() {
            drop(state);
            self.idle.notify_all();
        }
    }

    /// Closes the scheduler: workers drain what is pending, new submissions fail
    /// fast with their payload handed back.
    pub fn close(&self) {
        sync::lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
        self.idle.notify_all();
    }

    /// Blocks until no job is pending or in flight.
    pub fn wait_idle(&self) {
        let mut state = sync::lock(&self.state);
        while !(state.pending.is_empty() && state.inflight == 0) {
            state = sync::wait(&self.idle, state);
        }
    }

    /// Counter snapshot for the runtime report.
    pub fn stats(&self) -> SchedulerStats {
        let state = sync::lock(&self.state);
        SchedulerStats {
            peak_depth: state.peak_depth,
            dequeues: state.dequeues,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn drain_ids<T>(s: &JobScheduler<T>) -> Vec<u64> {
        s.close();
        let mut ids = Vec::new();
        while let Some(p) = s.pop() {
            ids.push(p.id);
            s.finish_one();
        }
        ids
    }

    #[test]
    fn equal_priority_traffic_dequeues_in_submission_order() {
        let s = JobScheduler::new(16, SchedulerPolicy::default());
        for id in 0..8 {
            s.push(id, Priority::Standard, None, id).unwrap();
        }
        assert_eq!(drain_ids(&s), (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn fifo_mode_ignores_priorities() {
        let s = JobScheduler::new(16, SchedulerPolicy::fifo());
        s.push(0, Priority::Batch, None, ()).unwrap();
        s.push(1, Priority::Interactive, None, ()).unwrap();
        s.push(2, Priority::Standard, None, ()).unwrap();
        assert_eq!(drain_ids(&s), vec![0, 1, 2]);
    }

    #[test]
    fn interactive_jobs_overtake_standard_and_batch() {
        let s = JobScheduler::new(16, SchedulerPolicy::default());
        s.push(0, Priority::Batch, None, ()).unwrap();
        s.push(1, Priority::Standard, None, ()).unwrap();
        s.push(2, Priority::Interactive, None, ()).unwrap();
        s.push(3, Priority::Interactive, None, ()).unwrap();
        assert_eq!(drain_ids(&s), vec![2, 3, 1, 0]);
    }

    #[test]
    fn soft_deadlines_run_edf_within_a_class() {
        let s = JobScheduler::new(16, SchedulerPolicy::default());
        s.push(0, Priority::Standard, None, ()).unwrap();
        s.push(1, Priority::Standard, Some(60.0), ()).unwrap();
        s.push(2, Priority::Standard, Some(5.0), ()).unwrap();
        // Deadline jobs run EDF ahead of deadline-free peers; a higher class still
        // outranks any deadline.
        s.push(3, Priority::Interactive, None, ()).unwrap();
        assert_eq!(drain_ids(&s), vec![3, 2, 1, 0]);
    }

    #[test]
    fn age_promotion_bounds_batch_wait_under_interactive_flood() {
        // A batch job submitted into a sustained interactive flood must be promoted
        // to the front after at most 2 * promote_every dequeues (two classes to
        // climb), even though fresher interactive jobs keep arriving.
        let promote_every = 4u64;
        let s = JobScheduler::new(64, SchedulerPolicy::priority(promote_every));
        s.push(0, Priority::Batch, None, "batch").unwrap();
        for id in 1..=40 {
            s.push(id, Priority::Interactive, None, "interactive")
                .unwrap();
        }
        let order = drain_ids(&s);
        let batch_position = order.iter().position(|&id| id == 0).unwrap();
        // Exactly 2 * promote_every interactive jobs dequeue first; on the next
        // dequeue the batch job ranks interactive and its older id wins the tie.
        assert_eq!(
            batch_position as u64,
            2 * promote_every,
            "dequeue order {order:?}"
        );
    }

    #[test]
    fn deadline_carrying_floods_cannot_starve_senior_jobs() {
        // Regression: a deadline used to outrank *any* deadline-free peer of the
        // same effective class, so a sustained flood of deadline-carrying
        // interactive jobs starved a promoted batch job forever.  Seniority must
        // win: the batch job still dequeues after exactly 2 * promote_every flood
        // jobs.
        let promote_every = 4u64;
        let s = JobScheduler::new(64, SchedulerPolicy::priority(promote_every));
        s.push(0, Priority::Batch, None, ()).unwrap();
        for id in 1..=40 {
            s.push(id, Priority::Interactive, Some(id as f64 * 1e-3), ())
                .unwrap();
        }
        let order = drain_ids(&s);
        let batch_position = order.iter().position(|&id| id == 0).unwrap();
        assert_eq!(
            batch_position as u64,
            2 * promote_every,
            "dequeue order {order:?}"
        );
    }

    #[test]
    fn promotion_disabled_starves_batch_under_flood() {
        // The contrast case documenting why promote_every = 0 is dangerous.
        let s = JobScheduler::new(64, SchedulerPolicy::priority(0));
        s.push(0, Priority::Batch, None, ()).unwrap();
        for id in 1..=10 {
            s.push(id, Priority::Interactive, None, ()).unwrap();
        }
        let order = drain_ids(&s);
        assert_eq!(*order.last().unwrap(), 0, "batch runs dead last: {order:?}");
    }

    #[test]
    fn cancel_removes_pending_jobs_but_not_inflight_ones() {
        let s = JobScheduler::new(16, SchedulerPolicy::default());
        s.push(0, Priority::Standard, None, "a").unwrap();
        s.push(1, Priority::Standard, None, "b").unwrap();
        let popped = s.pop().unwrap();
        assert_eq!(popped.id, 0);
        // Job 0 is in flight: cancel must refuse.
        assert!(s.cancel(0).is_none());
        // Job 1 is pending: cancel recalls it.
        assert_eq!(s.cancel(1), Some("b"));
        assert!(s.cancel(1).is_none(), "double cancel finds nothing");
        assert_eq!(s.len(), 0);
        s.finish_one();
        s.close();
        assert!(s.pop().is_none());
    }

    #[test]
    fn push_after_close_returns_the_payload() {
        let s = JobScheduler::new(4, SchedulerPolicy::default());
        s.close();
        assert_eq!(s.push(0, Priority::Standard, None, 7), Err(7));
    }

    #[test]
    fn capacity_applies_backpressure_and_close_wakes_blocked_producers() {
        let s = JobScheduler::new(2, SchedulerPolicy::default());
        s.push(0, Priority::Standard, None, 0).unwrap();
        s.push(1, Priority::Standard, None, 1).unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.push(2, Priority::Standard, None, 2));
            std::thread::sleep(Duration::from_millis(30));
            // Producer is blocked on the full scheduler; a pop frees a slot.
            let popped = s.pop().unwrap();
            assert_eq!(popped.id, 0);
            assert!(handle.join().unwrap().is_ok());
            s.finish_one();
        });
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| s.push(3, Priority::Standard, None, 3));
            std::thread::sleep(Duration::from_millis(30));
            s.close();
            // The blocked producer wakes with its payload handed back.
            assert_eq!(handle.join().unwrap(), Err(3));
        });
    }

    #[test]
    fn wait_idle_covers_pending_and_inflight_jobs() {
        let s = std::sync::Arc::new(JobScheduler::new(8, SchedulerPolicy::default()));
        s.push(0, Priority::Standard, None, ()).unwrap();
        let worker = {
            let s = std::sync::Arc::clone(&s);
            std::thread::spawn(move || {
                let popped = s.pop().unwrap();
                std::thread::sleep(Duration::from_millis(30));
                s.finish_one();
                popped.id
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        s.wait_idle();
        // wait_idle returned only after the in-flight job finished.
        assert_eq!(worker.join().unwrap(), 0);
        assert_eq!(s.stats().dequeues, 1);
    }

    #[test]
    fn peak_depth_tracks_the_high_water_mark() {
        let s = JobScheduler::new(16, SchedulerPolicy::default());
        for id in 0..5 {
            s.push(id, Priority::Standard, None, ()).unwrap();
        }
        for _ in 0..3 {
            s.pop().unwrap();
            s.finish_one();
        }
        s.push(5, Priority::Standard, None, ()).unwrap();
        assert_eq!(s.stats().peak_depth, 5);
    }
}
