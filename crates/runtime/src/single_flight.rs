//! The one keyed-residency structure of the runtime: a thread-safe LRU map whose
//! misses are *single-flight* — however many callers race on a missing key, exactly
//! one computes the value while the rest wait for it.
//!
//! Both memoisation layers of a node are instantiations of [`SingleFlightLru`]: the
//! [`EncodedMatrixCache`](crate::cache::EncodedMatrixCache) (key → quantized
//! operator) and the [`FormatDecisionCache`](crate::decision::FormatDecisionCache)
//! (key → auto-tuning verdict).  A lookup is a hit, a miss that computes outside
//! the lock, or coalesces onto a compute already in flight ([`CacheOutcomeKind`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Condvar, Mutex};

use refloat_telemetry::{sync, Clock};
use serde::Serialize;

/// How one lookup was satisfied (the seconds a miss spent computing travel beside
/// it, not inside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcomeKind {
    /// The value was already cached (zero compute cost).
    Hit,
    /// The first lookup of a missing key: this caller computed the value.
    Miss,
    /// Another caller was already computing this key; this lookup blocked until it
    /// published the entry instead of duplicating the work.
    Coalesced,
}

impl CacheOutcomeKind {
    /// A stable lowercase label for trace details and exports.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcomeKind::Hit => "hit",
            CacheOutcomeKind::Miss => "miss",
            CacheOutcomeKind::Coalesced => "coalesced",
        }
    }
}

/// Monotonic cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that computed the value.
    pub misses: u64,
    /// Lookups that waited for a concurrent compute of the same key.
    pub coalesced: u64,
    /// Entries dropped by the LRU policy.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.coalesced
    }

    /// Fraction of lookups that skipped the compute (hits + coalesced).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        (self.hits + self.coalesced) as f64 / lookups as f64
    }

    /// Counter increments since an earlier snapshot of the same cache.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            evictions: self.evictions - earlier.evictions,
        }
    }

    /// Adds another cache's counters (a cluster sums its nodes' private caches).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.evictions += other.evictions;
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Inner<K, V> {
    /// Ordered map so iteration (the LRU victim scan) visits keys deterministically.
    map: BTreeMap<K, Entry<V>>,
    /// Keys currently being computed by some caller.
    pending: BTreeSet<K>,
    /// Logical clock for LRU recency.
    tick: u64,
    stats: CacheStats,
}

impl<K: Ord, V: Clone> Inner<K, V> {
    /// The value for `key`, if cached, marked most recently used.
    fn touch(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let entry = self.map.get_mut(key)?;
        entry.last_used = self.tick;
        Some(entry.value.clone())
    }
}

/// A thread-safe LRU cache with in-flight deduplication.  See the module docs.
///
/// Values are handed out by clone, so `V` is either cheap to copy or an `Arc`.
pub struct SingleFlightLru<K, V> {
    inner: Mutex<Inner<K, V>>,
    ready: Condvar,
    capacity: usize,
}

impl<K: Ord + Copy, V: Clone> SingleFlightLru<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        SingleFlightLru {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                pending: BTreeSet::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of cached entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        sync::lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        sync::lock(&self.inner).stats
    }

    /// Whether a key is currently cached (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        sync::lock(&self.inner).map.contains_key(key)
    }

    /// Non-counting lookup: the cached value for `key` if present.  Refreshes LRU
    /// recency but records neither hit nor miss — sequence steps use it to probe for
    /// a predecessor's entry without skewing the hit-rate statistics.
    pub fn peek(&self, key: &K) -> Option<V> {
        sync::lock(&self.inner).touch(key)
    }

    /// Returns the value for `key`, calling `compute` (outside the lock) only if no
    /// other caller has cached or is currently computing it, plus how the lookup was
    /// satisfied and the seconds this caller spent computing (0 unless a miss).
    /// Compute timing is read from `clock` so a `ManualClock` run reports exactly
    /// zero seconds.
    pub fn get_or_compute(
        &self,
        key: K,
        clock: &dyn Clock,
        compute: impl FnOnce() -> V,
    ) -> (V, CacheOutcomeKind, f64) {
        let mut inner = sync::lock(&self.inner);
        let mut waited = false;
        loop {
            if let Some(value) = inner.touch(&key) {
                let outcome = if waited {
                    inner.stats.coalesced += 1;
                    CacheOutcomeKind::Coalesced
                } else {
                    inner.stats.hits += 1;
                    CacheOutcomeKind::Hit
                };
                return (value, outcome, 0.0);
            }
            // Claim the key, or wait for whoever holds the claim to publish (or unwind).
            if inner.pending.insert(key) {
                break;
            }
            waited = true;
            inner = sync::wait(&self.ready, inner);
        }
        drop(inner);

        // Compute outside the lock; the guard unblocks waiters if `compute` panics
        // (they will then race to compute themselves).  On the success path the guard
        // is disarmed and the pending marker is cleared in the *same* critical section
        // that publishes the entry — clearing it first would let a waiter wake, find
        // neither entry nor marker, and start a redundant second compute.
        let mut guard = PendingGuard {
            cache: self,
            key,
            armed: true,
        };
        let started_s = clock.now_s();
        let value = compute();
        let seconds = (clock.now_s() - started_s).max(0.0);

        let mut inner = sync::lock(&self.inner);
        guard.armed = false;
        inner.pending.remove(&key);
        inner.tick += 1;
        let entry = Entry {
            value: value.clone(),
            last_used: inner.tick,
        };
        inner.map.insert(key, entry);
        inner.stats.misses += 1;
        // The victims are dropped only once the lock is released: an evicted value may
        // hold the last reference to megabytes of buffers, and freeing them (`munmap`s)
        // must not stall every other lookup of the cache.
        let mut evicted = Vec::new();
        while inner.map.len() > self.capacity {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim.and_then(|k| inner.map.remove(&k)) {
                Some(entry) => {
                    evicted.push(entry);
                    inner.stats.evictions += 1;
                }
                None => break,
            }
        }
        drop(inner);
        self.ready.notify_all();
        drop(evicted);
        (value, CacheOutcomeKind::Miss, seconds)
    }
}

/// Removes the pending mark (and wakes waiters) if the compute unwinds; disarmed on
/// the success path, where the marker is cleared together with the entry insert.
struct PendingGuard<'a, K: Ord, V> {
    cache: &'a SingleFlightLru<K, V>,
    key: K,
    armed: bool,
}

impl<K: Ord, V> Drop for PendingGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        sync::lock(&self.cache.inner).pending.remove(&self.key);
        self.cache.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_telemetry::WallClock;
    use std::cmp::Ordering as CmpOrdering;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};
    use std::thread::ThreadId;

    type Cache = SingleFlightLru<u64, u64>;

    #[test]
    fn second_lookup_is_a_hit_and_skips_the_compute() {
        let cache = Cache::new(4);
        let computes = AtomicU64::new(0);
        let clock = WallClock::new();
        let run = || {
            cache.get_or_compute(1, &clock, || {
                computes.fetch_add(1, Ordering::SeqCst);
                10
            })
        };
        let (first, outcome, _) = run();
        assert_eq!((first, outcome), (10, CacheOutcomeKind::Miss));
        let (second, outcome, seconds) = run();
        assert_eq!((second, outcome, seconds), (10, CacheOutcomeKind::Hit, 0.0));
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.capacity(), 4);
        assert!(!cache.is_empty());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = Cache::new(2);
        let clock = WallClock::new();
        cache.get_or_compute(1, &clock, || 1);
        cache.get_or_compute(2, &clock, || 2);
        cache.get_or_compute(1, &clock, || 1); // touch 1; 2 becomes LRU
        cache.get_or_compute(3, &clock, || 3); // evicts 2
        assert!(cache.contains(&1));
        assert!(!cache.contains(&2));
        assert!(cache.contains(&3));
        assert_eq!(cache.stats().evictions, 1);
        // A peek refreshes recency without counting: 3 is now the LRU victim.
        let before = cache.stats();
        assert_eq!(cache.peek(&1), Some(1));
        assert_eq!(cache.peek(&9), None);
        assert_eq!(cache.stats(), before);
        cache.get_or_compute(4, &clock, || 4);
        assert!(cache.contains(&1) && !cache.contains(&3));
    }

    /// A value that, when its last reference drops, checks that the cache's lock is
    /// free and counts itself.
    struct DropProbe;

    type ProbedCache = SingleFlightLru<u64, Arc<DropProbe>>;

    static PROBED: std::sync::OnceLock<ProbedCache> = std::sync::OnceLock::new();
    static PROBES_DROPPED: AtomicU64 = AtomicU64::new(0);

    impl Drop for DropProbe {
        fn drop(&mut self) {
            let cache = PROBED.get().expect("the probed cache exists");
            assert!(
                cache.inner.try_lock().is_ok(),
                "an evicted value was dropped under the cache lock"
            );
            PROBES_DROPPED.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn evicted_values_are_dropped_after_the_lock_is_released() {
        let cache = PROBED.get_or_init(|| ProbedCache::new(2));
        let clock = WallClock::new();
        for key in 0..5 {
            // The caller's clone drops here, so the map holds each value's last
            // reference when it is evicted.
            cache.get_or_compute(key, &clock, || Arc::new(DropProbe));
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.evictions, cache.len()), (5, 3, 2));
        assert_eq!(PROBES_DROPPED.load(Ordering::SeqCst), 3);
        assert!(cache.contains(&3) && cache.contains(&4));
    }

    #[test]
    fn concurrent_lookups_of_one_key_compute_exactly_once() {
        let cache = Cache::new(4);
        let clock = WallClock::new();
        let computes = AtomicU64::new(0);
        // Whatever the interleaving, one caller computes and seven skip it; the
        // barrier only makes the lookups start together so most runs really race.
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let (value, _, _) = cache.get_or_compute(7, &clock, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        70
                    });
                    assert_eq!(value, 70);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 7);
        assert_eq!(stats.lookups(), 8);
        assert_eq!(stats.hit_rate(), 7.0 / 8.0);
    }

    /// A key that records which threads compared it.  A lookup that finds the key
    /// pending compares it (inside `pending.insert`) under the cache lock and keeps
    /// that lock until `Condvar::wait` releases it — so once a thread is recorded
    /// here, taking the lock proves that thread is parked on the condvar.
    #[derive(Clone, Copy)]
    struct ProbeKey<'a> {
        id: u64,
        seen: &'a Mutex<Vec<ThreadId>>,
    }

    impl PartialEq for ProbeKey<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == CmpOrdering::Equal
        }
    }
    impl Eq for ProbeKey<'_> {}
    impl PartialOrd for ProbeKey<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for ProbeKey<'_> {
        fn cmp(&self, other: &Self) -> CmpOrdering {
            let mut seen = sync::lock(self.seen);
            let me = std::thread::current().id();
            if !seen.contains(&me) {
                seen.push(me);
            }
            self.id.cmp(&other.id)
        }
    }

    #[test]
    fn a_panicking_compute_wakes_its_waiters_and_exactly_one_of_them_recomputes() {
        let seen = Mutex::new(Vec::new());
        let key = ProbeKey { id: 5, seen: &seen };
        let cache: SingleFlightLru<ProbeKey<'_>, u64> = SingleFlightLru::new(4);
        let clock = WallClock::new();
        let computes = AtomicU64::new(0);
        let claimed = Barrier::new(3);
        std::thread::scope(|scope| {
            let doomed = scope.spawn(|| {
                cache.get_or_compute(key, &clock, || {
                    // The key is pending now (an empty map and pending set compare
                    // nothing, so `seen` is still empty): release the two waiters ...
                    claimed.wait();
                    // ... and hold the compute open until both have looked the key
                    // up and are parked on the condvar (see `ProbeKey`).
                    while sync::lock(&seen).len() < 2 {
                        std::thread::yield_now();
                    }
                    drop(sync::lock(&cache.inner));
                    panic!("compute failed");
                })
            });
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        claimed.wait();
                        cache.get_or_compute(key, &clock, || {
                            computes.fetch_add(1, Ordering::SeqCst);
                            50
                        })
                    })
                })
                .collect();
            assert!(doomed.join().is_err(), "the panic reaches its own caller");
            let mut outcomes: Vec<CacheOutcomeKind> = waiters
                .into_iter()
                .map(|w| {
                    let (value, outcome, _) = w.join().expect("waiters were woken");
                    assert_eq!(value, 50);
                    outcome
                })
                .collect();
            outcomes.sort_by_key(|o| o.label());
            assert_eq!(
                outcomes,
                [CacheOutcomeKind::Coalesced, CacheOutcomeKind::Miss]
            );
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert!(sync::lock(&cache.inner).pending.is_empty());
        // The panicking lookup counted nothing.
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.coalesced, stats.hits), (1, 1, 0));
        let (value, outcome, _) = cache.get_or_compute(key, &clock, || unreachable!("cached"));
        assert_eq!((value, outcome), (50, CacheOutcomeKind::Hit));
    }
}
