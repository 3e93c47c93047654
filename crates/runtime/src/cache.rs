//! The encoded-matrix cache: quantized [`ReFloatMatrix`] operators keyed by
//! (matrix fingerprint, format), and the layout donors a miss encodes over.
//!
//! Encoding a matrix is the most expensive step of a cached job: finding its blocks
//! and walking every non-zero through exponent-base selection and fraction encoding,
//! in two passes over the non-zeros, the first of which finds the blocks as it sums
//! their exponents (~4.3 ns per non-zero on `mass_matrix_3d(24³)`).  Repeated jobs on a popular matrix therefore share
//! one encode: the cache is a [`SingleFlightLru`] (LRU eviction, hit / miss /
//! coalesced lookups, one encode per key however many jobs race on it — see
//! [`crate::single_flight`]).  An entry is a whole matrix: a job spanning several
//! chips reads row bands of the same entry, so one encode serves every chip count.
//!
//! The key is the matrix's *content* (its fingerprint, one pass at ~2.2 ns per non-zero
//! when the [`MatrixHandle`](crate::MatrixHandle) is made), but the block layout is a
//! function of its *structure* and `b` alone.  So a node also keeps `LayoutDonors`:
//! the live encodings by (structure hash, `b`).  A miss that finds a donor encodes
//! over the donor's layout and reads its table instead of finding the blocks (and
//! shares it, where a fresh encode would hold a table of its own) — a re-assembled FEM
//! matrix, another
//! matrix of one mesh, another rung of one matrix's format ladder — once
//! [`ReFloatMatrix::from_csr_over_on`] has checked that the structures are equal.
//! Handles of one sparsity pattern share one CSR structure (see
//! [`MatrixHandle`](crate::MatrixHandle)), and a layout knows the structure it was
//! blocked from, so a same-pattern miss over handle-made matrices adopts its layout in
//! O(1), with no array compare; only a matrix that shares no structure with the donor's
//! source is compared array by array.
//! Adoption saves host time only: the chip model charges the miss's full programming.
//! This module owns only what is specific to encodings: the key shape and the donors.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};

use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_telemetry::{sync, Clock};

pub use crate::single_flight::CacheStats;
use crate::single_flight::{CacheOutcomeKind, SingleFlightLru};

/// Cache key: (matrix content fingerprint, ReFloat format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Content hash of the matrix (structure + values).
    pub fingerprint: u64,
    /// The ReFloat format of the encoding.
    pub format: ReFloatConfig,
}

impl CacheKey {
    /// Key of a matrix's encoding in a format (one per format, whatever the chip
    /// count a job spreads it over).
    pub fn new(fingerprint: u64, format: ReFloatConfig) -> Self {
        CacheKey {
            fingerprint,
            format,
        }
    }

    /// [`new`](Self::new) under its former name, kept for callers outside this
    /// workspace (the `benchmark/` package) until they move to `new`.
    pub fn whole(fingerprint: u64, format: ReFloatConfig) -> Self {
        Self::new(fingerprint, format)
    }
}

/// A thread-safe LRU cache of encoded matrices, shared by `Arc` so a hit copies
/// nothing.  See the module docs.
pub type EncodedMatrixCache = SingleFlightLru<CacheKey, Arc<ReFloatMatrix>>;

impl EncodedMatrixCache {
    /// [`get_or_compute`](SingleFlightLru::get_or_compute) for encodings: `encode`
    /// returns the bare matrix, which the cache wraps so every hit shares it.
    pub fn get_or_encode(
        &self,
        key: CacheKey,
        clock: &dyn Clock,
        encode: impl FnOnce() -> ReFloatMatrix,
    ) -> (Arc<ReFloatMatrix>, CacheOutcomeKind, f64) {
        self.get_or_compute(key, clock, || Arc::new(encode()))
    }
}

/// A layout donor's key: (the matrix's structure hash, the blocking exponent `b`).
pub(crate) type DonorKey = (u64, u32);

/// The newest encoding of each (structure hash, `b`) a node made, held weakly: a donor
/// lives exactly as long as the cache or a running job holds it, and dead entries are
/// pruned on every registration, so the map never outgrows the live encodings.
#[derive(Default)]
pub(crate) struct LayoutDonors {
    donors: Mutex<BTreeMap<DonorKey, Weak<ReFloatMatrix>>>,
}

impl LayoutDonors {
    /// The live encoding registered under `key`, if any.  A hash match only: the
    /// encode over it checks the structure itself.
    pub fn find(&self, key: DonorKey) -> Option<Arc<ReFloatMatrix>> {
        sync::lock(&self.donors).get(&key)?.upgrade()
    }

    /// Registers a miss's `encoding` under `key`, replacing the entry's older
    /// encoding: the newest holder of a layout is the one the LRU keeps longest.
    pub fn register(&self, key: DonorKey, encoding: &Arc<ReFloatMatrix>) {
        let mut donors = sync::lock(&self.donors);
        donors.retain(|_, donor| donor.strong_count() > 0);
        donors.insert(key, Arc::downgrade(encoding));
    }

    /// Entries in the map, dead or alive.
    #[cfg(test)]
    fn len(&self) -> usize {
        sync::lock(&self.donors).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refloat_matgen::generators;
    use refloat_telemetry::WallClock;

    fn encoded(n: usize) -> ReFloatMatrix {
        let csr = generators::laplacian_2d(n, n, 0.2).to_csr();
        ReFloatMatrix::from_csr(&csr, ReFloatConfig::new(3, 3, 8, 3, 8))
    }

    #[test]
    fn distinct_formats_are_distinct_entries() {
        let cache = EncodedMatrixCache::new(4);
        let clock = WallClock::new();
        let fp = 99u64;
        cache.get_or_encode(
            CacheKey::new(fp, ReFloatConfig::new(3, 3, 3, 3, 8)),
            &clock,
            || encoded(4),
        );
        cache.get_or_encode(
            CacheKey::new(fp, ReFloatConfig::new(3, 3, 8, 3, 8)),
            &clock,
            || encoded(4),
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn donors_are_held_weakly_and_the_dead_are_pruned_on_register() {
        let donors = LayoutDonors::default();
        let first = Arc::new(encoded(4));
        donors.register((1, 3), &first);
        assert!(donors.find((1, 3)).is_some_and(|d| Arc::ptr_eq(&d, &first)));
        assert!(donors.find((1, 4)).is_none(), "another b is another donor");
        let newer = Arc::new(encoded(4));
        donors.register((1, 3), &newer);
        assert!(donors.find((1, 3)).is_some_and(|d| Arc::ptr_eq(&d, &newer)));
        drop((first, newer));
        assert!(
            donors.find((1, 3)).is_none(),
            "a dropped encoding is no donor"
        );
        assert_eq!(donors.len(), 1);
        let other = Arc::new(encoded(5));
        donors.register((2, 3), &other);
        assert_eq!(donors.len(), 1, "registering pruned the dead entry");
    }

    #[test]
    fn a_hit_shares_the_cached_encoding() {
        let cache = EncodedMatrixCache::new(4);
        let clock = WallClock::new();
        let key = CacheKey::new(7, ReFloatConfig::new(3, 3, 8, 3, 8));
        let (first, _, _) = cache.get_or_encode(key, &clock, || encoded(4));
        let (again, outcome, seconds) =
            cache.get_or_encode(key, &clock, || unreachable!("entry is cached"));
        assert_eq!((outcome, seconds), (CacheOutcomeKind::Hit, 0.0));
        assert!(Arc::ptr_eq(&first, &again));
        assert!(cache.peek(&key).is_some_and(|p| Arc::ptr_eq(&p, &again)));
        assert_eq!(cache.len(), 1);
    }
}
