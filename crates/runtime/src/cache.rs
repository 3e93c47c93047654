//! The encoded-matrix cache: quantized [`ReFloatMatrix`] operators keyed by
//! (matrix fingerprint, format).
//!
//! Quantizing a matrix (`ReFloatMatrix::from_csr`) walks every non-zero through
//! exponent-base selection and fraction encoding — by far the most expensive step of a
//! cached job.  Repeated jobs on a popular matrix therefore share one encode: the
//! cache is a [`SingleFlightLru`] (LRU eviction, hit / miss / coalesced lookups, one
//! encode per key however many jobs race on it — see [`crate::single_flight`]).  An
//! entry is a whole matrix: a job spanning several chips reads row bands of the same
//! entry, so one encode serves every chip count.  This module owns only what is
//! specific to encodings: the key shape.

use std::sync::Arc;

use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_telemetry::Clock;

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
    /// Key of the encoding of a whole matrix in a format.
    pub fn whole(fingerprint: u64, format: ReFloatConfig) -> Self {
        CacheKey {
            fingerprint,
            format,
        }
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
            CacheKey::whole(fp, ReFloatConfig::new(3, 3, 3, 3, 8)),
            &clock,
            || encoded(4),
        );
        cache.get_or_encode(
            CacheKey::whole(fp, ReFloatConfig::new(3, 3, 8, 3, 8)),
            &clock,
            || encoded(4),
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn a_hit_shares_the_cached_encoding() {
        let cache = EncodedMatrixCache::new(4);
        let clock = WallClock::new();
        let key = CacheKey::whole(7, ReFloatConfig::new(3, 3, 8, 3, 8));
        let (first, _, _) = cache.get_or_encode(key, &clock, || encoded(4));
        let (again, outcome, seconds) =
            cache.get_or_encode(key, &clock, || unreachable!("entry is cached"));
        assert_eq!((outcome, seconds), (CacheOutcomeKind::Hit, 0.0));
        assert!(Arc::ptr_eq(&first, &again));
        assert!(cache.peek(&key).is_some_and(|p| Arc::ptr_eq(&p, &again)));
        assert_eq!(cache.len(), 1);
    }
}
