//! The encoded-matrix cache: quantized [`ReFloatMatrix`] operators keyed by
//! (matrix fingerprint, shard, format).
//!
//! Quantizing a matrix (`ReFloatMatrix::from_csr`) walks every non-zero through
//! exponent-base selection and fraction encoding — by far the most expensive step of a
//! cached job.  Repeated jobs on a popular matrix therefore share one encode: the
//! cache is a [`SingleFlightLru`] (LRU eviction, hit / miss / coalesced lookups, one
//! encode per key however many jobs race on it — see [`crate::single_flight`]).  This
//! module owns only what is specific to encodings: the key shape.

use std::sync::Arc;

use refloat_core::{ReFloatConfig, ReFloatMatrix};
use refloat_telemetry::Clock;

pub use crate::single_flight::CacheStats;
use crate::single_flight::{CacheOutcomeKind, SingleFlightLru};

/// Which slice of a matrix an encoding covers: shard `index` of a `count`-way
/// block-row partition.  The unsharded operator is shard 0 of 1.
///
/// Shard identity (not the row range) is what keys the cache: the partitioner is a
/// pure function of `(matrix, b, count)`, so `(fingerprint, index, count)` pins the
/// row band exactly, while keys stay `Copy` and hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId {
    /// Shard index within the partition (`< count`).
    pub index: u32,
    /// Number of shards in the partition.
    pub count: u32,
}

impl ShardId {
    /// The whole (unsharded) matrix: shard 0 of 1.
    pub const WHOLE: ShardId = ShardId { index: 0, count: 1 };

    /// Shard `index` of a `count`-way partition.
    pub fn of(index: u32, count: u32) -> Self {
        assert!(count >= 1 && index < count, "shard {index} of {count}");
        ShardId { index, count }
    }

    /// Whether this is the unsharded whole-matrix encoding.
    pub fn is_whole(&self) -> bool {
        self.count == 1
    }
}

/// Cache key: (matrix content fingerprint, shard, ReFloat format).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Content hash of the matrix (structure + values).
    pub fingerprint: u64,
    /// Which block-row shard of the matrix the encoding covers.
    pub shard: ShardId,
    /// The ReFloat format of the encoding.
    pub format: ReFloatConfig,
}

impl CacheKey {
    /// Key of the unsharded encoding of a matrix in a format.
    pub fn whole(fingerprint: u64, format: ReFloatConfig) -> Self {
        CacheKey {
            fingerprint,
            shard: ShardId::WHOLE,
            format,
        }
    }

    /// Key of one shard's encoding.
    pub fn sharded(fingerprint: u64, shard: ShardId, format: ReFloatConfig) -> Self {
        CacheKey {
            fingerprint,
            shard,
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
    fn distinct_shards_are_distinct_entries() {
        let cache = EncodedMatrixCache::new(8);
        let clock = WallClock::new();
        let fp = 7u64;
        let format = ReFloatConfig::new(3, 3, 8, 3, 8);
        cache.get_or_encode(CacheKey::whole(fp, format), &clock, || encoded(4));
        cache.get_or_encode(
            CacheKey::sharded(fp, ShardId::of(0, 2), format),
            &clock,
            || encoded(4),
        );
        cache.get_or_encode(
            CacheKey::sharded(fp, ShardId::of(1, 2), format),
            &clock,
            || encoded(4),
        );
        // The same shard again is a hit, shared by `Arc` with the first lookup.
        let (again, outcome, seconds) = cache.get_or_encode(
            CacheKey::sharded(fp, ShardId::of(1, 2), format),
            &clock,
            || unreachable!("entry is cached"),
        );
        assert_eq!((outcome, seconds), (CacheOutcomeKind::Hit, 0.0));
        let peeked = cache.peek(&CacheKey::sharded(fp, ShardId::of(1, 2), format));
        assert!(peeked.is_some_and(|p| Arc::ptr_eq(&p, &again)));
        assert_eq!(cache.len(), 3);
        assert!(ShardId::WHOLE.is_whole() && !ShardId::of(1, 2).is_whole());
    }
}
