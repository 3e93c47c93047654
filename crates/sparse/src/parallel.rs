//! Partitioning an index space into contiguous chunks for data-parallel work.
//!
//! The HPC guides used in this workspace recommend Rayon-style data parallelism: split
//! the work into independent contiguous chunks, hand each chunk to a worker, and never
//! share mutable state between workers.  The callers run their workers on
//! [`std::thread::scope`] themselves; this module only cuts the chunks:
//! [`even_ranges`] evenly, [`balance_by_weight`] proportionally to a prefix-sum weight
//! (e.g. the CSR `row_ptr`, so each shard gets roughly the same number of nonzeros).

use std::ops::Range;

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
