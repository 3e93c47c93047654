//! Order statistics, the percentile sample-count rule, and the result digest.

use refloat_runtime::fingerprint::{fnv1a_u64, FNV_OFFSET};

/// Nearest-rank percentile of finite samples (`q` in `[0, 1]`); 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// 1-based rank of the `q` percentile among `n >= 1` sorted samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The tail percentiles the benchmark may report, in rising order.
const TAILS: [f64; 3] = [0.5, 0.9, 0.95];

/// The highest of [`TAILS`] that still has at least ten samples beyond it; the median
/// when even that is unsupported (the caller prints the sample count).
pub fn supported_percentile(samples: usize) -> f64 {
    TAILS
        .iter()
        .copied()
        .filter(|&q| samples >= 1 && samples - nearest_rank(samples, q) >= 10)
        .fold(0.5, f64::max)
}

/// The three quartile cut points as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    cuts
}

/// Interquartile distance as a share of the median: the spread the driver bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

/// What one job contributes to the determinism digest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigestRow {
    pub job_id: u64,
    pub iterations: u64,
    /// `Σx` of the solution, summed in index order.
    pub checksum: f64,
}

impl DigestRow {
    pub fn of(job_id: u64, iterations: usize, x: &[f64]) -> Self {
        DigestRow {
            job_id,
            iterations: iterations as u64,
            checksum: x.iter().sum(),
        }
    }
}

/// The `serve_traffic` determinism digest: FNV-1a over (job id, iterations, `Σx`
/// bits) per job, in job order.
pub fn digest(rows: &[DigestRow]) -> u64 {
    rows.iter().fold(FNV_OFFSET, |h, row| {
        let h = fnv1a_u64(h, row.job_id);
        let h = fnv1a_u64(h, row.iterations);
        fnv1a_u64(h, row.checksum.to_bits())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.95), 95.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0, f64::NAN, 1.0], 0.5), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 19 samples: not even the median has ten beyond it; it is still the floor.
        assert_eq!(supported_percentile(19), 0.5);
        assert_eq!(supported_percentile(99), 0.5);
        assert_eq!(supported_percentile(100), 0.9);
        assert_eq!(supported_percentile(199), 0.9);
        assert_eq!(supported_percentile(200), 0.95);
        // p95 is the highest tail reported, however many samples there are.
        assert_eq!(supported_percentile(100_000), 0.95);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10.0, 12.0, 11.0, 15.0, 14.0], n=4)
        assert_eq!(
            quartiles(&[10.0, 12.0, 11.0, 15.0, 14.0]),
            [10.5, 12.0, 14.5]
        );
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    }

    /// `serve_traffic`'s `digest_of` folds (job id, iterations, Σx bits) through
    /// FNV-1a byte by byte; this re-derives it from the FNV definition alone.
    #[test]
    fn digest_equals_the_serve_traffic_digest_on_a_fixed_outcome_list() {
        let outcomes: [(u64, usize, Vec<f64>); 3] = [
            (0, 17, vec![0.5, 0.25, -1.0]),
            (1, 230, vec![1e-12, 3.0]),
            (7, 0, vec![]),
        ];
        let mut expected: u64 = 0xcbf2_9ce4_8422_2325;
        for (id, iterations, x) in &outcomes {
            let checksum: f64 = x.iter().sum();
            for word in [*id, *iterations as u64, checksum.to_bits()] {
                for byte in word.to_le_bytes() {
                    expected ^= u64::from(byte);
                    expected = expected.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        let rows: Vec<DigestRow> = outcomes
            .iter()
            .map(|(id, iterations, x)| DigestRow::of(*id, *iterations, x))
            .collect();
        assert_eq!(digest(&rows), expected);
        assert_ne!(digest(&rows[..2]), expected);
    }
}
