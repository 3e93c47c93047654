//! Content fingerprinting for matrices (the cache key's matrix half), and the FNV-1a
//! word fold of the result digests.

use refloat_sparse::CsrMatrix;

/// The FNV-1a 64-bit offset basis (the hash accumulator's initial value).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds one 64-bit word (little-endian bytes) into an FNV-1a hash accumulator: the
/// one fold of every result digest the experiment bins, the tests and the benchmark
/// print, so their conventions cannot drift apart.  (The matrix fingerprint below is
/// a different, word-parallel hash: a digest is a few words per job, a matrix
/// millions.)
#[inline]
pub fn fnv1a_u64(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What one pass over a CSR matrix yields: the content fingerprint (the cache key's
/// matrix half), the structure hash (what the block-major layout is a function of)
/// and whether every stored value is finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ContentHash {
    /// Dimensions, structure and value bits ([`fingerprint_csr`]).
    pub fingerprint: u64,
    /// Dimensions, `row_ptr` and `col_idx` only: equal for every matrix of one
    /// sparsity pattern, whatever its values.
    pub structure: u64,
    /// Whether no value is NaN or ±Inf.
    pub finite: bool,
}

/// The content fingerprint of a CSR matrix: its dimensions, structure and value bits
/// in one pass.  Equal matrices (same structure, bit-equal values) hash equal, and any
/// structural or value change — including `0.0` vs `-0.0` — changes the fingerprint
/// with overwhelming probability.  It is what
/// [`MatrixHandle::fingerprint`](crate::MatrixHandle::fingerprint) returns.
pub fn fingerprint_csr(a: &CsrMatrix) -> u64 {
    hash_csr(a).fingerprint
}

/// The one pass behind [`fingerprint_csr`] and [`MatrixHandle`](crate::MatrixHandle).
///
/// Four independent lanes each fold every fourth 64-bit word through a 64 × 64 → 128
/// multiply whose halves are xored, so the pass runs at memory speed rather than at
/// FNV-1a's one dependent multiply per byte.  The structure lanes read `row_ptr` and
/// `col_idx`; their fold with the dimensions is the structure hash.  The value lanes
/// start from the structure hash and read the value bit patterns, and their fold is
/// the fingerprint.  The value loop also ANDs `is_finite`, without short-circuiting.
/// All arithmetic wraps, so every profile computes the same hashes.
pub(crate) fn hash_csr(a: &CsrMatrix) -> ContentHash {
    let mut lanes = HashLanes::seeded(0);
    lanes.absorb(a.row_ptr(), |p| p as u64);
    lanes.absorb(a.col_idx(), |c| c as u64);
    let (nrows, ncols, nnz) = (a.nrows() as u64, a.ncols() as u64, a.nnz() as u64);
    let structure = lanes.finish(&[nrows, ncols, nnz]);

    let mut finite = true;
    let mut lanes = HashLanes::seeded(structure);
    lanes.absorb(a.values(), |v| {
        finite &= v.is_finite();
        v.to_bits()
    });
    ContentHash {
        fingerprint: lanes.finish(&[nnz]),
        structure,
        finite,
    }
}

/// Each lane's odd multiplier.
const MULTIPLIERS: [u64; LANES] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
];

/// What each lane xors into its seed, so no two lanes start equal.
const LANE_SEEDS: [u64; LANES] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

const LANES: usize = 4;

/// The 128-bit product of `a` and `b`, its two halves xored.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// Four hash lanes: word `i` of a slice goes to lane `i % 4`.
struct HashLanes([u64; LANES]);

impl HashLanes {
    fn seeded(seed: u64) -> Self {
        HashLanes(LANE_SEEDS.map(|lane| seed ^ lane))
    }

    /// Folds each item's word into its lane: the word is xored into the lane and the
    /// result multiplied by the lane's odd constant, so a zero word still stirs it.
    /// The lanes are four locals, not an array, so each stays in a general register
    /// for its whole multiply chain.
    #[inline(always)]
    fn absorb<T: Copy>(&mut self, items: &[T], mut word: impl FnMut(T) -> u64) {
        let [k0, k1, k2, k3] = MULTIPLIERS;
        let [mut l0, mut l1, mut l2, mut l3] = self.0;
        let mut chunks = items.chunks_exact(LANES);
        for chunk in &mut chunks {
            l0 = fold(l0 ^ word(chunk[0]), k0);
            l1 = fold(l1 ^ word(chunk[1]), k1);
            l2 = fold(l2 ^ word(chunk[2]), k2);
            l3 = fold(l3 ^ word(chunk[3]), k3);
        }
        self.0 = [l0, l1, l2, l3];
        let tail = chunks.remainder();
        for ((lane, &k), &item) in self.0.iter_mut().zip(&MULTIPLIERS).zip(tail) {
            *lane = fold(*lane ^ word(item), k);
        }
    }

    /// The lanes and `lengths` folded into one word, then fully avalanched (the
    /// MurmurHash3 finaliser), so every input bit reaches every output bit.
    fn finish(&self, lengths: &[u64]) -> u64 {
        let words = self.0.iter().chain(lengths);
        let mut h = words.fold(0, |h, &w| fold(h ^ w, MULTIPLIERS[0]));
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use refloat_matgen::generators;
    use std::collections::BTreeMap;

    /// A CSR matrix holding `cells`, keyed and so sorted by `(row, column)`.
    fn csr(nrows: usize, ncols: usize, cells: &BTreeMap<(usize, usize), f64>) -> CsrMatrix {
        let mut row_ptr = vec![0; nrows + 1];
        for &(r, _) in cells.keys() {
            row_ptr[r + 1] += 1;
        }
        for r in 0..nrows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = cells.keys().map(|&(_, c)| c).collect();
        let vals = cells.values().copied().collect();
        CsrMatrix::from_raw(nrows, ncols, row_ptr, col_idx, vals).unwrap()
    }

    /// An `nrows × ncols` matrix from `(row, column, value)` draws folded into range.
    fn drawn(nrows: usize, ncols: usize, draws: &[(usize, usize, f64)]) -> CsrMatrix {
        let cells = draws.iter().map(|&(r, c, v)| ((r % nrows, c % ncols), v));
        csr(nrows, ncols, &cells.collect())
    }

    /// `a`'s row pointers and columns, widened for `CsrMatrix::from_raw`.
    fn raw_structure(a: &CsrMatrix) -> (Vec<usize>, Vec<usize>) {
        let wide = |indices: &[u32]| indices.iter().map(|&i| i as usize).collect();
        (wide(a.row_ptr()), wide(a.col_idx()))
    }

    /// `a` with its values replaced by `values`.
    fn with_values(a: &CsrMatrix, values: impl IntoIterator<Item = f64>) -> CsrMatrix {
        let (rows, cols) = raw_structure(a);
        let vals = values.into_iter().collect();
        CsrMatrix::from_raw(a.nrows(), a.ncols(), rows, cols, vals).unwrap()
    }

    /// `a`'s entry `k` moved to the first free cell after it in its row (`in_row`) or in
    /// its column, when there is one.
    fn moved(a: &CsrMatrix, k: usize, in_row: bool) -> Option<CsrMatrix> {
        let mut cells: BTreeMap<(usize, usize), f64> =
            a.iter().map(|(r, c, v)| ((r, c), v)).collect();
        let (&(r, c), &v) = cells.iter().nth(k)?;
        let free = |&cell: &(usize, usize)| !cells.contains_key(&cell);
        let target = if in_row {
            (c + 1..a.ncols()).map(|c| (r, c)).find(free)
        } else {
            (r + 1..a.nrows()).map(|r| (r, c)).find(free)
        }?;
        cells.remove(&(r, c));
        cells.insert(target, v);
        Some(csr(a.nrows(), a.ncols(), &cells))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_content_hash_sees_every_value_and_structure_change(
            (nrows, ncols) in (1usize..=12, 1usize..=12),
            draws in proptest::collection::vec((0usize..12, 0usize..12, -4.0f64..4.0), 1..48),
            (pick, bit) in (0usize..1_000, 0u32..64),
            fresh in proptest::collection::vec(-4.0f64..4.0, 48),
        ) {
            let a = drawn(nrows, ncols, &draws);
            let hash = hash_csr(&a);
            // Equal matrices, built apart, hash equal.
            prop_assert_eq!(hash_csr(&drawn(nrows, ncols, &draws)), hash);
            prop_assert_eq!(fingerprint_csr(&a), hash.fingerprint);
            let (nnz, k) = (a.nnz(), pick % a.nnz());
            let changed = |values: Vec<f64>| {
                let h = hash_csr(&with_values(&a, values));
                // Values never move the structure hash.
                assert_eq!(h.structure, hash.structure);
                assert_ne!(h.fingerprint, hash.fingerprint);
            };
            // One flipped value bit.
            let mut values = a.values().to_vec();
            values[k] = f64::from_bits(values[k].to_bits() ^ (1 << bit));
            changed(values);
            // Signed zero.
            let zero = |sign: f64| {
                let mut values = a.values().to_vec();
                values[k] = sign * 0.0;
                hash_csr(&with_values(&a, values))
            };
            let (plus, minus) = (zero(1.0), zero(-1.0));
            prop_assert_eq!(plus.structure, minus.structure);
            prop_assert_ne!(plus.fingerprint, minus.fingerprint);
            // Two swapped values.
            let j = (k + 1 + pick / nnz % nnz.max(2)) % nnz;
            if a.values()[j].to_bits() != a.values()[k].to_bits() {
                let mut values = a.values().to_vec();
                values.swap(j, k);
                changed(values);
            }
            // Fresh values everywhere.
            changed(fresh[..nnz].to_vec());
            // One entry moved to another column or row at equal nnz.
            for in_row in [true, false] {
                if let Some(b) = moved(&a, k, in_row) {
                    prop_assert_eq!(b.nnz(), nnz);
                    let h = hash_csr(&b);
                    prop_assert_ne!(h.structure, hash.structure);
                    prop_assert_ne!(h.fingerprint, hash.fingerprint);
                }
            }
            // A trailing empty row or column over the same arrays.
            let ((rows, cols), vals) = (raw_structure(&a), a.values());
            let wider = CsrMatrix::from_raw(nrows, ncols + 1, rows.clone(), cols.clone(), vals.to_vec());
            let taller = CsrMatrix::from_raw(
                nrows + 1,
                ncols,
                rows.iter().copied().chain([nnz]).collect(),
                cols,
                vals.to_vec(),
            );
            for b in [wider.unwrap(), taller.unwrap()] {
                let h = hash_csr(&b);
                prop_assert_ne!(h.structure, hash.structure);
                prop_assert_ne!(h.fingerprint, hash.fingerprint);
            }
        }
    }

    #[test]
    fn finiteness_is_every_value_whatever_its_position() {
        let a = generators::wathen(3, 3, 9).to_csr();
        assert!(hash_csr(&a).finite);
        let last = a.nnz() - 1;
        for k in [0, last / 2, last] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut b = a.clone();
                b.values_mut()[k] = bad;
                assert!(!hash_csr(&b).finite, "{bad} at {k} of {}", a.nnz());
            }
        }
        let mut tiny = a.clone();
        for (k, v) in tiny.values_mut().iter_mut().enumerate() {
            *v = f64::from_bits(1 + k as u64) * if k % 2 == 0 { 1.0 } else { -1.0 };
        }
        assert!(tiny.values().iter().all(|v| v.is_subnormal()));
        assert!(hash_csr(&tiny).finite);
        let empty = CsrMatrix::from_raw(0, 0, vec![0], Vec::new(), Vec::new()).unwrap();
        assert!(hash_csr(&empty).finite);
    }

    #[test]
    fn fingerprint_is_stable_and_value_sensitive() {
        let a = generators::wathen(4, 4, 9).to_csr();
        let b = generators::wathen(4, 4, 9).to_csr();
        assert_eq!(fingerprint_csr(&a), fingerprint_csr(&b));

        let mut c = a.clone();
        let mid = c.values().len() / 2;
        c.values_mut()[mid] *= 1.0 + 1e-15;
        assert_ne!(fingerprint_csr(&a), fingerprint_csr(&c));
    }

    #[test]
    fn fingerprint_distinguishes_structure_at_equal_nnz() {
        // Same dimensions and nnz, different positions.
        let a = generators::sphere_ring_3regular(16, 1.0, 0.2).to_csr();
        let mut coo = a.to_coo();
        // Shift one off-diagonal entry to a different column by rebuilding triplets.
        let rows = coo.row_indices().to_vec();
        let mut cols = coo.col_indices().to_vec();
        let vals = coo.values().to_vec();
        let swap = rows
            .iter()
            .zip(cols.iter())
            .position(|(&r, &c)| r != c)
            .unwrap();
        cols[swap] = (cols[swap] + 1) % 16;
        coo = refloat_sparse::CooMatrix::from_triplets(16, 16, rows, cols, vals).unwrap();
        let b = coo.to_csr();
        assert_eq!(a.nnz(), b.nnz());
        assert_ne!(fingerprint_csr(&a), fingerprint_csr(&b));
    }

    #[test]
    fn signed_zero_changes_the_fingerprint() {
        let a = generators::logspace_diagonal(4, 1.0, 2.0).to_csr();
        let mut b = a.clone();
        b.values_mut()[0] = 0.0;
        let mut c = a.clone();
        c.values_mut()[0] = -0.0;
        assert_ne!(fingerprint_csr(&b), fingerprint_csr(&c));
    }
}
