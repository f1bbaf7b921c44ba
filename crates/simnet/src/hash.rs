//! The one hasher of the path-keyed tables on the op route.
//!
//! Every metadata op hashes its path into several in-memory tables — a
//! cache shard's map, the DFS client's dentry cache and the server's seen
//! cache, the region's in-flight table, the per-call maps of batched
//! reads and commit settles. std's `DefaultHasher` (SipHash-1-3) spends
//! more on a 20–40 byte path than the probe that follows. [`PathHasher`]
//! folds the input in 8-byte words with a 64 × 64 → 128-bit multiply
//! whose two halves are xored back together ("fold-multiply"): the high
//! half carries every input bit into the low bits that pick a hashbrown
//! bucket, the low half into the top 7 bits of its control byte.
//!
//! The seed is drawn once per process from std's `RandomState`, so a
//! table's layout and iteration order stay as unpredictable as with the
//! default hasher: nothing may depend on either. Placement that must
//! repeat across runs (`memkv::ring`) keeps its own fixed hash.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed through [`PathHasher`].
pub type FastMap<K, V> = HashMap<K, V, PathHasher>;
/// A `HashSet` keyed through [`PathHasher`].
pub type FastSet<K> = HashSet<K, PathHasher>;

/// Odd multiplier of every fold (the 64-bit golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// `a · b` as 128 bits, halves xored.
#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The process seed, drawn on first use.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0x5ead_u64))
}

/// Builds a [`FoldHasher`] from the process seed (module docs).
#[derive(Clone, Copy, Debug)]
pub struct PathHasher {
    seed: u64,
}

impl Default for PathHasher {
    fn default() -> Self {
        Self { seed: process_seed() }
    }
}

impl BuildHasher for PathHasher {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// The running state of one hash: every word is xored in and folded.
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher {
    state: u64,
}

impl FoldHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = fold_mul(self.state ^ word, MULTIPLIER);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let n = bytes.len();
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if tail.is_empty() {
            return;
        }
        // Unaligned loads instead of a copy: the last 8 bytes when there
        // are that many, else two overlapping halves or three bytes,
        // which together cover the tail. Its length goes in the top byte,
        // so "ab" and "ab\0" fold different words.
        let last = if n >= 8 {
            u64::from_le_bytes(bytes[n - 8..].try_into().expect("8 bytes"))
        } else if tail.len() >= 4 {
            let lo = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
            let hi = u32::from_le_bytes(tail[tail.len() - 4..].try_into().expect("4 bytes"));
            u64::from(lo) | (u64::from(hi) << 32)
        } else {
            let (a, b, c) = (tail[0], tail[tail.len() / 2], tail[tail.len() - 1]);
            u64::from(a) | (u64::from(b) << 8) | (u64::from(c) << 16)
        };
        self.fold(last ^ ((tail.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// mdtest-shaped names: one shared prefix, differing only in the
    /// trailing digits.
    fn keys() -> impl Iterator<Item = String> {
        (0..1u32 << 17).map(|i| format!("/app/f{i:07}"))
    }

    /// Worst bucket load of `keys` over `buckets` buckets picked by `pick`.
    fn worst_load(hasher: PathHasher, buckets: usize, pick: impl Fn(u64) -> usize) -> u32 {
        let mut load = vec![0u32; buckets];
        for k in keys() {
            load[pick(hasher.hash_one(k.as_str()))] += 1;
        }
        load.into_iter().max().expect("at least one bucket")
    }

    /// 2^17 keys over the table sizes a shard reaches (2^10 .. 2^17 low-bit
    /// buckets) and over the 128 values of hashbrown's control byte: no
    /// bucket may hold more than about twice its fair share plus the
    /// spread a random hash shows. Dropping the fold's high half leaves
    /// the low bits blind to the trailing digits, and one bucket then
    /// holds hundreds of keys.
    #[test]
    fn mdtest_names_spread_over_low_and_top_bits() {
        for seed in [PathHasher::default().seed, 0, 1, 0x0123_4567_89ab_cdef] {
            let hasher = PathHasher { seed };
            for bits in [10u32, 13, 17] {
                let mask = (1u64 << bits) - 1;
                let fair = (1u32 << 17) >> bits;
                let worst = worst_load(hasher, 1 << bits, |h| (h & mask) as usize);
                assert!(worst <= 2 * fair + 16, "seed {seed:#x}, 2^{bits} buckets: {worst}");
            }
            let worst = worst_load(hasher, 128, |h| (h >> 57) as usize);
            assert!(worst <= 1024 + 160, "seed {seed:#x}, top 7 bits: {worst}");
        }
    }

    #[test]
    fn equal_keys_hash_equal_and_the_tail_length_counts() {
        let h = PathHasher::default();
        assert_eq!(h.hash_one("/app/f1"), h.hash_one(String::from("/app/f1")));
        assert_eq!(h.hash_one(&b"/app/f1"[..]), h.hash_one(b"/app/f1".to_vec()));
        let mut a = h.build_hasher();
        a.write(b"ab");
        let mut b = h.build_hasher();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }
}
