//! Lightweight named counters and latency histograms shared by the
//! backends and the discrete-event engine.
//!
//! Backends expose hit/miss/retry counts through a [`Counters`] instance so
//! experiments and tests can assert on behaviour (e.g. "the dentry cache
//! missed more often at depth 6") without bespoke plumbing per crate.
//! [`LatencyHistogram`] is the fixed-footprint log-linear (HDR-style)
//! response-time recorder the `qsim` engine fills per op class, so every
//! bench can report p50/p99/p999 without keeping millions of raw samples.

use std::sync::atomic::{AtomicU64, Ordering};

use syncguard::{level, RwLock};

use crate::hash::FastMap;

/// Sub-bucket precision of [`LatencyHistogram`]: 2^5 = 32 linear
/// sub-buckets per power of two, bounding the relative quantization
/// error of any reported percentile by 1/32 ≈ 3.1%.
const PRECISION_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << PRECISION_BITS;
/// Bucket count covering the full `u64` range: 32 exact buckets for
/// values < 32 plus 32 sub-buckets for each of the remaining 59
/// exponents (msb 5..=63).
const BUCKET_COUNT: usize = SUB_BUCKETS * (64 - PRECISION_BITS as usize + 1);

/// Fixed-bucket log-linear latency histogram (HDR-histogram style).
///
/// Recording is O(1) with no allocation (the bucket array is allocated
/// once, ~15 KiB), so the engine can record every completed job even in
/// million-client runs. Values below 32 are exact; above that, each
/// power of two is split into 32 linear sub-buckets. Percentile queries
/// return the *upper bound* of the matched bucket (conservative, like
/// HDR's `highest_equivalent_value`), so a reported p99 is never below
/// the true p99 by more than the bucket width. The exact maximum and
/// minimum are tracked separately.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self { counts: vec![0; BUCKET_COUNT], total: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index of a value.
    fn index(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros();
            let sub = ((v >> (msb - PRECISION_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
            (msb - PRECISION_BITS + 1) as usize * SUB_BUCKETS + sub
        }
    }

    /// Largest value mapping to bucket `idx` (the reported representative).
    fn bucket_upper(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            idx as u64
        } else {
            let msb = (idx / SUB_BUCKETS) as u32 + PRECISION_BITS - 1;
            let sub = (idx % SUB_BUCKETS) as u64;
            let lower = (1u64 << msb) | (sub << (msb - PRECISION_BITS));
            lower + ((1u64 << (msb - PRECISION_BITS)) - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::index(v)] += n;
        self.total += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact maximum recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Exact minimum recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Percentile (`q` in `0..=1`) with the same rank convention as
    /// sorting all samples and indexing `round((len-1) * q)`. Returns
    /// the bucket upper bound, clamped to the exact recorded extrema;
    /// `None` when no samples were recorded.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((self.total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        // The tracked extremes are exact; report them at the extreme ranks
        // rather than a bucket representative.
        if rank == 0 {
            return Some(self.min);
        }
        if rank == self.total - 1 {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return Some(Self::bucket_upper(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("min", &self.min())
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .field("p999", &self.percentile(0.999))
            .field("max", &self.max())
            .finish()
    }
}

/// A concurrent map of named monotonically increasing counters.
pub struct Counters {
    /// Unordered: [`Counters::snapshot`] sorts.
    inner: RwLock<FastMap<&'static str, AtomicU64>>,
}

impl Default for Counters {
    fn default() -> Self {
        Self::new()
    }
}

impl Counters {
    pub fn new() -> Self {
        // Innermost tier: counters are bumped from inside arbitrary
        // critical sections across the workspace.
        Self { inner: RwLock::new(level::STATS, "simnet.counters", FastMap::default()) }
    }

    /// Add `n` to the counter named `name`, creating it at zero first if
    /// needed.
    pub fn add(&self, name: &'static str, n: u64) {
        {
            let map = self.inner.read();
            if let Some(c) = map.get(name) {
                c.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        let mut map = self.inner.write();
        map.entry(name).or_insert_with(|| AtomicU64::new(0)).fetch_add(n, Ordering::Relaxed);
    }

    /// Increment the counter by one.
    pub fn incr(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of a counter (0 if it was never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.inner.read().get(name).map(|c| c.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = self
            .inner
            .read()
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        all.sort_unstable();
        all
    }

    /// Reset every counter to zero (keeps the names).
    pub fn reset(&self) {
        for c in self.inner.read().values() {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.snapshot()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn add_get_snapshot() {
        let c = Counters::new();
        assert_eq!(c.get("hits"), 0);
        c.incr("hits");
        c.add("hits", 4);
        c.incr("misses");
        assert_eq!(c.get("hits"), 5);
        assert_eq!(c.get("misses"), 1);
        let snap = c.snapshot();
        assert_eq!(snap, vec![("hits".to_string(), 5), ("misses".to_string(), 1)]);
    }

    #[test]
    fn reset_keeps_names() {
        let c = Counters::new();
        c.add("x", 9);
        c.reset();
        assert_eq!(c.get("x"), 0);
        assert_eq!(c.snapshot().len(), 1);
    }

    /// Exact sort-based percentile with the same rank convention the
    /// histogram promises.
    fn exact_percentile(samples: &[u64], q: f64) -> u64 {
        let mut v = samples.to_vec();
        v.sort_unstable();
        v[((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
    }

    /// Deterministic pseudo-random stream (splitmix64) for sample sets.
    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn histogram_empty_and_single_sample() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.min(), None);

        let mut h = LatencyHistogram::new();
        h.record(12_345);
        assert_eq!(h.count(), 1);
        // A single sample is every percentile, exactly (clamped to the
        // recorded extrema, so no quantization shows through).
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), Some(12_345), "q={q}");
        }
        assert_eq!(h.max(), Some(12_345));
        assert_eq!(h.min(), Some(12_345));
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3, 31, 31, 31] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(0));
        assert_eq!(h.percentile(1.0), Some(31));
        assert_eq!(h.percentile(0.5), Some(3));
    }

    #[test]
    fn histogram_matches_exact_percentiles_on_random_samples() {
        // Several scales, mixing sub-32 exact values, mid-range and huge
        // values; the histogram's relative error is bounded by 1/32.
        let mut seed = 7u64;
        for (lo, hi) in [(0u64, 64), (0, 100_000), (1_000, 1u64 << 40), (0, u64::MAX / 2)] {
            let samples: Vec<u64> =
                (0..5_000).map(|_| lo + splitmix(&mut seed) % (hi - lo + 1)).collect();
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            assert_eq!(h.count(), samples.len() as u64);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = exact_percentile(&samples, q);
                let got = h.percentile(q).unwrap();
                // Upper-bound convention: never below exact by more than
                // one bucket, never above by more than the bucket width.
                let tol = exact / 32 + 1;
                assert!(
                    got >= exact.saturating_sub(tol) && got <= exact.saturating_add(tol),
                    "range ({lo},{hi}) q={q}: got {got}, exact {exact}, tol {tol}"
                );
            }
        }
    }

    #[test]
    fn histogram_record_n_and_merge() {
        let mut a = LatencyHistogram::new();
        a.record_n(100, 10);
        a.record_n(100, 0); // no-op
        let mut b = LatencyHistogram::new();
        b.record_n(1_000_000, 30);
        a.merge(&b);
        assert_eq!(a.count(), 40);
        assert_eq!(a.min(), Some(100));
        assert_eq!(a.max(), Some(1_000_000));
        // p25 lands in the 100s, p75 in the 1_000_000s (within 1/32).
        let p10 = a.percentile(0.1).unwrap();
        assert!((100..=104).contains(&p10), "{p10}");
        let p90 = a.percentile(0.9).unwrap();
        assert!((1_000_000..=1_000_000 + 1_000_000 / 32).contains(&p90), "{p90}");
    }

    #[test]
    fn histogram_extreme_values_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
        assert_eq!(h.percentile(0.0), Some(0));
    }

    #[test]
    fn concurrent_increments_sum() {
        let c = Arc::new(Counters::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.incr("n");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get("n"), 4000);
    }
}
