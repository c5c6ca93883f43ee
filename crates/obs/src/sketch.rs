//! Deterministic mergeable quantile sketches.
//!
//! A [`QuantileSketch`] is a log₂-linear (HDR-histogram-style) bucketing of
//! `u64` samples: values below `2^K` land in exact unit buckets; above that,
//! each power-of-two decade is split into `2^K` linear sub-buckets, so every
//! bucket spans at most a `1 + 2^-K` ratio and the reported bucket midpoint
//! is within a relative error of `2^-(K+1)` of any sample in it
//! ([`QuantileSketch::RELATIVE_ERROR_BOUND`]).
//!
//! Everything is integer arithmetic over a sparse `BTreeMap`, so recording,
//! merging (bucketwise add in ascending key order) and quantile queries are
//! byte-deterministic across platforms — no floating-point logarithms, no
//! hash-map iteration order. Merge is associative and commutative, which is
//! what lets windowed sub-sketches be combined into live quantiles in any
//! grouping without changing the answer.

use std::collections::BTreeMap;

/// Sub-bucket resolution: each power-of-two decade is split into `2^K`
/// linear buckets.
const K: u32 = 5;

/// Number of exact unit buckets (values `< LINEAR_MAX` are stored exactly).
const LINEAR_MAX: u64 = 1 << (K + 1);

/// A mergeable quantile sketch over `u64` samples (typically microseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index of a value: exact below `2^(K+1)`, log₂-linear above.
fn index_of(v: u64) -> u32 {
    if v < LINEAR_MAX {
        return v as u32;
    }
    let e = 63 - v.leading_zeros(); // floor(log2 v), >= K+1 here
    let shift = e - K;
    // Decade `e` contributes 2^K buckets; v >> shift is in [2^K, 2^(K+1)).
    ((e - K) << K) + (v >> shift) as u32
}

/// The smallest value mapping to bucket `idx` (inverse of [`index_of`]).
fn bucket_lo(idx: u32) -> u64 {
    if (idx as u64) < LINEAR_MAX {
        return idx as u64;
    }
    let g = (idx >> K) - 1; // decades above the linear range
    let off = (idx & ((1 << K) - 1)) as u128;
    // u128 shift then saturate: indices past the top u64 bucket (idx ≥
    // 1920 for K=5) are never produced by index_of but bucket_mid probes
    // idx+1 of the top bucket.
    let lo = (((1u128 << K) + off) << g).min(u128::from(u64::MAX));
    lo as u64
}

/// The representative (midpoint) value reported for bucket `idx`.
fn bucket_mid(idx: u32) -> u64 {
    let lo = bucket_lo(idx);
    if (idx as u64) < LINEAR_MAX {
        return lo; // exact buckets
    }
    let width = bucket_lo(idx + 1).saturating_sub(lo);
    lo + width / 2
}

impl QuantileSketch {
    /// Worst-case relative error of a reported quantile versus the exact
    /// nearest-rank quantile over the same samples: `2^-(K+1)`.
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / (1u64 << (K + 1)) as f64;

    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        *self.buckets.entry(index_of(v)).or_insert(0) += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another sketch in (bucketwise add, ascending bucket order —
    /// the result is independent of merge grouping).
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (&idx, &c) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum (0 when empty — the zero-stats contract).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean, truncated (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / u128::from(self.count)) as u64
        }
    }

    /// The `q`-permille quantile (nearest-rank: the bucket holding the
    /// 1-based rank `ceil(q·n/1000)` sample, reported as that bucket's
    /// midpoint). `quantile_permille(500)` is the median, `990` the p99.
    /// Returns 0 when empty.
    pub fn quantile_permille(&self, q: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(self.count) * u128::from(q)).div_ceil(1000);
        let rank = rank.clamp(1, u128::from(self.count)) as u64;
        let mut seen = 0u64;
        for (&idx, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                // Never report outside the observed range: exact min/max
                // tighten the bucket estimate at the distribution edges.
                return bucket_mid(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// `(p50, p95, p99)` in one call.
    pub fn summary(&self) -> (u64, u64, u64) {
        (
            self.quantile_permille(500),
            self.quantile_permille(950),
            self.quantile_permille(990),
        )
    }

    /// One deterministic text line encoding the full sketch state —
    /// byte-comparable across runs and platforms.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(32 + self.buckets.len() * 8);
        let _ = write!(
            out,
            "k={K} n={} sum={} min={} max={} buckets=",
            self.count,
            self.sum,
            self.min(),
            self.max
        );
        for (i, (&idx, &c)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{idx}:{c}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_rng::SplitMix64;

    fn exact_quantile(samples: &[u64], q_permille: u32) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let rank = (s.len() as u128 * u128::from(q_permille))
            .div_ceil(1000)
            .clamp(1, s.len() as u128) as usize;
        s[rank - 1]
    }

    #[test]
    fn index_is_monotone_and_invertible_at_bucket_lo() {
        // Top representable bucket for K=5: e=63 ⇒ idx < (63-5+1)·32 = 1888+32.
        let top = index_of(u64::MAX);
        assert_eq!(top, 1919);
        let mut prev = 0;
        for idx in 0..=top {
            let lo = bucket_lo(idx);
            assert_eq!(index_of(lo), idx, "bucket_lo inverts index_of at {idx}");
            assert!(idx == 0 || lo > prev, "bucket lows strictly increase");
            prev = lo;
        }
        // Spot-check boundary values map into the right bucket.
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1 << 20, u64::MAX] {
            let idx = index_of(v);
            assert!(bucket_lo(idx) <= v, "v={v}");
            assert!(
                idx == top || v < bucket_lo(idx + 1),
                "v={v} spills past bucket {idx}"
            );
        }
    }

    #[test]
    fn empty_sketch_is_all_zeros() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile_permille(500), 0);
        assert_eq!(s.quantile_permille(990), 0);
        assert_eq!((s.min(), s.max(), s.mean()), (0, 0, 0));
        assert_eq!(s.summary(), (0, 0, 0));
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [0u64, 1, 2, 3, 5, 8, 13, 21, 34, 55] {
            s.record(v);
        }
        assert_eq!(s.quantile_permille(500), 5);
        assert_eq!(s.quantile_permille(1000), 55);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 55);
    }

    #[test]
    fn quantiles_stay_within_relative_error_bound() {
        let mut rng = SplitMix64::new(7);
        for dist in 0..5 {
            let samples: Vec<u64> = (0..4000)
                .map(|i| match dist {
                    0 => rng.next_u64() % 1_000_000,
                    1 => 1u64 << (rng.next_u64() % 30),
                    2 => (rng.next_u64() % 1000).pow(2),
                    3 => 10_000 + rng.next_u64() % 64,
                    _ => i,
                })
                .collect();
            let mut s = QuantileSketch::new();
            for &v in &samples {
                s.record(v);
            }
            for q in [500u32, 900, 950, 990, 999] {
                let exact = exact_quantile(&samples, q);
                let est = s.quantile_permille(q);
                let err = est.abs_diff(exact) as f64;
                let bound = exact as f64 * QuantileSketch::RELATIVE_ERROR_BOUND + 1.0;
                assert!(
                    err <= bound,
                    "dist {dist} q {q}: est {est} vs exact {exact} (err {err} > {bound})"
                );
            }
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one_sketch() {
        let mut rng = SplitMix64::new(42);
        let samples: Vec<u64> = (0..3000).map(|_| rng.next_u64() % 500_000).collect();
        let mut whole = QuantileSketch::new();
        for &v in &samples {
            whole.record(v);
        }
        // Split into uneven chunks, merge in two different groupings.
        let mut parts: Vec<QuantileSketch> = Vec::new();
        for chunk in samples.chunks(700) {
            let mut p = QuantileSketch::new();
            for &v in chunk {
                p.record(v);
            }
            parts.push(p);
        }
        let mut left_to_right = QuantileSketch::new();
        for p in &parts {
            left_to_right.merge(p);
        }
        let mut pairwise = QuantileSketch::new();
        for pair in parts.chunks(2) {
            let mut m = QuantileSketch::new();
            for p in pair {
                m.merge(p);
            }
            pairwise.merge(&m);
        }
        assert_eq!(whole, left_to_right);
        assert_eq!(whole, pairwise);
        assert_eq!(whole.encode(), pairwise.encode());
    }

    #[test]
    fn encode_is_deterministic_and_complete() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for v in [3u64, 70_000, 3, 999_999_999] {
            a.record(v);
            b.record(v);
        }
        assert_eq!(a.encode(), b.encode());
        assert!(a.encode().starts_with("k=5 n=4 "));
        assert!(a.encode().contains("3:2"), "{}", a.encode());
    }

    #[test]
    fn single_sample_reports_itself_within_bound() {
        for v in [0u64, 1, 63, 64, 1000, 123_456_789] {
            let mut s = QuantileSketch::new();
            s.record(v);
            let est = s.quantile_permille(990);
            let bound = (v as f64 * QuantileSketch::RELATIVE_ERROR_BOUND) as u64 + 1;
            assert!(est.abs_diff(v) <= bound, "v={v} est={est}");
        }
    }
}
