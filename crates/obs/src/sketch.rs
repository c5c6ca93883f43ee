//! Deterministic quantile sketches.
//!
//! A [`QuantileSketch`] is a log₂-linear (HDR-histogram-style) bucketing of
//! `u64` samples: values below `2^K` land in exact unit buckets; above that,
//! each power-of-two decade is split into `2^K` linear sub-buckets, so every
//! bucket spans at most a `1 + 2^-K` ratio and the reported bucket midpoint
//! is within a relative error of `2^-(K+1)` of any sample in it
//! ([`QuantileSketch::RELATIVE_ERROR_BOUND`]).
//!
//! The counts live in a dense array indexed by bucket, grown to the largest
//! bucket seen (at most 1,920 entries, ~700 for microsecond sojourns under
//! an hour), so a record is one increment. Everything is integer
//! arithmetic, so recording and quantile queries are byte-deterministic
//! across platforms — no floating-point logarithms.

/// Sub-bucket resolution: each power-of-two decade is split into `2^K`
/// linear buckets.
const K: u32 = 5;

/// Number of exact unit buckets (values `< LINEAR_MAX` are stored exactly).
const LINEAR_MAX: u64 = 1 << (K + 1);

/// A quantile sketch over `u64` samples (typically microseconds).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Samples per bucket index; as long as the largest index recorded.
    buckets: Vec<u64>,
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
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = index_of(v) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub(crate) fn sum(&self) -> u128 {
        self.sum
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
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report outside the observed range: exact min/max
                // tighten the bucket estimate at the distribution edges.
                return bucket_mid(idx as u32).clamp(self.min, self.max);
            }
        }
        self.max
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
        assert_eq!((s.count(), s.sum(), s.max), (0, 0, 0));
        for q in [0u32, 500, 950, 990, 1000] {
            assert_eq!(s.quantile_permille(q), 0);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in [0u64, 1, 2, 3, 5, 8, 13, 21, 34, 55] {
            s.record(v);
        }
        assert_eq!(s.quantile_permille(500), 5);
        assert_eq!(s.quantile_permille(1000), 55);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 55);
    }

    /// The seeded streams the tests share: four shapes, a ramp, and the
    /// whole `u64` range with its top values.
    fn streams() -> Vec<Vec<u64>> {
        let mut rng = SplitMix64::new(7);
        (0..6)
            .map(|dist| {
                (0..4000u64)
                    .map(|i| match dist {
                        0 => rng.next_u64() % 1_000_000,
                        1 => 1u64 << (rng.next_u64() % 30),
                        2 => (rng.next_u64() % 1000).pow(2),
                        3 => 10_000 + rng.next_u64() % 64,
                        4 => i,
                        _ if i % 7 == 0 => u64::MAX - i,
                        _ => rng.next_u64() >> (rng.next_u64() % 64),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn quantiles_stay_within_relative_error_bound() {
        for (dist, samples) in streams().iter().enumerate().take(5) {
            let mut s = QuantileSketch::new();
            for &v in samples {
                s.record(v);
            }
            for q in [500u32, 900, 950, 990, 999] {
                let exact = exact_quantile(samples, q);
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
    fn every_reading_equals_the_nearest_rank_oracle() {
        // The rank-th sample's bucket is the bucket holding the rank-th
        // sample, so a reading is the exact nearest-rank sample's bucket
        // midpoint, clamped to the observed range — at every permille,
        // after every prefix length the loop reaches.
        for (dist, samples) in streams().iter().enumerate() {
            let mut s = QuantileSketch::new();
            for (n, &v) in samples.iter().enumerate() {
                s.record(v);
                if n % 997 != 0 && n + 1 != samples.len() {
                    continue;
                }
                let seen = &samples[..=n];
                let (lo, hi) = (*seen.iter().min().unwrap(), *seen.iter().max().unwrap());
                assert_eq!(s.count(), seen.len() as u64, "dist {dist}");
                let sum: u128 = seen.iter().map(|&v| u128::from(v)).sum();
                assert_eq!(s.sum(), sum, "dist {dist}");
                for q in (0..=1000u32).step_by(7).chain([500, 950, 990, 999, 1000]) {
                    let exact = exact_quantile(seen, q);
                    let want = bucket_mid(index_of(exact)).clamp(lo, hi);
                    assert_eq!(s.quantile_permille(q), want, "dist {dist} n {n} q {q}");
                }
            }
        }
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
