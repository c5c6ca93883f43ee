//! A log₂-bucket latency histogram.
//!
//! [`Histogram`] is a standalone value that threads share by reference;
//! nothing registers it process-wide.
//!
//! ```
//! use vtx_telemetry::metrics::Histogram;
//!
//! let h = Histogram::new();
//! h.record(1500);
//! h.record(0);
//! assert_eq!(h.count(), 2);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket `i` covers `[2^(i-1), 2^i)` (bucket 0
/// holds zeros), so 65 buckets cover the whole `u64` range.
const BUCKETS: usize = 65;

/// A log₂-bucket histogram of `u64` samples (typically microseconds).
///
/// Recording is one atomic increment; quantile summaries report the upper
/// bound of the bucket containing the requested rank, so they overestimate
/// by at most 2× — the right trade for "is p99 10µs or 10ms?" questions.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// p50/p90/p99 plus count and mean, as reported by [`Histogram::summary`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
struct HistogramSummary {
    /// Total samples recorded.
    pub(crate) count: u64,
    /// Mean sample value.
    pub(crate) mean: f64,
    /// Median upper bound.
    pub(crate) p50: u64,
    /// 90th-percentile upper bound.
    pub(crate) p90: u64,
    /// 99th-percentile upper bound.
    pub(crate) p99: u64,
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 < q <= 1.0`).
    ///
    /// # Empty input
    ///
    /// An empty histogram returns 0 for every `q` — callers never see a
    /// sentinel or panic, matching `LatencyStats::from_samples` in the
    /// serving layer (empty → all-zero stats). Out-of-range `q` values are
    /// clamped into the valid rank range rather than rejected.
    #[cfg(test)]
    fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Rank of the quantile sample, 1-based, clamped into [1, total].
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i: 2^i - 1 (0 for the zero bucket);
                // bucket 64 covers up to u64::MAX, where 1 << 64 would
                // overflow.
                return match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
            }
        }
        u64::MAX
    }

    /// The p50/p90/p99 summary.
    #[cfg(test)]
    fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let mean = if count == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / count as f64
        };
        HistogramSummary {
            count,
            mean,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps a slash-separated name (e.g. `serve/sojourn_us`) to a valid Prometheus
/// metric name: every character outside `[a-zA-Z0-9_:]` becomes `_`, and a
/// leading digit gets a `_` prefix so the result matches
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
#[cfg(test)]
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let valid =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if valid {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    /// Reference quantile: sort the raw samples, take the 1-based
    /// `ceil(q*n)`-th.
    fn reference_quantile(samples: &[u64], q: f64) -> u64 {
        let mut s = samples.to_vec();
        s.sort_unstable();
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        s[rank - 1]
    }

    /// Property-style check against the reference computation over several
    /// deterministic pseudo-random distributions: the histogram quantile
    /// must bracket the true quantile from above within its 2x bucket
    /// resolution.
    #[test]
    fn quantiles_track_reference_within_bucket_resolution() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        for dist in 0..6 {
            let h = Histogram::new();
            let samples: Vec<u64> = (0..5000)
                .map(|i| match dist {
                    0 => next() % 100,             // near-uniform small
                    1 => next() % 1_000_000,       // uniform wide
                    2 => 1u64 << (next() % 20),    // exponential-ish
                    3 => 50,                       // constant
                    4 => i % 7,                    // tiny values incl. zero
                    _ => (next() % 10).pow(3) + 1, // skewed
                })
                .collect();
            for &s in &samples {
                h.record(s);
            }
            for q in [0.5, 0.9, 0.99] {
                let reference = reference_quantile(&samples, q);
                let estimate = h.quantile(q);
                assert!(
                    estimate >= reference,
                    "dist {dist} q {q}: estimate {estimate} < reference {reference}"
                );
                // Upper bucket bound overestimates by < 2x (plus the
                // zero-bucket edge case).
                assert!(
                    estimate <= reference.saturating_mul(2).max(1),
                    "dist {dist} q {q}: estimate {estimate} > 2x reference {reference}"
                );
            }
        }
    }

    #[test]
    fn summary_of_empty_histogram() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!((s.p50, s.p90, s.p99), (0, 0, 0));
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero_for_all_q() {
        let h = Histogram::new();
        for q in [0.001, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            // Upper bound of v's bucket; bucket 64 saturates at u64::MAX.
            let expect = match bucket_of(v) {
                0 => 0,
                64 => u64::MAX,
                b => (1u64 << b) - 1,
            };
            for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), expect, "v={v} q={q}");
            }
            let s = h.summary();
            assert_eq!(s.count, 1);
            if v < u64::MAX {
                assert_eq!(s.mean, v as f64);
            }
            assert_eq!((s.p50, s.p90, s.p99), (expect, expect, expect));
        }
    }

    #[test]
    fn quantile_at_bucket_boundaries() {
        // Samples 1, 2, 4 land in buckets 1, 2, 3 with upper bounds 1, 3, 7.
        let h = Histogram::new();
        h.record(1);
        h.record(2);
        h.record(4);
        // Ranks: q<=1/3 -> bucket 1, q<=2/3 -> bucket 2, else bucket 3.
        assert_eq!(h.quantile(0.33), 1);
        assert_eq!(h.quantile(0.34), 3); // ceil(0.34*3)=2nd sample
        assert_eq!(h.quantile(0.66), 3);
        assert_eq!(h.quantile(0.67), 7);
        assert_eq!(h.quantile(1.0), 7);
        // A power of two sits in the bucket *above* its predecessor: the
        // boundary value 4 must never be reported as 3.
        let hb = Histogram::new();
        hb.record(4);
        assert!(hb.quantile(0.5) >= 4);
    }

    #[test]
    fn zero_samples_stay_in_the_zero_bucket() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(5);
        // p50 over 11 samples is a zero; p99 is the 5.
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 7);
        let s = h.summary();
        assert_eq!(s.count, 11);
        assert!((s.mean - 5.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_rank_clamps_out_of_range_q() {
        let h = Histogram::new();
        h.record(8);
        // q above 1.0 or far below 1/count still clamps into [1, total].
        assert_eq!(h.quantile(2.0), 15);
        assert_eq!(h.quantile(1e-9), 15);
    }

    #[test]
    fn sanitize_produces_valid_prometheus_names() {
        assert_eq!(sanitize_metric_name("serve/sojourn_us"), "serve_sojourn_us");
        assert_eq!(sanitize_metric_name("a-b.c d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name("ok_name:sub"), "ok_name:sub");
        assert_eq!(sanitize_metric_name(""), "_");
        for name in ["serve/x", "違法", "1/2", "__ok__"] {
            let s = sanitize_metric_name(name);
            let mut chars = s.chars();
            let first = chars.next().unwrap();
            assert!(
                first.is_ascii_alphabetic() || first == '_' || first == ':',
                "{s}"
            );
            assert!(
                chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{s}"
            );
        }
    }
}
