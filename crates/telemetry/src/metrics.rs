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
/// Recording is one atomic increment of the sample's bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
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

    #[test]
    fn zero_samples_stay_in_the_zero_bucket() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(5);
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 10);
        assert_eq!(h.buckets[bucket_of(5)].load(Ordering::Relaxed), 1);
        assert_eq!(h.count(), 11);
    }
}
