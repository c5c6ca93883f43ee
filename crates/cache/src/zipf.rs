//! Zipf popularity over a finite catalog.
//!
//! Video popularity in production CDNs is famously heavy-tailed: a small
//! head of titles absorbs most requests. We model it as Zipf(s): item of
//! rank `i` (0-based) gets weight `(i + 1)^-s`. The sampler precomputes
//! the normalized CDF once and maps a caller-supplied uniform draw to a
//! rank by binary search, so it composes with any RNG the caller already
//! threads through its draw sequence (the workload generator hands it the
//! same SplitMix64 stream it uses for everything else, keeping trace
//! generation byte-deterministic).

/// Inverse-CDF sampler for a Zipf(s) distribution over `n` ranks.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// `cdf[i]` = P(rank <= i); strictly increasing, last element 1.0.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build the CDF table for `n` ranks with skew `s`.
    ///
    /// `s = 0` degenerates to uniform; `s = 1` is the classic Zipf head
    /// (~rank-1 gets 1/H_n of the mass). `n` must be nonzero and `s`
    /// finite and nonnegative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf catalog must be nonempty");
        assert!(s.is_finite() && s >= 0.0, "zipf skew must be finite >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += ((i + 1) as f64).powf(-s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against float slop: the last bucket must catch u -> 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Map a uniform draw `u` in `[0, 1)` to a rank below the catalog size.
    pub fn sample(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u), "u must be in [0,1)");
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic low-discrepancy probe: a dense grid of uniforms.
    fn grid_frequencies(z: &ZipfSampler, draws: usize) -> Vec<u64> {
        let mut freq = vec![0u64; z.cdf.len()];
        for i in 0..draws {
            let u = (i as f64 + 0.5) / draws as f64;
            freq[z.sample(u)] += 1;
        }
        freq
    }

    #[test]
    fn uniform_when_skew_zero() {
        let z = ZipfSampler::new(8, 0.0);
        let freq = grid_frequencies(&z, 8000);
        for &f in &freq {
            assert!((f as i64 - 1000).abs() <= 1, "near-uniform: {freq:?}");
        }
    }

    #[test]
    fn frequency_sanity_classic_zipf() {
        // Zipf(1.0) over 10 ranks: head mass 1/H_10 ~ 0.341, and the
        // rank frequencies must be non-increasing.
        let z = ZipfSampler::new(10, 1.0);
        let freq = grid_frequencies(&z, 100_000);
        for w in freq.windows(2) {
            assert!(w[0] >= w[1], "monotone non-increasing: {freq:?}");
        }
        let head = freq[0] as f64 / 100_000.0;
        assert!((head - 0.3414).abs() < 0.01, "head mass {head}");
        // Rank 0 must dominate rank 9 by roughly 10x.
        assert!(freq[0] > 8 * freq[9], "head/tail ratio: {freq:?}");
    }

    #[test]
    fn sample_edges() {
        let z = ZipfSampler::new(4, 1.2);
        assert_eq!(z.sample(0.0), 0);
        // Just below 1.0 lands on the last rank's bucket boundary side.
        assert_eq!(z.sample(0.999_999_9), 3);
        assert_eq!(z.cdf.len(), 4);
        // The rank masses telescope to the last CDF entry.
        assert!((z.cdf[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_rank_catalog() {
        let z = ZipfSampler::new(1, 1.0);
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(0.5), 0);
    }
}
