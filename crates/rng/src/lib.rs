//! The workspace's only randomness source.
//!
//! Every report in this repository is *byte-identical* across runs and
//! platforms, so nothing may depend on an external RNG crate whose stream
//! might change between versions. Two generators live here:
//!
//! - [`SplitMix64`]: 10 lines, passes BigCrush, and — crucially — supports
//!   cheap independent streams via [`derive()`], which the serving cost model
//!   uses to make per-(job, server) service noise a pure function of
//!   `(seed, job, server)` rather than of the order in which a policy
//!   happens to probe pairs. Fault plans use it too.
//! - [`Xoshiro256pp`]: the clip synthesizer's generator, seeded through
//!   SplitMix64. Its stream and range arithmetic are what every pinned
//!   digest under `perf/baseline/` was recorded with.
//!
//! There is no LTO, so everything drawn per pixel or per (job, server) pair
//! is `#[inline]`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn next_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Modulo bias is < 2^-40 for the n used here (catalog sizes, fleet
        // sizes); irrelevant next to determinism.
        self.next_u64() % n
    }

    /// Exponentially distributed sample with the given mean (inverse-CDF).
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        let u = self.next_f64();
        // 1 - u is in (0, 1], so ln is finite.
        -mean * (1.0 - u).ln()
    }

    /// Picks an index according to (unnormalized, nonnegative) weights.
    /// Falls back to index 0 when all weights are zero.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return 0;
        }
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

/// Hash-combines a seed with a stream id into an independent SplitMix64
/// seed. Used to give every (job, server) pair its own noise stream that is
/// independent of dispatch order.
#[inline]
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// 53 random bits as a float in `[0, 1)`.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256++ (Blackman & Vigna 2019).
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator whose state is the first four outputs of
    /// `SplitMix64::new(seed)`.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp {
            s: std::array::from_fn(|_| sm.next_u64()),
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[lo, hi)`; `lo < hi`.
    #[inline]
    pub fn next_f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "next_f64_in: empty range");
        loop {
            // Rounding can land on `hi`; draw again.
            let v = lo + (hi - lo) * unit_f64(self.next_u64());
            if v < hi {
                return v;
            }
        }
    }

    /// Uniform in `[lo, hi]`; `lo <= hi`.
    #[inline]
    pub fn next_f64_in_inclusive(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "next_f64_in_inclusive: empty range");
        lo + (hi - lo) * unit_f64(self.next_u64())
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn next_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform integer in `[lo, hi)`; `lo < hi`.
    #[inline]
    pub fn next_i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "next_i64_in: empty range");
        lo.wrapping_add(self.next_range(hi.wrapping_sub(lo) as u64) as i64)
    }

    /// A fair coin (the top bit).
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// A uniform byte (the top eight bits).
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exp_has_roughly_the_requested_mean() {
        let mut r = SplitMix64::new(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(2.0)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn weighted_pick_respects_zero_weights() {
        let mut r = SplitMix64::new(3);
        for _ in 0..100 {
            let i = r.pick_weighted(&[0.0, 1.0, 0.0]);
            assert_eq!(i, 1);
        }
        assert_eq!(r.pick_weighted(&[0.0, 0.0]), 0);
    }

    #[test]
    fn derive_streams_are_order_free() {
        // The same (seed, stream) always yields the same sub-seed.
        assert_eq!(derive(42, 7), derive(42, 7));
        assert_ne!(derive(42, 7), derive(42, 8));
        assert_ne!(derive(41, 7), derive(42, 7));
    }

    #[test]
    fn xoshiro_stream_is_pinned() {
        // xoshiro256++ from SplitMix64(0): the reference implementation's
        // first output for this seeding.
        assert_eq!(Xoshiro256pp::new(0).next_u64(), 5987356902031041503);
        let mut a = Xoshiro256pp::new(42);
        let mut b = Xoshiro256pp::new(42);
        let mut c = Xoshiro256pp::new(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn xoshiro_draws_stay_in_range() {
        let mut r = Xoshiro256pp::new(7);
        let mut heads = 0;
        for _ in 0..10_000 {
            assert!((-2.5..4.0).contains(&r.next_f64_in(-2.5, 4.0)));
            assert!((-1.0..=1.0).contains(&r.next_f64_in_inclusive(-1.0, 1.0)));
            assert!((-3..3).contains(&r.next_i64_in(-3, 3)));
            assert!(r.next_range(10) < 10);
            heads += u32::from(r.next_bool());
        }
        assert!((4_500..5_500).contains(&heads), "heads {heads}");
        assert_eq!(r.next_f64_in_inclusive(2.0, 2.0), 2.0);
    }
}
