//! Set-associative LRU cache model.
//!
//! The model is *functional* (hit/miss only, no timing inside the cache;
//! latency attribution happens in [`crate::interval`]) and operates on
//! 64-byte cache-line addresses, which is the granularity at which the
//! instrumented transcoder emits memory events.

use crate::ConfigError;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Number of ways.
    pub assoc: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Load-to-use latency in cycles (used by the interval model).
    pub latency: u32,
}

impl CacheParams {
    /// Convenience constructor with 64-byte lines.
    pub fn new(size_kib: u64, assoc: u32, latency: u32) -> Self {
        CacheParams {
            size_bytes: size_kib * 1024,
            assoc,
            line_bytes: 64,
            latency,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.assoc) * u64::from(self.line_bytes))
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any field is zero, the capacity is not an
    /// exact multiple of `assoc * line_bytes`, or the set count is not a
    /// power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.size_bytes == 0 {
            return Err(ConfigError::Zero { what: "cache size" });
        }
        if self.assoc == 0 {
            return Err(ConfigError::Zero {
                what: "cache associativity",
            });
        }
        if self.line_bytes == 0 {
            return Err(ConfigError::Zero {
                what: "cache line size",
            });
        }
        let way_bytes = u64::from(self.assoc) * u64::from(self.line_bytes);
        if !self.size_bytes.is_multiple_of(way_bytes) {
            return Err(ConfigError::BadCacheGeometry {
                size: self.size_bytes,
                assoc: self.assoc,
                line: self.line_bytes,
            });
        }
        let sets = self.num_sets();
        if !sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "cache set count",
                value: sets,
            });
        }
        Ok(())
    }
}

/// Hit/miss counters for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total lookups.
    pub accesses: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Lookups take *line numbers* (byte address divided by the line size); the
/// caller is responsible for that division, which lets the instrumentation
/// layer emit line-granular events directly.
///
/// # Example
///
/// ```
/// use vtx_uarch::cache::{Cache, CacheParams};
///
/// let mut c = Cache::new(CacheParams::new(32, 8, 4)).unwrap();
/// assert!(!c.access_line(100)); // cold miss
/// assert!(c.access_line(100));  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    set_mask: u64,
    set_shift: u32,
    // ways[set * assoc + way] = line tag (u64::MAX = invalid)
    tags: Vec<u64>,
    // LRU order: lower = more recently used
    lru: Vec<u32>,
    stats: CacheStats,
}

const INVALID: u64 = u64::MAX;

impl Cache {
    /// Builds a cache from validated parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheParams::validate`] failures.
    pub fn new(params: CacheParams) -> Result<Self, ConfigError> {
        params.validate()?;
        let sets = params.num_sets();
        let ways = params.assoc as usize;
        Ok(Cache {
            params,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            tags: vec![INVALID; sets as usize * ways],
            lru: (0..sets as usize * ways)
                .map(|i| (i % ways) as u32)
                .collect(),
            stats: CacheStats::default(),
        })
    }

    /// The cache geometry.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Looks up a line, inserting it on miss. Returns `true` on hit.
    pub fn access_line(&mut self, line: u64) -> bool {
        self.stats.accesses += 1;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = self.params.assoc as usize;
        let base = set * ways;

        let mut hit_way = None;
        for w in 0..ways {
            if self.tags[base + w] == tag {
                hit_way = Some(w);
                break;
            }
        }
        match hit_way {
            Some(w) => {
                self.touch(base, ways, w);
                true
            }
            None => {
                self.stats.misses += 1;
                // Find LRU victim (highest lru value).
                let mut victim = 0;
                let mut worst = 0;
                for w in 0..ways {
                    if self.lru[base + w] >= worst {
                        worst = self.lru[base + w];
                        victim = w;
                    }
                }
                self.tags[base + victim] = tag;
                self.touch(base, ways, victim);
                false
            }
        }
    }

    /// Probes for a line without updating contents or statistics.
    pub fn contains_line(&self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = self.params.assoc as usize;
        (0..ways).any(|w| self.tags[set * ways + w] == tag)
    }

    /// Invalidates all contents (statistics are preserved).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID);
    }

    #[inline]
    fn touch(&mut self, base: usize, ways: usize, used: usize) {
        let cur = self.lru[base + used];
        for w in 0..ways {
            if self.lru[base + w] < cur {
                self.lru[base + w] += 1;
            }
        }
        self.lru[base + used] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B
        Cache::new(CacheParams {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            latency: 1,
        })
        .unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheParams::new(32, 8, 4).validate().is_ok());
        assert!(CacheParams {
            size_bytes: 0,
            assoc: 8,
            line_bytes: 64,
            latency: 1
        }
        .validate()
        .is_err());
        // 3 sets -> not a power of two
        assert!(CacheParams {
            size_bytes: 3 * 2 * 64,
            assoc: 2,
            line_bytes: 64,
            latency: 1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access_line(7));
        assert!(c.access_line(7));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(); // 2 ways, set = line % 4
                            // Three lines mapping to set 0: 0, 4, 8
        c.access_line(0);
        c.access_line(4);
        c.access_line(0); // 0 is now MRU, 4 is LRU
        c.access_line(8); // evicts 4
        assert!(c.contains_line(0));
        assert!(!c.contains_line(4));
        assert!(c.contains_line(8));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for line in 0..4 {
            c.access_line(line);
        }
        for line in 0..4 {
            assert!(c.contains_line(line), "line {line}");
        }
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = tiny();
        c.access_line(1);
        c.flush();
        assert!(!c.contains_line(1));
        assert_eq!(c.stats().accesses, 1);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = Cache::new(CacheParams::new(1, 2, 1)).unwrap(); // 1 KiB = 16 lines
                                                                    // Stream 64 distinct lines twice: second pass must still miss heavily.
        for _ in 0..2 {
            for line in 0..64u64 {
                c.access_line(line);
            }
        }
        assert!(c.stats().miss_ratio() > 0.9);
    }

    #[test]
    fn working_set_within_capacity_hits() {
        let mut c = Cache::new(CacheParams::new(4, 4, 1)).unwrap(); // 64 lines
        for _ in 0..4 {
            for line in 0..32u64 {
                c.access_line(line);
            }
        }
        // first pass cold misses only
        assert_eq!(c.stats().misses, 32);
    }

    #[test]
    fn miss_ratio_empty_is_zero() {
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use vtx_rng::Xoshiro256pp;

    /// `1..max_len` line numbers below `universe`.
    fn lines(rng: &mut Xoshiro256pp, universe: u64, max_len: u64) -> Vec<u64> {
        let len = 1 + rng.next_range(max_len - 1);
        (0..len).map(|_| rng.next_range(universe)).collect()
    }

    /// Whatever the access sequence, the just-accessed line is resident
    /// and the stats identity holds.
    #[test]
    fn accessed_line_is_resident() {
        let mut rng = Xoshiro256pp::new(0xACCE55);
        for _ in 0..256 {
            let lines = lines(&mut rng, 10_000, 500);
            let mut c = Cache::new(CacheParams::new(4, 2, 1)).unwrap();
            for &l in &lines {
                c.access_line(l);
                assert!(c.contains_line(l));
            }
            assert_eq!(c.stats().accesses, lines.len() as u64);
            assert!(c.stats().misses <= c.stats().accesses);
        }
    }

    /// Repeating any sequence back-to-back never misses more the second
    /// time if the working set fits.
    #[test]
    fn second_pass_of_small_set_hits() {
        let mut rng = Xoshiro256pp::new(0x5EC09D);
        for _ in 0..256 {
            let lines = lines(&mut rng, 16, 64);
            // 4 KiB, 8-way = 64 lines: a 16-line universe always fits.
            let mut c = Cache::new(CacheParams::new(4, 8, 1)).unwrap();
            for &l in &lines {
                c.access_line(l);
            }
            let misses_after_warm = c.stats().misses;
            for &l in &lines {
                assert!(c.access_line(l), "line {l} should hit");
            }
            assert_eq!(c.stats().misses, misses_after_warm);
        }
    }
}
