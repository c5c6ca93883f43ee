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
    sets: LruSets,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from validated parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheParams::validate`] failures.
    pub fn new(params: CacheParams) -> Result<Self, ConfigError> {
        params.validate()?;
        Ok(Cache {
            params,
            sets: LruSets::new(params.num_sets(), params.assoc as usize),
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
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        self.stats.accesses += 1;
        let hit = self.sets.access(line);
        self.stats.misses += u64::from(!hit);
        hit
    }

    /// Probes for a line without updating contents or statistics.
    pub fn contains_line(&self, line: u64) -> bool {
        self.sets.contains(line)
    }

    /// Invalidates all contents (statistics are preserved).
    pub fn flush(&mut self) {
        self.sets.flush();
    }
}

/// The set-associative true-LRU store under both [`Cache`] and
/// [`crate::tlb::Tlb`]: one row of `ways` slots per set, kept in recency
/// order (most recently used first).
///
/// A slot holds `tag + 1`, so `0` means empty, a fresh store is all-zero
/// (one `calloc`, no per-slot initialisation) and an empty slot can never
/// match a lookup. Empty slots are always the tail of their row: a miss
/// shifts the row right by one, dropping the last slot — the least recently
/// used entry, or an empty one while the set is still filling — and a hit at
/// position `p` rotates `row[0..=p]` right by one. That is exactly the order
/// per-way age counters would maintain, without the counters.
#[derive(Debug, Clone)]
pub(crate) struct LruSets {
    ways: usize,
    set_mask: u64,
    set_shift: u32,
    rows: Vec<u64>,
}

impl LruSets {
    /// `sets` must be a power of two and `ways` non-zero (the callers'
    /// validation guarantees both).
    pub(crate) fn new(sets: u64, ways: usize) -> Self {
        debug_assert!(sets.is_power_of_two() && ways > 0);
        LruSets {
            ways,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            rows: vec![0; sets as usize * ways],
        }
    }

    /// Start of `key`'s row and the slot value that stands for `key` there.
    #[inline]
    fn locate(&self, key: u64) -> (usize, u64) {
        let tag = key >> self.set_shift;
        // The one key a `+ 1` slot cannot hold. It needs a single-set store
        // and key `u64::MAX`; no line or page number gets there (addresses
        // are divided by at least 64 first).
        debug_assert!(tag != u64::MAX, "key {key:#x} has no slot encoding");
        ((key & self.set_mask) as usize * self.ways, tag + 1)
    }

    /// Looks `key` up and makes it the most recently used entry of its set,
    /// evicting the least recently used one if it was absent. Returns `true`
    /// on hit.
    #[inline]
    pub(crate) fn access(&mut self, key: u64) -> bool {
        let (base, slot) = self.locate(key);
        let row = &mut self.rows[base..base + self.ways];
        // The walk below would find this too; re-touching the MRU entry is
        // the common case and measurably cheaper as one compare, no store.
        if row[0] == slot {
            return true;
        }
        // Walk the row carrying the entry that slides one place down.
        let mut carry = slot;
        for s in row.iter_mut() {
            std::mem::swap(s, &mut carry);
            if carry == slot {
                return true;
            }
        }
        false
    }

    /// Probes for `key` without touching recency.
    pub(crate) fn contains(&self, key: u64) -> bool {
        let (base, slot) = self.locate(key);
        self.rows[base..base + self.ways].contains(&slot)
    }

    /// Empties every set.
    pub(crate) fn flush(&mut self) {
        self.rows.fill(0);
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

/// The per-way rank-counter LRU that [`LruSets`] replaced, kept as the
/// oracle: tags beside ranks (lower = more recent, always a permutation of
/// the ways), every rank below the touched one bumped on each access.
#[cfg(test)]
pub(crate) mod oracle {
    const INVALID: u64 = u64::MAX;

    pub(crate) struct RankLru {
        ways: usize,
        set_mask: u64,
        set_shift: u32,
        tags: Vec<u64>,
        lru: Vec<u32>,
    }

    impl RankLru {
        pub(crate) fn new(sets: u64, ways: usize) -> Self {
            RankLru {
                ways,
                set_mask: sets - 1,
                set_shift: sets.trailing_zeros(),
                tags: vec![INVALID; sets as usize * ways],
                lru: (0..sets as usize * ways)
                    .map(|i| (i % ways) as u32)
                    .collect(),
            }
        }

        pub(crate) fn access(&mut self, key: u64) -> bool {
            let base = (key & self.set_mask) as usize * self.ways;
            let tag = key >> self.set_shift;
            let ways = base..base + self.ways;
            let hit = ways.clone().find(|&w| self.tags[w] == tag);
            let used = hit.unwrap_or_else(|| {
                // No ties: ranks are a permutation, so this is the oldest way.
                ways.clone().max_by_key(|&w| self.lru[w]).expect("ways > 0")
            });
            self.tags[used] = tag;
            let cur = self.lru[used];
            for w in ways {
                if self.lru[w] < cur {
                    self.lru[w] += 1;
                }
            }
            self.lru[used] = 0;
            hit.is_some()
        }

        pub(crate) fn contains(&self, key: u64) -> bool {
            let base = (key & self.set_mask) as usize * self.ways;
            self.tags[base..base + self.ways].contains(&(key >> self.set_shift))
        }

        pub(crate) fn flush(&mut self) {
            self.tags.fill(INVALID);
        }
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

    /// The row store against the rank-counter oracle: same hit/miss
    /// sequence, same residency answers and same statistics, for working
    /// sets below, at and above capacity, across a mid-stream flush.
    #[test]
    fn rows_match_the_rank_counter_oracle() {
        let mut rng = Xoshiro256pp::new(0x0AC1E);
        for ways in [1usize, 2, 4, 8, 16] {
            for sets in [1u64, 4, 1024] {
                let capacity = sets * ways as u64;
                for universe in [capacity.div_ceil(2), capacity, 4 * capacity] {
                    let mut cache = Cache::new(CacheParams {
                        size_bytes: capacity * 64,
                        assoc: ways as u32,
                        line_bytes: 64,
                        latency: 1,
                    })
                    .unwrap();
                    let mut oracle = oracle::RankLru::new(sets, ways);
                    let mut want = CacheStats::default();
                    let accesses = (6 * universe).max(2_000);
                    for i in 0..accesses {
                        if i == accesses / 2 {
                            cache.flush();
                            oracle.flush();
                        }
                        let line = rng.next_range(universe);
                        let hit = oracle.access(line);
                        want.accesses += 1;
                        want.misses += u64::from(!hit);
                        assert_eq!(
                            cache.access_line(line),
                            hit,
                            "{ways} ways, {sets} sets, universe {universe}, #{i}"
                        );
                        let probe = rng.next_range(universe);
                        assert_eq!(
                            cache.contains_line(probe),
                            oracle.contains(probe),
                            "{ways} ways, {sets} sets, universe {universe}, #{i}"
                        );
                    }
                    assert_eq!(cache.stats(), want);
                }
            }
        }
    }
}
