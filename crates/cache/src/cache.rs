//! The deterministic byte-bounded segment cache.
//!
//! Keys identify an encoded artifact exactly: the source video, the full
//! knob vector (preset, CRF, reference frames), the ladder rung index and
//! the segment index. Two requests that would produce byte-identical
//! CMAF segments share a key; anything else does not.
//!
//! Eviction is deterministic: victims are chosen by scanning the ordered
//! entry map and picking the minimum of a policy-specific score, with the
//! key order itself as the final tie-break. No wall clock, no randomness —
//! a logical tick counter orders recency.

use std::collections::BTreeMap;

/// Identity of one encoded segment artifact.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Source video name (vbench catalog entry).
    pub video: String,
    /// x264 preset the rung encodes with.
    pub preset: String,
    /// CRF the rung encodes with.
    pub crf: u8,
    /// Reference-frame count carried from the parent job.
    pub refs: u32,
    /// Ladder rung index (0 = `hi`).
    pub rung: u32,
    /// Segment index within the video.
    pub seg: u32,
}

impl CacheKey {
    /// Compact deterministic rendering for logs and traces.
    #[cfg(test)]
    fn render(&self) -> String {
        format!(
            "{}#{}@{}:{}:{}r{}",
            self.video, self.seg, self.preset, self.crf, self.rung, self.refs
        )
    }
}

/// Which entry to sacrifice when the byte budget runs out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictPolicy {
    /// Least-recently-used: evict the entry with the oldest access tick.
    #[default]
    Lru,
    /// Least-frequently-used: evict the entry with the fewest hits,
    /// oldest tick breaking ties.
    Lfu,
    /// Greedy-Dual-Size-Frequency: evict the entry with the smallest
    /// `clock + freq * recompute_cost / size` score, so big artifacts
    /// that are cheap to recompute go first and the aging clock keeps
    /// one-hit wonders from pinning the cache.
    Gdsf,
}

impl EvictPolicy {
    /// All policies, in canonical order.
    pub const ALL: [EvictPolicy; 3] = [EvictPolicy::Lru, EvictPolicy::Lfu, EvictPolicy::Gdsf];

    /// Canonical lowercase name (CLI flag value).
    pub fn name(&self) -> &'static str {
        match self {
            EvictPolicy::Lru => "lru",
            EvictPolicy::Lfu => "lfu",
            EvictPolicy::Gdsf => "gdsf",
        }
    }

    /// Parse a CLI flag value.
    pub fn from_name(name: &str) -> Option<EvictPolicy> {
        EvictPolicy::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Configuration for a [`SegmentCache`], carried inside `ServeConfig`.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSpec {
    /// Byte budget; zero disables admission entirely (all misses).
    pub capacity_bytes: u64,
    /// Eviction policy.
    pub policy: EvictPolicy,
    /// Service time billed for a cache hit, in microseconds.
    pub lookup_us: u64,
}

impl Default for CacheSpec {
    fn default() -> Self {
        CacheSpec {
            capacity_bytes: 0,
            policy: EvictPolicy::Lru,
            lookup_us: 250,
        }
    }
}

/// Cumulative counters, exported into the serving report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries admitted (first-time inserts).
    pub inserted: u64,
    /// Inserts refused because the artifact alone exceeds capacity.
    pub rejected: u64,
    /// Bytes resident right now.
    pub occupancy_bytes: u64,
    /// The configured byte budget.
    pub capacity_bytes: u64,
    /// Entries resident right now.
    pub entries: u64,
}

impl CacheStats {
    /// Hit rate in milli-units (0..=1000); 0 when no lookups happened.
    pub fn hit_milli(&self) -> u64 {
        (self.hits * 1000)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    cost_us: u64,
    freq: u64,
    last_tick: u64,
    /// GDSF score at last touch (clock + freq * cost / size, scaled).
    pri: u128,
}

/// Fixed-point scale for the GDSF cost/size ratio.
const GDSF_SCALE: u128 = 1024;

/// A byte-capacity-bounded deterministic segment cache.
///
/// Shared verbatim by the simulator and the real executor: `lookup`
/// answers hit/miss and refreshes recency/frequency; `insert` admits a
/// freshly encoded artifact, evicting per policy until it fits.
#[derive(Debug, Clone)]
pub struct SegmentCache {
    spec: CacheSpec,
    entries: BTreeMap<CacheKey, Entry>,
    used: u64,
    tick: u64,
    /// GDSF aging clock: rises to each victim's score on eviction.
    clock: u128,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserted: u64,
    rejected: u64,
}

impl SegmentCache {
    /// Create an empty cache with the given spec.
    pub fn new(spec: CacheSpec) -> Self {
        SegmentCache {
            spec,
            entries: BTreeMap::new(),
            used: 0,
            tick: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            inserted: 0,
            rejected: 0,
        }
    }

    /// Service time billed for a hit, in microseconds.
    pub fn lookup_us(&self) -> u64 {
        self.spec.lookup_us.max(1)
    }

    fn score(&self, e: &Entry) -> u128 {
        self.clock + (e.freq as u128 * e.cost_us as u128 * GDSF_SCALE) / e.bytes.max(1) as u128
    }

    /// Probe for `key`. A hit refreshes recency and frequency and returns
    /// `true`; a miss returns `false`. Both outcomes are counted.
    pub fn lookup(&mut self, key: &CacheKey) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let clock = self.clock;
        if let Some(e) = self.entries.get_mut(key) {
            e.freq += 1;
            e.last_tick = tick;
            e.pri =
                clock + (e.freq as u128 * e.cost_us as u128 * GDSF_SCALE) / e.bytes.max(1) as u128;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Admit a freshly produced artifact of `bytes` bytes whose recompute
    /// cost (engine service time) was `cost_us`. Evicts per policy until
    /// it fits; returns `false` when the artifact alone exceeds capacity
    /// (capacity zero rejects everything). Re-inserting a resident key
    /// refreshes its size and cost in place.
    pub fn insert(&mut self, key: CacheKey, bytes: u64, cost_us: u64) -> bool {
        let bytes = bytes.max(1);
        if bytes > self.spec.capacity_bytes {
            self.rejected += 1;
            return false;
        }
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            // Refresh in place (same key => same artifact; sizes should
            // match, but stay honest about occupancy if they don't).
            self.used = self.used - e.bytes + bytes;
            e.bytes = bytes;
            e.cost_us = cost_us;
            e.last_tick = self.tick;
            // Occupancy can only shrink here if sizes disagree; no evict.
            return true;
        }
        while self.used + bytes > self.spec.capacity_bytes {
            let victim = self.pick_victim().expect("nonempty: used > 0");
            let gone = self.entries.remove(&victim).expect("victim resident");
            self.used -= gone.bytes;
            self.evictions += 1;
            if self.spec.policy == EvictPolicy::Gdsf {
                self.clock = self.clock.max(self.score(&gone));
            }
        }
        let freq = 1;
        let pri = self.clock + (freq as u128 * cost_us as u128 * GDSF_SCALE) / bytes as u128;
        self.entries.insert(
            key,
            Entry {
                bytes,
                cost_us,
                freq,
                last_tick: self.tick,
                pri,
            },
        );
        self.used += bytes;
        self.inserted += 1;
        true
    }

    /// Choose the eviction victim per policy; `None` when empty.
    fn pick_victim(&self) -> Option<CacheKey> {
        let mut best: Option<(&CacheKey, &Entry)> = None;
        for (k, e) in &self.entries {
            let better = match best {
                None => true,
                Some((_, b)) => match self.spec.policy {
                    EvictPolicy::Lru => e.last_tick < b.last_tick,
                    EvictPolicy::Lfu => (e.freq, e.last_tick) < (b.freq, b.last_tick),
                    EvictPolicy::Gdsf => (e.pri, e.last_tick) < (b.pri, b.last_tick),
                },
            };
            if better {
                best = Some((k, e));
            }
        }
        best.map(|(k, _)| k.clone())
    }

    /// Snapshot the cumulative counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            inserted: self.inserted,
            rejected: self.rejected,
            occupancy_bytes: self.used,
            capacity_bytes: self.spec.capacity_bytes,
            entries: self.entries.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(video: &str, seg: u32, rung: u32) -> CacheKey {
        CacheKey {
            video: video.to_owned(),
            preset: "veryfast".to_owned(),
            crf: 26,
            refs: 2,
            rung,
            seg,
        }
    }

    fn cache(capacity: u64, policy: EvictPolicy) -> SegmentCache {
        SegmentCache::new(CacheSpec {
            capacity_bytes: capacity,
            policy,
            lookup_us: 250,
        })
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut c = cache(0, EvictPolicy::Lru);
        assert!(!c.insert(key("a", 0, 0), 1, 100));
        assert!(!c.lookup(&key("a", 0, 0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.rejected, s.entries), (0, 1, 1, 0));
        assert_eq!(s.occupancy_bytes, 0);
        assert_eq!(s.hit_milli(), 0);
    }

    #[test]
    fn capacity_boundary_exact_fit_then_evict() {
        let mut c = cache(100, EvictPolicy::Lru);
        assert!(c.insert(key("a", 0, 0), 60, 100));
        assert!(c.insert(key("b", 0, 0), 40, 100)); // exactly full
        assert_eq!(c.stats().occupancy_bytes, 100);
        assert_eq!(c.stats().evictions, 0);
        // One more byte forces an eviction of the LRU entry ("a").
        assert!(c.insert(key("c", 0, 0), 1, 100));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(!c.lookup(&key("a", 0, 0)));
        assert!(c.lookup(&key("b", 0, 0)));
        assert!(c.lookup(&key("c", 0, 0)));
    }

    #[test]
    fn oversized_artifact_rejected_single_entry_kept() {
        let mut c = cache(50, EvictPolicy::Lru);
        assert!(!c.insert(key("big", 0, 0), 51, 100));
        assert_eq!(c.stats().rejected, 1);
        // A single entry exactly at capacity is admissible and survives.
        assert!(c.insert(key("fit", 0, 0), 50, 100));
        assert!(c.lookup(&key("fit", 0, 0)));
        // The next artifact displaces it (single-entry cache behavior).
        assert!(c.insert(key("next", 0, 0), 50, 100));
        assert!(!c.lookup(&key("fit", 0, 0)));
        assert!(c.lookup(&key("next", 0, 0)));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn lru_evicts_oldest_touch() {
        let mut c = cache(30, EvictPolicy::Lru);
        c.insert(key("a", 0, 0), 10, 100);
        c.insert(key("b", 0, 0), 10, 100);
        c.insert(key("c", 0, 0), 10, 100);
        assert!(c.lookup(&key("a", 0, 0))); // refresh a; b is now LRU
        c.insert(key("d", 0, 0), 10, 100);
        assert!(c.lookup(&key("a", 0, 0)));
        assert!(!c.lookup(&key("b", 0, 0)));
        assert!(c.lookup(&key("c", 0, 0)));
    }

    #[test]
    fn lfu_keeps_frequent() {
        let mut c = cache(20, EvictPolicy::Lfu);
        c.insert(key("hot", 0, 0), 10, 100);
        c.insert(key("cold", 0, 0), 10, 100);
        for _ in 0..5 {
            assert!(c.lookup(&key("hot", 0, 0)));
        }
        // "cold" was touched more recently, but "hot" has higher freq.
        c.insert(key("new", 0, 0), 10, 100);
        assert!(c.lookup(&key("hot", 0, 0)));
        assert!(!c.lookup(&key("cold", 0, 0)));
    }

    #[test]
    fn gdsf_prefers_evicting_cheap_big_artifacts() {
        let mut c = cache(30, EvictPolicy::Gdsf);
        // Big and cheap to recompute: low score.
        c.insert(key("cheapbig", 0, 0), 20, 1_000);
        // Small and expensive to recompute: high score.
        c.insert(key("dearsmall", 0, 0), 10, 50_000);
        c.insert(key("next", 0, 0), 15, 10_000);
        assert!(!c.lookup(&key("cheapbig", 0, 0)));
        assert!(c.lookup(&key("dearsmall", 0, 0)));
        assert!(c.lookup(&key("next", 0, 0)));
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut c = cache(100, EvictPolicy::Lru);
        assert!(c.insert(key("a", 0, 0), 40, 100));
        assert!(c.insert(key("a", 0, 0), 50, 200));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.occupancy_bytes, 50);
        assert_eq!(s.inserted, 1);
    }

    fn drive(c: &mut SegmentCache) -> CacheStats {
        for i in 0..200u32 {
            let k = key("v", i % 7, i % 3);
            if !c.lookup(&k) {
                c.insert(k, 64 + u64::from(i % 5) * 16, 1_000 + u64::from(i) * 7);
            }
        }
        c.stats()
    }

    #[test]
    fn deterministic_under_identical_streams() {
        for policy in EvictPolicy::ALL {
            let a = drive(&mut cache(512, policy));
            let b = drive(&mut cache(512, policy));
            assert_eq!(a, b, "{policy:?}");
            assert_eq!(a.hits + a.misses, 200);
        }
    }

    #[test]
    fn policy_names_roundtrip() {
        for p in EvictPolicy::ALL {
            assert_eq!(EvictPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(EvictPolicy::from_name("arc"), None);
    }

    #[test]
    fn key_render_is_compact() {
        assert_eq!(key("cat", 3, 1).render(), "cat#3@veryfast:26:1r2");
    }
}
