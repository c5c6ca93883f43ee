//! Instruction TLB model.
//!
//! Table IV varies the iTLB between 128 entries (baseline) and 256 entries
//! (`fe_op`), so the front-end model needs a page-level structure. The TLB is
//! modelled as 4-way set-associative with true LRU over 4 KiB pages, on the
//! same recency-ordered rows as the caches.

use crate::cache::LruSets;
use crate::ConfigError;

/// Page size assumed by the TLB model (4 KiB, as on the paper's Xeon E3).
#[cfg(test)]
const PAGE_BYTES: u64 = 4096;

/// Hit/miss counters for a TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total translations requested.
    pub(crate) accesses: u64,
    /// Translations that missed (page walk required).
    pub misses: u64,
}

/// A set-associative translation lookaside buffer over 4 KiB pages.
///
/// # Example
///
/// ```
/// use vtx_uarch::tlb::Tlb;
///
/// let mut tlb = Tlb::new(128).unwrap();
/// assert!(!tlb.access_page(3)); // cold
/// assert!(tlb.access_page(3));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: LruSets,
    stats: TlbStats,
}

/// Associativity of every TLB.
const WAYS: usize = 4;

impl Tlb {
    /// Builds a TLB with the given total entry count (4-way set-associative).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `entries` is zero, not a multiple of 4, or
    /// the implied set count is not a power of two.
    pub fn new(entries: u32) -> Result<Self, ConfigError> {
        Self::validate(entries)?;
        Ok(Tlb {
            sets: LruSets::new(u64::from(entries) / WAYS as u64, WAYS),
            stats: TlbStats::default(),
        })
    }

    /// Checks the geometry [`Tlb::new`] would build, without building it.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] that [`Tlb::new`] returns.
    pub fn validate(entries: u32) -> Result<(), ConfigError> {
        if entries == 0 {
            return Err(ConfigError::Zero {
                what: "tlb entries",
            });
        }
        if !(entries as usize).is_multiple_of(WAYS) {
            return Err(ConfigError::BadCacheGeometry {
                size: u64::from(entries),
                assoc: WAYS as u32,
                line: 1,
            });
        }
        let sets = entries as u64 / WAYS as u64;
        if !sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "tlb set count",
                value: sets,
            });
        }
        Ok(())
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Translates a page number, filling on miss. Returns `true` on hit.
    #[inline]
    pub fn access_page(&mut self, page: u64) -> bool {
        self.stats.accesses += 1;
        let hit = self.sets.access(page);
        self.stats.misses += u64::from(!hit);
        hit
    }

    /// Translates `page` `n` times in a row (`n > 0`), with no other
    /// translation in between: the first lookup may miss and fill, the rest
    /// find the page most recently used in its set, so they only count.
    #[inline]
    pub(crate) fn access_page_run(&mut self, page: u64, n: u64) {
        debug_assert!(n > 0);
        self.access_page(page);
        self.stats.accesses += n - 1;
    }

    /// Translates a code byte address (convenience over [`Tlb::access_page`]).
    #[cfg(test)]
    fn access_addr(&mut self, addr: u64) -> bool {
        self.access_page(addr / PAGE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::oracle::RankLru;

    #[test]
    fn capacity_behaviour() {
        let mut t = Tlb::new(8).unwrap(); // 2 sets x 4 ways
        for p in 0..8 {
            t.access_page(p);
        }
        for p in 0..8 {
            assert!(t.access_page(p), "page {p} should be resident");
        }
        assert_eq!(t.stats().misses, 8);
    }

    #[test]
    fn overflow_evicts() {
        let mut t = Tlb::new(8).unwrap();
        // 12 pages all mapping across 2 sets: 6 per set > 4 ways
        for p in 0..12 {
            t.access_page(p);
        }
        let before = t.stats().misses;
        assert_eq!(before, 12);
        // Re-touch the oldest pages: some must miss again.
        let mut second_misses = 0;
        for p in 0..12 {
            if !t.access_page(p) {
                second_misses += 1;
            }
        }
        assert!(second_misses > 0);
    }

    #[test]
    fn validation() {
        assert!(Tlb::new(0).is_err());
        assert!(Tlb::new(6).is_err());
        assert!(Tlb::new(128).is_ok());
        assert!(Tlb::new(256).is_ok());
    }

    #[test]
    fn addr_maps_to_page() {
        let mut t = Tlb::new(128).unwrap();
        t.access_addr(5000); // page 1
        assert!(t.access_page(1));
    }

    #[test]
    fn bigger_tlb_misses_less() {
        let pages: Vec<u64> = (0..200).collect();
        let mut small = Tlb::new(128).unwrap();
        let mut big = Tlb::new(256).unwrap();
        for _ in 0..4 {
            for &p in &pages {
                small.access_page(p);
                big.access_page(p);
            }
        }
        assert!(big.stats().misses < small.stats().misses);
    }

    /// Same hit/miss sequence and statistics as the rank-counter oracle, for
    /// page sets below, at and above the entry count.
    #[test]
    fn matches_the_rank_counter_oracle() {
        let mut rng = vtx_rng::Xoshiro256pp::new(0x71B);
        for entries in [4u32, 16, 128, 256] {
            for pages in [entries / 2, entries, 4 * entries] {
                let mut tlb = Tlb::new(entries).unwrap();
                let mut oracle = RankLru::new(u64::from(entries) / 4, 4);
                let mut misses = 0;
                for i in 0..20_000 {
                    let page = rng.next_range(u64::from(pages));
                    let hit = oracle.access(page);
                    misses += u64::from(!hit);
                    assert_eq!(
                        tlb.access_page(page),
                        hit,
                        "{entries} entries, {pages} pages, #{i}"
                    );
                }
                assert_eq!(
                    tlb.stats(),
                    TlbStats {
                        accesses: 20_000,
                        misses
                    }
                );
            }
        }
    }
}
