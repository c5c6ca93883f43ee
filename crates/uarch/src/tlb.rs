//! Instruction TLB model.
//!
//! Table IV varies the iTLB between 128 entries (baseline) and 256 entries
//! (`fe_op`), so the front-end model needs a page-level structure. The TLB is
//! modelled as 4-way set-associative with true LRU over 4 KiB pages.

use crate::ConfigError;

/// Page size assumed by the TLB model (4 KiB, as on the paper's Xeon E3).
pub const PAGE_BYTES: u64 = 4096;

/// Hit/miss counters for a TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Total translations requested.
    pub accesses: u64,
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
    entries: u32,
    ways: usize,
    set_mask: u64,
    set_shift: u32,
    tags: Vec<u64>,
    lru: Vec<u32>,
    stats: TlbStats,
}

const INVALID: u64 = u64::MAX;

impl Tlb {
    /// Builds a TLB with the given total entry count (4-way set-associative).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `entries` is zero, not a multiple of 4, or
    /// the implied set count is not a power of two.
    pub fn new(entries: u32) -> Result<Self, ConfigError> {
        if entries == 0 {
            return Err(ConfigError::Zero {
                what: "tlb entries",
            });
        }
        let ways = 4usize;
        if !(entries as usize).is_multiple_of(ways) {
            return Err(ConfigError::BadCacheGeometry {
                size: u64::from(entries),
                assoc: ways as u32,
                line: 1,
            });
        }
        let sets = entries as u64 / ways as u64;
        if !sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "tlb set count",
                value: sets,
            });
        }
        Ok(Tlb {
            entries,
            ways,
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            tags: vec![INVALID; sets as usize * ways],
            lru: (0..sets as usize * ways)
                .map(|i| (i % ways) as u32)
                .collect(),
            stats: TlbStats::default(),
        })
    }

    /// Total entry count.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Translates a page number, filling on miss. Returns `true` on hit.
    pub fn access_page(&mut self, page: u64) -> bool {
        self.stats.accesses += 1;
        let set = (page & self.set_mask) as usize;
        let tag = page >> self.set_shift;
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.tags[base + w] == tag {
                self.touch(base, w);
                return true;
            }
        }
        self.stats.misses += 1;
        let mut victim = 0;
        let mut worst = 0;
        for w in 0..self.ways {
            if self.lru[base + w] >= worst {
                worst = self.lru[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.touch(base, victim);
        false
    }

    /// Translates a code byte address (convenience over [`Tlb::access_page`]).
    pub fn access_addr(&mut self, addr: u64) -> bool {
        self.access_page(addr / PAGE_BYTES)
    }

    #[inline]
    fn touch(&mut self, base: usize, used: usize) {
        let cur = self.lru[base + used];
        for w in 0..self.ways {
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
}
