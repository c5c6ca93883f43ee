//! The multi-level memory hierarchy.
//!
//! Models the paper's machine: split L1 (instruction/data), unified L2,
//! unified L3, and — for the `be_op1` configuration of Table IV — an optional
//! L4. Instruction fetches additionally consult the iTLB. All caches use
//! write-allocate stores, so a store miss traverses the hierarchy like a
//! load.

use crate::cache::Cache;
use crate::config::UarchConfig;
use crate::prefetch::Prefetcher;
use crate::tlb::{Tlb, TlbStats};
use crate::ConfigError;

/// The level at which an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Satisfied by the first-level cache (L1i or L1d depending on side).
    L1,
    /// Satisfied by the unified L2.
    L2,
    /// Satisfied by the unified L3.
    L3,
    /// Satisfied by the optional L4 (only present in `be_op1`).
    L4,
    /// Required a DRAM access.
    Memory,
}

/// Per-level hit counters for one access stream (instruction, load or store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCounters {
    /// Accesses satisfied in L1.
    pub l1: u64,
    /// Accesses satisfied in L2.
    pub l2: u64,
    /// Accesses satisfied in L3.
    pub l3: u64,
    /// Accesses satisfied in L4.
    pub l4: u64,
    /// Accesses that went to DRAM.
    pub mem: u64,
}

impl LevelCounters {
    /// Total accesses in this stream.
    pub fn total(&self) -> u64 {
        self.l1 + self.l2 + self.l3 + self.l4 + self.mem
    }

    /// Accesses that missed L1 (i.e. left the first level).
    pub fn l1_misses(&self) -> u64 {
        self.total() - self.l1
    }

    /// Accesses that missed L2 or a deeper level.
    pub fn l2_misses(&self) -> u64 {
        self.l3 + self.l4 + self.mem
    }

    /// Accesses that missed L3.
    pub fn l3_misses(&self) -> u64 {
        self.l4 + self.mem
    }

    fn record(&mut self, level: HitLevel) {
        match level {
            HitLevel::L1 => self.l1 += 1,
            HitLevel::L2 => self.l2 += 1,
            HitLevel::L3 => self.l3 += 1,
            HitLevel::L4 => self.l4 += 1,
            HitLevel::Memory => self.mem += 1,
        }
    }
}

/// A complete cache/TLB hierarchy instantiated from a [`UarchConfig`].
///
/// # Example
///
/// ```
/// use vtx_uarch::config::UarchConfig;
/// use vtx_uarch::hierarchy::{HitLevel, MemoryHierarchy};
///
/// let mut m = MemoryHierarchy::new(&UarchConfig::baseline())?;
/// assert_eq!(m.load_line(42), HitLevel::Memory); // cold
/// assert_eq!(m.load_line(42), HitLevel::L1);
/// # Ok::<(), vtx_uarch::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    l4: Option<Cache>,
    itlb: Tlb,
    prefetcher: Prefetcher,
    inst: LevelCounters,
    loads: LevelCounters,
    stores: LevelCounters,
}

impl MemoryHierarchy {
    /// Instantiates the hierarchy described by `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates cache/TLB geometry validation failures.
    pub fn new(cfg: &UarchConfig) -> Result<Self, ConfigError> {
        Ok(MemoryHierarchy {
            l1i: Cache::new(cfg.l1i)?,
            l1d: Cache::new(cfg.l1d)?,
            l2: Cache::new(cfg.l2)?,
            l3: Cache::new(cfg.l3)?,
            l4: cfg.l4.map(Cache::new).transpose()?,
            itlb: Tlb::new(cfg.itlb_entries)?,
            prefetcher: Prefetcher::new(cfg.l1d_prefetcher),
            inst: LevelCounters::default(),
            loads: LevelCounters::default(),
            stores: LevelCounters::default(),
        })
    }

    /// Fetches an instruction cache line (also consults the iTLB).
    pub fn fetch_line(&mut self, line: u64) -> HitLevel {
        // 64 B lines, 4 KiB pages -> 64 lines per page.
        self.itlb.access_page(line >> 6);
        self.inst_line(line)
    }

    /// Fetches every line of `lines` in order: the same counters, contents
    /// and iTLB state as a [`MemoryHierarchy::fetch_line`] per line. Within
    /// a run of lines on one page only the first translation can miss; the
    /// others hit the page it just made most recent.
    pub fn fetch_lines(&mut self, lines: std::ops::Range<u64>) {
        let mut line = lines.start;
        while line < lines.end {
            let run_end = (line | 63).saturating_add(1).min(lines.end);
            self.itlb.access_page_run(line >> 6, run_end - line);
            for l in line..run_end {
                self.inst_line(l);
            }
            line = run_end;
        }
    }

    /// The cache side of an instruction fetch.
    #[inline]
    fn inst_line(&mut self, line: u64) -> HitLevel {
        let level = if self.l1i.access_line(line) {
            HitLevel::L1
        } else {
            self.below_l1(line)
        };
        self.inst.record(level);
        level
    }

    /// Loads a data cache line.
    pub fn load_line(&mut self, line: u64) -> HitLevel {
        let level = self.data_line(line);
        self.loads.record(level);
        self.run_prefetcher(line, level != HitLevel::L1);
        level
    }

    /// Stores to a data cache line (write-allocate).
    pub fn store_line(&mut self, line: u64) -> HitLevel {
        let level = self.data_line(line);
        self.stores.record(level);
        level
    }

    /// Trains the prefetcher and issues any prefetches it requests;
    /// prefetch fills populate the hierarchy but are not demand accesses,
    /// so they do not appear in the load/store counters.
    fn run_prefetcher(&mut self, line: u64, missed: bool) {
        if self.prefetcher.kind() == crate::prefetch::PrefetcherKind::None {
            return;
        }
        let (lines, n) = self.prefetcher.on_access(line, missed);
        for &pf in &lines[..n] {
            self.data_line(pf);
        }
    }

    /// A data-side access: L1d, then the shared levels.
    #[inline]
    fn data_line(&mut self, line: u64) -> HitLevel {
        if self.l1d.access_line(line) {
            HitLevel::L1
        } else {
            self.below_l1(line)
        }
    }

    /// The unified levels, after either L1 missed.
    #[inline]
    fn below_l1(&mut self, line: u64) -> HitLevel {
        if self.l2.access_line(line) {
            return HitLevel::L2;
        }
        if self.l3.access_line(line) {
            return HitLevel::L3;
        }
        if self.l4.as_mut().is_some_and(|l4| l4.access_line(line)) {
            return HitLevel::L4;
        }
        HitLevel::Memory
    }

    /// Instruction-side per-level counters.
    pub fn inst_counters(&self) -> LevelCounters {
        self.inst
    }

    /// Data-load per-level counters.
    pub fn load_counters(&self) -> LevelCounters {
        self.loads
    }

    /// Data-store per-level counters.
    pub fn store_counters(&self) -> LevelCounters {
        self.stores
    }

    /// iTLB statistics.
    pub fn itlb_stats(&self) -> TlbStats {
        self.itlb.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UarchConfig;

    #[test]
    fn cold_access_reaches_memory_then_l1() {
        let mut m = MemoryHierarchy::new(&UarchConfig::baseline()).unwrap();
        assert_eq!(m.load_line(1000), HitLevel::Memory);
        assert_eq!(m.load_line(1000), HitLevel::L1);
        assert_eq!(m.load_counters().mem, 1);
        assert_eq!(m.load_counters().l1, 1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut m = MemoryHierarchy::new(&UarchConfig::baseline()).unwrap();
        // Baseline L1d = 32 KiB = 512 lines. Touch 1024 distinct lines, then
        // retouch the first: it should have been evicted from L1 but live in
        // the 256 KiB L2.
        for line in 0..1024u64 {
            m.load_line(line);
        }
        assert_eq!(m.load_line(0), HitLevel::L2);
    }

    #[test]
    fn instruction_side_counts_itlb() {
        let mut m = MemoryHierarchy::new(&UarchConfig::baseline()).unwrap();
        m.fetch_line(0);
        m.fetch_line(64); // next page (64 lines per page)
        assert_eq!(m.itlb_stats().accesses, 2);
        assert_eq!(m.itlb_stats().misses, 2);
        m.fetch_line(1); // same page as line 0
        assert_eq!(m.itlb_stats().misses, 2);
    }

    #[test]
    fn be_op1_has_l4() {
        let mut m = MemoryHierarchy::new(&UarchConfig::be_op1()).unwrap();
        // Working set larger than L3 (4 MiB = 65536 lines) but within L4 (16 MiB).
        let lines: Vec<u64> = (0..100_000u64).collect();
        for &l in &lines {
            m.load_line(l);
        }
        let mut l4_hits = 0;
        for &l in &lines {
            if m.load_line(l) == HitLevel::L4 {
                l4_hits += 1;
            }
        }
        assert!(l4_hits > 0, "expected some L4 hits");
    }

    #[test]
    fn counters_sum_to_accesses() {
        let mut m = MemoryHierarchy::new(&UarchConfig::baseline()).unwrap();
        for line in 0..5000u64 {
            m.load_line(line % 700);
            m.store_line((line % 300) + 10_000);
        }
        assert_eq!(m.load_counters().total(), 5000);
        assert_eq!(m.store_counters().total(), 5000);
    }

    #[test]
    fn stream_prefetcher_hides_sequential_misses() {
        let mut cfg = UarchConfig::baseline();
        cfg.l1d_prefetcher = crate::prefetch::PrefetcherKind::Stream;
        let mut with = MemoryHierarchy::new(&cfg).unwrap();
        let mut without = MemoryHierarchy::new(&UarchConfig::baseline()).unwrap();
        for line in 0..2000u64 {
            with.load_line(line);
            without.load_line(line);
        }
        assert!(
            with.load_counters().l1_misses() < without.load_counters().l1_misses() / 2,
            "prefetched {} vs demand {}",
            with.load_counters().l1_misses(),
            without.load_counters().l1_misses()
        );
        assert!(with.prefetcher.stats().issued > 0);
    }

    #[test]
    fn instruction_and_data_l1_are_split() {
        let mut m = MemoryHierarchy::new(&UarchConfig::baseline()).unwrap();
        // A line loaded as data does not populate the L1i: the fetch must
        // miss L1i (hitting the unified L2 instead).
        m.load_line(5000);
        assert_eq!(m.fetch_line(5000), HitLevel::L2);
        // And vice versa: the fetch filled L2/L1i, not L1d contents beyond
        // what the load already placed.
        assert_eq!(m.load_line(5000), HitLevel::L1);
    }

    #[test]
    fn stores_allocate() {
        let mut m = MemoryHierarchy::new(&UarchConfig::baseline()).unwrap();
        assert_eq!(m.store_line(77), HitLevel::Memory);
        assert_eq!(m.load_line(77), HitLevel::L1);
    }

    /// Per-level counters and iTLB misses after a seeded mixed
    /// fetch/load/store stream over hot, warm and cold regions, so every
    /// level both hits and evicts.
    fn golden_stream(cfg: &UarchConfig) -> ([LevelCounters; 3], u64) {
        let mut rng = vtx_rng::Xoshiro256pp::new(0x601D);
        let mut m = MemoryHierarchy::new(cfg).unwrap();
        for _ in 0..400_000 {
            let line = match rng.next_range(10) {
                0..=4 => rng.next_range(2_000),
                5..=7 => 10_000 + rng.next_range(100_000),
                _ => 1_000_000 + rng.next_range(1_000_000),
            };
            match rng.next_range(4) {
                0 => m.fetch_line(line),
                1 | 2 => m.load_line(line),
                _ => m.store_line(line),
            };
        }
        (
            [m.inst_counters(), m.load_counters(), m.store_counters()],
            m.itlb_stats().misses,
        )
    }

    /// A range fetch against the per-line loop, interleaved with data
    /// traffic so both sides share the unified levels: ranges of 0–300
    /// lines that start anywhere in a page and often cross one, over hot
    /// and cold text, on every Table IV hierarchy.
    #[test]
    fn fetch_lines_equals_a_fetch_line_per_line() {
        for cfg in UarchConfig::table_iv() {
            let mut rng = vtx_rng::Xoshiro256pp::new(0xFE7C);
            let mut ranged = MemoryHierarchy::new(&cfg).unwrap();
            let mut looped = MemoryHierarchy::new(&cfg).unwrap();
            for i in 0..5_000 {
                let start = match rng.next_range(3) {
                    0 => rng.next_range(4_000),
                    _ => 0x1_0000 + rng.next_range(200_000),
                };
                let lines = start..start + rng.next_range(301);
                ranged.fetch_lines(lines.clone());
                for line in lines {
                    looped.fetch_line(line);
                }
                let data = rng.next_range(300_000);
                ranged.load_line(data);
                looped.load_line(data);
                ranged.store_line(data + 7);
                looped.store_line(data + 7);
                if i % 500 == 0 || i == 4_999 {
                    let counters = |m: &MemoryHierarchy| {
                        (
                            [m.inst_counters(), m.load_counters(), m.store_counters()],
                            m.itlb_stats(),
                            [m.l1i.stats(), m.l1d.stats()],
                        )
                    };
                    assert_eq!(counters(&ranged), counters(&looped), "{} #{i}", cfg.name);
                }
            }
            assert!(ranged.itlb_stats().misses > 0 && ranged.inst_counters().l1 > 0);
        }
    }

    /// Pinned from the per-way rank-counter model this one replaced: the
    /// representation of LRU state is free to change, these numbers are not.
    #[test]
    fn golden_counters_on_baseline_and_be_op1() {
        let c = |l1, l2, l3, l4, mem| LevelCounters {
            l1,
            l2,
            l3,
            l4,
            mem,
        };
        assert_eq!(
            golden_stream(&UarchConfig::baseline()),
            (
                [
                    c(6356, 30659, 25256, 0, 37854),
                    c(12430, 61408, 50734, 0, 75419),
                    c(6242, 30360, 25459, 0, 37823),
                ],
                52150
            )
        );
        assert_eq!(
            golden_stream(&UarchConfig::be_op1()),
            (
                [
                    c(6356, 41551, 10405, 4399, 37414),
                    c(24044, 71972, 20796, 8677, 74502),
                    c(11969, 35736, 10450, 4343, 37386),
                ],
                52150
            )
        );
    }
}
