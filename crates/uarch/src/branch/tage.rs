use super::{table, BranchPredictor, Counter2};

/// A TAGE (TAgged GEometric history length) predictor — the upgrade the
/// paper's `bs_op` configuration uses to attack bad-speculation stalls.
///
/// Structure: a bimodal base predictor plus four tagged components indexed by
/// geometrically increasing global-history lengths (5, 15, 44, 120). The
/// longest-history component whose tag matches provides the prediction;
/// entries carry a 3-bit signed counter and a 2-bit usefulness counter
/// governing allocation, with periodic usefulness aging.
///
/// Each component reads its history window XOR-folded three ways (to the
/// index width, the tag width and one bit less). The twelve folds are kept
/// up to date on every outcome in a few operations each (see `Folded`)
/// instead of being refolded from the 128-bit history on every lookup.
#[derive(Debug, Clone)]
pub struct Tage {
    base: Box<[Counter2; 1 << BASE_BITS]>,
    tables: [TaggedTable; 4],
    ghr: u128,
    lfsr: u32,
    branch_count: u64,
}

#[derive(Debug, Clone)]
struct TaggedTable {
    history_len: u32,
    tag_bits: u32,
    /// The history window folded to `TABLE_BITS`, `tag_bits` and
    /// `tag_bits - 1` bits.
    folds: [Folded; 3],
    entries: Box<[TageEntry; 1 << TABLE_BITS]>,
}

#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    /// 3-bit signed counter, 0..=7; >= 4 predicts taken.
    ctr: u8,
    /// 2-bit usefulness counter.
    useful: u8,
}

/// The low `len` bits of the global history XOR-folded down to `bits` bits
/// (bit `p` of the fold is the XOR of history bits `p`, `p + bits`,
/// `p + 2 bits`, … below `len`), maintained as outcomes are shifted in.
///
/// Shifting the history left by one moves every history bit one fold
/// position up, the top position wrapping to bit 0: a rotate left by one
/// within `bits`. Two bits then differ from that rotation: the new outcome,
/// now history bit 0, and the bit that left the window, formerly history
/// bit `len - 1` and after the rotation at fold position `len % bits`.
#[derive(Debug, Clone, Copy)]
struct Folded {
    value: u64,
    bits: u32,
    out_at: u32,
}

impl Folded {
    fn new(len: u32, bits: u32) -> Self {
        Folded {
            value: 0,
            bits,
            out_at: len % bits,
        }
    }

    /// Shifts `new` into the history; `out` is the bit leaving the window.
    #[inline]
    fn push(&mut self, new: bool, out: bool) {
        let v = self.value;
        let rotated = ((v << 1) & ((1 << self.bits) - 1)) | (v >> (self.bits - 1));
        self.value = rotated ^ (u64::from(out) << self.out_at) ^ u64::from(new);
    }
}

const BASE_BITS: u32 = 13;
const TABLE_BITS: u32 = 10;
const HISTORY_LENGTHS: [u32; 4] = [5, 15, 44, 120];
const TAG_BITS: [u32; 4] = [8, 8, 9, 9];
const USEFUL_RESET_PERIOD: u64 = 1 << 18;

impl Tage {
    /// Creates a TAGE predictor with its canonical sizing (~8 KiB of
    /// counters and 16 KiB of tagged entries).
    pub fn new() -> Self {
        Tage {
            base: table(Counter2::weakly_taken()),
            tables: std::array::from_fn(|t| {
                let (len, tag_bits) = (HISTORY_LENGTHS[t], TAG_BITS[t]);
                TaggedTable {
                    history_len: len,
                    tag_bits,
                    folds: [TABLE_BITS, tag_bits, tag_bits - 1].map(|bits| Folded::new(len, bits)),
                    entries: table(TageEntry::default()),
                }
            }),
            ghr: 0,
            lfsr: 0xACE1,
            branch_count: 0,
        }
    }

    /// Folds the low `len` bits of history down to `bits` bits by XOR: what
    /// each [`Folded`] must equal.
    #[cfg(test)]
    fn fold(history: u128, len: u32, bits: u32) -> u64 {
        let mask = if len >= 128 {
            u128::MAX
        } else {
            (1u128 << len) - 1
        };
        let mut h = history & mask;
        let mut out = 0u64;
        while h != 0 {
            out ^= (h as u64) & ((1 << bits) - 1);
            h >>= bits;
        }
        out
    }

    #[inline]
    fn index(&self, t: usize, pc: u64) -> usize {
        let folded = self.tables[t].folds[0].value;
        ((pc ^ (pc >> TABLE_BITS) ^ folded) as usize) & ((1 << TABLE_BITS) - 1)
    }

    #[inline]
    fn tag(&self, t: usize, pc: u64) -> u16 {
        let tab = &self.tables[t];
        let [_, folded, folded2] = tab.folds.map(|f| f.value);
        ((pc ^ folded ^ (folded2 << 1)) & ((1 << tab.tag_bits) - 1)) as u16
    }

    #[inline]
    fn base_index(&self, pc: u64) -> usize {
        (pc as usize) & ((1 << BASE_BITS) - 1)
    }

    #[inline]
    fn next_rand(&mut self) -> u32 {
        // 16-bit Galois LFSR: deterministic tie-breaking for allocation.
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb == 1 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr
    }

    /// Shifts an outcome into the global history and every fold of it.
    #[inline]
    fn push_history(&mut self, taken: bool) {
        for tab in &mut self.tables {
            let out = (self.ghr >> (tab.history_len - 1)) & 1 != 0;
            for f in &mut tab.folds {
                f.push(taken, out);
            }
        }
        self.ghr = (self.ghr << 1) | u128::from(taken);
    }
}

impl Default for Tage {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for Tage {
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        self.branch_count += 1;

        let idx: [usize; 4] = std::array::from_fn(|t| self.index(t, pc));
        let tags: [u16; 4] = std::array::from_fn(|t| self.tag(t, pc));
        // Find provider (longest history with tag match) and alternate.
        let mut provider: Option<usize> = None;
        let mut alt: Option<usize> = None;
        for t in (0..4).rev() {
            if self.tables[t].entries[idx[t]].tag == tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt = Some(t);
                    break;
                }
            }
        }

        let base_pred = self.base[self.base_index(pc)].predict();
        let alt_pred = match alt {
            Some(t) => self.tables[t].entries[idx[t]].ctr >= 4,
            None => base_pred,
        };
        let pred = match provider {
            Some(t) => self.tables[t].entries[idx[t]].ctr >= 4,
            None => base_pred,
        };

        // --- Update phase ---
        match provider {
            Some(t) => {
                let e = &mut self.tables[t].entries[idx[t]];
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                if pred != alt_pred {
                    if pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            None => {
                let bi = self.base_index(pc);
                self.base[bi].update(taken);
            }
        }

        // Allocate on misprediction in a longer-history table.
        if pred != taken {
            let start = provider.map_or(0, |t| t + 1);
            // Tables from `start` whose entry is not useful, in order.
            let mut free = [0usize; 4];
            let mut n = 0;
            for (t, (tab, &i)) in self.tables.iter().zip(&idx).enumerate().skip(start) {
                if tab.entries[i].useful == 0 {
                    free[n] = t;
                    n += 1;
                }
            }
            if n > 0 {
                let pick = free[self.next_rand() as usize % n];
                let e = &mut self.tables[pick].entries[idx[pick]];
                e.tag = tags[pick];
                e.ctr = if taken { 4 } else { 3 };
                e.useful = 0;
            } else {
                for (t, tab) in self.tables.iter_mut().enumerate().skip(start) {
                    let e = &mut tab.entries[idx[t]];
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }

        // Periodic usefulness aging.
        if self.branch_count.is_multiple_of(USEFUL_RESET_PERIOD) {
            for tab in &mut self.tables {
                for e in tab.entries.iter_mut() {
                    e.useful >>= 1;
                }
            }
        }

        self.push_history(taken);
        pred == taken
    }

    fn name(&self) -> &'static str {
        "tage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::PentiumM;

    fn run(p: &mut dyn BranchPredictor, stream: &[(u64, bool)], skip: usize) -> f64 {
        let mut total = 0;
        let mut correct = 0;
        for (i, &(pc, t)) in stream.iter().enumerate() {
            let ok = p.observe(pc, t);
            if i >= skip {
                total += 1;
                if ok {
                    correct += 1;
                }
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn long_period_pattern_learned() {
        // Period-13 pattern — beyond bimodal/local reach, within TAGE histories.
        let pat: Vec<bool> = (0..13).map(|i| i % 13 < 9).collect();
        let stream: Vec<(u64, bool)> = (0..20_000).map(|i| (0x1234, pat[i % 13])).collect();
        let mut tage = Tage::new();
        let acc = run(&mut tage, &stream, 10_000);
        assert!(acc > 0.97, "got {acc}");
    }

    #[test]
    fn beats_pentium_m_on_correlated_stream() {
        // Two correlated branches: B2 outcome equals B1's previous outcome
        // with a long scrambling filler between them.
        let mut stream = Vec::new();
        let mut last = false;
        for i in 0..8000usize {
            let b1 = (i / 3) % 5 < 2;
            stream.push((0x100, b1));
            for k in 0..6 {
                stream.push((0x200 + k as u64, (i + k) % 2 == 0));
            }
            stream.push((0x300, last));
            last = b1;
        }
        let mut tage = Tage::new();
        let mut pm = PentiumM::new();
        let tage_acc = run(&mut tage, &stream, 20_000);
        let pm_acc = run(&mut pm, &stream, 20_000);
        assert!(
            tage_acc >= pm_acc,
            "tage {tage_acc} should be >= pentium_m {pm_acc}"
        );
    }

    #[test]
    fn fold_is_stable_and_bounded() {
        let h = 0x1234_5678_9abc_def0_u128;
        let f = Tage::fold(h, 44, 10);
        assert_eq!(f, Tage::fold(h, 44, 10));
        assert!(f < 1024);
        // Only the low `len` bits participate.
        assert_eq!(Tage::fold(h, 5, 10), (h as u64) & 0x1f);
    }

    /// All twelve incremental folds equal a fold of the whole history after
    /// every one of 6 000 seeded outcomes: past the 120-bit window, so bits
    /// leave every component's window many times over.
    #[test]
    fn incremental_folds_equal_the_refold() {
        let mut rng = vtx_rng::Xoshiro256pp::new(0xF01D);
        let mut tage = Tage::new();
        for i in 0..6_000 {
            tage.observe(rng.next_range(1 << 14), rng.next_range(3) != 0);
            for tab in &tage.tables {
                let widths = [TABLE_BITS, tab.tag_bits, tab.tag_bits - 1];
                for (f, bits) in tab.folds.iter().zip(widths) {
                    assert_eq!(f.bits, bits);
                    assert_eq!(
                        f.value,
                        Tage::fold(tage.ghr, tab.history_len, bits),
                        "len {} to {bits} bits after {} outcomes",
                        tab.history_len,
                        i + 1
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let stream: Vec<(u64, bool)> = (0..5000).map(|i| (i % 7, i % 3 == 0)).collect();
        let mut a = Tage::new();
        let mut b = Tage::new();
        let ra: Vec<bool> = stream.iter().map(|&(pc, t)| a.observe(pc, t)).collect();
        let rb: Vec<bool> = stream.iter().map(|&(pc, t)| b.observe(pc, t)).collect();
        assert_eq!(ra, rb);
    }
}
