use super::{BranchPredictor, Counter2};

/// Global-history predictor: the pattern table is indexed by the branch PC
/// XOR-ed with a global history register, letting it capture correlated
/// branches that defeat [`super::Bimodal`].
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<Counter2>,
    mask: u64,
    ghr: u64,
    history_bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `2^log2_entries` counters and
    /// `history_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` is not in `1..=24` or `history_bits > 63`.
    pub(crate) fn new(log2_entries: u32, history_bits: u32) -> Self {
        assert!(log2_entries > 0 && log2_entries <= 24);
        assert!(history_bits <= 63);
        let n = 1usize << log2_entries;
        Gshare {
            table: vec![Counter2::weakly_taken(); n],
            mask: (n - 1) as u64,
            ghr: 0,
            history_bits,
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc ^ self.ghr) & self.mask) as usize
    }

    #[inline]
    fn push_history(&mut self, taken: bool) {
        self.ghr = ((self.ghr << 1) | u64::from(taken)) & ((1 << self.history_bits) - 1);
    }
}

impl BranchPredictor for Gshare {
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let idx = self.index(pc);
        let pred = self.table[idx].predict();
        self.table[idx].update(taken);
        self.push_history(taken);
        pred == taken
    }

    fn name(&self) -> &'static str {
        "gshare"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_alternating_pattern() {
        let mut p = Gshare::new(12, 8);
        let mut taken = false;
        let mut correct_late = 0;
        for i in 0..2000 {
            taken = !taken;
            let ok = p.observe(0x40, taken);
            if i >= 1000 && ok {
                correct_late += 1;
            }
        }
        assert!(correct_late > 950, "got {correct_late}");
    }

    #[test]
    fn learns_short_repeating_pattern() {
        // Pattern T T N repeating — needs history to disambiguate.
        let pattern = [true, true, false];
        let mut p = Gshare::new(12, 10);
        let mut correct_late = 0;
        for i in 0..3000 {
            let ok = p.observe(0x88, pattern[i % 3]);
            if i >= 1500 && ok {
                correct_late += 1;
            }
        }
        assert!(correct_late > 1400, "got {correct_late}");
    }
}
