use super::{BranchPredictor, Counter2};

/// The simplest dynamic predictor: a table of 2-bit saturating counters
/// indexed by the low bits of the branch PC.
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<Counter2>,
    mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^log2_entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` is zero or greater than 24.
    pub(crate) fn new(log2_entries: u32) -> Self {
        assert!(log2_entries > 0 && log2_entries <= 24);
        let n = 1usize << log2_entries;
        Bimodal {
            table: vec![Counter2::weakly_taken(); n],
            mask: (n - 1) as u64,
        }
    }
}

impl BranchPredictor for Bimodal {
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let idx = (pc & self.mask) as usize;
        let pred = self.table[idx].predict();
        self.table[idx].update(taken);
        pred == taken
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut p = Bimodal::new(10);
        let mut wrong = 0;
        for _ in 0..100 {
            if !p.observe(0x10, false) {
                wrong += 1;
            }
        }
        assert!(wrong <= 2);
    }

    #[test]
    fn cannot_learn_alternating_pattern() {
        let mut p = Bimodal::new(10);
        let mut correct = 0;
        let mut taken = false;
        for _ in 0..1000 {
            taken = !taken;
            if p.observe(0x20, taken) {
                correct += 1;
            }
        }
        // Alternating branches defeat a bimodal predictor (~50% or worse).
        assert!(correct < 600, "got {correct}");
    }

    #[test]
    fn distinct_pcs_do_not_interfere_without_aliasing() {
        let mut p = Bimodal::new(10);
        for _ in 0..50 {
            p.observe(1, true);
            p.observe(2, false);
        }
        assert!(p.observe(1, true));
        assert!(p.observe(2, false));
    }
}
