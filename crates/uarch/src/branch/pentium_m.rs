use super::{BranchPredictor, Counter2};

/// A Pentium-M-style hybrid predictor — Sniper's default for the
/// `gainestown` core used as the paper's baseline.
///
/// The real Pentium-M combines a bimodal table, a global predictor, and a
/// loop detector. This model captures the same structure with three
/// components:
///
/// * a per-PC *local* two-level predictor (local history register file
///   indexing a pattern table),
/// * a *global* gshare-style component,
/// * a per-PC 2-bit *chooser* that tracks which component has been more
///   accurate for each branch.
///
/// A small loop detector handles perfectly periodic branches (loop exits)
/// that neither table captures well.
#[derive(Debug, Clone)]
pub struct PentiumM {
    local_history: Vec<u16>,
    local_pattern: Vec<Counter2>,
    global_pattern: Vec<Counter2>,
    chooser: Vec<Counter2>,
    loop_count: Vec<u16>,
    loop_limit: Vec<u16>,
    loop_conf: Vec<u8>,
    ghr: u64,
}

const LOCAL_ENTRIES: usize = 1 << 10;
const LOCAL_HIST_BITS: u32 = 8;
const PATTERN_ENTRIES: usize = 1 << LOCAL_HIST_BITS;
const GLOBAL_ENTRIES: usize = 1 << 12;
const CHOOSER_ENTRIES: usize = 1 << 10;
const LOOP_ENTRIES: usize = 1 << 8;
const LOOP_CONF_MAX: u8 = 3;

impl PentiumM {
    /// Creates the predictor with its canonical sizing (~4 KiB of state).
    pub fn new() -> Self {
        PentiumM {
            local_history: vec![0; LOCAL_ENTRIES],
            local_pattern: vec![Counter2::weakly_taken(); LOCAL_ENTRIES * PATTERN_ENTRIES / 4],
            global_pattern: vec![Counter2::weakly_taken(); GLOBAL_ENTRIES],
            chooser: vec![Counter2::weakly_taken(); CHOOSER_ENTRIES],
            loop_count: vec![0; LOOP_ENTRIES],
            loop_limit: vec![0; LOOP_ENTRIES],
            loop_conf: vec![0; LOOP_ENTRIES],
            ghr: 0,
        }
    }

    #[inline]
    fn local_index(&self, pc: u64) -> usize {
        (pc as usize) & (LOCAL_ENTRIES - 1)
    }

    #[inline]
    fn pattern_index(&self, pc: u64, hist: u16) -> usize {
        let set = (pc as usize) & (LOCAL_ENTRIES / 4 - 1);
        (set * PATTERN_ENTRIES + (hist as usize & (PATTERN_ENTRIES - 1)))
            % (LOCAL_ENTRIES * PATTERN_ENTRIES / 4)
    }

    #[inline]
    fn global_index(&self, pc: u64) -> usize {
        ((pc ^ self.ghr) as usize) & (GLOBAL_ENTRIES - 1)
    }

    #[inline]
    fn loop_index(pc: u64) -> usize {
        (pc as usize) & (LOOP_ENTRIES - 1)
    }

    /// Loop detector: predicts not-taken once every `limit + 1` occurrences
    /// when a stable period has been observed.
    fn loop_predict(&self, pc: u64) -> Option<bool> {
        let i = Self::loop_index(pc);
        if self.loop_conf[i] >= LOOP_CONF_MAX && self.loop_limit[i] > 0 {
            Some(self.loop_count[i] < self.loop_limit[i])
        } else {
            None
        }
    }

    fn loop_update(&mut self, pc: u64, taken: bool) {
        let i = Self::loop_index(pc);
        if taken {
            self.loop_count[i] = self.loop_count[i].saturating_add(1);
        } else {
            let observed = self.loop_count[i];
            if self.loop_limit[i] == observed && observed >= 2 {
                self.loop_conf[i] = (self.loop_conf[i] + 1).min(LOOP_CONF_MAX);
            } else {
                self.loop_limit[i] = observed;
                self.loop_conf[i] = 0;
            }
            self.loop_count[i] = 0;
        }
    }
}

impl Default for PentiumM {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor for PentiumM {
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        let li = self.local_index(pc);
        let hist = self.local_history[li];
        let pi = self.pattern_index(pc, hist);
        let gi = self.global_index(pc);
        let ci = (pc as usize) & (CHOOSER_ENTRIES - 1);

        let local_pred = self.local_pattern[pi].predict();
        let global_pred = self.global_pattern[gi].predict();
        let table_pred = if self.chooser[ci].predict() {
            global_pred
        } else {
            local_pred
        };
        let pred = self.loop_predict(pc).unwrap_or(table_pred);

        // Updates.
        self.local_pattern[pi].update(taken);
        self.global_pattern[gi].update(taken);
        if local_pred != global_pred {
            // Train chooser toward whichever component was right.
            self.chooser[ci].update(global_pred == taken);
        }
        self.loop_update(pc, taken);
        self.local_history[li] = ((hist << 1) | u16::from(taken)) & ((1 << LOCAL_HIST_BITS) - 1);
        self.ghr = (self.ghr << 1) | u64::from(taken);

        pred == taken
    }

    fn name(&self) -> &'static str {
        "pentium_m"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy(p: &mut PentiumM, stream: impl Iterator<Item = (u64, bool)>, skip: usize) -> f64 {
        let mut total = 0;
        let mut correct = 0;
        for (i, (pc, taken)) in stream.enumerate() {
            let ok = p.observe(pc, taken);
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
    fn biased_branches_near_perfect() {
        let mut p = PentiumM::new();
        let acc = accuracy(&mut p, (0..2000).map(|_| (0x10u64, true)), 100);
        assert!(acc > 0.99);
    }

    #[test]
    fn loop_exit_branch_learned() {
        // A loop of 7 iterations: TTTTTTN repeating.
        let mut p = PentiumM::new();
        let stream = (0..7000).map(|i| (0x30u64, i % 7 != 6));
        let acc = accuracy(&mut p, stream, 3000);
        assert!(acc > 0.95, "got {acc}");
    }

    #[test]
    fn local_pattern_learned() {
        // Period-3 pattern on one PC.
        let pat = [true, false, false];
        let mut p = PentiumM::new();
        let stream = (0..6000).map(|i| (0x99u64, pat[i % 3]));
        let acc = accuracy(&mut p, stream, 3000);
        assert!(acc > 0.9, "got {acc}");
    }

    #[test]
    fn random_branches_are_hard() {
        let mut rng = vtx_rng::Xoshiro256pp::new(1);
        let mut p = PentiumM::new();
        let outcomes: Vec<bool> = (0..4000).map(|_| rng.next_bool()).collect();
        let acc = accuracy(&mut p, outcomes.iter().map(|&t| (0x77u64, t)), 1000);
        assert!(acc < 0.65, "random stream should not be predictable: {acc}");
    }
}
