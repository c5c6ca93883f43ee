use super::{table, BranchPredictor, Counter2};

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
///
/// Every table has a power-of-two size fixed at compile time and is indexed
/// under a mask. The local history and the chooser share an index, so they
/// live in one per-PC record; so do the loop detector's three fields.
#[derive(Debug, Clone)]
pub struct PentiumM {
    per_pc: Box<[PcState; LOCAL_ENTRIES]>,
    local_pattern: Box<[Counter2; PATTERN_TABLE]>,
    global_pattern: Box<[Counter2; GLOBAL_ENTRIES]>,
    loops: Box<[LoopState; LOOP_ENTRIES]>,
    ghr: u64,
}

/// What the predictor keeps per low-PC slot.
#[derive(Debug, Clone, Copy)]
struct PcState {
    /// The last `LOCAL_HIST_BITS` outcomes, newest in bit 0.
    history: u16,
    /// Set: trust the global component; clear: the local one.
    chooser: Counter2,
}

/// One loop-detector entry.
#[derive(Debug, Clone, Copy, Default)]
struct LoopState {
    /// Taken outcomes since the last not-taken.
    count: u16,
    /// The trip count last observed.
    limit: u16,
    /// How many times in a row `limit` repeated.
    conf: u8,
}

const LOCAL_ENTRIES: usize = 1 << 10;
const LOCAL_HIST_BITS: u32 = 8;
/// A quarter of the local slots share one row of the pattern table, one
/// counter per history value.
const PATTERN_TABLE: usize = (LOCAL_ENTRIES / 4) << LOCAL_HIST_BITS;
const GLOBAL_ENTRIES: usize = 1 << 12;
const LOOP_ENTRIES: usize = 1 << 8;
const LOOP_CONF_MAX: u8 = 3;

impl PentiumM {
    /// Creates the predictor with its canonical sizing (~74 KiB of state,
    /// 64 KiB of it the local pattern table).
    pub fn new() -> Self {
        PentiumM {
            per_pc: table(PcState {
                history: 0,
                chooser: Counter2::weakly_taken(),
            }),
            local_pattern: table(Counter2::weakly_taken()),
            global_pattern: table(Counter2::weakly_taken()),
            loops: table(LoopState::default()),
            ghr: 0,
        }
    }
}

impl LoopState {
    /// Predicts not-taken once every `limit + 1` occurrences when a stable
    /// period has been observed.
    #[inline]
    fn predict(self) -> Option<bool> {
        (self.conf >= LOOP_CONF_MAX && self.limit > 0).then_some(self.count < self.limit)
    }

    #[inline]
    fn update(&mut self, taken: bool) {
        if taken {
            self.count = self.count.saturating_add(1);
        } else {
            if self.limit == self.count && self.count >= 2 {
                self.conf = (self.conf + 1).min(LOOP_CONF_MAX);
            } else {
                self.limit = self.count;
                self.conf = 0;
            }
            self.count = 0;
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
        let slot = &mut self.per_pc[pc as usize & (LOCAL_ENTRIES - 1)];
        let hist = slot.history;
        let pi = ((pc as usize & (LOCAL_ENTRIES / 4 - 1)) << LOCAL_HIST_BITS | usize::from(hist))
            & (PATTERN_TABLE - 1);
        let gi = (pc ^ self.ghr) as usize & (GLOBAL_ENTRIES - 1);
        let lp = &mut self.loops[pc as usize & (LOOP_ENTRIES - 1)];

        let local_pred = self.local_pattern[pi].predict();
        let global_pred = self.global_pattern[gi].predict();
        let table_pred = if slot.chooser.predict() {
            global_pred
        } else {
            local_pred
        };
        let pred = lp.predict().unwrap_or(table_pred);

        // Updates.
        self.local_pattern[pi].update(taken);
        self.global_pattern[gi].update(taken);
        if local_pred != global_pred {
            // Train chooser toward whichever component was right.
            slot.chooser.update(global_pred == taken);
        }
        lp.update(taken);
        slot.history = ((hist << 1) | u16::from(taken)) & ((1 << LOCAL_HIST_BITS) - 1);
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
