//! Branch direction predictors.
//!
//! Sniper's default core (`gainestown`) uses a Pentium-M-style hybrid
//! predictor; the paper's `bs_op` configuration (Table IV) replaces it with
//! TAGE. Both are implemented here, plus bimodal and gshare baselines used in
//! ablation benchmarks.
//!
//! Predictors expose a single [`BranchPredictor::observe`] entry point that
//! performs predict-then-update and reports whether the prediction was
//! correct — exactly what a trace-driven simulation needs.

mod bimodal;
mod gshare;
mod pentium_m;
mod tage;

pub use bimodal::Bimodal;
pub use gshare::Gshare;
pub use pentium_m::PentiumM;
pub use tage::Tage;

/// Accumulated branch prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches observed.
    pub branches: u64,
    /// Branches whose direction was mispredicted.
    pub mispredicts: u64,
}

impl BranchStats {
    /// Misprediction ratio in [0, 1]; zero when no branches were observed.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// A trace-driven conditional branch direction predictor.
///
/// Implementations are deterministic: the same (pc, outcome) stream always
/// yields the same accuracy.
pub trait BranchPredictor: std::fmt::Debug + Send {
    /// Predicts the branch at `pc`, updates internal state with the real
    /// `taken` outcome, and returns `true` if the prediction was correct.
    fn observe(&mut self, pc: u64, taken: bool) -> bool;

    /// Short human-readable name.
    fn name(&self) -> &'static str;
}

/// Selectable predictor family, as named in Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Per-PC 2-bit counters.
    Bimodal,
    /// Global-history XOR PC indexed 2-bit counters.
    Gshare,
    /// Pentium-M-style hybrid (local + global with a chooser) — the baseline.
    PentiumM,
    /// Tagged geometric-history-length predictor — `bs_op`.
    Tage,
}

impl PredictorKind {
    /// Instantiates the predictor with its default sizing.
    pub fn build(self) -> Box<dyn BranchPredictor> {
        match self {
            PredictorKind::Bimodal => Box::new(Bimodal::new(14)),
            PredictorKind::Gshare => Box::new(Gshare::new(14, 12)),
            PredictorKind::PentiumM => Box::new(PentiumM::new()),
            PredictorKind::Tage => Box::new(Tage::new()),
        }
    }

    /// Table IV spelling of the predictor name.
    pub fn table_name(self) -> &'static str {
        match self {
            PredictorKind::Bimodal => "bimodal",
            PredictorKind::Gshare => "gshare",
            PredictorKind::PentiumM => "Pentium m",
            PredictorKind::Tage => "Tage",
        }
    }
}

/// A saturating 2-bit counter, the building block of most predictors here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counter2(u8);

impl Counter2 {
    pub(crate) fn weakly_taken() -> Self {
        Counter2(2)
    }

    #[inline]
    pub(crate) fn predict(self) -> bool {
        self.0 >= 2
    }

    #[inline]
    pub(crate) fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = Counter2::default();
        assert!(!c.predict());
        for _ in 0..10 {
            c.update(true);
        }
        assert!(c.predict());
        c.update(false);
        assert!(c.predict(), "3 -> 2 still predicts taken");
        c.update(false);
        assert!(!c.predict());
    }

    #[test]
    fn stats_ratio() {
        let s = BranchStats {
            branches: 1000,
            mispredicts: 25,
        };
        assert!((s.mispredict_ratio() - 0.025).abs() < 1e-12);
        assert_eq!(BranchStats::default().mispredict_ratio(), 0.0);
    }

    #[test]
    fn all_kinds_build() {
        for kind in [
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::PentiumM,
            PredictorKind::Tage,
        ] {
            let mut p = kind.build();
            // Perfectly biased branch must converge to near-perfect accuracy.
            let mut correct = 0;
            for _ in 0..1000 {
                if p.observe(0x400, true) {
                    correct += 1;
                }
            }
            assert!(correct > 950, "{}: {correct}", p.name());
        }
    }

    #[test]
    fn table_names_match_paper() {
        assert_eq!(PredictorKind::PentiumM.table_name(), "Pentium m");
        assert_eq!(PredictorKind::Tage.table_name(), "Tage");
    }
}
