//! Branch direction predictors.
//!
//! Sniper's default core (`gainestown`) uses a Pentium-M-style hybrid
//! predictor; the paper's `bs_op` configuration (Table IV) replaces it with
//! TAGE. Both are implemented here, plus bimodal and gshare baselines used in
//! ablation benchmarks.
//!
//! Predictors expose a single [`BranchPredictor::observe`] entry point that
//! performs predict-then-update and reports whether the prediction was
//! correct — exactly what a trace-driven simulation needs. A configuration
//! builds a [`Predictor`], which dispatches by `match` rather than through a
//! vtable: `observe` runs once per simulated branch.

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
    pub fn build(self) -> Predictor {
        match self {
            PredictorKind::Bimodal => Predictor::Bimodal(Bimodal::new(14)),
            PredictorKind::Gshare => Predictor::Gshare(Gshare::new(14, 12)),
            PredictorKind::PentiumM => Predictor::PentiumM(PentiumM::new()),
            PredictorKind::Tage => Predictor::Tage(Tage::new()),
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

/// One predictor of any family, as [`PredictorKind::build`] makes it.
// A profiler owns exactly one, and TAGE's inline fold registers are read on
// every branch: boxing the large variant would only add a pointer chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Predictor {
    /// See [`Bimodal`].
    Bimodal(Bimodal),
    /// See [`Gshare`].
    Gshare(Gshare),
    /// See [`PentiumM`].
    PentiumM(PentiumM),
    /// See [`Tage`].
    Tage(Tage),
}

impl BranchPredictor for Predictor {
    #[inline]
    fn observe(&mut self, pc: u64, taken: bool) -> bool {
        match self {
            Predictor::Bimodal(p) => p.observe(pc, taken),
            Predictor::Gshare(p) => p.observe(pc, taken),
            Predictor::PentiumM(p) => p.observe(pc, taken),
            Predictor::Tage(p) => p.observe(pc, taken),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Predictor::Bimodal(p) => p.name(),
            Predictor::Gshare(p) => p.name(),
            Predictor::PentiumM(p) => p.name(),
            Predictor::Tage(p) => p.name(),
        }
    }
}

/// A heap table of `N` copies of `fill`, built without an `N`-sized
/// temporary on the stack.
pub(crate) fn table<T: Copy, const N: usize>(fill: T) -> Box<[T; N]> {
    vec![fill; N]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("the vector has N elements"))
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

    /// Every family over 300 k seeded branches from 4 096 aliasing sites
    /// (loop exits, biased, globally correlated and random), past TAGE's
    /// usefulness-aging period: `(mispredicts, FNV-1a of the outcomes)`.
    /// Pinned from the `Vec`-table Pentium-M, the refold-every-lookup TAGE
    /// and the boxed dispatch that the current representation replaced.
    #[test]
    fn golden_outcomes_of_every_family() {
        let mut rng = vtx_rng::Xoshiro256pp::new(0xB7A9);
        let mut trips = vec![0u64; 4096];
        let mut last = false;
        let stream: Vec<(u64, bool)> = (0..300_000)
            .map(|_| {
                let site = rng.next_range(4096);
                let taken = match site % 4 {
                    0 => {
                        trips[site as usize] += 1;
                        !trips[site as usize].is_multiple_of(2 + site % 7)
                    }
                    1 => rng.next_range(10) != 0,
                    2 => last,
                    _ => rng.next_bool(),
                };
                last = taken;
                (0x40_0000 + site * 13, taken)
            })
            .collect();
        let digest = |kind: PredictorKind| {
            let mut p = kind.build();
            let (mut miss, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
            for &(pc, taken) in &stream {
                let ok = p.observe(pc, taken);
                miss += u64::from(!ok);
                h = (h ^ u64::from(ok)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            (miss, h)
        };
        assert_eq!(
            digest(PredictorKind::Bimodal),
            (89148, 0x4ae0_8eed_58ea_ad09)
        );
        assert_eq!(
            digest(PredictorKind::Gshare),
            (93977, 0x83f8_9046_27bc_9fda)
        );
        assert_eq!(
            digest(PredictorKind::PentiumM),
            (85403, 0x2dd6_8941_2785_22cc)
        );
        assert_eq!(digest(PredictorKind::Tage), (91104, 0x8bef_dc41_665f_794f));
    }

    #[test]
    fn table_names_match_paper() {
        assert_eq!(PredictorKind::PentiumM.table_name(), "Pentium m");
        assert_eq!(PredictorKind::Tage.table_name(), "Tage");
    }
}
