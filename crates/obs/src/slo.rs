//! Multi-window SLO burn-rate monitoring.
//!
//! A [`BurnRateMonitor`] tracks, per service class, the fraction of "bad"
//! outcomes (deadline violations and sheds) against an error budget, over a
//! fast and a slow tumbling window — the classic SRE multi-window
//! burn-rate alert. An alert fires only when **both** windows exceed the
//! burn threshold: the fast window makes the alert responsive, the slow
//! window keeps one unlucky burst from paging.
//!
//! All rates are integer milli-units (`bad * 1000 / total`) over integer
//! window boundaries, so transitions are byte-deterministic per seed. Each
//! transition is returned as an [`AlertTransition`] for the caller to fold
//! into its deterministic event stream.

/// Configuration for the burn-rate monitor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloConfig {
    /// Error budget: allowed bad-outcome fraction, in milli-units
    /// (e.g. 50 ⇒ 5% of outcomes may be bad).
    pub(crate) budget_milli: u64,
    /// Burn-rate multiple that fires the alert, in milli-units
    /// (e.g. 2000 ⇒ burning budget at 2× the sustainable rate).
    pub(crate) fire_burn_milli: u64,
    /// Fast window width, microseconds.
    pub(crate) fast_window_us: u64,
    /// Slow window width, microseconds (≥ fast).
    pub(crate) slow_window_us: u64,
    /// Minimum outcomes in the fast window before it can vote — keeps a
    /// single early failure from firing on a 1/1 = 100% bad rate.
    pub(crate) min_events: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            budget_milli: 50,      // 5% error budget
            fire_burn_milli: 2000, // fire at 2× burn
            fast_window_us: 2_000_000,
            slow_window_us: 10_000_000,
            min_events: 10,
        }
    }
}

/// One alert state change, emitted into the deterministic event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertTransition {
    /// Event time, microseconds.
    pub t_us: u64,
    /// Service class index the alert concerns.
    pub class: usize,
    /// `true` when the alert starts firing, `false` when it clears.
    pub firing: bool,
    /// Fast-window burn rate at the transition, milli-multiples of budget.
    pub fast_burn_milli: u64,
    /// Slow-window burn rate at the transition, milli-multiples of budget.
    pub slow_burn_milli: u64,
}

/// Tumbling counting window: current bucket + previous closed bucket.
/// The reported rate blends both so a window boundary doesn't reset the
/// signal to 0/0 (previous counts stand in until the current bucket fills).
#[derive(Debug, Clone, Default)]
struct CountWindow {
    ordinal: u64,
    bad: u64,
    total: u64,
    prev_bad: u64,
    prev_total: u64,
}

impl CountWindow {
    fn observe(&mut self, ordinal: u64, bad: bool) {
        if ordinal != self.ordinal {
            // Tumble; skipped ordinals mean an idle gap — the old counts
            // are stale, keep at most one window of history.
            if ordinal == self.ordinal + 1 {
                self.prev_bad = self.bad;
                self.prev_total = self.total;
            } else {
                self.prev_bad = 0;
                self.prev_total = 0;
            }
            self.bad = 0;
            self.total = 0;
            self.ordinal = ordinal;
        }
        self.total += 1;
        if bad {
            self.bad += 1;
        }
    }

    fn bad(&self) -> u64 {
        self.bad + self.prev_bad
    }

    fn total(&self) -> u64 {
        self.total + self.prev_total
    }
}

#[derive(Debug, Clone, Default)]
struct ClassState {
    fast: CountWindow,
    slow: CountWindow,
    firing: bool,
}

/// Per-class multi-window burn-rate monitor.
#[derive(Debug, Clone)]
pub struct BurnRateMonitor {
    cfg: SloConfig,
    classes: Vec<ClassState>,
    transitions: u64,
}

impl BurnRateMonitor {
    /// A monitor over `classes` service classes.
    pub(crate) fn new(classes: usize, cfg: SloConfig) -> Self {
        let cfg = SloConfig {
            budget_milli: cfg.budget_milli.max(1),
            fast_window_us: cfg.fast_window_us.max(1),
            slow_window_us: cfg.slow_window_us.max(cfg.fast_window_us.max(1)),
            ..cfg
        };
        BurnRateMonitor {
            cfg,
            classes: vec![ClassState::default(); classes],
            transitions: 0,
        }
    }

    /// Total state transitions observed so far (firing + clearing).
    pub(crate) fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Whether the alert for `class` is currently firing.
    #[cfg(test)]
    fn is_firing(&self, class: usize) -> bool {
        self.classes.get(class).is_some_and(|c| c.firing)
    }

    /// Number of classes currently firing.
    pub(crate) fn firing_count(&self) -> usize {
        self.classes.iter().filter(|c| c.firing).count()
    }

    /// Records one outcome (`bad` = deadline violation or shed) for `class`
    /// at time `t_us`. Returns a transition if the alert state flipped.
    pub(crate) fn observe(
        &mut self,
        class: usize,
        t_us: u64,
        bad: bool,
    ) -> Option<AlertTransition> {
        let state = self.classes.get_mut(class)?;
        state.fast.observe(t_us / self.cfg.fast_window_us, bad);
        state.slow.observe(t_us / self.cfg.slow_window_us, bad);

        let fast_burn = burn_milli(state.fast.bad(), state.fast.total(), self.cfg.budget_milli);
        let slow_burn = burn_milli(state.slow.bad(), state.slow.total(), self.cfg.budget_milli);

        let enough = state.fast.total() >= self.cfg.min_events;
        let should_fire = enough
            && fast_burn >= self.cfg.fire_burn_milli
            && slow_burn >= self.cfg.fire_burn_milli;
        // Hysteresis: clear only once both windows fall below half the
        // firing threshold, so the alert doesn't flap at the boundary.
        let clear_at = self.cfg.fire_burn_milli / 2;
        let should_clear = fast_burn < clear_at && slow_burn < clear_at;

        let flip = if !state.firing && should_fire {
            state.firing = true;
            true
        } else if state.firing && should_clear {
            state.firing = false;
            true
        } else {
            false
        };
        if !flip {
            return None;
        }
        self.transitions += 1;
        Some(AlertTransition {
            t_us,
            class,
            firing: state.firing,
            fast_burn_milli: fast_burn,
            slow_burn_milli: slow_burn,
        })
    }
}

/// Burn rate in milli-multiples of the budget: `(bad/total) / budget`.
fn burn_milli(bad: u64, total: u64, budget_milli: u64) -> u64 {
    if total == 0 {
        return 0;
    }
    // (bad * 1000 / total) milli-rate, divided by budget milli-rate,
    // expressed in milli-multiples: bad * 1000 * 1000 / (total * budget).
    let num = u128::from(bad) * 1_000_000;
    let den = u128::from(total) * u128::from(budget_milli);
    (num / den) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SloConfig {
        SloConfig {
            budget_milli: 50,
            fire_burn_milli: 2000,
            fast_window_us: 1_000,
            slow_window_us: 10_000,
            min_events: 4,
        }
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let mut m = BurnRateMonitor::new(1, cfg());
        for t in 0..500u64 {
            // 2% bad, under the 5% budget (bad at the end of each stretch
            // so the cold-start windows are not dominated by one failure).
            let bad = t % 50 == 49;
            assert!(m.observe(0, t * 20, bad).is_none(), "fired at t={t}");
        }
        assert!(!m.is_firing(0));
        assert_eq!(m.transitions(), 0);
    }

    #[test]
    fn sustained_burn_fires_then_recovery_clears() {
        let mut m = BurnRateMonitor::new(1, cfg());
        let mut fired_at = None;
        // 50% bad — 10× burn vs 5% budget — across both windows.
        for t in 0..2000u64 {
            if let Some(tr) = m.observe(0, t * 20, t % 2 == 0) {
                assert!(tr.firing);
                assert!(tr.fast_burn_milli >= 2000);
                assert!(tr.slow_burn_milli >= 2000);
                fired_at = Some(tr.t_us);
                break;
            }
        }
        let fired_at = fired_at.expect("sustained burn must fire");
        assert!(m.is_firing(0));
        assert_eq!(m.firing_count(), 1);
        // Recovery: all-good traffic clears once both windows cool off.
        let mut cleared = false;
        for t in 0..5000u64 {
            if let Some(tr) = m.observe(0, fired_at + 1 + t * 20, false) {
                assert!(!tr.firing);
                cleared = true;
                break;
            }
        }
        assert!(cleared, "recovery must clear the alert");
        assert!(!m.is_firing(0));
        assert_eq!(m.transitions(), 2);
    }

    #[test]
    fn single_early_failure_is_held_back_by_min_events() {
        let mut m = BurnRateMonitor::new(1, cfg());
        assert!(m.observe(0, 0, true).is_none(), "1/1 bad must not fire");
        assert!(!m.is_firing(0));
    }

    #[test]
    fn fast_burst_alone_does_not_fire_without_slow_window() {
        let mut slow_cfg = cfg();
        slow_cfg.slow_window_us = 1_000_000;
        let mut m = BurnRateMonitor::new(1, slow_cfg);
        // Long healthy history fills the slow window with good outcomes...
        for t in 0..900u64 {
            m.observe(0, t * 1000, false);
        }
        // ...then a short 100%-bad burst: fast window is hot, slow is not.
        for t in 0..8u64 {
            assert!(m.observe(0, 900_000 + t * 10, true).is_none());
        }
        assert!(!m.is_firing(0));
    }

    #[test]
    fn classes_alert_independently() {
        let mut m = BurnRateMonitor::new(2, cfg());
        for t in 0..2000u64 {
            m.observe(0, t * 20, true); // class 0 melts down
            m.observe(1, t * 20, false); // class 1 is fine
        }
        assert!(m.is_firing(0));
        assert!(!m.is_firing(1));
        assert_eq!(m.firing_count(), 1);
    }

    #[test]
    fn transitions_are_deterministic() {
        let run = || {
            let mut m = BurnRateMonitor::new(1, cfg());
            let mut log = Vec::new();
            for t in 0..3000u64 {
                let bad = (t / 400) % 2 == 0; // alternating hot/cold phases
                if let Some(tr) = m.observe(0, t * 17, bad) {
                    log.push(tr);
                }
            }
            log
        };
        let a = run();
        assert_eq!(a, run());
        assert!(!a.is_empty(), "phased workload should transition");
    }

    #[test]
    fn out_of_range_class_is_ignored() {
        let mut m = BurnRateMonitor::new(1, cfg());
        assert!(m.observe(5, 0, true).is_none());
        assert!(!m.is_firing(5));
    }
}
