//! Graceful degradation: trade output quality for survival.
//!
//! When detected live capacity drops below offered load (servers crashed,
//! stragglers dragging), an admission queue only delays the reckoning —
//! backlog is the integral of (offered − served). The ladder watches
//! backlog per unit of *detected-up* capacity and steps the x264 preset
//! toward `ultrafast` along the Table II order, cutting per-job cost so the
//! shrunken fleet can keep absorbing the offered rate; hysteresis (the
//! de-escalation threshold sits well below the escalation threshold) keeps
//! it from thrashing at a boundary.

use vtx_codec::Preset;

/// Queued jobs tolerated per unit of detected-up capacity (sum of healthy
/// servers' speed grades) before the ladder escalates a level.
const BACKLOG_PER_UNIT: f64 = 4.0;

/// Maximum preset steps the ladder may take toward `ultrafast`.
const MAX_LEVEL: u8 = 4;

/// Ladder tuning.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradeConfig {
    /// Master switch (off by default: failures alone never change output
    /// quality unless the operator opts in).
    pub enabled: bool,
}

/// The ladder state machine: one step up or down per observation.
#[derive(Debug, Clone)]
pub struct DegradeLadder {
    cfg: DegradeConfig,
    level: u8,
}

impl DegradeLadder {
    /// A ladder at level 0.
    pub fn new(cfg: DegradeConfig) -> Self {
        DegradeLadder { cfg, level: 0 }
    }

    /// Current degradation level (0 = full quality).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Feeds one observation of backlog vs detected-up capacity and returns
    /// the (possibly stepped) level. Escalates when backlog exceeds the
    /// per-level threshold, de-escalates when it falls below half of the
    /// *previous* level's threshold.
    pub fn observe(&mut self, backlog: usize, up_capacity: f64) -> u8 {
        if !self.cfg.enabled {
            return 0;
        }
        let unit = (BACKLOG_PER_UNIT * up_capacity.max(0.0)).max(1.0);
        let b = backlog as f64;
        if b > unit * f64::from(self.level + 1) && self.level < MAX_LEVEL {
            self.level += 1;
        } else if self.level > 0 && b < unit * f64::from(self.level) * 0.5 {
            self.level -= 1;
        }
        self.level
    }
}

/// Steps `preset` `level` places toward `ultrafast` along [`Preset::ALL`]
/// (Table II order). Level 0 is the identity; the walk saturates at
/// `ultrafast`.
pub fn downgrade(preset: Preset, level: u8) -> Preset {
    let idx = Preset::ALL.iter().position(|&p| p == preset).unwrap_or(0);
    Preset::ALL[idx.saturating_sub(level as usize)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> DegradeLadder {
        DegradeLadder::new(DegradeConfig { enabled: true })
    }

    #[test]
    fn disabled_ladder_never_moves() {
        let mut l = DegradeLadder::new(DegradeConfig::default());
        assert_eq!(l.observe(1_000_000, 1.0), 0);
        assert_eq!(l.level(), 0);
    }

    #[test]
    fn escalates_one_step_per_observation_and_saturates() {
        let mut l = ladder();
        // Capacity 0.5 → threshold 2 jobs per level; backlog 100 is over
        // every level's bar but the ladder still walks one step at a time.
        assert_eq!(l.observe(100, 0.5), 1);
        assert_eq!(l.observe(100, 0.5), 2);
        assert_eq!(l.observe(100, 0.5), 3);
        assert_eq!(l.observe(100, 0.5), 4);
        assert_eq!(l.observe(100, 0.5), 4, "clamped at MAX_LEVEL");
    }

    #[test]
    fn hysteresis_deescalates_only_well_below_the_bar() {
        let mut l = ladder();
        // Level 1 (its threshold was 2).
        l.observe(100, 0.5);
        // Backlog 3 is below the level-2 escalation bar (4) but not below
        // half the level-1 bar (1): hold.
        assert_eq!(l.observe(3, 0.5), 1);
        // Backlog 0 clears the de-escalation bar.
        assert_eq!(l.observe(0, 0.5), 0);
        assert_eq!(l.observe(0, 0.5), 0, "stays at full quality");
    }

    #[test]
    fn zero_capacity_still_has_a_floor_threshold() {
        let mut l = ladder();
        // All servers down: unit clamps to 1 job; any backlog escalates.
        assert_eq!(l.observe(2, 0.0), 1);
    }

    #[test]
    fn escalation_boundary_is_strictly_greater_than() {
        // BACKLOG_PER_UNIT 4, capacity 0.5 → the level-1 escalation bar
        // sits at exactly 2 jobs. Landing *on* the bar must not escalate
        // (strict >); one job past it must.
        let mut l = ladder();
        assert_eq!(l.observe(2, 0.5), 0, "b == unit*(level+1) holds");
        assert_eq!(l.observe(3, 0.5), 1, "b > unit*(level+1) escalates");
        // At level 1 the next bar is 4: again exact stays, above steps.
        assert_eq!(l.observe(4, 0.5), 1);
        assert_eq!(l.observe(5, 0.5), 2);
    }

    #[test]
    fn deescalation_boundary_is_strictly_less_than() {
        // Climb to level 2 (bars at 2 and 4), then probe the de-escalation
        // bar: half of the *current* level's threshold = 2·2·0.5 = 2.
        let mut l = ladder();
        l.observe(100, 0.5);
        l.observe(100, 0.5);
        assert_eq!(l.level(), 2);
        assert_eq!(l.observe(2, 0.5), 2, "b == unit*level*0.5 holds");
        assert_eq!(l.observe(1, 0.5), 1, "b < unit*level*0.5 de-escalates");
        // Level 1's de-escalation bar is 1: exactly 1 holds, 0 clears it.
        assert_eq!(l.observe(1, 0.5), 1);
        assert_eq!(l.observe(0, 0.5), 0);
    }

    #[test]
    fn negative_capacity_is_clamped_to_the_floor_unit() {
        // up_capacity is clamped at 0 before the unit floor of 1 job, so a
        // pathological negative estimate behaves like zero capacity.
        let mut l = ladder();
        assert_eq!(l.observe(2, -5.0), 1);
    }

    #[test]
    fn downgrade_walks_table_ii_toward_ultrafast() {
        assert_eq!(downgrade(Preset::Medium, 0), Preset::Medium);
        assert_eq!(downgrade(Preset::Medium, 1), Preset::Fast);
        assert_eq!(downgrade(Preset::Medium, 3), Preset::Veryfast);
        assert_eq!(downgrade(Preset::Superfast, 5), Preset::Ultrafast);
        assert_eq!(downgrade(Preset::Ultrafast, 2), Preset::Ultrafast);
    }
}
