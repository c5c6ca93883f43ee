//! Heartbeat-based failure detection.
//!
//! Every server is assumed to emit a heartbeat every `heartbeat_us`; a
//! server that misses `suspect_missed` consecutive beats becomes
//! [`Health::Suspected`] (policies should steer work away but the job on it
//! is not yet written off), and after `down_missed` beats it is declared
//! [`Health::Down`] (its in-flight work is requeued and it leaves the
//! dispatchable set for good). The gap between a crash and `Down` is the
//! *detection latency* — the window in which an engine keeps dispatching
//! into a dead server — and is fully determined by the config, which is
//! what keeps faulted simulations byte-reproducible.
//!
//! The detector itself is clock-agnostic: callers feed it the instant each
//! server's beats stopped (the fault injector knows, since it scripted the
//! crash) and ask for the classification at any timestamp.

/// Detector view of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Heartbeats current; dispatchable.
    Up,
    /// Missed enough beats to distrust; dispatchable but penalized.
    Suspected,
    /// Declared failed; removed from the dispatchable set.
    Down,
}

impl Health {
    /// Short name used in event logs.
    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            Health::Up => "up",
            Health::Suspected => "suspected",
            Health::Down => "down",
        }
    }
}

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Heartbeat period (µs).
    pub heartbeat_us: u64,
    /// Missed beats before a server is suspected.
    pub suspect_missed: u32,
    /// Missed beats before a server is declared down (>= suspect_missed).
    pub down_missed: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            heartbeat_us: 250_000,
            suspect_missed: 2,
            down_missed: 4,
        }
    }
}

impl DetectorConfig {
    /// How long after beats stop a server becomes suspected.
    fn suspect_delay_us(&self) -> u64 {
        self.heartbeat_us
            .saturating_mul(u64::from(self.suspect_missed))
    }

    /// How long after beats stop a server is declared down.
    fn down_delay_us(&self) -> u64 {
        self.heartbeat_us
            .saturating_mul(u64::from(self.down_missed))
    }

    /// When a server whose beats stopped at `stopped_us` becomes suspected.
    pub fn suspect_at(&self, stopped_us: u64) -> u64 {
        stopped_us.saturating_add(self.suspect_delay_us())
    }

    /// When a server whose beats stopped at `stopped_us` is declared down.
    pub fn down_at(&self, stopped_us: u64) -> u64 {
        stopped_us.saturating_add(self.down_delay_us())
    }
}

/// Tracks when each server's heartbeats stopped and classifies on demand.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    cfg: DetectorConfig,
    stopped_us: Vec<Option<u64>>,
}

impl FailureDetector {
    /// A detector for `servers` servers, all beating.
    pub fn new(cfg: DetectorConfig, servers: usize) -> Self {
        FailureDetector {
            cfg,
            stopped_us: vec![None; servers],
        }
    }

    /// Records that `server`'s heartbeats stopped at `at_us` (earliest
    /// instant wins if called twice).
    pub fn stop_beats(&mut self, server: usize, at_us: u64) {
        if let Some(slot) = self.stopped_us.get_mut(server) {
            *slot = Some(slot.map_or(at_us, |prev| prev.min(at_us)));
        }
    }

    /// Classification of `server` as of `now_us`.
    pub fn classify(&self, server: usize, now_us: u64) -> Health {
        let Some(Some(stopped)) = self.stopped_us.get(server) else {
            return Health::Up;
        };
        if now_us >= self.cfg.down_at(*stopped) {
            Health::Down
        } else if now_us >= self.cfg.suspect_at(*stopped) {
            Health::Suspected
        } else {
            Health::Up
        }
    }
}

/// Detected live capacity of a fleet: the sum of the speed grades of the
/// servers currently classified [`Health::Up`], walked in fleet order (a
/// fixed summation order keeps the f64 sum byte-reproducible).
///
/// `Suspected` servers are excluded because work steered at them is at
/// risk, `Down` servers because they are gone. The serving core derives the
/// same sum inline, over its active servers, for the degrade ladder and the
/// autoscaler; this form is the tests' reference.
#[cfg(test)]
fn capacity_estimate(healths: &[Health], speeds: &[f64]) -> f64 {
    healths
        .iter()
        .zip(speeds)
        .filter(|(h, _)| **h == Health::Up)
        .map(|(_, s)| *s)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_follow_the_config() {
        let cfg = DetectorConfig {
            heartbeat_us: 100,
            suspect_missed: 2,
            down_missed: 5,
        };
        assert_eq!(cfg.suspect_delay_us(), 200);
        assert_eq!(cfg.down_delay_us(), 500);
        assert_eq!(cfg.suspect_at(1_000), 1_200);
        assert_eq!(cfg.down_at(1_000), 1_500);
    }

    #[test]
    fn classification_walks_up_suspected_down() {
        let cfg = DetectorConfig {
            heartbeat_us: 100,
            suspect_missed: 2,
            down_missed: 4,
        };
        let mut d = FailureDetector::new(cfg, 2);
        assert_eq!(
            d.classify(0, u64::MAX),
            Health::Up,
            "beating server stays up"
        );
        d.stop_beats(0, 1_000);
        assert_eq!(d.classify(0, 1_199), Health::Up);
        assert_eq!(d.classify(0, 1_200), Health::Suspected);
        assert_eq!(d.classify(0, 1_399), Health::Suspected);
        assert_eq!(d.classify(0, 1_400), Health::Down);
        assert_eq!(d.classify(1, 1_400), Health::Up, "other server untouched");
        assert_eq!(d.classify(9, 0), Health::Up, "out of range is up");
    }

    #[test]
    fn earliest_stop_wins() {
        let mut d = FailureDetector::new(DetectorConfig::default(), 1);
        d.stop_beats(0, 5_000);
        d.stop_beats(0, 2_000);
        d.stop_beats(0, 9_000);
        let cfg = d.cfg;
        assert_eq!(d.classify(0, cfg.down_at(2_000)), Health::Down);
    }

    #[test]
    fn health_names() {
        assert_eq!(Health::Up.name(), "up");
        assert_eq!(Health::Suspected.name(), "suspected");
        assert_eq!(Health::Down.name(), "down");
    }

    #[test]
    fn zero_heartbeat_interval_detects_immediately() {
        // Degenerate config: a zero heartbeat period collapses both delays
        // to zero, so a server is suspected *and* down the instant its
        // beats stop — no detection window at all.
        let cfg = DetectorConfig {
            heartbeat_us: 0,
            suspect_missed: 2,
            down_missed: 4,
        };
        assert_eq!(cfg.suspect_delay_us(), 0);
        assert_eq!(cfg.down_delay_us(), 0);
        assert_eq!(cfg.suspect_at(7_000), 7_000);
        assert_eq!(cfg.down_at(7_000), 7_000);
        let mut d = FailureDetector::new(cfg, 1);
        d.stop_beats(0, 7_000);
        assert_eq!(d.classify(0, 6_999), Health::Up);
        assert_eq!(d.classify(0, 7_000), Health::Down);
    }

    #[test]
    fn delays_saturate_instead_of_overflowing() {
        let cfg = DetectorConfig {
            heartbeat_us: u64::MAX,
            suspect_missed: 3,
            down_missed: 5,
        };
        assert_eq!(cfg.suspect_delay_us(), u64::MAX);
        assert_eq!(cfg.down_at(u64::MAX), u64::MAX);
        let mut d = FailureDetector::new(cfg, 1);
        d.stop_beats(0, 0);
        // The down threshold saturates at u64::MAX and classify uses >=,
        // so the terminal instant itself still classifies as Down.
        assert_eq!(d.classify(0, u64::MAX - 1), Health::Up);
        assert_eq!(d.classify(0, u64::MAX), Health::Down);
    }

    #[test]
    fn capacity_estimate_at_zero_and_full_fleet() {
        let speeds = [0.9, 1.0, 1.05, 1.0, 1.15];
        let full = vec![Health::Up; 5];
        let sum: f64 = speeds.iter().sum();
        assert_eq!(capacity_estimate(&full, &speeds), sum, "full fleet");
        let none = vec![Health::Down; 5];
        assert_eq!(capacity_estimate(&none, &speeds), 0.0, "all servers down");
        assert_eq!(capacity_estimate(&[], &[]), 0.0, "empty fleet");
        let mixed = [
            Health::Up,
            Health::Suspected,
            Health::Down,
            Health::Up,
            Health::Down,
        ];
        assert_eq!(
            capacity_estimate(&mixed, &speeds),
            0.9 + 1.0,
            "suspected and down servers are excluded"
        );
    }

    #[test]
    fn capacity_estimate_sums_in_fleet_order() {
        // Fixed summation order: the same inputs must produce the same
        // bits, which the serving engine relies on for byte determinism.
        let speeds = [1.0e16, 1.0, -1.0e16, 3.0];
        let healths = vec![Health::Up; 4];
        let a = capacity_estimate(&healths, &speeds);
        let b = capacity_estimate(&healths, &speeds);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
