//! Seeded, deterministic fault plans.
//!
//! A [`FaultPlan`] is a per-server failure script fixed before the run
//! starts: fail-stop crashes (the server dies at an instant and never
//! returns), fail-slow slowdown windows (work takes `factor`× as long while
//! the window is open — the classic gray-failure straggler), and transient
//! stalls (no progress at all for a bounded interval, e.g. a GC pause or a
//! noisy neighbor burst). Because the plan is data, not behavior, the
//! discrete-event engine and the real threaded executor can consume the
//! *same* script and be compared under identical failures.

use crate::error::ChaosError;
use vtx_rng::{derive, SplitMix64};

/// The kinds of fault a plan can schedule, for event logs and accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail-stop: the server dies and never returns.
    Crash,
    /// Fail-slow: a slowdown window opened.
    SlowDown,
    /// A transient full stall began.
    Stall,
}

impl FaultKind {
    /// Short name used in event logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::SlowDown => "slowdown",
            FaultKind::Stall => "stall",
        }
    }
}

/// A fail-slow window: work on the server takes `factor`× its nominal time
/// while `from_us <= t < until_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct Slowdown {
    /// Window start (µs).
    pub from_us: u64,
    /// Window end (µs, exclusive).
    pub until_us: u64,
    /// Wall-time multiplier (> 1).
    pub factor: f64,
}

/// A transient stall: zero progress while `at_us <= t < at_us + dur_us`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stall {
    /// Stall start (µs).
    pub at_us: u64,
    /// Stall duration (µs).
    pub dur_us: u64,
}

/// Everything scheduled against one server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerFaults {
    /// Fail-stop instant, if any.
    pub crash_us: Option<u64>,
    /// Fail-slow windows, sorted by start, non-overlapping.
    pub slowdowns: Vec<Slowdown>,
    /// Transient stalls, sorted by start.
    pub stalls: Vec<Stall>,
}

impl ServerFaults {
    fn is_empty(&self) -> bool {
        self.crash_us.is_none() && self.slowdowns.is_empty() && self.stalls.is_empty()
    }
}

/// Per-kind fault totals across a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Scheduled fail-stop crashes.
    pub crashes: u64,
    /// Scheduled slowdown windows.
    pub slowdowns: u64,
    /// Scheduled stalls.
    pub stalls: u64,
}

/// A complete failure script for a fleet, indexed by server position.
///
/// Queries against servers beyond the plan's length report "no faults", so
/// the all-healthy default ([`FaultPlan::default`]) works for any fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    servers: Vec<ServerFaults>,
}

impl FaultPlan {
    /// A plan with `servers` slots and no faults.
    pub fn none(servers: usize) -> Self {
        FaultPlan {
            servers: vec![ServerFaults::default(); servers],
        }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.servers.iter().all(ServerFaults::is_empty)
    }

    /// Number of server slots.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// The script for one server (default-empty past the plan's length).
    pub fn server(&self, server: usize) -> ServerFaults {
        self.servers.get(server).cloned().unwrap_or_default()
    }

    /// Adds a fail-stop crash at `at_us`.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::ServerOutOfRange`] for a bad index.
    pub fn with_crash(mut self, server: usize, at_us: u64) -> Result<Self, ChaosError> {
        let n = self.servers.len();
        let slot = self
            .servers
            .get_mut(server)
            .ok_or(ChaosError::ServerOutOfRange { server, servers: n })?;
        slot.crash_us = Some(match slot.crash_us {
            // Two crashes collapse to the earlier one: dead is dead.
            Some(prev) => prev.min(at_us),
            None => at_us,
        });
        Ok(self)
    }

    /// Adds a fail-slow window.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::ServerOutOfRange`], [`ChaosError::BadWindow`],
    /// [`ChaosError::BadFactor`], or [`ChaosError::OverlappingSlowdowns`]
    /// when the window collides with an existing one.
    pub fn with_slowdown(
        mut self,
        server: usize,
        from_us: u64,
        until_us: u64,
        factor: f64,
    ) -> Result<Self, ChaosError> {
        if from_us >= until_us {
            return Err(ChaosError::BadWindow { from_us, until_us });
        }
        if !factor.is_finite() || factor <= 1.0 {
            return Err(ChaosError::BadFactor { factor });
        }
        let n = self.servers.len();
        let slot = self
            .servers
            .get_mut(server)
            .ok_or(ChaosError::ServerOutOfRange { server, servers: n })?;
        if slot
            .slowdowns
            .iter()
            .any(|w| from_us < w.until_us && w.from_us < until_us)
        {
            return Err(ChaosError::OverlappingSlowdowns { server });
        }
        slot.slowdowns.push(Slowdown {
            from_us,
            until_us,
            factor,
        });
        slot.slowdowns.sort_by_key(|w| w.from_us);
        Ok(self)
    }

    /// Adds a transient stall.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::ServerOutOfRange`] or [`ChaosError::BadWindow`]
    /// for a zero-length stall.
    pub fn with_stall(
        mut self,
        server: usize,
        at_us: u64,
        dur_us: u64,
    ) -> Result<Self, ChaosError> {
        if dur_us == 0 {
            return Err(ChaosError::BadWindow {
                from_us: at_us,
                until_us: at_us,
            });
        }
        let n = self.servers.len();
        let slot = self
            .servers
            .get_mut(server)
            .ok_or(ChaosError::ServerOutOfRange { server, servers: n })?;
        slot.stalls.push(Stall { at_us, dur_us });
        slot.stalls.sort_by_key(|s| (s.at_us, s.dur_us));
        Ok(self)
    }

    /// A seeded random failure script over `[0, horizon_us)`: each server
    /// independently draws (via its own [`derive`]d SplitMix64 stream, so
    /// draws are order-free) a ~25% chance of a crash in the middle
    /// half of the horizon, a ~25% chance of a 2–4× slowdown window, and a
    /// ~25% chance of one stall of up to 5% of the horizon.
    pub fn storm(seed: u64, servers: usize, horizon_us: u64) -> Self {
        let mut plan = FaultPlan::none(servers);
        let h = horizon_us.max(1);
        for s in 0..servers {
            let mut rng = SplitMix64::new(derive(seed, s as u64));
            if rng.next_f64() < 0.25 {
                let at = h / 4 + rng.next_range((h / 2).max(1));
                plan = plan.with_crash(s, at).expect("index in range");
            }
            if rng.next_f64() < 0.25 {
                let from = rng.next_range((h / 2).max(1));
                let len = (h / 10).max(1) + rng.next_range((h / 4).max(1));
                let factor = 2.0 + 2.0 * rng.next_f64();
                plan = plan
                    .with_slowdown(s, from, from + len, factor)
                    .expect("first window cannot overlap");
            }
            if rng.next_f64() < 0.25 {
                let at = rng.next_range(h);
                let dur = 1 + rng.next_range((h / 20).max(1));
                plan = plan.with_stall(s, at, dur).expect("index in range");
            }
        }
        plan
    }

    /// When (if ever) `server` fail-stops.
    pub fn crash_us(&self, server: usize) -> Option<u64> {
        self.servers.get(server).and_then(|s| s.crash_us)
    }

    /// Whether `server` has fail-stopped by `now_us`.
    pub fn is_crashed(&self, server: usize, now_us: u64) -> bool {
        self.crash_us(server).is_some_and(|c| c <= now_us)
    }

    /// Per-kind totals across the whole plan.
    pub fn counts(&self) -> FaultCounts {
        let mut c = FaultCounts::default();
        for s in &self.servers {
            c.crashes += u64::from(s.crash_us.is_some());
            c.slowdowns += s.slowdowns.len() as u64;
            c.stalls += s.stalls.len() as u64;
        }
        c
    }

    /// Wall-clock duration of `nominal_us` of work started on `server` at
    /// `start_us`, integrating piecewise over the server's slowdown windows
    /// (progress at rate 1/factor) and stalls (no progress). With no faults
    /// this is the identity. Crashes are *not* applied here — whether the
    /// job's result is ever observed is the engine's business; inflation
    /// only answers "how long would it take".
    pub fn inflate(&self, server: usize, start_us: u64, nominal_us: u64) -> u64 {
        let Some(sf) = self.servers.get(server) else {
            return nominal_us;
        };
        if sf.slowdowns.is_empty() && sf.stalls.is_empty() {
            return nominal_us;
        }
        let start = start_us as f64;
        let mut t = start;
        let mut work = nominal_us as f64; // remaining nominal µs
        while work > 1e-9 {
            // Zero progress inside a stall: jump to its end.
            if let Some(st) = sf.stalls.iter().find(|st| {
                (st.at_us as f64) <= t && t < (st.at_us.saturating_add(st.dur_us)) as f64
            }) {
                t = st.at_us.saturating_add(st.dur_us) as f64;
                continue;
            }
            let factor = sf
                .slowdowns
                .iter()
                .find(|w| (w.from_us as f64) <= t && t < w.until_us as f64)
                .map_or(1.0, |w| w.factor);
            // Next rate-change boundary strictly after t.
            let mut next = f64::INFINITY;
            for w in &sf.slowdowns {
                for edge in [w.from_us, w.until_us] {
                    let e = edge as f64;
                    if e > t {
                        next = next.min(e);
                    }
                }
            }
            for st in &sf.stalls {
                for edge in [st.at_us, st.at_us.saturating_add(st.dur_us)] {
                    let e = edge as f64;
                    if e > t {
                        next = next.min(e);
                    }
                }
            }
            let span = next - t;
            let need = work * factor; // wall time to drain `work` at this rate
            if need <= span {
                t += need;
                work = 0.0;
            } else {
                work -= span / factor;
                t = next;
            }
        }
        (t - start).round() as u64
    }

    /// Deterministic one-line-per-fault text rendering (for logs/tests).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.servers.iter().enumerate() {
            if let Some(c) = s.crash_us {
                let _ = writeln!(out, "server {i} crash at={c}");
            }
            for w in &s.slowdowns {
                let _ = writeln!(
                    out,
                    "server {i} slowdown from={} until={} factor={:.2}",
                    w.from_us, w.until_us, w.factor
                );
            }
            for st in &s.stalls {
                let _ = writeln!(out, "server {i} stall at={} dur={}", st.at_us, st.dur_us);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_identity() {
        let p = FaultPlan::none(3);
        assert!(p.is_empty());
        assert_eq!(p.inflate(0, 100, 5_000), 5_000);
        assert_eq!(p.inflate(99, 0, 7), 7, "out-of-range server has no faults");
        assert_eq!(p.crash_us(1), None);
        assert_eq!(p.counts(), FaultCounts::default());
    }

    #[test]
    fn full_window_slowdown_multiplies_exactly() {
        let p = FaultPlan::none(2)
            .with_slowdown(1, 0, u64::MAX / 2, 3.0)
            .unwrap();
        assert_eq!(p.inflate(1, 1_000, 10_000), 30_000);
        assert_eq!(
            p.inflate(0, 1_000, 10_000),
            10_000,
            "other server untouched"
        );
    }

    #[test]
    fn partial_window_inflates_only_the_overlap() {
        // Work of 10_000 µs starting at t=0; slowdown 2x over [5_000, 50_000).
        // First 5_000 at full speed, remaining 5_000 at half speed = 10_000.
        let p = FaultPlan::none(1)
            .with_slowdown(0, 5_000, 50_000, 2.0)
            .unwrap();
        assert_eq!(p.inflate(0, 0, 10_000), 15_000);
        // Starting inside the window but finishing past its end.
        // 45_000 wall µs in-window drain 22_500 nominal; 7_500 remain at 1x.
        assert_eq!(p.inflate(0, 5_000, 30_000), 45_000 + 7_500);
    }

    #[test]
    fn stall_adds_dead_time() {
        let p = FaultPlan::none(1).with_stall(0, 2_000, 3_000).unwrap();
        // Job starts at 0, runs 5_000 nominal: 2_000 before the stall,
        // 3_000 stalled, 3_000 after.
        assert_eq!(p.inflate(0, 0, 5_000), 8_000);
        // A job starting after the stall is unaffected.
        assert_eq!(p.inflate(0, 6_000, 5_000), 5_000);
    }

    #[test]
    fn stall_inside_slowdown_composes() {
        let p = FaultPlan::none(1)
            .with_slowdown(0, 0, 100_000, 2.0)
            .unwrap()
            .with_stall(0, 1_000, 500)
            .unwrap();
        // 1_000 wall drains 500 nominal, stall 500, then 3_500 left * 2.
        assert_eq!(p.inflate(0, 0, 4_000), 1_000 + 500 + 7_000);
    }

    #[test]
    fn crash_queries() {
        let p = FaultPlan::none(3).with_crash(2, 42_000).unwrap();
        assert_eq!(p.crash_us(2), Some(42_000));
        assert!(!p.is_crashed(2, 41_999));
        assert!(p.is_crashed(2, 42_000));
        assert!(!p.is_crashed(0, u64::MAX));
        // Double crash keeps the earlier instant.
        let p = p.with_crash(2, 10_000).unwrap();
        assert_eq!(p.crash_us(2), Some(10_000));
        let p = p.with_crash(2, 99_000).unwrap();
        assert_eq!(p.crash_us(2), Some(10_000));
    }

    #[test]
    fn builders_validate() {
        assert_eq!(
            FaultPlan::none(1).with_crash(1, 0).unwrap_err(),
            ChaosError::ServerOutOfRange {
                server: 1,
                servers: 1
            }
        );
        assert!(matches!(
            FaultPlan::none(1)
                .with_slowdown(0, 50, 50, 2.0)
                .unwrap_err(),
            ChaosError::BadWindow { .. }
        ));
        assert!(matches!(
            FaultPlan::none(1).with_slowdown(0, 0, 10, 1.0).unwrap_err(),
            ChaosError::BadFactor { .. }
        ));
        assert!(matches!(
            FaultPlan::none(1).with_stall(0, 5, 0).unwrap_err(),
            ChaosError::BadWindow { .. }
        ));
        let p = FaultPlan::none(1).with_slowdown(0, 0, 100, 2.0).unwrap();
        assert_eq!(
            p.with_slowdown(0, 50, 150, 3.0).unwrap_err(),
            ChaosError::OverlappingSlowdowns { server: 0 }
        );
    }

    #[test]
    fn storm_is_seed_deterministic_and_nontrivial() {
        let a = FaultPlan::storm(42, 16, 60_000_000);
        let b = FaultPlan::storm(42, 16, 60_000_000);
        assert_eq!(a, b);
        assert_eq!(a.render(), b.render());
        let c = FaultPlan::storm(43, 16, 60_000_000);
        assert_ne!(a, c, "different seeds draw different storms");
        let counts = a.counts();
        assert!(
            counts.crashes + counts.slowdowns + counts.stalls > 0,
            "a 16-server storm at ~25% rates should schedule something"
        );
    }

    #[test]
    fn counts_and_render_cover_every_kind() {
        let p = FaultPlan::none(2)
            .with_crash(0, 1_000)
            .unwrap()
            .with_slowdown(1, 0, 500, 2.5)
            .unwrap()
            .with_stall(1, 100, 50)
            .unwrap();
        let c = p.counts();
        assert_eq!((c.crashes, c.slowdowns, c.stalls), (1, 1, 1));
        let text = p.render();
        assert!(text.contains("crash at=1000"));
        assert!(text.contains("slowdown from=0 until=500 factor=2.50"));
        assert!(text.contains("stall at=100 dur=50"));
    }

    #[test]
    fn fault_kind_names() {
        assert_eq!(FaultKind::Crash.name(), "crash");
        assert_eq!(FaultKind::SlowDown.name(), "slowdown");
        assert_eq!(FaultKind::Stall.name(), "stall");
    }
}
