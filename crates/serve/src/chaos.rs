//! Chaos wiring for the serving layer: one config that both engines obey.
//!
//! [`ChaosConfig`] bundles the failure script ([`FaultPlan`]), the failure
//! detector tuning, the hedging trigger and the graceful-degradation ladder
//! into a field of [`crate::service::ServeConfig`]. The default is fully
//! disabled — an un-faulted run behaves (and renders) exactly as before —
//! and because the config is plain data, a faulted simulation remains a
//! pure function of `(workload, fleet, policy, config, seed)`.

use crate::rng::{derive, SplitMix64};

pub use vtx_chaos::{
    DegradeConfig, DetectorConfig, FailureDetector, FaultCounts, FaultKind, FaultPlan, Health,
};

/// Fault-injection and recovery configuration for a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// The failure script (default: no faults).
    pub plan: FaultPlan,
    /// Heartbeat failure-detector tuning.
    pub detector: DetectorConfig,
    /// Hedged re-dispatch trigger for the interactive class: once an
    /// in-flight interactive job has burned this fraction of its deadline
    /// budget, a duplicate is dispatched to the best idle server and the
    /// first completion wins. `>= 1.0` disables hedging.
    pub hedge_after: f64,
    /// Graceful-degradation ladder (disabled by default).
    pub degrade: DegradeConfig,
    /// Seeded capped-exponential backoff on requeue after a fault or
    /// timeout (disabled by default: requeues rejoin the queue
    /// immediately, exactly as before).
    pub backoff: BackoffConfig,
    /// Per-server circuit breaker (disabled by default).
    pub breaker: BreakerConfig,
    /// Deterministic autoscaler (disabled by default: the whole fleet is
    /// active for the entire run, exactly as before).
    pub autoscale: AutoscaleConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            plan: FaultPlan::default(),
            detector: DetectorConfig::default(),
            hedge_after: 1.0,
            degrade: DegradeConfig::default(),
            backoff: BackoffConfig::default(),
            breaker: BreakerConfig::default(),
            autoscale: AutoscaleConfig::default(),
        }
    }
}

/// Seeded capped-exponential backoff with jitter, applied when a job is
/// requeued off a dead server or after a timeout. Replaces the immediate
/// requeue (which re-dispatches the whole recovered backlog in one storm)
/// with a per-job delay that doubles per attempt, is capped, and carries
/// deterministic per-job jitter so released jobs do not re-arrive in
/// lockstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// First-retry delay (µs). 0 disables backoff entirely (the legacy
    /// immediate-requeue path, byte-identical).
    pub base_us: u64,
    /// Upper bound on the exponential delay before jitter (µs).
    pub cap_us: u64,
    /// Jitter amplitude in milli-fractions of the delay: the seeded
    /// per-(job, attempt) draw adds up to `delay · jitter_milli / 1000`.
    pub jitter_milli: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_us: 0,
            cap_us: 2_000_000,
            jitter_milli: 500,
        }
    }
}

impl BackoffConfig {
    /// The overload runs' backoff: a 50 ms first retry, the default cap
    /// and jitter.
    pub fn overload() -> Self {
        BackoffConfig {
            base_us: 50_000,
            ..BackoffConfig::default()
        }
    }

    /// Whether backoff is active.
    fn enabled(&self) -> bool {
        self.base_us > 0
    }

    /// The requeue delay for a job's `attempts`-th retry: a pure function
    /// of `(seed, id, attempts)` — `base · 2^(attempts-1)` capped at
    /// `cap_us`, plus a seeded jitter of up to `jitter_milli/1000` of the
    /// capped delay. Returns `None` when backoff is disabled.
    pub(crate) fn delay_us(&self, seed: u64, id: u64, attempts: u32) -> Option<u64> {
        if !self.enabled() {
            return None;
        }
        let shift = attempts.saturating_sub(1).min(32);
        let raw = self
            .base_us
            .checked_shl(shift)
            .unwrap_or(self.cap_us)
            .min(self.cap_us);
        let mut rng = SplitMix64::new(derive(
            seed,
            id.wrapping_mul(0x9E3779B1)
                .wrapping_add(u64::from(attempts)),
        ));
        let jitter_milli = if self.jitter_milli == 0 {
            0
        } else {
            rng.next_range(self.jitter_milli + 1)
        };
        let jitter = (u128::from(raw) * u128::from(jitter_milli) / 1000) as u64;
        Some(raw.saturating_add(jitter))
    }
}

/// Per-server circuit breaker: after `failures` consecutive requeues or
/// timeouts on one server, the server is excluded from dispatch for
/// `open_us` (the breaker "opens"), then re-admitted. Composes with the
/// failure detector: the breaker catches servers the detector still calls
/// `Up` (fail-slow boxes timing out work) without waiting for heartbeats
/// to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Master switch (off by default).
    pub enabled: bool,
    /// Consecutive failures (timeouts or requeues) that trip the breaker.
    pub failures: u32,
    /// How long a tripped breaker holds the server out of dispatch (µs).
    pub open_us: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            enabled: false,
            failures: 3,
            open_us: 2_000_000,
        }
    }
}

/// Deterministic autoscaler tuning. The fleet passed to the engine is the
/// *provisioned* fleet (`max` servers drawn from the Table IV mix); only
/// the first `min` are initially active. Every `eval_every_us` the
/// autoscaler compares queue backlog against the chaos detector's live
/// capacity estimate over *active* servers and scales out (with a seeded
/// warm-up delay before the new server takes work) or scales in (draining
/// any running job through the existing stranded-work requeue path).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Master switch (off by default: every server is active for the
    /// whole run and nothing changes).
    pub enabled: bool,
    /// Floor on active servers (also the initial active count).
    pub min_servers: usize,
    /// Ceiling on active servers (≤ the provisioned fleet size).
    pub max_servers: usize,
    /// Evaluation period (µs).
    pub eval_every_us: u64,
    /// Base warm-up delay between a scale-out decision and the server
    /// taking work (µs).
    pub warmup_us: u64,
    /// Seeded per-server jitter on the warm-up, in milli-fractions of
    /// `warmup_us` (so simultaneous scale-outs do not come up in lockstep).
    pub warmup_jitter_milli: u64,
    /// Scale out when queued backlog exceeds this many jobs per unit of
    /// active detected-up capacity.
    pub backlog_high: f64,
    /// Scale in when backlog falls below this many jobs per unit.
    pub backlog_low: f64,
    /// Servers added or removed per decision.
    pub step: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            enabled: false,
            min_servers: 1,
            max_servers: 1,
            eval_every_us: 500_000,
            warmup_us: 2_000_000,
            warmup_jitter_milli: 250,
            backlog_high: 3.0,
            backlog_low: 1.0,
            step: 1,
        }
    }
}

impl AutoscaleConfig {
    /// The warm-up delay for a scale-out of `server`: `warmup_us` plus a
    /// seeded per-server jitter of up to `warmup_jitter_milli/1000` of the
    /// base. Pure in `(seed, server)`.
    pub(crate) fn warmup_delay_us(&self, seed: u64, server: usize) -> u64 {
        let mut rng = SplitMix64::new(derive(seed, 0x5CA1E0u64.wrapping_add(server as u64)));
        let jitter_milli = if self.warmup_jitter_milli == 0 {
            0
        } else {
            rng.next_range(self.warmup_jitter_milli + 1)
        };
        let jitter = (u128::from(self.warmup_us) * u128::from(jitter_milli) / 1000) as u64;
        self.warmup_us.saturating_add(jitter)
    }
}

/// The instant a hedge for a job becomes due, or `None` when hedging is
/// disabled (`hedge_after >= 1.0`, or not a meaningful fraction).
///
/// The fraction is quantized to milli-units and applied in integer
/// arithmetic (`u128` intermediate), so the result is exact for any budget
/// up to `u64::MAX`. The old `(budget as f64 * hedge_after) as u64` path
/// lost precision above 2^53 µs and rounded `u64::MAX`-sized budgets *up*
/// through the f64 representation of the budget itself.
pub(crate) fn hedge_due_us(arrival_us: u64, deadline_us: u64, hedge_after: f64) -> Option<u64> {
    let milli = (hedge_after * 1000.0).round();
    // NaN fails both comparisons and disables hedging.
    if !(0.0..1000.0).contains(&milli) {
        return None;
    }
    let milli = milli as u128;
    let budget = deadline_us.saturating_sub(arrival_us) as u128;
    let slice = (budget * milli / 1000) as u64;
    Some(arrival_us.saturating_add(slice))
}

impl ChaosConfig {
    /// Whether any chaos machinery is active.
    #[cfg(test)]
    fn enabled(&self) -> bool {
        !self.plan.is_empty()
            || self.hedge_after < 1.0
            || self.degrade.enabled
            || self.backoff.enabled()
            || self.breaker.enabled
            || self.autoscale.enabled
    }

    /// The acceptance scenario of the fault-tolerance study: kill 2 of the
    /// fleet's servers at 30% of `horizon_us` and make one more server a
    /// 3× fail-slow straggler for the whole run. Victims are drawn from
    /// the seed so different seeds stress different servers; the plan is a
    /// pure function of `(seed, servers, horizon_us)`.
    ///
    /// # Panics
    ///
    /// Panics if `servers < 3` (the scenario needs 2 crash victims and a
    /// disjoint straggler).
    pub fn kill_two_straggle_one(seed: u64, servers: usize, horizon_us: u64) -> Self {
        assert!(servers >= 3, "scenario needs at least 3 servers");
        let mut rng = SplitMix64::new(derive(seed, 0xFA17));
        let a = rng.next_range(servers as u64) as usize;
        let mut b = rng.next_range(servers as u64) as usize;
        while b == a {
            b = (b + 1) % servers;
        }
        let mut s = rng.next_range(servers as u64) as usize;
        while s == a || s == b {
            s = (s + 1) % servers;
        }
        let crash_at = (horizon_us as f64 * 0.3) as u64;
        let plan = FaultPlan::none(servers)
            .with_crash(a, crash_at)
            .expect("index in range")
            .with_crash(b, crash_at)
            .expect("index in range")
            .with_slowdown(s, 0, u64::MAX / 2, 3.0)
            .expect("index in range");
        ChaosConfig {
            plan,
            ..ChaosConfig::default()
        }
    }

    /// The overload configuration of the surge runs on top of `self`:
    /// [`BackoffConfig::overload`] on every requeue, and the autoscaler
    /// armed between `min_servers` and `max_servers` with its other knobs
    /// at their defaults.
    pub fn with_overload(self, min_servers: usize, max_servers: usize) -> Self {
        ChaosConfig {
            backoff: BackoffConfig::overload(),
            autoscale: AutoscaleConfig {
                enabled: true,
                min_servers,
                max_servers,
                ..AutoscaleConfig::default()
            },
            ..self
        }
    }

    /// `serve_fleet --faults`: [`ChaosConfig::kill_two_straggle_one`] with
    /// hedging at half the deadline budget and the degradation ladder
    /// armed.
    ///
    /// # Panics
    ///
    /// Panics if `servers < 3`, as [`ChaosConfig::kill_two_straggle_one`].
    pub fn hedged_kill_two_straggle_one(seed: u64, servers: usize, horizon_us: u64) -> Self {
        ChaosConfig {
            hedge_after: 0.5,
            degrade: DegradeConfig { enabled: true },
            ..ChaosConfig::kill_two_straggle_one(seed, servers, horizon_us)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_disabled() {
        let c = ChaosConfig::default();
        assert!(!c.enabled());
        assert!(c.plan.is_empty());
    }

    #[test]
    fn any_knob_enables() {
        let c = ChaosConfig {
            hedge_after: 0.5,
            ..ChaosConfig::default()
        };
        assert!(c.enabled());
        let c = ChaosConfig {
            degrade: DegradeConfig { enabled: true },
            ..ChaosConfig::default()
        };
        assert!(c.enabled());
        let c = ChaosConfig {
            plan: FaultPlan::none(3).with_crash(0, 5).unwrap(),
            ..ChaosConfig::default()
        };
        assert!(c.enabled());
    }

    #[test]
    fn hedge_due_is_exact_at_the_extremes() {
        // Full-range budget: exact floor division, no f64 rounding. The old
        // float path returned 2^63 here (one above the true floor).
        assert_eq!(hedge_due_us(0, u64::MAX, 0.5), Some(u64::MAX / 2));
        // hedge_after = 0.0 arms at arrival (caller's `due > now` gate
        // keeps it from firing retroactively).
        assert_eq!(hedge_due_us(100, 1_000, 0.0), Some(100));
        // >= 1.0 disables, as do NaN and negatives.
        assert_eq!(hedge_due_us(100, 1_000, 1.0), None);
        assert_eq!(hedge_due_us(100, 1_000, 1.5), None);
        assert_eq!(hedge_due_us(100, 1_000, f64::NAN), None);
        assert_eq!(hedge_due_us(100, 1_000, -0.5), None);
        // Saturating add near the top of the clock.
        assert_eq!(
            hedge_due_us(u64::MAX - 10, u64::MAX, 0.9),
            Some(u64::MAX - 1)
        );
        // Ordinary case: 30% of a 1 s budget.
        assert_eq!(hedge_due_us(2_000_000, 3_000_000, 0.3), Some(2_300_000));
    }

    #[test]
    fn backoff_delay_is_seeded_capped_and_exponential() {
        let cfg = BackoffConfig {
            base_us: 10_000,
            cap_us: 100_000,
            jitter_milli: 0,
        };
        // No jitter: pure doubling, capped.
        assert_eq!(cfg.delay_us(42, 7, 1), Some(10_000));
        assert_eq!(cfg.delay_us(42, 7, 2), Some(20_000));
        assert_eq!(cfg.delay_us(42, 7, 4), Some(80_000));
        assert_eq!(cfg.delay_us(42, 7, 5), Some(100_000), "capped");
        assert_eq!(cfg.delay_us(42, 7, 60), Some(100_000), "shift saturates");
        // Jitter is deterministic per (seed, id, attempts), bounded, and
        // varies across jobs so released work is staggered.
        let jit = BackoffConfig {
            jitter_milli: 500,
            ..cfg
        };
        let d = jit.delay_us(42, 7, 1).unwrap();
        assert_eq!(jit.delay_us(42, 7, 1), Some(d), "pure function");
        assert!((10_000..=15_000).contains(&d), "jitter bounded: {d}");
        let delays: std::collections::BTreeSet<u64> =
            (0..16).map(|id| jit.delay_us(42, id, 1).unwrap()).collect();
        assert!(delays.len() > 4, "per-job jitter staggers: {delays:?}");
        // Disabled = None.
        assert_eq!(BackoffConfig::default().delay_us(42, 7, 1), None);
    }

    #[test]
    fn warmup_delay_is_seeded_and_bounded() {
        let cfg = AutoscaleConfig {
            warmup_us: 1_000_000,
            warmup_jitter_milli: 250,
            ..AutoscaleConfig::default()
        };
        let d = cfg.warmup_delay_us(42, 3);
        assert_eq!(cfg.warmup_delay_us(42, 3), d, "pure function");
        assert!((1_000_000..=1_250_000).contains(&d), "bounded: {d}");
        assert_ne!(
            cfg.warmup_delay_us(42, 0),
            cfg.warmup_delay_us(42, 1),
            "per-server jitter"
        );
        let flat = AutoscaleConfig {
            warmup_jitter_milli: 0,
            ..cfg
        };
        assert_eq!(flat.warmup_delay_us(42, 9), 1_000_000);
    }

    #[test]
    fn new_knobs_flip_enabled() {
        let c = ChaosConfig {
            backoff: BackoffConfig {
                base_us: 1_000,
                ..BackoffConfig::default()
            },
            ..ChaosConfig::default()
        };
        assert!(c.enabled());
        let c = ChaosConfig {
            breaker: BreakerConfig {
                enabled: true,
                ..BreakerConfig::default()
            },
            ..ChaosConfig::default()
        };
        assert!(c.enabled());
        let c = ChaosConfig {
            autoscale: AutoscaleConfig {
                enabled: true,
                ..AutoscaleConfig::default()
            },
            ..ChaosConfig::default()
        };
        assert!(c.enabled());
    }

    #[test]
    fn acceptance_scenario_kills_two_and_straggles_one() {
        let c = ChaosConfig::kill_two_straggle_one(42, 8, 1_000_000);
        let counts = c.plan.counts();
        assert_eq!(counts.crashes, 2);
        assert_eq!(counts.slowdowns, 1);
        // Crash victims and the straggler are disjoint servers.
        let crashed: Vec<usize> = (0..8).filter(|&s| c.plan.crash_us(s).is_some()).collect();
        assert_eq!(crashed.len(), 2);
        for s in 0..8 {
            let sf = c.plan.server(s);
            if !sf.slowdowns.is_empty() {
                assert!(sf.crash_us.is_none(), "straggler must not also crash");
                assert!((sf.slowdowns[0].factor - 3.0).abs() < 1e-12);
            }
        }
        for &s in &crashed {
            assert_eq!(c.plan.crash_us(s), Some(300_000));
        }
        // Seed-deterministic.
        assert_eq!(c, ChaosConfig::kill_two_straggle_one(42, 8, 1_000_000));
        assert_ne!(
            c.plan,
            ChaosConfig::kill_two_straggle_one(7, 8, 1_000_000).plan
        );
    }
}
