//! Causes attached to detector transitions and degrade steps.
//!
//! When the observability plane (vtx-obs) is wired in, every `suspect`,
//! `down` and `degrade` event in the serving stream carries a [`Cause`]
//! saying *why* the transition happened — a missed heartbeat, backlog
//! pressure on the degrade ladder, or a firing SLO burn-rate alert. The
//! cause is part of the deterministic event stream, so postmortems of a
//! seeded run can attribute every degradation step without guesswork.

/// Why a detector transition or degrade step happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The failure detector missed enough heartbeats.
    HeartbeatMiss,
    /// The degrade ladder reacted to queue backlog outrunning capacity.
    BacklogPressure,
    /// An SLO burn-rate alert was firing when the step was taken.
    SloBurn,
    /// A per-server circuit breaker tripped after consecutive failures.
    BreakerOpen,
}

impl Cause {
    /// Stable lowercase label used in rendered event streams.
    pub fn name(self) -> &'static str {
        match self {
            Cause::HeartbeatMiss => "heartbeat_miss",
            Cause::BacklogPressure => "backlog_pressure",
            Cause::SloBurn => "slo_burn",
            Cause::BreakerOpen => "breaker_open",
        }
    }
}

impl std::fmt::Display for Cause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Cause::HeartbeatMiss.name(), "heartbeat_miss");
        assert_eq!(Cause::BacklogPressure.name(), "backlog_pressure");
        assert_eq!(Cause::SloBurn.name(), "slo_burn");
        assert_eq!(Cause::BreakerOpen.name(), "breaker_open");
        assert_eq!(Cause::SloBurn.to_string(), "slo_burn");
    }
}
