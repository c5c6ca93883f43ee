//! Fault-injection and recovery metrics.
//!
//! The chaos layer (`vtx-chaos` + the serving engines) reports what it
//! injected and what the service did about it: fault counters by kind,
//! recovery counters (requeues, hedges), a detector-state gauge (servers
//! currently believed up) and the degradation-ladder level. Names are
//! pre-declared `&'static` strings like every other metric module, so the
//! handles flow through the existing dump / trace-export layer.

use crate::metrics::{self, Counter, Gauge};

/// Total faults injected (crashes + slowdown windows + stalls).
pub fn faults_injected() -> &'static Counter {
    metrics::counter("chaos/faults_injected")
}

/// Fail-stop crashes injected.
pub fn crashes() -> &'static Counter {
    metrics::counter("chaos/crashes")
}

/// In-flight jobs requeued off crashed/suspected servers.
pub fn requeues() -> &'static Counter {
    metrics::counter("chaos/requeues")
}

/// Hedged duplicate dispatches launched.
pub fn hedges() -> &'static Counter {
    metrics::counter("chaos/hedges")
}

/// Servers the failure detector currently believes are up.
fn servers_up_gauge() -> &'static Gauge {
    metrics::gauge("chaos/servers_up")
}

/// Current graceful-degradation ladder level (0 = full quality).
pub fn degrade_level_gauge() -> &'static Gauge {
    metrics::gauge("chaos/degrade_level")
}

/// Per-server circuit breakers tripped open.
pub fn breaker_trips() -> &'static Counter {
    metrics::counter("chaos/breaker_trips")
}

/// Autoscaler scale-out decisions committed.
pub fn scale_outs() -> &'static Counter {
    metrics::counter("chaos/scale_outs")
}

/// Autoscaler scale-in decisions committed.
pub fn scale_ins() -> &'static Counter {
    metrics::counter("chaos/scale_ins")
}

/// Servers currently active (admitted to dispatch by the autoscaler).
fn active_servers_gauge() -> &'static Gauge {
    metrics::gauge("chaos/active_servers")
}

/// Detected-up capacity of the active fleet, in speed units.
fn fleet_capacity_gauge() -> &'static Gauge {
    metrics::gauge("chaos/fleet_capacity")
}

/// Publishes one detector snapshot.
pub fn publish_detector(servers_up: usize) {
    servers_up_gauge().set(servers_up as f64);
}

/// Publishes one autoscaler snapshot: active server count plus the
/// detected-up capacity those servers contribute.
pub fn publish_autoscale(active: usize, capacity: f64) {
    active_servers_gauge().set(active as f64);
    fleet_capacity_gauge().set(capacity);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let before = crashes().value();
        crashes().add(2);
        assert_eq!(crashes().value(), before + 2);
        let before = requeues().value();
        requeues().add(1);
        hedges().add(1);
        faults_injected().add(3);
        assert_eq!(requeues().value(), before + 1);
    }

    #[test]
    fn detector_snapshot_sets_the_gauge() {
        publish_detector(7);
        assert!((servers_up_gauge().value() - 7.0).abs() < 1e-12);
        degrade_level_gauge().set(2.0);
        assert!((degrade_level_gauge().value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn autoscale_snapshot_sets_both_gauges() {
        publish_autoscale(3, 3.15);
        assert!((active_servers_gauge().value() - 3.0).abs() < 1e-12);
        assert!((fleet_capacity_gauge().value() - 3.15).abs() < 1e-12);
        let before = scale_outs().value();
        scale_outs().add(1);
        scale_ins().add(1);
        breaker_trips().add(1);
        assert_eq!(scale_outs().value(), before + 1);
    }
}
