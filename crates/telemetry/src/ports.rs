//! Per-execution-port utilization gauges.
//!
//! The port-level execution model (`vtx-port`) reports how saturated each
//! issue port of the simulated core is at steady state. Gauges need
//! `&'static` names, so this module pre-declares one gauge per port slot up
//! to `MAX_PORTS` and hands them out by index; the solver publishes into
//! them after every solve and they flow through the existing metric dump /
//! trace-export layer like every other gauge.

use crate::metrics::{self, Counter, Gauge};

/// Largest port index with a pre-declared gauge (real layouts use 6–8).
const MAX_PORTS: usize = 16;

/// Static gauge names, one per port slot (`port/p0_util` … `port/p15_util`).
const UTIL_NAMES: [&str; MAX_PORTS] = [
    "port/p0_util",
    "port/p1_util",
    "port/p2_util",
    "port/p3_util",
    "port/p4_util",
    "port/p5_util",
    "port/p6_util",
    "port/p7_util",
    "port/p8_util",
    "port/p9_util",
    "port/p10_util",
    "port/p11_util",
    "port/p12_util",
    "port/p13_util",
    "port/p14_util",
    "port/p15_util",
];

/// The utilization gauge for port `port` (0-based).
///
/// # Panics
///
/// Panics if `port >= MAX_PORTS`; no modelled core has that many issue
/// ports, so an out-of-range index is a caller bug.
fn utilization_gauge(port: usize) -> &'static Gauge {
    assert!(
        port < MAX_PORTS,
        "port index {port} out of range (max {MAX_PORTS})"
    );
    metrics::gauge(UTIL_NAMES[port])
}

/// How many steady-state port solves have run in this process.
pub fn solver_runs() -> &'static Counter {
    metrics::counter("port/solver_runs")
}

/// The gauge holding the most recent port-model dispatch bound (uops/cycle).
fn dispatch_bound_gauge() -> &'static Gauge {
    metrics::gauge("port/dispatch_bound")
}

/// Publishes one solve: per-port utilizations, the dispatch bound, and the
/// run counter. Ports beyond `utilization.len()` keep their previous value,
/// so callers switching between layouts of different widths should publish
/// the larger layout last or ignore stale tails.
pub fn publish(utilization: &[f64], dispatch_bound: f64) {
    for (p, u) in utilization.iter().enumerate().take(MAX_PORTS) {
        utilization_gauge(p).set(*u);
    }
    dispatch_bound_gauge().set(dispatch_bound);
    solver_runs().add(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_are_distinct_and_settable() {
        utilization_gauge(0).set(0.25);
        utilization_gauge(5).set(0.75);
        assert!((utilization_gauge(0).value() - 0.25).abs() < 1e-12);
        assert!((utilization_gauge(5).value() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn publish_sets_everything() {
        let before = solver_runs().value();
        publish(&[0.1, 0.2, 0.3], 3.5);
        assert_eq!(solver_runs().value(), before + 1);
        assert!((dispatch_bound_gauge().value() - 3.5).abs() < 1e-12);
        assert!((utilization_gauge(2).value() - 0.3).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let _ = utilization_gauge(MAX_PORTS);
    }
}
