//! # vtx-obs — fleet observability plane
//!
//! Makes the serving fleet *observable*: the same [`ObsPlane`] is fed by
//! the discrete-event simulator and the real executor through their shared
//! service core, so a simulated run and a real run produce the same four
//! observability artifacts:
//!
//! 1. **Per-job lifecycle traces** ([`trace::JobTracker`]) — admit →
//!    enqueue → dispatch → fault/requeue/hedge → terminal, exportable as
//!    Chrome trace-event tracks (one per job) and as a plain-text log.
//!    Conservation and exactly-once are checkable from the trace alone.
//! 2. **Windowed quantiles** ([`window::WindowedQuantiles`] over
//!    [`sketch::QuantileSketch`]) — deterministic mergeable log₂-bucketed
//!    sketches powering live p50/p95/p99 per service class with a fixed
//!    relative-error bound.
//! 3. **SLO burn-rate monitoring** ([`slo::BurnRateMonitor`]) — a
//!    multi-window burn-rate alert per class whose transitions are emitted
//!    into the deterministic event stream and feed the chaos layer's
//!    degrade causes.
//! 4. **Machine-readable bench trajectory**
//!    ([`trajectory::BenchTrajectory`]) — per-scenario serving results
//!    serialized to `BENCH_serving.json`, schema-validated and
//!    byte-deterministic per seed, plus Prometheus-format metric
//!    exposition ([`ObsPlane::render_prometheus`]).
//!
//! Everything here is integer arithmetic over ordered containers: two runs
//! with the same seed produce byte-identical traces, alert streams, and
//! trajectory documents on any platform.

pub mod json;
pub mod sketch;
pub mod slo;
pub mod trace;
pub mod trajectory;
pub mod window;

pub use sketch::QuantileSketch;
pub use slo::{AlertTransition, BurnRateMonitor, SloConfig};
pub use trace::{ConservationStats, JobTracker, Terminal, JOB_PID};
pub use trajectory::{milli, wall_clock_enabled, BenchTrajectory, TrajectoryRow};
pub use window::WindowedQuantiles;

/// Configuration of the observability plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch; when false every hook is a cheap no-op.
    pub enabled: bool,
    /// Tumbling-window width for live quantiles, microseconds.
    pub window_us: u64,
    /// Recent windows merged into a live quantile reading.
    pub windows_kept: usize,
    /// SLO burn-rate alerting parameters.
    pub slo: SloConfig,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            window_us: 2_000_000,
            windows_kept: 5,
            slo: SloConfig::default(),
        }
    }
}

impl ObsConfig {
    /// A disabled plane (hooks become no-ops).
    pub fn disabled() -> Self {
        ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        }
    }
}

/// One autoscaler decision as seen by the observability plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// When the decision was committed (µs).
    pub t_us: u64,
    /// Server index the decision targets.
    pub server: usize,
    /// `true` = scale-out (launch), `false` = scale-in (deactivate).
    pub out: bool,
}

/// The observability plane one serving run feeds: job tracker + windowed
/// quantiles + burn-rate monitor, with deterministic exports.
///
/// Callers identify service classes by index plus a parallel name slice
/// (e.g. `["interactive", "standard", "batch"]`), so this crate stays
/// independent of the serving crate's priority type.
#[derive(Debug, Clone)]
pub struct ObsPlane {
    cfg: ObsConfig,
    tracker: JobTracker,
    windows: WindowedQuantiles,
    monitor: BurnRateMonitor,
    alerts: Vec<AlertTransition>,
    scale_events: Vec<ScaleEvent>,
}

impl ObsPlane {
    /// A plane over `classes` service classes.
    pub fn new(cfg: ObsConfig, classes: usize) -> Self {
        let windows = WindowedQuantiles::new(classes, cfg.window_us, cfg.windows_kept);
        let monitor = BurnRateMonitor::new(classes, cfg.slo.clone());
        ObsPlane {
            cfg,
            tracker: JobTracker::new(),
            windows,
            monitor,
            alerts: Vec::new(),
            scale_events: Vec::new(),
        }
    }

    /// Whether hooks are live.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Job `id` arrived.
    pub fn on_arrive(&mut self, t_us: u64, id: u64) {
        if self.cfg.enabled {
            self.tracker.on_arrive(t_us, id);
        }
    }

    /// Job `id` admitted into `class`.
    pub fn on_admit(&mut self, t_us: u64, id: u64, class: usize) {
        if self.cfg.enabled {
            self.tracker.on_admit(t_us, id, class);
        }
    }

    /// Job `id` (class `class`) shed with `reason`. A shed is a bad SLO
    /// outcome; returns an alert transition if the burn monitor flipped.
    pub fn on_shed(
        &mut self,
        t_us: u64,
        id: u64,
        class: usize,
        reason: &str,
    ) -> Option<AlertTransition> {
        if !self.cfg.enabled {
            return None;
        }
        self.tracker.on_shed(t_us, id, reason);
        let tr = self.monitor.observe(class, t_us, true);
        if let Some(tr) = &tr {
            self.alerts.push(tr.clone());
        }
        tr
    }

    /// Job `id` dispatched to `server`.
    pub fn on_dispatch(&mut self, t_us: u64, id: u64, server: usize, attempt: u32) {
        if self.cfg.enabled {
            self.tracker.on_dispatch(t_us, id, server, attempt);
        }
    }

    /// Job `id` (class `class`) completed on `server` with the given
    /// sojourn. Feeds the windowed quantiles and the burn monitor; returns
    /// an alert transition if the monitor flipped.
    pub fn on_complete(
        &mut self,
        t_us: u64,
        id: u64,
        server: usize,
        class: usize,
        sojourn_us: u64,
        violation: bool,
    ) -> Option<AlertTransition> {
        if !self.cfg.enabled {
            return None;
        }
        self.tracker
            .on_complete(t_us, id, server, sojourn_us, violation);
        self.windows.record(class, t_us, sojourn_us);
        let tr = self.monitor.observe(class, t_us, violation);
        if let Some(tr) = &tr {
            self.alerts.push(tr.clone());
        }
        tr
    }

    /// Job `id` timed out on `server`.
    pub fn on_timeout(&mut self, t_us: u64, id: u64, server: usize) {
        if self.cfg.enabled {
            self.tracker.on_timeout(t_us, id, server);
        }
    }

    /// Job `id` requeued off faulted `server`.
    pub fn on_requeue(&mut self, t_us: u64, id: u64, server: usize) {
        if self.cfg.enabled {
            self.tracker.on_requeue(t_us, id, server);
        }
    }

    /// Hedge twin of `id` launched on `server`.
    pub fn on_hedge(&mut self, t_us: u64, id: u64, server: usize) {
        if self.cfg.enabled {
            self.tracker.on_hedge(t_us, id, server);
        }
    }

    /// Losing hedge twin of `id` on `server` discarded.
    pub fn on_hedge_discard(&mut self, t_us: u64, id: u64, server: usize) {
        if self.cfg.enabled {
            self.tracker.on_hedge_discard(t_us, id, server);
        }
    }

    /// Autoscaler committed a decision on `server` (`out` = scale-out).
    pub fn on_scale(&mut self, t_us: u64, server: usize, out: bool) {
        if self.cfg.enabled {
            self.scale_events.push(ScaleEvent { t_us, server, out });
        }
    }

    /// Run ended; closes stranded spans.
    pub fn on_finish(&mut self, makespan_us: u64) {
        if self.cfg.enabled {
            self.tracker.on_finish(makespan_us);
        }
    }

    /// Whether any class's burn-rate alert is currently firing.
    pub fn alert_firing(&self) -> bool {
        self.monitor.firing_count() > 0
    }

    /// The per-job lifecycle tracker.
    pub fn tracker(&self) -> &JobTracker {
        &self.tracker
    }

    /// The windowed per-class quantiles.
    pub fn windows(&self) -> &WindowedQuantiles {
        &self.windows
    }

    /// The burn-rate monitor.
    pub fn monitor(&self) -> &BurnRateMonitor {
        &self.monitor
    }

    /// All alert transitions in emission order.
    pub fn alerts(&self) -> &[AlertTransition] {
        &self.alerts
    }

    /// All autoscaler decisions in commit order.
    pub fn scale_events(&self) -> &[ScaleEvent] {
        &self.scale_events
    }

    /// Deterministic plain-text autoscaler decision stream, one line per
    /// event, matching the alert-stream layout.
    pub fn render_scale_events(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.scale_events {
            let dir = if e.out { "out" } else { "in" };
            let _ = writeln!(out, "{:>12} scale dir={dir} server={}", e.t_us, e.server);
        }
        out
    }

    /// Deterministic plain-text alert stream, one line per transition.
    pub fn render_alerts(&self, class_names: &[&str]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for a in &self.alerts {
            let class = class_names.get(a.class).copied().unwrap_or("?");
            let state = if a.firing { "FIRING" } else { "ok" };
            let _ = writeln!(
                out,
                "{:>12} alert class={class} state={state} fast_burn_milli={} slow_burn_milli={}",
                a.t_us, a.fast_burn_milli, a.slow_burn_milli
            );
        }
        out
    }

    /// Prometheus text-format exposition of the run's serving metrics:
    /// per-class completion counters and sojourn summaries (from the
    /// cumulative sketches), plus alert-transition counters. Valid
    /// Prometheus exposition format, deterministic line order.
    pub fn render_prometheus(&self, class_names: &[&str]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# TYPE vtx_serve_completed_total counter\n");
        for class in 0..self.windows.classes() {
            let name = class_names.get(class).copied().unwrap_or("unknown");
            let _ = writeln!(
                out,
                "vtx_serve_completed_total{{class=\"{name}\"}} {}",
                self.windows.cumulative(class).count()
            );
        }
        out.push_str("# TYPE vtx_serve_sojourn_us summary\n");
        for class in 0..self.windows.classes() {
            let name = class_names.get(class).copied().unwrap_or("unknown");
            let s = self.windows.cumulative(class);
            for (q, label) in [(500u32, "0.5"), (950, "0.95"), (990, "0.99")] {
                let _ = writeln!(
                    out,
                    "vtx_serve_sojourn_us{{class=\"{name}\",quantile=\"{label}\"}} {}",
                    s.quantile_permille(q)
                );
            }
            let _ = writeln!(
                out,
                "vtx_serve_sojourn_us_sum{{class=\"{name}\"}} {}",
                s.sum()
            );
            let _ = writeln!(
                out,
                "vtx_serve_sojourn_us_count{{class=\"{name}\"}} {}",
                s.count()
            );
        }
        out.push_str("# TYPE vtx_serve_alert_transitions_total counter\n");
        let _ = writeln!(
            out,
            "vtx_serve_alert_transitions_total {}",
            self.monitor.transitions()
        );
        out.push_str("# TYPE vtx_serve_alerts_firing gauge\n");
        let _ = writeln!(
            out,
            "vtx_serve_alerts_firing {}",
            self.monitor.firing_count()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(plane: &mut ObsPlane) {
        for i in 0..40u64 {
            let t = i * 10_000;
            plane.on_arrive(t, i);
            plane.on_admit(t, i, (i % 2) as usize);
            plane.on_dispatch(t + 10, i, (i % 4) as usize, 0);
            // Class 1 violates half its deadlines.
            let violation = i % 2 == 1 && i % 4 == 1;
            plane.on_complete(
                t + 5_000,
                i,
                (i % 4) as usize,
                (i % 2) as usize,
                5_000,
                violation,
            );
        }
        plane.on_finish(500_000);
    }

    #[test]
    fn plane_feeds_all_pillars() {
        let mut plane = ObsPlane::new(ObsConfig::default(), 2);
        drive(&mut plane);
        let stats = plane.tracker().check_conservation().unwrap();
        assert_eq!(stats.arrived, 40);
        assert_eq!(stats.completed, 40);
        assert_eq!(plane.windows().cumulative(0).count(), 20);
        assert_eq!(plane.windows().cumulative(1).count(), 20);
        assert_eq!(plane.windows().overall().count(), 40);
    }

    #[test]
    fn disabled_plane_is_inert() {
        let mut plane = ObsPlane::new(ObsConfig::disabled(), 2);
        drive(&mut plane);
        plane.on_scale(10, 3, true);
        assert!(plane.tracker().is_empty());
        assert_eq!(plane.windows().overall().count(), 0);
        assert!(plane.alerts().is_empty());
        assert!(plane.scale_events().is_empty());
    }

    #[test]
    fn scale_events_record_and_render_deterministically() {
        let mut plane = ObsPlane::new(ObsConfig::default(), 2);
        plane.on_scale(1_000, 5, true);
        plane.on_scale(9_000, 5, false);
        assert_eq!(plane.scale_events().len(), 2);
        let text = plane.render_scale_events();
        assert!(text.contains("scale dir=out server=5"));
        assert!(text.contains("scale dir=in server=5"));
        assert_eq!(text, plane.render_scale_events());
    }

    #[test]
    fn prometheus_exposition_is_valid_and_deterministic() {
        let build = || {
            let mut plane = ObsPlane::new(ObsConfig::default(), 2);
            drive(&mut plane);
            plane.render_prometheus(&["interactive", "batch"])
        };
        let text = build();
        assert_eq!(text, build());
        assert!(text.contains("# TYPE vtx_serve_sojourn_us summary"));
        assert!(text.contains("vtx_serve_completed_total{class=\"interactive\"} 20"));
        assert!(text.contains("quantile=\"0.99\""));
        // Every non-comment line is `name{labels} value` or `name value`
        // with a metric name matching [a-zA-Z_:][a-zA-Z0-9_:]*.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name_end = line.find(['{', ' ']).unwrap_or(line.len());
            let name = &line[..name_end];
            assert!(
                name.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':'),
                "bad metric name start: {line}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name: {line}"
            );
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample value: {line}");
        }
    }

    #[test]
    fn shed_storm_fires_alert_and_renders_deterministically() {
        let mut cfg = ObsConfig::default();
        cfg.slo.fast_window_us = 50_000;
        cfg.slo.slow_window_us = 200_000;
        cfg.slo.min_events = 5;
        let run = || {
            let mut plane = ObsPlane::new(cfg.clone(), 1);
            for i in 0..200u64 {
                let t = i * 1_000;
                plane.on_arrive(t, i);
                plane.on_shed(t, i, 0, "queue_full");
            }
            plane.on_finish(300_000);
            (plane.alerts().len(), plane.render_alerts(&["interactive"]))
        };
        let (n, text) = run();
        assert!(n >= 1, "shed storm must fire");
        assert!(text.contains("state=FIRING"));
        assert_eq!(run().1, text);
    }
}
