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
//! 2. **Sojourn quantiles** ([`sketch::QuantileSketch`]) — one
//!    deterministic log₂-bucketed sketch per service class over the whole
//!    run, read by the Prometheus exposition's p50/p95/p99 summaries with a
//!    fixed relative-error bound.
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
//! Every per-job hook is O(1) on flat storage, and everything here is
//! integer arithmetic with exports in job-id order: two runs with the same
//! seed produce byte-identical traces, alert streams, and trajectory
//! documents on any platform.

pub mod json;
mod sketch;
mod slo;
mod trace;
mod trajectory;

pub use sketch::QuantileSketch;
pub use slo::{AlertTransition, BurnRateMonitor, SloConfig};
pub use trace::{ConservationStats, JobTracker, JOB_PID};
pub use trajectory::{milli, wall_clock_enabled, BenchTrajectory, TrajectoryRow};

/// Configuration of the observability plane.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Master switch; when false every hook is a cheap no-op.
    pub enabled: bool,
    /// SLO burn-rate alerting parameters.
    pub(crate) slo: SloConfig,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
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

/// The observability plane one serving run feeds: job tracker + per-class
/// sojourn sketches + burn-rate monitor, with deterministic exports.
///
/// Callers identify service classes by index plus a parallel name slice
/// (e.g. `["interactive", "standard", "batch"]`), so this crate stays
/// independent of the serving crate's priority type.
#[derive(Debug, Clone)]
pub struct ObsPlane {
    cfg: ObsConfig,
    tracker: JobTracker,
    /// Whole-run sojourn sketch per service class.
    cumulative: Vec<QuantileSketch>,
    monitor: BurnRateMonitor,
    alerts: Vec<AlertTransition>,
}

impl ObsPlane {
    /// A plane over `classes` service classes.
    pub fn new(cfg: ObsConfig, classes: usize) -> Self {
        let monitor = BurnRateMonitor::new(classes, cfg.slo.clone());
        ObsPlane {
            cfg,
            tracker: JobTracker::new(),
            cumulative: vec![QuantileSketch::new(); classes],
            monitor,
            alerts: Vec::new(),
        }
    }

    /// Makes room for `jobs` more jobs (a no-op on a disabled plane).
    pub fn reserve(&mut self, jobs: usize) {
        if self.cfg.enabled {
            self.tracker.reserve(jobs);
        }
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
        reason: &'static str,
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
    /// sojourn. Feeds the class's sojourn sketch and the burn monitor;
    /// returns an alert transition if the monitor flipped.
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
        // Out-of-range classes are ignored (callers pass validated indices).
        if let Some(sketch) = self.cumulative.get_mut(class) {
            sketch.record(sojourn_us);
        }
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

    /// Whole-run sojourn sketch for `class`.
    ///
    /// # Panics
    /// Panics if `class` is not below the plane's class count: recording
    /// ignores bad indices, but a query for an unknown class is a caller bug.
    pub fn cumulative(&self, class: usize) -> &QuantileSketch {
        &self.cumulative[class]
    }

    /// All alert transitions in emission order.
    pub fn alerts(&self) -> &[AlertTransition] {
        &self.alerts
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
        for (class, s) in self.cumulative.iter().enumerate() {
            let name = class_names.get(class).copied().unwrap_or("unknown");
            let _ = writeln!(
                out,
                "vtx_serve_completed_total{{class=\"{name}\"}} {}",
                s.count()
            );
        }
        out.push_str("# TYPE vtx_serve_sojourn_us summary\n");
        for (class, s) in self.cumulative.iter().enumerate() {
            let name = class_names.get(class).copied().unwrap_or("unknown");
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

    const NAMES: [&str; 3] = ["interactive", "standard", "batch"];

    /// Feeds a plane 40 shuffled, sparse ids — gaps, strides of 2^33, ids
    /// above 2^40 and next to `u64::MAX` — in five interleaved phases that
    /// visit every hook: door and queue sheds, requeues, timeouts, hedges
    /// won and lost, a shed mid-flight that ends its open copy, and a job
    /// first seen at admission.
    fn sparse_stream(plane: &mut ObsPlane) {
        let mut rng = vtx_rng::SplitMix64::new(44);
        let mut ids: Vec<u64> = (0..40u64)
            .map(|i| match i % 4 {
                0 => i * 7 + 3,
                1 => (1 << 40) + i * 1_000_003,
                2 => u64::MAX - i * 977,
                _ => (i << 33) | 5,
            })
            .collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.next_range(i as u64 + 1) as usize);
        }
        for phase in 0..5u64 {
            for (n, &id) in ids.iter().enumerate() {
                let t = phase * 100_000 + n as u64 * 1_000;
                let (kind, class) = (n % 8, n % 3);
                let (server, other) = (n % 5, (n + 1) % 5);
                let sojourn = id.rotate_left(n as u32 * 7) >> (n % 24);
                match (phase, kind) {
                    (0, 7) => {}
                    (0, _) => plane.on_arrive(t, id),
                    (1, 0) => {
                        plane.on_shed(t, id, class, "queue_full");
                    }
                    (1, _) => plane.on_admit(t, id, class),
                    (2, 6) => {
                        plane.on_shed(t, id, class, "expired");
                    }
                    (2, 1..=7) => {
                        plane.on_dispatch(t, id, server, 1);
                        if kind == 4 || kind == 5 {
                            plane.on_hedge(t + 10, id, other);
                        }
                    }
                    (3, 1) => {
                        plane.on_complete(t, id, server, class, sojourn, false);
                    }
                    (3, 2) => {
                        plane.on_requeue(t, id, server);
                        plane.on_dispatch(t + 20, id, other, 2);
                    }
                    (3, 3) => {
                        plane.on_timeout(t, id, server);
                        plane.on_dispatch(t + 20, id, other, 2);
                    }
                    (3, 4) => {
                        plane.on_complete(t, id, other, class, sojourn, true);
                        plane.on_hedge_discard(t, id, server);
                    }
                    (3, 5) => {
                        plane.on_complete(t, id, server, class, sojourn, false);
                        plane.on_hedge_discard(t, id, other);
                    }
                    (3, 7) => {
                        plane.on_shed(t, id, class, "retries_exhausted");
                    }
                    (4, 2 | 3) => {
                        plane.on_complete(t, id, other, class, sojourn, n % 2 == 0);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Everything a plane exports, as one text, and its Chrome tracks.
    fn exports(plane: &ObsPlane) -> (String, String) {
        let tracker = plane.tracker();
        let text = format!(
            "{}--- conservation\n{:?}\n--- prometheus\n{}--- alerts\n{}",
            tracker.render_text(&NAMES),
            tracker.check_conservation(),
            plane.render_prometheus(&NAMES),
            plane.render_alerts(&NAMES),
        );
        let mut chrome = vtx_telemetry::chrome::ChromeTrace::new();
        tracker.add_chrome_tracks(&mut chrome, &NAMES);
        (text, chrome.to_json())
    }

    #[test]
    fn sparse_shuffled_ids_export_the_pinned_bytes() {
        // The expected files were rendered by the B-tree tracker and
        // sketch these flat ones replaced, from this same stream.
        let mut plane = ObsPlane::new(ObsConfig::default(), 3);
        sparse_stream(&mut plane);
        let mut unfinished = plane.clone();
        plane.on_finish(1_000_000);
        let (text, json) = exports(&plane);
        assert_eq!(text, include_str!("../testdata/sparse_stream.txt"));
        assert_eq!(json, include_str!("../testdata/sparse_stream.json"));
        // The first problem is reported in id order, not arrival order. A
        // copy dispatched after the stream's last event is still open.
        unfinished.on_dispatch(900_000, 255, 2, 2);
        const OPEN: &str = "job 255: open span on server 2 (call on_finish first)";
        let arrivals = [
            (None, OPEN),
            (Some(1_000), OPEN),
            (Some(1), "job 1: no terminal state"),
        ];
        for (id, want) in arrivals {
            if let Some(id) = id {
                unfinished.on_arrive(900_000, id);
            }
            let got = unfinished.tracker().check_conservation();
            assert_eq!(got, Err(want.to_owned()), "after job {id:?} arrived");
        }
    }

    #[test]
    fn classes_are_independent() {
        let mut plane = ObsPlane::new(ObsConfig::default(), 3);
        plane.on_complete(5, 1, 0, 0, 10, false);
        plane.on_complete(5, 2, 0, 2, 9_999_999, false);
        assert_eq!(plane.cumulative(0).count(), 1);
        assert_eq!(plane.cumulative(1).count(), 0);
        assert_eq!(plane.cumulative(1).quantile_permille(990), 0);
        assert!(plane.cumulative(2).quantile_permille(990) > 1_000_000);
    }

    #[test]
    fn out_of_range_class_is_ignored() {
        let mut plane = ObsPlane::new(ObsConfig::default(), 2);
        plane.on_complete(0, 1, 0, 7, 123, false);
        assert_eq!(plane.cumulative(0).count() + plane.cumulative(1).count(), 0);
    }

    #[test]
    fn plane_feeds_all_pillars() {
        let mut plane = ObsPlane::new(ObsConfig::default(), 2);
        drive(&mut plane);
        let stats = plane.tracker().check_conservation().unwrap();
        assert_eq!(stats.arrived, 40);
        assert_eq!(stats.completed, 40);
        assert_eq!(plane.cumulative(0).count(), 20);
        assert_eq!(plane.cumulative(1).count(), 20);
    }

    #[test]
    fn disabled_plane_is_inert() {
        let mut plane = ObsPlane::new(ObsConfig::disabled(), 2);
        drive(&mut plane);
        assert!(plane.tracker().is_empty());
        assert_eq!(plane.cumulative(0).count() + plane.cumulative(1).count(), 0);
        assert!(plane.alerts().is_empty());
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
