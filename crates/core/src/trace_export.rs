//! Trace export: turn recorded telemetry plus simulation profiles into
//! Chrome trace JSON and flamegraph collapsed stacks.
//!
//! The wall-clock side comes straight from `vtx-telemetry`'s collector. The
//! *simulated-time* side comes from here: whenever telemetry is enabled,
//! [`crate::Transcoder::transcode`] records its final
//! [`ProfileReport`] per microarchitecture configuration, and
//! [`chrome_trace_json`] renders each configuration's interval-model cycle
//! breakdown as a synthetic process track next to the wall-clock tracks —
//! simulated base/frontend/bad-speculation/memory/store-buffer/core cycles,
//! scaled to simulated microseconds, one metadata-named track per config.
//!
//! ```no_run
//! use vtx_core::trace_export;
//! use vtx_telemetry::Collector;
//!
//! Collector::enable();
//! // ... run experiments ...
//! trace_export::write_chrome_trace("trace.json")?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use vtx_telemetry::chrome::ChromeTrace;
use vtx_telemetry::flame::CollapsedStacks;
use vtx_telemetry::Collector;
use vtx_trace::ProfileReport;

/// First pid used for synthetic simulated-time tracks (the wall-clock track
/// is [`vtx_telemetry::chrome::WALL_PID`]).
pub const SIM_PID_BASE: u64 = 100;

fn profile_registry() -> &'static Mutex<BTreeMap<String, ProfileReport>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, ProfileReport>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Records the latest [`ProfileReport`] for its configuration name. Called
/// by [`crate::Transcoder::transcode`] while telemetry is enabled; keeping
/// only the latest report per config bounds memory across 800-point sweeps.
pub fn record_profile(report: &ProfileReport) {
    profile_registry()
        .lock()
        .expect("profile registry poisoned")
        .insert(report.config_name.clone(), report.clone());
}

/// Removes all recorded profiles (used by tests and between export runs).
pub fn clear_profiles() {
    profile_registry()
        .lock()
        .expect("profile registry poisoned")
        .clear();
}

/// Names of the configurations recorded since the last [`clear_profiles`].
pub fn recorded_configs() -> Vec<String> {
    profile_registry()
        .lock()
        .expect("profile registry poisoned")
        .keys()
        .cloned()
        .collect()
}

/// Adds one synthetic process track for `report`'s simulated-time cycle
/// breakdown: sequential complete events, one per non-zero interval-model
/// component, scaled so the track spans the report's simulated seconds.
fn add_sim_track(out: &mut ChromeTrace, pid: u64, report: &ProfileReport) {
    out.add_process_name(pid, &format!("sim: {}", report.config_name));
    out.add_thread_name(pid, 1, "cycle breakdown");
    let b = &report.breakdown;
    if b.total_cycles == 0 {
        return;
    }
    let us_per_cycle = report.seconds * 1e6 / b.total_cycles as f64;
    let components: [(&str, f64); 6] = [
        ("base", b.base_cycles),
        ("frontend", b.frontend_cycles),
        ("bad_speculation", b.badspec_cycles),
        ("memory", b.memory_cycles),
        ("store_buffer", b.sb_cycles),
        ("core", b.core_cycles),
    ];
    let mut cursor = 0.0f64;
    for (name, cycles) in components {
        let dur_us = cycles * us_per_cycle;
        if dur_us <= 0.0 {
            continue;
        }
        out.add_complete(
            name,
            "sim",
            cursor as u64,
            dur_us.max(1.0) as u64,
            (pid, 1),
            &[],
        );
        cursor += dur_us;
    }
    out.add_counter("ipc", 0, pid, report.ipc);
}

/// Drains the collector and renders everything as a Chrome trace-event JSON
/// document: the recorded wall-clock spans plus one simulated-time track per
/// configuration seen by [`record_profile`].
pub fn chrome_trace_json() -> String {
    let trace = Collector::drain();
    let mut out = ChromeTrace::from_trace(&trace);
    let registry = profile_registry()
        .lock()
        .expect("profile registry poisoned");
    for (i, report) in registry.values().enumerate() {
        add_sim_track(&mut out, SIM_PID_BASE + i as u64, report);
    }
    out.to_json()
}

/// Writes [`chrome_trace_json`] to `path` (load the file in Perfetto or
/// `chrome://tracing`).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json())
}

/// Collapsed-stack flamegraph lines for every recorded configuration's
/// kernel hotspots (weights = simulated instructions).
pub fn flamegraph_collapsed() -> String {
    let registry = profile_registry()
        .lock()
        .expect("profile registry poisoned");
    let mut stacks = CollapsedStacks::new();
    for report in registry.values() {
        report.collapse_hotspots_into(&mut stacks);
    }
    stacks.render()
}

/// Checks the standard trace environment variable: when `VTX_TRACE` is set
/// and non-empty, enables the collector and returns the destination path for
/// the Chrome trace.
pub fn init_from_env() -> Option<String> {
    let path = std::env::var("VTX_TRACE").ok().filter(|p| !p.is_empty())?;
    Collector::enable();
    Some(path)
}
