//! # vtx-telemetry — host-side observability for the vtx pipeline
//!
//! The simulator observes the *simulated* machine; this crate observes the
//! *host-side pipeline that drives it* — the 816-point parameter sweeps, the
//! preset/video studies, the scheduler — with wall-clock spans, a histogram and
//! exportable traces. It is deliberately tiny and dependency-free:
//!
//! * [`Span`] — RAII guards timing a region of host execution. Guards record
//!   into a bounded per-thread `ring::EventRing`; the global [`Collector`]
//!   drains all rings into one [`Trace`]. When the collector is disabled
//!   (the default) every span operation is a single relaxed atomic load and
//!   **performs no allocation**.
//! * [`metrics::Histogram`] — a standalone log₂-bucket latency histogram.
//! * [`chrome`] — a Chrome trace-event JSON exporter; the output loads in
//!   Perfetto or `chrome://tracing` and can carry synthetic tracks (e.g.
//!   simulated-time cycle breakdowns) alongside the wall-clock tracks.
//! * [`flame`] — a flamegraph collapsed-stack writer
//!   (`inferno` / `flamegraph.pl` input format).
//! * [`progress::ProgressReporter`] — completed/total heartbeat lines with
//!   ETA for long experiment runs.
//!
//! # Quickstart
//!
//! ```
//! use vtx_telemetry::{chrome::ChromeTrace, Collector, Span};
//!
//! Collector::enable();
//! {
//!     let _outer = Span::enter("experiment");
//!     let _inner = Span::enter_with("point", |a| {
//!         a.u64("crf", 23);
//!         a.u64("refs", 3);
//!     });
//! }
//! let trace = Collector::drain();
//! assert_eq!(trace.events.len(), 2);
//! let json = ChromeTrace::from_trace(&trace).to_json();
//! assert!(json.contains("\"traceEvents\""));
//! Collector::disable();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chrome;
mod clock;
mod collector;
pub mod flame;
pub mod metrics;
pub mod progress;
mod ring;
mod span;

pub use collector::{Collector, Trace};
pub use ring::{Event, EventKind};
pub use span::{counter_sample, instant, ArgValue, Args, Span};

/// Escapes a string for inclusion inside a JSON string literal (quotes not
/// included).
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Serializes unit tests that touch the global collector (enable/disable/
/// drain are process-wide; parallel tests would steal each other's events).
#[cfg(test)]
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn escape_json_handles_specials() {
        let mut out = String::new();
        super::escape_json_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
