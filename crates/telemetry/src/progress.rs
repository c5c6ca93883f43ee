//! Heartbeat progress reporting for long experiment runs.
//!
//! An 816-point sweep at ~50ms/point runs for most of a minute with no
//! output; [`ProgressReporter`] gives it a `completed/total` heartbeat with
//! rate and ETA. Updates are one atomic increment; a line is printed to
//! stderr at most once per configured interval, and only when progress
//! output is wanted (collector enabled or `VTX_PROGRESS` set).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::collector::Collector;
use crate::span::instant;

/// Whether progress heartbeats should print: either telemetry is enabled or
/// the `VTX_PROGRESS` environment variable is set (to anything but `0`).
fn progress_wanted() -> bool {
    if Collector::is_enabled() {
        return true;
    }
    match std::env::var("VTX_PROGRESS") {
        Ok(v) => v != "0",
        Err(_) => false,
    }
}

/// Tracks `completed/total` work items and prints rate-limited heartbeat
/// lines with an ETA. Sharable across worker threads by reference.
#[derive(Debug)]
pub struct ProgressReporter {
    label: &'static str,
    total: u64,
    completed: AtomicU64,
    started: Instant,
    /// Microseconds-since-start of the last printed heartbeat.
    last_print_us: AtomicU64,
    /// Minimum microseconds between heartbeat lines.
    interval_us: u64,
    enabled: bool,
}

impl ProgressReporter {
    /// Creates a reporter for `total` items, printing at most one line per
    /// second.
    pub fn new(label: &'static str, total: u64) -> Self {
        Self::with_interval(label, total, 1_000_000)
    }

    /// Creates a reporter with an explicit minimum print interval.
    fn with_interval(label: &'static str, total: u64, interval_us: u64) -> Self {
        ProgressReporter {
            label,
            total,
            completed: AtomicU64::new(0),
            started: Instant::now(),
            last_print_us: AtomicU64::new(0),
            interval_us,
            enabled: progress_wanted(),
        }
    }

    /// Items completed so far.
    #[cfg(test)]
    fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Marks one item complete; prints a heartbeat if the interval elapsed
    /// (and always on the final item). Safe from any thread.
    pub fn tick(&self) {
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        // Telemetry event regardless of print gating (cheap, ring-bounded).
        instant("progress", |a| {
            a.str("label", self.label)
                .u64("completed", done)
                .u64("total", self.total);
        });
        if !self.enabled {
            return;
        }
        let now_us = self.started.elapsed().as_micros() as u64;
        let last = self.last_print_us.load(Ordering::Relaxed);
        let is_final = done >= self.total;
        if !is_final && now_us.saturating_sub(last) < self.interval_us {
            return;
        }
        // One printer per interval; losers skip rather than blocking.
        if self
            .last_print_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
            && !is_final
        {
            return;
        }
        eprintln!("{}", self.heartbeat_line(done, now_us));
    }

    /// Formats a heartbeat line: `label: completed/total (pct) rate/s ETA`.
    fn heartbeat_line(&self, done: u64, now_us: u64) -> String {
        let secs = (now_us as f64 / 1e6).max(1e-9);
        let rate = done as f64 / secs;
        let pct = if self.total == 0 {
            100.0
        } else {
            100.0 * done as f64 / self.total as f64
        };
        let eta_s = if rate > 0.0 && self.total > done {
            (self.total - done) as f64 / rate
        } else {
            0.0
        };
        format!(
            "[{}] {}/{} ({:.0}%) {:.1}/s eta {:.0}s",
            self.label, done, self.total, pct, rate, eta_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_ticks_across_threads() {
        let r = ProgressReporter::with_interval("test", 8, u64::MAX);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    r.tick();
                    r.tick();
                });
            }
        });
        assert_eq!(r.completed(), 8);
    }

    #[test]
    fn heartbeat_line_formats_eta() {
        let r = ProgressReporter::with_interval("sweep", 100, u64::MAX);
        // 10 done in 2 simulated seconds -> 5/s -> 18s remaining.
        let line = r.heartbeat_line(10, 2_000_000);
        assert!(line.contains("[sweep] 10/100 (10%)"), "{line}");
        assert!(line.contains("5.0/s"), "{line}");
        assert!(line.contains("eta 18s"), "{line}");
    }

    #[test]
    fn zero_total_reports_hundred_percent() {
        let r = ProgressReporter::with_interval("empty", 0, u64::MAX);
        let line = r.heartbeat_line(0, 1_000_000);
        assert!(line.contains("(100%)"), "{line}");
    }
}
