//! Windowed live quantiles per service class.
//!
//! [`WindowedQuantiles`] maintains, for each service class, a ring of
//! tumbling-window [`QuantileSketch`]es plus a cumulative sketch. Samples
//! land in the window covering their timestamp; a live quantile query
//! merges the most recent `N` windows, so the answer reflects only recent
//! traffic while the cumulative sketch answers whole-run questions.
//!
//! Window assignment is pure integer division of the event timestamp, so
//! the same event stream always produces the same windows and the same
//! live readings — the windowed view is as deterministic as the run.

use crate::sketch::QuantileSketch;

/// One closed (or in-progress) tumbling window for one class.
#[derive(Debug, Clone)]
struct Window {
    /// Window ordinal: `t_us / width_us`.
    ordinal: u64,
    sketch: QuantileSketch,
}

/// Per-class tumbling windows with a bounded ring and a cumulative sketch.
#[derive(Debug, Clone)]
pub struct WindowedQuantiles {
    width_us: u64,
    keep: usize,
    /// Ring of recent windows, oldest first, per class.
    windows: Vec<Vec<Window>>,
    /// Whole-run sketch per class.
    cumulative: Vec<QuantileSketch>,
    /// Whole-run sketch across all classes.
    overall: QuantileSketch,
}

impl WindowedQuantiles {
    /// Creates a windowed view over `classes` service classes with tumbling
    /// windows of `width_us` microseconds, keeping the most recent `keep`
    /// windows per class for live queries.
    pub fn new(classes: usize, width_us: u64, keep: usize) -> Self {
        WindowedQuantiles {
            width_us: width_us.max(1),
            keep: keep.max(1),
            windows: vec![Vec::new(); classes],
            cumulative: vec![QuantileSketch::new(); classes],
            overall: QuantileSketch::new(),
        }
    }

    /// Number of service classes tracked.
    pub fn classes(&self) -> usize {
        self.cumulative.len()
    }

    /// Window width in microseconds.
    pub fn width_us(&self) -> u64 {
        self.width_us
    }

    /// Records a sample for `class` at simulated/wall time `t_us`.
    /// Out-of-range classes are ignored (callers pass validated indices).
    pub fn record(&mut self, class: usize, t_us: u64, value: u64) {
        if class >= self.cumulative.len() {
            return;
        }
        self.cumulative[class].record(value);
        self.overall.record(value);
        let ordinal = t_us / self.width_us;
        let ring = &mut self.windows[class];
        match ring.last_mut() {
            Some(w) if w.ordinal == ordinal => w.sketch.record(value),
            Some(w) if w.ordinal > ordinal => {
                // Late sample (events can be recorded slightly out of order
                // across classes); fold into the matching window if it is
                // still in the ring, else into the oldest retained one.
                if let Some(w) = ring.iter_mut().find(|w| w.ordinal == ordinal) {
                    w.sketch.record(value);
                } else if let Some(first) = ring.first_mut() {
                    first.sketch.record(value);
                }
            }
            _ => {
                let mut sketch = QuantileSketch::new();
                sketch.record(value);
                ring.push(Window { ordinal, sketch });
                if ring.len() > self.keep {
                    let drop = ring.len() - self.keep;
                    ring.drain(..drop);
                }
            }
        }
    }

    /// Merged sketch over the retained windows for `class`.
    pub fn live_sketch(&self, class: usize) -> QuantileSketch {
        let mut merged = QuantileSketch::new();
        if let Some(ring) = self.windows.get(class) {
            for w in ring {
                merged.merge(&w.sketch);
            }
        }
        merged
    }

    /// Whole-run sketch for `class`.
    ///
    /// # Panics
    /// Panics if `class >= self.classes()` — live/record paths tolerate bad
    /// indices, but a cumulative query for an unknown class is a caller bug.
    pub fn cumulative(&self, class: usize) -> &QuantileSketch {
        &self.cumulative[class]
    }

    /// Whole-run sketch across all classes.
    pub fn overall(&self) -> &QuantileSketch {
        &self.overall
    }

    /// Deterministic multi-line rendering of the live and cumulative state,
    /// one line per class: `class=<i> live_n=.. live_p50=.. live_p95=..
    /// live_p99=.. total_n=.. total_p99=..`.
    pub fn render(&self, class_names: &[&str]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for class in 0..self.cumulative.len() {
            let name = class_names.get(class).copied().unwrap_or("?");
            let live = self.live_sketch(class);
            let (lp50, lp95, lp99) = live.summary();
            let total = &self.cumulative[class];
            let _ = writeln!(
                out,
                "class={name} live_n={} live_p50={lp50} live_p95={lp95} live_p99={lp99} total_n={} total_p99={}",
                live.count(),
                total.count(),
                total.quantile_permille(990),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_tumble_and_old_ones_age_out() {
        let mut w = WindowedQuantiles::new(1, 1000, 2);
        // Window 0: slow samples; windows 5 and 6: fast samples.
        for _ in 0..100 {
            w.record(0, 10, 1_000_000);
        }
        for t in [5_100, 6_100] {
            for _ in 0..100 {
                w.record(0, t, 100);
            }
        }
        // Live view keeps only the last 2 windows — the slow window is gone.
        let live = w.live_sketch(0);
        assert_eq!(live.count(), 200);
        assert!(live.quantile_permille(990) < 1000, "old window leaked in");
        // Cumulative still remembers everything.
        assert_eq!(w.cumulative(0).count(), 300);
        assert!(w.cumulative(0).quantile_permille(990) > 500_000);
    }

    #[test]
    fn classes_are_independent() {
        let mut w = WindowedQuantiles::new(3, 1000, 4);
        w.record(0, 5, 10);
        w.record(2, 5, 9_999_999);
        assert_eq!(w.live_sketch(0).count(), 1);
        assert_eq!(w.live_sketch(1).count(), 0);
        assert_eq!(w.live_sketch(1).quantile_permille(990), 0);
        assert!(w.live_sketch(2).quantile_permille(990) > 1_000_000);
        assert_eq!(w.overall().count(), 2);
    }

    #[test]
    fn late_samples_do_not_panic_and_are_retained() {
        let mut w = WindowedQuantiles::new(1, 1000, 3);
        w.record(0, 5_000, 50);
        w.record(0, 100, 70); // late: window 0 never existed — folds into oldest
        assert_eq!(w.live_sketch(0).count(), 2);
        w.record(0, 9_000, 10);
        w.record(0, 8_500, 20); // late but window 8 exists? no — folds forward
        assert_eq!(w.cumulative(0).count(), 4);
    }

    #[test]
    fn out_of_range_class_is_ignored() {
        let mut w = WindowedQuantiles::new(2, 1000, 2);
        w.record(7, 0, 123);
        assert_eq!(w.overall().count(), 0);
    }

    #[test]
    fn render_is_deterministic() {
        let build = || {
            let mut w = WindowedQuantiles::new(2, 500, 2);
            for i in 0..50u64 {
                w.record((i % 2) as usize, i * 37, i * 100 + 1);
            }
            w.render(&["interactive", "batch"])
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.starts_with("class=interactive "), "{a}");
    }
}
