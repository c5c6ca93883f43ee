//! Span guards and instant events.

use crate::clock::now_us;
use crate::collector::{push_event, Collector};
use crate::ring::{Event, EventKind};

/// One structured argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text (owned; built only while recording is enabled).
    Str(String),
}

impl ArgValue {
    /// Renders the value as a JSON fragment.
    pub(crate) fn to_json(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::I64(v) => v.to_string(),
            ArgValue::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_owned()
                }
            }
            ArgValue::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                crate::escape_json_into(&mut out, s);
                out.push('"');
                out
            }
        }
    }
}

/// Builder for span/event arguments. Only constructed while recording is
/// enabled, so argument formatting costs nothing when telemetry is off.
#[derive(Debug, Default)]
pub struct Args {
    pub(crate) items: Vec<(&'static str, ArgValue)>,
}

impl Args {
    /// Adds an unsigned-integer argument.
    pub fn u64(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.items.push((key, ArgValue::U64(value)));
        self
    }

    /// Adds a floating-point argument.
    pub fn f64(&mut self, key: &'static str, value: f64) -> &mut Self {
        self.items.push((key, ArgValue::F64(value)));
        self
    }

    /// Adds a string argument.
    pub fn str(&mut self, key: &'static str, value: &str) -> &mut Self {
        self.items.push((key, ArgValue::Str(value.to_owned())));
        self
    }
}

/// An RAII wall-clock span: created by [`Span::enter`], recorded when
/// dropped.
///
/// When the [`Collector`] is disabled the guard is inert — construction is a
/// relaxed atomic load plus a branch, and neither construction nor drop
/// allocates.
#[derive(Debug)]
#[must_use = "a span measures the region it is alive for"]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    start_us: u64,
    args: Vec<(&'static str, ArgValue)>,
    active: bool,
}

impl Span {
    /// Opens a span named `name` in the default category.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        Self::enter_cat(name, "vtx")
    }

    /// Opens a span with an explicit category.
    #[inline]
    fn enter_cat(name: &'static str, cat: &'static str) -> Span {
        if !Collector::is_enabled() {
            return Span::inert(name, cat);
        }
        Span {
            name,
            cat,
            start_us: now_us(),
            args: Vec::new(),
            active: true,
        }
    }

    /// Opens a span with arguments; `fill` runs only while recording is
    /// enabled, so argument construction is free when telemetry is off.
    #[inline]
    pub fn enter_with(name: &'static str, fill: impl FnOnce(&mut Args)) -> Span {
        if !Collector::is_enabled() {
            return Span::inert(name, "vtx");
        }
        let mut args = Args::default();
        fill(&mut args);
        Span {
            name,
            cat: "vtx",
            start_us: now_us(),
            args: args.items,
            active: true,
        }
    }

    #[inline]
    fn inert(name: &'static str, cat: &'static str) -> Span {
        // `Vec::new` does not allocate: the disabled path is allocation-free.
        Span {
            name,
            cat,
            start_us: 0,
            args: Vec::new(),
            active: false,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_us = now_us().saturating_sub(self.start_us);
        let name = self.name;
        let cat = self.cat;
        let ts_us = self.start_us;
        let args = std::mem::take(&mut self.args);
        push_event(|tid| Event {
            name,
            cat,
            kind: EventKind::Span { dur_us },
            ts_us,
            tid,
            args,
        });
    }
}

/// Records a point-in-time event with arguments. A no-op (no allocation,
/// `fill` not called) while the collector is disabled.
#[inline]
pub fn instant(name: &'static str, fill: impl FnOnce(&mut Args)) {
    if !Collector::is_enabled() {
        return;
    }
    let mut args = Args::default();
    fill(&mut args);
    let ts_us = now_us();
    push_event(|tid| Event {
        name,
        cat: "vtx",
        kind: EventKind::Instant,
        ts_us,
        tid,
        args: args.items,
    });
}

/// Records a sampled counter value under `name`. Rendered as a counter
/// track by the Chrome exporter. A no-op while the collector is disabled.
#[inline]
pub fn counter_sample(name: &'static str, value: f64) {
    if !Collector::is_enabled() {
        return;
    }
    let ts_us = now_us();
    push_event(|tid| Event {
        name,
        cat: "vtx",
        kind: EventKind::Counter,
        ts_us,
        tid,
        args: vec![("value", ArgValue::F64(value))],
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    #[test]
    fn span_records_duration_and_args() {
        let _guard = crate::test_lock();
        Collector::enable();
        {
            let _s = Span::enter_with("span_records_duration_and_args", |a| {
                a.u64("crf", 23).str("video", "bike");
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let trace = Collector::drain();
        let spans = trace.events_named("span_records_duration_and_args");
        assert!(!spans.is_empty());
        let e = spans[0];
        match e.kind {
            EventKind::Span { dur_us } => assert!(dur_us >= 1000, "dur {dur_us}"),
            ref other => panic!("expected span, got {other:?}"),
        }
        assert!(e
            .args
            .iter()
            .any(|(k, v)| *k == "crf" && *v == ArgValue::U64(23)));
        assert!(e
            .args
            .iter()
            .any(|(k, v)| *k == "video" && *v == ArgValue::Str("bike".into())));
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = crate::test_lock();
        Collector::disable();
        let s = Span::enter("disabled_span_is_inert");
        assert!(!s.active);
        drop(s);
        instant("disabled_span_is_inert", |a| {
            a.u64("never", 1);
        });
        let trace = Collector::drain();
        assert!(trace.events_named("disabled_span_is_inert").is_empty());
    }

    #[test]
    fn arg_values_render_as_json() {
        assert_eq!(ArgValue::U64(7).to_json(), "7");
        assert_eq!(ArgValue::I64(-3).to_json(), "-3");
        assert_eq!(ArgValue::F64(1.5).to_json(), "1.5");
        assert_eq!(ArgValue::F64(f64::NAN).to_json(), "null");
        assert_eq!(ArgValue::Str("a\"b".into()).to_json(), "\"a\\\"b\"");
    }
}
