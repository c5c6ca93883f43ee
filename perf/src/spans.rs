//! Spans the harness records around its own calls into each layer.
//!
//! A span has a name (`layer.call`), a start and an end in nanoseconds since
//! the tracer was made, the span that caused it, and the id of the op it
//! belongs to. Spans live in a pre-allocated vector and are written out as
//! Chrome trace-event JSON only after the last op. With the tracer off,
//! `span` is one branch and a call.

use std::time::Instant;

use vtx_telemetry::chrome::ChromeTrace;
use vtx_telemetry::ArgValue;

/// `parent` of a span nothing caused.
pub const NO_PARENT: u32 = u32::MAX;
/// `op` of spans recorded while building inputs.
pub const SETUP_OP: u32 = u32::MAX;
/// Name of the root span of every op; its self time is the harness's own.
pub const OP_SPAN: &str = "op";
/// Name of the root span of set-up.
pub const SETUP_SPAN: &str = "setup";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
    /// Work items the call handled (frames, events, bytes, jobs); 0 if the
    /// span counts nothing.
    pub count: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: SETUP_OP,
        }
    }

    pub fn on(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            ..Self::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`, child of the span now open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_n(name, |tr| (f(tr), 0))
    }

    /// As `span`, for a call that handles a countable amount of work: `f`
    /// returns its value and the count recorded on the span.
    pub fn span_n<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            count: 0,
        });
        self.stack.push(id);
        let (out, count) = f(self);
        self.stack.pop();
        let rec = &mut self.spans[id as usize];
        rec.end_ns = self.t0.elapsed().as_nanos() as u64;
        rec.count = count;
        out
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent and merged,
/// so overlapping children are not subtracted twice, and grandchildren count
/// only through the child that contains them.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Share of op time spent inside layer spans: the self time of every span
/// under an op root, over the duration of the op roots.
pub fn coverage(spans: &[SpanRec]) -> f64 {
    let selfs = self_times(spans);
    let (mut layers, mut ops) = (0u64, 0u64);
    for (s, ns) in spans.iter().zip(selfs) {
        if s.op == SETUP_OP {
            continue;
        }
        if s.name == OP_SPAN {
            ops += s.end_ns - s.start_ns;
        } else {
            layers += ns;
        }
    }
    if ops == 0 {
        return 0.0;
    }
    layers as f64 / ops as f64
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) through the
/// repository's own exporter: one complete event per span, category = layer,
/// with the span's id, parent and op (-1 for none and for set-up). The
/// exporter keeps whole microseconds; the metrics are computed from the
/// nanoseconds, not from this file.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let mut trace = ChromeTrace::new();
    for (i, s) in spans.iter().enumerate() {
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let signed = |v: u32| ArgValue::I64(if v == u32::MAX { -1 } else { i64::from(v) });
        trace.add_complete(
            s.name,
            cat,
            s.start_ns / 1_000,
            (s.end_ns - s.start_ns) / 1_000,
            (1, 1),
            &[
                ("id", ArgValue::U64(i as u64)),
                ("parent", signed(s.parent)),
                ("op", signed(s.op)),
            ],
        );
    }
    trace.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(OP_SPAN, 0, 100, NO_PARENT),
            rec("a.x", 10, 40, 0),
            // overlaps a.x by 10: the union [10, 60) covers 50, not 60
            rec("b.y", 30, 60, 0),
            // nested in b.y: subtracted from b.y, not again from the root
            rec("c.z", 35, 45, 2),
            // sticks out of its parent: clipped to [90, 100)
            rec("d.w", 90, 120, 0),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 10, 30]);
    }

    #[test]
    fn childless_and_fully_covered_spans() {
        let spans = vec![
            rec(OP_SPAN, 5, 25, NO_PARENT),
            rec("a.x", 5, 15, 0),
            rec("a.x", 15, 25, 0),
        ];
        assert_eq!(self_times(&spans), vec![0, 10, 10]);
        assert_eq!(coverage(&spans), 1.0);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let mut tr = Tracer::on(8);
        tr.set_op(3);
        let v = tr.span(OP_SPAN, |tr| tr.span("a.x", |tr| tr.span("b.y", |_| 7)));
        assert_eq!(v, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 1));
        assert!(s.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("a.x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_json_parses() {
        let spans = vec![rec(OP_SPAN, 0, 2_000, NO_PARENT), rec("a.x", 500, 1_500, 0)];
        let v = vtx_obs::json::parse(&chrome_json(&spans)).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").and_then(|c| c.as_str()), Some("a"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
        let args = events[0].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|p| p.as_f64()), Some(-1.0));
    }
}
