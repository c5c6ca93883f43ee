//! Chrome trace-event JSON exporter.
//!
//! Produces the JSON-object flavour of the [trace-event format] — a
//! `{"traceEvents": [...]}` document loadable in Perfetto or
//! `chrome://tracing`. Spans become `"X"` (complete) events, instants `"i"`,
//! counter samples `"C"`, and process/thread names are attached with `"M"`
//! metadata records. Synthetic tracks (e.g. simulated-time cycle breakdowns)
//! can be added alongside the recorded wall-clock events by picking an unused
//! `pid`.
//!
//! The writer is hand-rolled string building (this crate takes no
//! dependencies); the workspace test crate re-parses the output with
//! `vtx_obs::json` to keep it honest.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::collector::Trace;
use crate::escape_json_into;
use crate::ring::EventKind;
use crate::span::ArgValue;

/// The `pid` used for recorded wall-clock events.
pub const WALL_PID: u64 = 1;

/// A builder accumulating trace-event records; [`ChromeTrace::to_json`]
/// renders the final document.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    records: Vec<String>,
    /// Events dropped at the ring layer, surfaced as a metadata arg.
    dropped: u64,
}

fn push_args_json(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push_str(",\"args\":{");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json_into(out, k);
        out.push_str("\":");
        out.push_str(&v.to_json());
    }
    out.push('}');
}

fn push_common(out: &mut String, name: &str, cat: &str, ph: char, ts_us: u64, pid: u64, tid: u64) {
    out.push_str("{\"name\":\"");
    escape_json_into(out, name);
    out.push_str("\",\"cat\":\"");
    escape_json_into(out, cat);
    out.push_str("\",\"ph\":\"");
    out.push(ph);
    out.push_str("\",\"ts\":");
    out.push_str(&ts_us.to_string());
    out.push_str(",\"pid\":");
    out.push_str(&pid.to_string());
    out.push_str(",\"tid\":");
    out.push_str(&tid.to_string());
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Converts a drained [`Trace`] into trace-event records under
    /// [`WALL_PID`], including thread-name metadata for every registered
    /// thread.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut out = ChromeTrace::new();
        out.dropped = trace.dropped;
        out.add_process_name(WALL_PID, "vtx wall-clock");
        for (tid, name) in &trace.threads {
            out.add_thread_name(WALL_PID, *tid, name);
        }
        for e in &trace.events {
            match e.kind {
                EventKind::Span { dur_us } => {
                    out.add_complete(e.name, e.cat, e.ts_us, dur_us, (WALL_PID, e.tid), &e.args);
                }
                EventKind::Instant => {
                    out.add_instant(e.name, e.cat, e.ts_us, WALL_PID, e.tid, &e.args);
                }
                EventKind::Counter => {
                    let value = e
                        .args
                        .iter()
                        .find_map(|(k, v)| match (k, v) {
                            (&"value", ArgValue::F64(f)) => Some(*f),
                            _ => None,
                        })
                        .unwrap_or(0.0);
                    out.add_counter(e.name, e.ts_us, WALL_PID, value);
                }
            }
        }
        out
    }

    /// Adds an `"X"` complete event covering `[ts_us, ts_us + dur_us]` on
    /// the `(pid, tid)` track.
    pub fn add_complete(
        &mut self,
        name: &str,
        cat: &str,
        ts_us: u64,
        dur_us: u64,
        track: (u64, u64),
        args: &[(&'static str, ArgValue)],
    ) {
        let mut rec = String::with_capacity(96);
        push_common(&mut rec, name, cat, 'X', ts_us, track.0, track.1);
        rec.push_str(",\"dur\":");
        rec.push_str(&dur_us.to_string());
        if !args.is_empty() {
            push_args_json(&mut rec, args);
        }
        rec.push('}');
        self.records.push(rec);
    }

    /// Adds an `"i"` instant event (thread scope).
    pub fn add_instant(
        &mut self,
        name: &str,
        cat: &str,
        ts_us: u64,
        pid: u64,
        tid: u64,
        args: &[(&'static str, ArgValue)],
    ) {
        let mut rec = String::with_capacity(96);
        push_common(&mut rec, name, cat, 'i', ts_us, pid, tid);
        rec.push_str(",\"s\":\"t\"");
        if !args.is_empty() {
            push_args_json(&mut rec, args);
        }
        rec.push('}');
        self.records.push(rec);
    }

    /// Adds a `"C"` counter sample; trace viewers draw these as a filled
    /// area chart per `name`.
    pub fn add_counter(&mut self, name: &str, ts_us: u64, pid: u64, value: f64) {
        let mut rec = String::with_capacity(96);
        push_common(&mut rec, name, "vtx", 'C', ts_us, pid, 0);
        rec.push_str(",\"args\":{\"value\":");
        rec.push_str(&ArgValue::F64(value).to_json());
        rec.push_str("}}");
        self.records.push(rec);
    }

    /// Names a process track (`"M"` / `process_name` metadata).
    pub fn add_process_name(&mut self, pid: u64, name: &str) {
        let mut rec = String::with_capacity(96);
        push_common(&mut rec, "process_name", "__metadata", 'M', 0, pid, 0);
        rec.push_str(",\"args\":{\"name\":\"");
        escape_json_into(&mut rec, name);
        rec.push_str("\"}}");
        self.records.push(rec);
    }

    /// Names a thread track (`"M"` / `thread_name` metadata).
    pub fn add_thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let mut rec = String::with_capacity(96);
        push_common(&mut rec, "thread_name", "__metadata", 'M', 0, pid, tid);
        rec.push_str(",\"args\":{\"name\":\"");
        escape_json_into(&mut rec, name);
        rec.push_str("\"}}");
        self.records.push(rec);
    }

    /// Number of records accumulated so far (including metadata).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records have been added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the `{"traceEvents": [...]}` document. Ring-buffer drops are
    /// reported in a top-level `"vtxDroppedEvents"` field so truncated traces
    /// are detectable.
    pub fn to_json(&self) -> String {
        let mut out =
            String::with_capacity(32 + self.records.iter().map(String::len).sum::<usize>());
        out.push_str("{\"traceEvents\":[");
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(rec);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"vtxDroppedEvents\":");
        out.push_str(&self.dropped.to_string());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{Event, EventKind};

    fn sample_trace() -> Trace {
        Trace {
            events: vec![
                Event {
                    name: "sweep_point",
                    cat: "experiment",
                    kind: EventKind::Span { dur_us: 1500 },
                    ts_us: 100,
                    tid: 1,
                    args: vec![
                        ("crf", ArgValue::U64(23)),
                        ("note", ArgValue::Str("a\"b".into())),
                    ],
                },
                Event {
                    name: "placed",
                    cat: "sched",
                    kind: EventKind::Instant,
                    ts_us: 230,
                    tid: 2,
                    args: Vec::new(),
                },
                Event {
                    name: "queue_depth",
                    cat: "vtx",
                    kind: EventKind::Counter,
                    ts_us: 300,
                    tid: 1,
                    args: vec![("value", ArgValue::F64(4.0))],
                },
            ],
            threads: vec![(1, "main".into()), (2, "worker-0".into())],
            dropped: 7,
        }
    }

    #[test]
    fn renders_all_event_kinds() {
        let json = ChromeTrace::from_trace(&sample_trace()).to_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"sweep_point\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":1500"));
        assert!(json.contains("\"crf\":23"));
        assert!(json.contains("\"note\":\"a\\\"b\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"queue_depth\""));
        assert!(json.contains("\"vtxDroppedEvents\":7"));
    }

    #[test]
    fn thread_and_process_metadata_present() {
        let json = ChromeTrace::from_trace(&sample_trace()).to_json();
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"vtx wall-clock\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"worker-0\""));
    }

    #[test]
    fn synthetic_track_on_custom_pid() {
        let mut t = ChromeTrace::new();
        t.add_process_name(40, "sim: crf23");
        t.add_complete("decode", "sim", 0, 900, (40, 1), &[]);
        t.add_complete("encode", "sim", 900, 4100, (40, 1), &[]);
        let json = t.to_json();
        assert!(json.contains("\"pid\":40"));
        assert!(json.contains("\"sim: crf23\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn empty_trace_is_valid_document() {
        let json = ChromeTrace::new().to_json();
        assert_eq!(
            json,
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\",\"vtxDroppedEvents\":0}"
        );
    }

    /// Structural sanity without a JSON parser: balanced braces/brackets and
    /// no raw control characters. (Full parsing lives in the workspace
    /// `vtx-tests` crate, which may depend on `vtx-obs`.)
    #[test]
    fn output_is_structurally_balanced() {
        let json = ChromeTrace::from_trace(&sample_trace()).to_json();
        let mut depth = 0i64;
        let mut in_str = false;
        let mut escape = false;
        for c in json.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if c == '\\' {
                    escape = true;
                } else if c == '"' {
                    in_str = false;
                }
                assert!(c as u32 >= 0x20, "raw control char in string");
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
