//! End-to-end telemetry: record a real (tiny) sweep with the collector on,
//! export Chrome trace-event JSON, and validate the document schema with
//! the workspace's JSON reader.
//!
//! The whole pipeline shares one global collector, so everything lives in a
//! single test function — parallel test threads would steal each other's
//! events.

use vtx_codec::EncoderConfig;
use vtx_core::experiments::sweep::crf_refs_sweep;
use vtx_core::{trace_export, TranscodeOptions, Transcoder};
use vtx_frame::{synth, vbench};
use vtx_obs::json::{self, JsonValue as Value};
use vtx_telemetry::Collector;

fn tiny_transcoder() -> Transcoder {
    let mut spec = vbench::by_name("cricket").unwrap();
    spec.sim_width = 64;
    spec.sim_height = 48;
    spec.sim_frames = 5;
    Transcoder::from_video(synth::generate(&spec, 3)).unwrap()
}

/// The value at `path` below `v`; `Null` where a key is missing.
fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    static NULL: Value = Value::Null;
    path.iter().fold(v, |v, key| v.get(key).unwrap_or(&NULL))
}

/// Every trace event must carry the trace-event-format core fields.
fn assert_event_schema(event: &Value) {
    assert!(matches!(event, Value::Object(_)), "event is a JSON object");
    assert!(at(event, &["name"]).as_str().is_some(), "name: {event:?}");
    assert!(at(event, &["cat"]).as_str().is_some(), "cat: {event:?}");
    let ph = at(event, &["ph"]).as_str().expect("ph is a string");
    assert!(at(event, &["ts"]).as_u64().is_some(), "ts: {event:?}");
    assert!(at(event, &["pid"]).as_u64().is_some(), "pid: {event:?}");
    assert!(at(event, &["tid"]).as_u64().is_some(), "tid: {event:?}");
    match ph {
        "X" => assert!(
            at(event, &["dur"]).as_u64().is_some(),
            "complete event needs dur: {event:?}"
        ),
        "i" | "C" | "M" => {}
        other => panic!("unexpected phase {other:?}: {event:?}"),
    }
}

fn events_named<'a>(events: &'a [Value], name: &str) -> Vec<&'a Value> {
    events
        .iter()
        .filter(|e| at(e, &["name"]).as_str() == Some(name))
        .collect()
}

#[test]
fn sweep_trace_exports_valid_chrome_json() {
    // Start from a clean slate: recording is off by default, so the
    // collector may hold nothing yet, but be explicit for clarity.
    Collector::drain();
    trace_export::clear_profiles();
    Collector::enable();

    let t = tiny_transcoder();
    let opts = TranscodeOptions::default().with_sample_shift(2);
    let points = crf_refs_sweep(&t, &[20, 40], &[1, 2], &EncoderConfig::default(), &opts).unwrap();
    assert_eq!(points.len(), 4);
    Collector::disable();

    assert_eq!(
        trace_export::recorded_configs(),
        vec!["baseline".to_owned()],
        "the sweep ran on one simulated config"
    );

    let json = trace_export::chrome_trace_json();
    let doc = json::parse(&json).expect("exporter emits valid JSON");
    let events = at(&doc, &["traceEvents"])
        .as_array()
        .expect("traceEvents array");
    assert!(at(&doc, &["vtxDroppedEvents"]).as_u64().is_some());
    for e in events {
        assert_event_schema(e);
    }

    // One "X" span per sweep point, carrying crf/refs args.
    let sweep_spans = events_named(events, "sweep_point");
    assert_eq!(sweep_spans.len(), 4, "one span per grid point");
    for span in &sweep_spans {
        assert_eq!(at(span, &["ph"]).as_str(), Some("X"));
        assert!(at(span, &["args", "crf"]).as_u64().is_some(), "{span:?}");
        assert!(at(span, &["args", "refs"]).as_u64().is_some(), "{span:?}");
    }
    let crfs: Vec<u64> = sweep_spans
        .iter()
        .filter_map(|s| at(s, &["args", "crf"]).as_u64())
        .collect();
    assert!(crfs.contains(&20) && crfs.contains(&40));

    // Per-frame codec spans, grouped by frame type.
    let frame_spans: Vec<&Value> = events
        .iter()
        .filter(|e| {
            at(e, &["name"])
                .as_str()
                .is_some_and(|n| n.starts_with("frame/"))
        })
        .collect();
    assert!(!frame_spans.is_empty(), "encoder emits per-frame spans");
    assert!(
        !events_named(events, "frame/I").is_empty(),
        "every encode opens with an I frame"
    );
    for span in &frame_spans {
        assert_eq!(at(span, &["ph"]).as_str(), Some("X"));
        assert!(at(span, &["args", "display"]).as_u64().is_some());
    }

    // Decode-side frame spans too (the transcode pipeline decodes the
    // mezzanine before re-encoding).
    assert!(
        events.iter().any(|e| at(e, &["name"])
            .as_str()
            .is_some_and(|n| n.starts_with("decode_frame/"))),
        "decoder emits per-frame spans"
    );

    // Stage and experiment spans from vtx-core.
    assert!(!events_named(events, "transcode").is_empty());
    assert!(!events_named(events, "transcode/decode").is_empty());
    assert!(!events_named(events, "transcode/encode").is_empty());
    assert!(!events_named(events, "experiment/sweep").is_empty());

    // Progress heartbeats recorded as instants.
    let progress = events_named(events, "progress");
    assert_eq!(progress.len(), 4, "one tick per sweep point");
    assert!(progress
        .iter()
        .any(|p| at(p, &["args", "completed"]).as_u64() == Some(4)));

    // Metadata: the wall-clock process track plus one simulated-time track
    // per configuration seen during the run.
    let process_names: Vec<&str> = events_named(events, "process_name")
        .iter()
        .filter_map(|e| at(e, &["args", "name"]).as_str())
        .collect();
    assert!(
        process_names.contains(&"vtx wall-clock"),
        "{process_names:?}"
    );
    assert!(
        process_names.contains(&"sim: baseline"),
        "{process_names:?}"
    );
    assert!(
        !events_named(events, "thread_name").is_empty(),
        "worker threads are named"
    );

    // The simulated-time track carries the interval-model breakdown as
    // complete events on its own pid.
    let base = events_named(events, "base");
    assert!(!base.is_empty(), "sim track renders the cycle breakdown");
    assert!(at(base[0], &["pid"]).as_u64().unwrap() >= trace_export::SIM_PID_BASE);

    // The flamegraph exporter sees the same profiles.
    let folded = trace_export::flamegraph_collapsed();
    assert!(folded.contains("baseline;"), "{folded}");
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack weight");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("numeric weight");
    }

    // A second drain is empty: the exporter consumed the events.
    assert!(Collector::drain().events.is_empty());
    trace_export::clear_profiles();
}
