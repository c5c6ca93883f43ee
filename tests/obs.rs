//! Observability-plane acceptance tests: the Chrome trace roundtrip
//! (parses, spans nest, byte-identical per seed), the sojourn-sketch
//! error bound against the exact report quantiles on the fig9 workload,
//! conservation checked from the job trace alone, determinism of the
//! alert stream and Prometheus exposition, and the bench-trajectory
//! schema roundtrip.

use vtx_obs::json::{parse, JsonValue};
use vtx_obs::{BenchTrajectory, QuantileSketch, JOB_PID};
use vtx_serve::chaos::ChaosConfig;
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::service::ServeConfig;
use vtx_serve::sim::{simulate, simulate_trace, SimOutcome};
use vtx_serve::workload::{Priority, WorkloadSpec};
use vtx_serve::CLASS_NAMES;
use vtx_telemetry::chrome::ChromeTrace;

fn sim(workload: &WorkloadSpec, policy: &str) -> SimOutcome {
    simulate(
        workload,
        Fleet::table_iv(),
        policy_by_name(policy, workload.seed).unwrap(),
        ServeConfig::default(),
    )
    .unwrap()
}

/// The chaos acceptance scenario: richer lifecycle (requeues, hedges,
/// sheds) so the trace exercises every span kind.
fn faulted(policy: &str, seed: u64, workload: &WorkloadSpec) -> SimOutcome {
    let jobs = workload.generate().unwrap();
    let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap();
    let cfg = ServeConfig {
        chaos: ChaosConfig::kill_two_straggle_one(seed, 8, horizon),
        ..ServeConfig::default()
    };
    simulate_trace(
        &jobs,
        seed,
        Fleet::sized(8).unwrap(),
        policy_by_name(policy, seed).unwrap(),
        cfg,
    )
    .unwrap()
}

fn chrome_json(out: &SimOutcome) -> String {
    let mut trace = ChromeTrace::new();
    out.obs
        .tracker()
        .add_chrome_tracks(&mut trace, &CLASS_NAMES);
    trace.to_json()
}

#[test]
fn chrome_trace_roundtrip_parses_and_spans_nest() {
    let w = WorkloadSpec::smoke(42);
    let out = faulted("smart", 42, &w);
    let doc = parse(&chrome_json(&out)).expect("trace JSON must parse");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "faulted smoke run must emit events");

    // Every event sits on the job process; per job track, the queued span
    // opens no later than the first attempt span, and every attempt span
    // for one job starts at or after the queued span's start.
    let mut saw_attempt = false;
    for ev in events {
        assert_eq!(
            ev.get("pid").and_then(JsonValue::as_u64),
            Some(JOB_PID),
            "all job-track events live on pid {JOB_PID}"
        );
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap();
        if name == "attempt" || name == "hedge" {
            saw_attempt = true;
            let tid = ev.get("tid").and_then(JsonValue::as_u64).unwrap();
            let ts = ev.get("ts").and_then(JsonValue::as_u64).unwrap();
            let queued_ts = events
                .iter()
                .find(|q| {
                    q.get("name").and_then(JsonValue::as_str) == Some("queued")
                        && q.get("tid").and_then(JsonValue::as_u64) == Some(tid)
                })
                .and_then(|q| q.get("ts").and_then(JsonValue::as_u64))
                .expect("every attempt has a queued span on its track");
            assert!(
                queued_ts <= ts,
                "job {tid}: attempt at {ts} precedes queueing at {queued_ts}"
            );
        }
    }
    assert!(saw_attempt, "run must dispatch at least one attempt");
}

#[test]
fn same_seed_observability_outputs_are_byte_identical() {
    let w = WorkloadSpec::smoke(42);
    let a = faulted("smart", 42, &w);
    let b = faulted("smart", 42, &w);
    assert_eq!(chrome_json(&a), chrome_json(&b), "Chrome trace JSON");
    assert_eq!(
        a.obs.tracker().render_text(&CLASS_NAMES),
        b.obs.tracker().render_text(&CLASS_NAMES),
        "plain-text job trace"
    );
    assert_eq!(
        a.obs.render_alerts(&CLASS_NAMES),
        b.obs.render_alerts(&CLASS_NAMES),
        "alert stream"
    );
    assert_eq!(
        a.obs.render_prometheus(&CLASS_NAMES),
        b.obs.render_prometheus(&CLASS_NAMES),
        "Prometheus exposition"
    );
}

#[test]
fn sketch_p99_matches_exact_report_within_error_bound() {
    // The acceptance bound: on the fig9 bundled workload, the cumulative
    // per-class sketch p99 must sit within the sketch's stated relative
    // error of the exact nearest-rank p99 the report computes.
    let w = WorkloadSpec::bundled(42);
    let out = sim(&w, "smart");
    for (i, class) in Priority::ALL.iter().enumerate() {
        let exact = &out.report.sojourn_by_class[i];
        let sketch = out.obs.cumulative(i);
        assert_eq!(
            sketch.count(),
            exact.count,
            "{}: sketch saw every completion",
            class.name()
        );
        if exact.count == 0 {
            continue;
        }
        for (permille, exact_q) in [(500, exact.p50_us), (990, exact.p99_us)] {
            let est = sketch.quantile_permille(permille);
            let bound = exact_q as f64 * QuantileSketch::RELATIVE_ERROR_BOUND + 1.0;
            let err = (est as f64 - exact_q as f64).abs();
            assert!(
                err <= bound,
                "{} q{permille}: sketch {est} vs exact {exact_q} (err {err} > {bound})",
                class.name()
            );
        }
    }
}

#[test]
fn conservation_holds_from_the_trace_alone() {
    for (label, out) in [
        ("clean", sim(&WorkloadSpec::smoke(42), "smart")),
        ("faulted", faulted("smart", 42, &WorkloadSpec::smoke(42))),
    ] {
        let stats = out
            .obs
            .tracker()
            .check_conservation()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(stats.arrived, out.report.offered, "{label}: arrivals");
        assert_eq!(
            stats.completed, out.report.completed,
            "{label}: completions"
        );
        assert_eq!(stats.shed, out.report.shed_total(), "{label}: sheds");
    }
}

#[test]
fn trajectory_schema_roundtrips_through_its_own_validator() {
    let out = faulted("smart", 42, &WorkloadSpec::smoke(42));
    let mut traj = BenchTrajectory::new("obs_test");
    let alerts = out.obs.alerts().len() as u64;
    traj.push(out.report.trajectory_row("faulted", 8, 0, 0, alerts, 0));
    let json = traj.to_json();
    let back = BenchTrajectory::validate_str(&json).expect("schema-valid");
    assert_eq!(back.bench, "obs_test");
    assert_eq!(back.rows.len(), 1);
    assert_eq!(back.rows[0], traj.rows[0]);
    // And a second serialization is byte-identical.
    assert_eq!(json, back.to_json());
}
