//! Fault-tolerance acceptance tests: the canonical kill-2-of-8 scenario,
//! exactly-once terminal accounting under crashes, hedging, graceful
//! degradation, whole-fleet loss, and the real executor surviving a worker
//! crash mid-run.

use vtx_chaos::{DegradeConfig, FaultPlan};
use vtx_serve::chaos::ChaosConfig;
use vtx_serve::exec::{run_real, ExecConfig};
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::service::{render_event_log, EventRecord, ServeConfig};
use vtx_serve::sim::{simulate_trace, SimOutcome};
use vtx_serve::workload::WorkloadSpec;

/// The acceptance scenario: 8 servers, 2 killed at 30% of the run, one 3×
/// fail-slow straggler, everything a pure function of the seed.
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

#[test]
fn killed_fleet_keeps_serving_with_exactly_once_accounting() {
    let w = WorkloadSpec::smoke(42);
    let out = faulted("smart", 42, &w);
    let r = &out.report;
    assert_eq!(r.offered, 60);
    assert_eq!(
        r.completed + r.shed_total(),
        r.offered,
        "every admitted job reaches exactly one terminal state: {r:?}"
    );
    assert!(r.completed > 0, "the surviving 6 servers keep serving");
    assert_eq!(r.sojourn.count, r.completed);
    // Fault accounting matches the plan.
    assert_eq!(r.faults.crashes, 2);
    assert_eq!(r.faults.slowdowns, 1);
    // Availability reflects two dead servers, MTTR only exists if work
    // was actually lost in the detection window.
    assert!(
        r.availability > 0.5 && r.availability < 1.0,
        "availability {} should sit between half-dead and healthy",
        r.availability
    );
    assert!(r.goodput_jps <= r.throughput_jps);
    if r.faults.requeued > 0 {
        assert!(r.mttr_us > 0, "requeued work implies a recovery span");
    }
    // The event log tells the whole story: faults, verdicts, and the
    // detector never resurrects a dead server.
    let downs = out
        .event_log
        .iter()
        .filter(|e| matches!(e, EventRecord::Down { .. }))
        .count();
    assert_eq!(downs, 2, "both crashed servers get a down verdict");
}

#[test]
fn faulted_runs_are_byte_identical_across_reruns() {
    let w = WorkloadSpec::smoke(42);
    for policy in ["random", "rr", "smart", "port"] {
        let a = faulted(policy, 42, &w);
        let b = faulted(policy, 42, &w);
        assert_eq!(a.assignments, b.assignments, "{policy}");
        assert_eq!(
            render_event_log(&a.event_log),
            render_event_log(&b.event_log),
            "{policy}"
        );
        assert_eq!(a.report.render(), b.report.render(), "{policy}");
    }
}

#[test]
fn smart_beats_random_tail_latency_under_faults() {
    // The paper's placement-quality claim must survive fault injection:
    // the model-driven policy (which also penalizes suspected servers)
    // keeps a tighter p99 than blind random placement on the same
    // faulted fleet.
    let w = WorkloadSpec::bundled(42);
    let smart = faulted("smart", 42, &w);
    let random = faulted("random", 42, &w);
    assert!(
        smart.report.sojourn.p99_us < random.report.sojourn.p99_us,
        "smart faulted p99 ({}) must beat random faulted p99 ({})",
        smart.report.sojourn.p99_us,
        random.report.sojourn.p99_us
    );
}

#[test]
fn hedging_duplicates_interactive_stragglers() {
    let w = WorkloadSpec::smoke(7);
    let jobs = w.generate().unwrap();
    let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap();
    // Straggler faults plus an aggressive hedge trigger: interactive jobs
    // stuck past 30% of their deadline budget get a duplicate.
    let mut chaos = ChaosConfig::kill_two_straggle_one(7, 8, horizon);
    chaos.hedge_after = 0.3;
    let cfg = ServeConfig {
        chaos,
        ..ServeConfig::default()
    };
    let out = simulate_trace(
        &jobs,
        7,
        Fleet::sized(8).unwrap(),
        policy_by_name("smart", 7).unwrap(),
        cfg,
    )
    .unwrap();
    let r = &out.report;
    assert_eq!(
        r.completed + r.shed_total(),
        r.offered,
        "conservation holds"
    );
    assert!(
        r.faults.hedges_launched > 0,
        "slow interactive jobs must trigger hedges: {:?}",
        r.faults
    );
    assert!(r.faults.hedges_won <= r.faults.hedges_launched);
    // Exactly-once: hedge launches appear in the event log too.
    let hedge_events = out
        .event_log
        .iter()
        .filter(|e| matches!(e, EventRecord::Hedge { .. }))
        .count() as u64;
    assert_eq!(hedge_events, r.faults.hedges_launched);
}

#[test]
fn degradation_ladder_sheds_quality_not_jobs() {
    let w = WorkloadSpec::smoke(42);
    let jobs = w.generate().unwrap();
    // Kill 6 of 8 servers one second in: detected capacity collapses and
    // the backlog per surviving server explodes.
    let mut plan = FaultPlan::none(8);
    for s in 2..8 {
        plan = plan.with_crash(s, 1_000_000).unwrap();
    }
    let cfg = ServeConfig {
        chaos: ChaosConfig {
            plan,
            degrade: DegradeConfig { enabled: true },
            ..ChaosConfig::default()
        },
        ..ServeConfig::default()
    };
    let out = simulate_trace(
        &jobs,
        42,
        Fleet::sized(8).unwrap(),
        policy_by_name("smart", 42).unwrap(),
        cfg,
    )
    .unwrap();
    let r = &out.report;
    assert_eq!(r.completed + r.shed_total(), r.offered);
    assert!(
        r.faults.peak_degrade_level > 0,
        "capacity collapse must climb the ladder: {:?}",
        r.faults
    );
    assert!(
        r.faults.degraded_jobs > 0,
        "climbing the ladder must actually downgrade dispatched presets"
    );
    let degrade_events = out
        .event_log
        .iter()
        .filter(|e| matches!(e, EventRecord::Degrade { .. }))
        .count();
    assert!(degrade_events > 0);
}

#[test]
fn whole_fleet_loss_strands_nothing_silently() {
    let w = WorkloadSpec::smoke(3);
    let jobs = w.generate().unwrap();
    let mut plan = FaultPlan::none(5);
    for s in 0..5 {
        plan = plan.with_crash(s, 0).unwrap();
    }
    let cfg = ServeConfig {
        chaos: ChaosConfig {
            plan,
            ..ChaosConfig::default()
        },
        ..ServeConfig::default()
    };
    let out = simulate_trace(
        &jobs,
        3,
        Fleet::table_iv(),
        policy_by_name("rr", 3).unwrap(),
        cfg,
    )
    .unwrap();
    let r = &out.report;
    assert_eq!(r.completed, 0, "a fleet dead from t=0 completes nothing");
    assert_eq!(
        r.shed_total(),
        r.offered,
        "every admitted job still reaches a terminal state: {r:?}"
    );
    assert_eq!(r.availability, 0.0, "no server-time was ever alive");
}

#[test]
fn real_executor_survives_a_worker_crash() {
    // Satellite: kill a real worker thread mid-run and prove the service
    // recovers — every admitted job terminally accounted exactly once.
    let w = WorkloadSpec::real_smoke(42);
    let plan = FaultPlan::none(5).with_crash(2, 40_000).unwrap();
    let cfg = ExecConfig {
        arrival_compression: 50,
        serve: ServeConfig {
            chaos: ChaosConfig {
                plan,
                ..ChaosConfig::default()
            },
            ..ServeConfig::default()
        },
    };
    let out = run_real(
        &w,
        Fleet::table_iv(),
        policy_by_name("smart", w.seed).unwrap(),
        &cfg,
    )
    .unwrap();
    let r = &out.report;
    assert_eq!(r.offered, w.jobs as u64);
    assert_eq!(
        r.completed + r.shed_total(),
        r.offered,
        "conservation under a real worker crash: {r:?}"
    );
    assert_eq!(r.sojourn.count, r.completed);
    assert!(r.completed > 0, "the surviving 4 workers keep transcoding");
    assert_eq!(r.faults.crashes, 1);
    assert!(
        r.availability < 1.0,
        "a crashed server must dent availability"
    );
    let downs = out
        .event_log
        .iter()
        .filter(|e| matches!(e, EventRecord::Down { .. }))
        .count();
    assert_eq!(downs, 1, "the dead worker gets exactly one down verdict");
}
