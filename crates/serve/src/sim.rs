//! The deterministic discrete-event fleet simulator: the engine loop on a
//! virtual clock.
//!
//! Arrivals come from a pre-generated trace; service times come from
//! [`CostModel::true_us`], which is a pure function of `(seed, job,
//! server)`. `crate::engine` pops events in ascending `(time, sequence)`
//! so ties break identically run-to-run; given the same workload, fleet and
//! policy, two runs produce byte-identical event logs, assignment vectors
//! and reports.
//!
//! This module owns only the virtual `Transport`: an event due at `t` is
//! handled at `t`, a started copy's finish is known the moment it starts
//! and nothing is ever waited for. Everything else — the event calendar,
//! its seeding from the fault plan, the ground truth of which servers
//! crashed, the loop — is the engine's, shared with the real executor
//! ([`crate::exec`]).
//!
//! # Scale
//!
//! The run carries no per-event O(fleet) work at any fleet size: events
//! live in an amortized-O(1) [`crate::calendar::CalendarQueue`] (popping in
//! exactly the `(time, seq)` order the historical binary heap produced),
//! and every dispatch round — 5 servers or 10 000 — reads the in-flight
//! machine's incrementally maintained idle index. Which assignment solver a
//! round runs is the policy's choice, not the engine's.

use vtx_telemetry::Span;

use crate::cost::CostModel;
use crate::engine::{self, Transport};
use crate::error::ServeError;
use crate::fleet::Fleet;
use crate::inflight::{Outcome, Started};
use crate::policy::DispatchPolicy;
use crate::queue::PendingJob;
use crate::report::ServingReport;
use crate::service::{EventRecord, ServeConfig, ServiceCore};
use crate::workload::{JobSpec, WorkloadSpec};

/// What a simulated serving run produced.
#[derive(Debug)]
pub struct SimOutcome {
    /// Aggregate statistics.
    pub report: ServingReport,
    /// Full event log (when enabled in [`ServeConfig`]).
    pub event_log: Vec<EventRecord>,
    /// `(job id, server)` pairs in dispatch order.
    pub assignments: Vec<(u64, usize)>,
    /// The finalized observability plane: per-job lifecycle traces,
    /// per-class sojourn sketches and the SLO alert stream.
    pub obs: vtx_obs::ObsPlane,
}

/// The virtual transport (see the module docs).
pub(crate) struct Virtual;

impl Transport for Virtual {
    /// The fault-inflated true service time, cut at the job's timeout
    /// (known when the copy starts).
    fn start(
        &mut self,
        core: &ServiceCore,
        job: &PendingJob,
        copy: Started,
        now_us: u64,
    ) -> Option<(u64, Outcome)> {
        let spec = &job.spec;
        let true_us = core.true_service_us(spec, copy.server, core.fleet().server(copy.server));
        let wall = core.chaos().plan.inflate(copy.server, now_us, true_us);
        let outcome = if wall > spec.timeout_us {
            Outcome::TimedOut
        } else {
            Outcome::Finished { bytes: None }
        };
        Some((wall.min(spec.timeout_us), outcome))
    }
}

/// Runs a workload through a fleet under a policy, fully simulated.
///
/// # Errors
///
/// Returns [`ServeError::EmptyWorkload`] for an empty trace and
/// [`ServeError::UnknownVideo`] when a job names a video the cost model
/// cannot price.
pub fn simulate(
    workload: &WorkloadSpec,
    fleet: Fleet,
    policy: Box<dyn DispatchPolicy>,
    cfg: ServeConfig,
) -> Result<SimOutcome, ServeError> {
    let jobs = workload.generate()?;
    simulate_trace(&jobs, workload.seed, fleet, policy, cfg)
}

/// Runs a pre-generated (or hand-written / parsed) trace.
///
/// # Errors
///
/// Same conditions as [`simulate`].
pub fn simulate_trace(
    jobs: &[JobSpec],
    seed: u64,
    fleet: Fleet,
    policy: Box<dyn DispatchPolicy>,
    cfg: ServeConfig,
) -> Result<SimOutcome, ServeError> {
    if jobs.is_empty() {
        return Err(ServeError::EmptyWorkload);
    }
    let model = CostModel::new(seed);
    for j in jobs {
        if !model.knows(&j.task.video) {
            return Err(ServeError::UnknownVideo {
                name: j.task.video.to_string(),
            });
        }
    }
    let _span = Span::enter_with("serve/simulate", |a| {
        a.u64("jobs", jobs.len() as u64);
        a.u64("seed", seed);
    });
    let core = ServiceCore::new(cfg, fleet, model, policy);
    Ok(engine::run(jobs, seed, core, &mut Virtual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosConfig;
    use crate::policy::policy_by_name;
    use crate::service::render_event_log;

    fn run(policy: &str, seed: u64) -> SimOutcome {
        let w = WorkloadSpec::smoke(seed);
        simulate(
            &w,
            Fleet::table_iv(),
            policy_by_name(policy, seed).unwrap(),
            ServeConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn every_offered_job_is_accounted_for() {
        for policy in ["random", "rr", "smart"] {
            let out = run(policy, 42);
            let r = &out.report;
            assert_eq!(r.offered, 60, "{policy}");
            assert_eq!(
                r.completed + r.shed_total(),
                r.offered,
                "{policy}: every job completes or is shed"
            );
            assert_eq!(r.sojourn.count, r.completed);
        }
    }

    #[test]
    fn identical_seeds_are_byte_identical() {
        for policy in ["random", "smart"] {
            let a = run(policy, 42);
            let b = run(policy, 42);
            assert_eq!(a.assignments, b.assignments, "{policy}");
            assert_eq!(a.report, b.report, "{policy}");
            assert_eq!(
                render_event_log(&a.event_log),
                render_event_log(&b.event_log),
                "{policy}"
            );
            assert_eq!(a.report.render(), b.report.render(), "{policy}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run("smart", 42);
        let b = run("smart", 43);
        assert_ne!(a.assignments, b.assignments);
    }

    #[test]
    fn unfaulted_run_reports_clean_chaos_fields() {
        let out = run("smart", 42);
        assert_eq!(out.report.availability, 1.0);
        assert_eq!(out.report.mttr_us, 0);
        assert_eq!(out.report.faults, crate::report::FaultAccounting::default());
        assert!(out.report.goodput_jps <= out.report.throughput_jps);
    }

    #[test]
    fn empty_trace_is_rejected() {
        let err = simulate_trace(
            &[],
            1,
            Fleet::table_iv(),
            policy_by_name("rr", 1).unwrap(),
            ServeConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, ServeError::EmptyWorkload);
    }

    #[test]
    fn unknown_video_is_rejected() {
        let w = WorkloadSpec::smoke(1);
        let mut jobs = w.generate().unwrap();
        jobs[0].task.video = "not-in-vbench".into();
        let err = simulate_trace(
            &jobs,
            1,
            Fleet::table_iv(),
            policy_by_name("rr", 1).unwrap(),
            ServeConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::UnknownVideo { .. }));
    }

    #[test]
    fn makespan_covers_the_last_event() {
        let out = run("rr", 7);
        let last = out
            .event_log
            .iter()
            .map(EventRecord::time_us)
            .max()
            .unwrap();
        assert_eq!(out.report.makespan_us, last);
        assert!(out.report.throughput_jps > 0.0);
    }

    #[test]
    fn tiny_queues_shed_under_load() {
        // The per-class caps are fixed (16/32/64); a 12x flash crowd on
        // five servers overflows them.
        let w = WorkloadSpec::flash_crowd(42);
        let out = simulate(
            &w,
            Fleet::table_iv(),
            policy_by_name("rr", 42).unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
        assert!(
            out.report.shed_total() > 0,
            "the queues under a 12x flash crowd must shed"
        );
    }

    fn faulted(policy: &str, seed: u64) -> SimOutcome {
        let w = WorkloadSpec::smoke(seed);
        let jobs = w.generate().unwrap();
        let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap();
        let fleet = Fleet::sized(8).unwrap();
        let cfg = ServeConfig {
            chaos: ChaosConfig::kill_two_straggle_one(seed, 8, horizon),
            ..ServeConfig::default()
        };
        simulate_trace(
            &jobs,
            seed,
            fleet,
            policy_by_name(policy, seed).unwrap(),
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn faulted_fleet_keeps_serving_and_accounts_every_job() {
        let out = faulted("smart", 42);
        let r = &out.report;
        assert_eq!(r.offered, 60);
        assert_eq!(
            r.completed + r.shed_total(),
            r.offered,
            "every admitted job reaches exactly one terminal state"
        );
        assert!(r.completed > 0, "the surviving fleet keeps serving");
        assert_eq!(r.faults.crashes, 2);
        assert_eq!(r.faults.slowdowns, 1);
        assert!(r.availability > 0.0 && r.availability < 1.0);
        assert!(r.goodput_jps <= r.throughput_jps);
    }

    #[test]
    fn faulted_runs_are_byte_identical() {
        for policy in ["random", "smart"] {
            let a = faulted(policy, 42);
            let b = faulted(policy, 42);
            assert_eq!(a.report, b.report, "{policy}");
            assert_eq!(
                render_event_log(&a.event_log),
                render_event_log(&b.event_log),
                "{policy}"
            );
            assert_eq!(a.report.render(), b.report.render(), "{policy}");
        }
    }

    fn cached_run(seed: u64, policy_name: &str, evict: vtx_cache::EvictPolicy) -> SimOutcome {
        // Popularity-skewed arrivals with pinned knobs so hot (video,
        // knob) keys genuinely repeat; a generous byte budget makes the
        // repeats hit.
        let w = WorkloadSpec::smoke(seed).with_popularity(1.0, 0.3);
        let cfg = ServeConfig {
            cache: Some(vtx_cache::CacheSpec {
                capacity_bytes: 64 << 20,
                policy: evict,
                lookup_us: 250,
            }),
            ..ServeConfig::default()
        };
        simulate(
            &w,
            Fleet::table_iv(),
            policy_by_name(policy_name, seed).unwrap(),
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn cache_hits_skip_work_and_conserve_jobs() {
        let out = cached_run(42, "smart", vtx_cache::EvictPolicy::Lru);
        let r = &out.report;
        let stats = r.cache.as_ref().expect("cache stats exported");
        assert!(stats.hits > 0, "a Zipf(1.0) trace must repeat hot keys");
        assert!(
            stats.hit_milli() >= 100,
            "hot-key repeats should land at least 10% hits, got {}",
            stats.hit_milli()
        );
        assert_eq!(
            r.completed + r.shed_total(),
            r.offered,
            "cache hits still reach exactly one terminal state"
        );
        assert!(out
            .event_log
            .iter()
            .any(|e| matches!(e, EventRecord::CacheHit { .. })));
    }

    #[test]
    fn cached_runs_are_byte_identical() {
        for evict in vtx_cache::EvictPolicy::ALL {
            let a = cached_run(42, "smart", evict);
            let b = cached_run(42, "smart", evict);
            assert_eq!(a.assignments, b.assignments, "{}", evict.name());
            assert_eq!(a.report, b.report, "{}", evict.name());
            assert_eq!(
                render_event_log(&a.event_log),
                render_event_log(&b.event_log),
                "{}",
                evict.name()
            );
            assert_eq!(a.report.render(), b.report.render(), "{}", evict.name());
        }
    }

    #[test]
    fn cache_beats_uncached_on_repeat_heavy_trace() {
        let cached = cached_run(42, "smart", vtx_cache::EvictPolicy::Gdsf);
        let w = WorkloadSpec::smoke(42).with_popularity(1.0, 0.3);
        let uncached = simulate(
            &w,
            Fleet::table_iv(),
            policy_by_name("smart", 42).unwrap(),
            ServeConfig::default(),
        )
        .unwrap();
        assert!(
            cached.report.sojourn.mean_us <= uncached.report.sojourn.mean_us,
            "skipping transcodes must not slow the fleet: cached {} vs uncached {}",
            cached.report.sojourn.mean_us,
            uncached.report.sojourn.mean_us
        );
    }

    #[test]
    fn crashes_requeue_in_flight_jobs() {
        let out = faulted("rr", 42);
        let has_requeue = out
            .event_log
            .iter()
            .any(|e| matches!(e, EventRecord::Requeue { .. }));
        if has_requeue {
            assert!(out.report.faults.requeued > 0);
            assert!(out.report.mttr_us > 0, "requeues imply a recovery span");
        }
        // Detector verdicts always fire for crashed servers.
        assert_eq!(
            out.event_log
                .iter()
                .filter(|e| matches!(e, EventRecord::Down { .. }))
                .count(),
            2
        );
    }

    fn flash_run(seed: u64) -> SimOutcome {
        let w = WorkloadSpec::flash_crowd(seed);
        let cfg = ServeConfig {
            chaos: ChaosConfig::default().with_overload(2, 5),
            ..ServeConfig::default()
        };
        simulate(
            &w,
            Fleet::table_iv(),
            policy_by_name("smart", seed).unwrap(),
            cfg,
        )
        .unwrap()
    }

    #[test]
    fn flash_crowd_autoscaled_runs_are_byte_identical() {
        let a = flash_run(42);
        let b = flash_run(42);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.report, b.report);
        assert_eq!(
            render_event_log(&a.event_log),
            render_event_log(&b.event_log)
        );
        assert_eq!(a.report.render(), b.report.render());
    }

    #[test]
    fn flash_crowd_autoscaler_scales_out_and_conserves_jobs() {
        let out = flash_run(42);
        let r = &out.report;
        assert_eq!(r.offered, 300);
        assert_eq!(r.completed + r.shed_total(), r.offered);
        let scale = r.scale.expect("autoscale stats exported");
        assert!(scale.scale_outs > 0, "a 12x spike must trigger scale-out");
        assert!(scale.served_capacity_milli <= scale.peak_capacity_milli);
        assert!(out
            .event_log
            .iter()
            .any(|e| matches!(e, EventRecord::ScaleOut { .. })));
        // Exactly-once delivery proven from the obs trace alone.
        let stats = out.obs.tracker().check_conservation().unwrap();
        assert_eq!(stats.arrived, r.offered);
        assert_eq!(stats.completed, r.completed);
        assert_eq!(r.availability, 1.0, "no crashes: every active span alive");
    }

    #[test]
    fn surge_with_faults_conserves_exactly_once() {
        let w = WorkloadSpec::flash_crowd(42);
        let jobs = w.generate().unwrap();
        let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap();
        let run = || {
            let cfg = ServeConfig {
                chaos: ChaosConfig::kill_two_straggle_one(42, 8, horizon).with_overload(2, 8),
                ..ServeConfig::default()
            };
            let policy = policy_by_name("smart", 42).unwrap();
            simulate_trace(&jobs, 42, Fleet::sized(8).unwrap(), policy, cfg).unwrap()
        };
        let out = run();
        let r = &out.report;
        assert_eq!(r.completed + r.shed_total(), r.offered);
        assert!(r.completed > 0, "the fleet keeps serving through the spike");
        let stats = out.obs.tracker().check_conservation().unwrap();
        assert_eq!(stats.arrived, r.offered);
        assert_eq!(stats.completed, r.completed);
        // Determinism holds under surge x faults too.
        let again = run();
        assert_eq!(again.report, out.report);
        assert_eq!(
            render_event_log(&again.event_log),
            render_event_log(&out.event_log)
        );
    }

    #[test]
    fn backoff_staggers_requeues_instead_of_thundering_herd() {
        // Crash two of eight servers mid-trace; their in-flight jobs all
        // requeue at the same detection instants. With backoff on, each
        // requeued job is parked for its own seeded delay, so re-admission
        // is staggered rather than a synchronized re-dispatch burst.
        let w = WorkloadSpec::smoke(42);
        let jobs = w.generate().unwrap();
        let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap();
        let cfg = ServeConfig {
            chaos: ChaosConfig {
                backoff: crate::chaos::BackoffConfig::overload(),
                ..ChaosConfig::kill_two_straggle_one(42, 8, horizon)
            },
            ..ServeConfig::default()
        };
        let out = simulate_trace(
            &jobs,
            42,
            Fleet::sized(8).unwrap(),
            policy_by_name("rr", 42).unwrap(),
            cfg,
        )
        .unwrap();
        let delays: Vec<u64> = out
            .event_log
            .iter()
            .filter_map(|e| match e {
                EventRecord::Backoff { delay_us, .. } => Some(*delay_us),
                _ => None,
            })
            .collect();
        assert!(
            delays.len() >= 2,
            "crashed servers requeue through the backoff path"
        );
        let distinct: std::collections::BTreeSet<u64> = delays.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "per-job jitter staggers the herd: got identical delays {delays:?}"
        );
        assert_eq!(
            out.report.completed + out.report.shed_total(),
            out.report.offered
        );
    }
}
