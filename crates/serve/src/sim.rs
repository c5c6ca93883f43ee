//! The deterministic discrete-event fleet engine.
//!
//! Arrivals come from a pre-generated trace; service times come from
//! [`CostModel::true_us`], which is a pure function of `(seed, job,
//! server)`. Events pop in ascending `(time, sequence)` so ties break
//! identically run-to-run; given the same workload, fleet and policy, two
//! runs produce byte-identical event logs, assignment vectors and reports.
//!
//! # Scale
//!
//! The engine is a clock and a transport over the shared [`ServiceCore`]
//! and [`InFlight`] machine, and carries no per-event O(fleet) work at any
//! fleet size: events live in an amortized-O(1) [`CalendarQueue`] (popping
//! in exactly the `(time, seq)` order the historical binary heap produced),
//! and every dispatch round — 5 servers or 10 000 — reads the machine's
//! incrementally maintained idle index. Which assignment solver a round
//! runs is the policy's choice, not the engine's.
//!
//! # Fault injection
//!
//! When [`ServeConfig::chaos`] carries a [`FaultPlan`], the engine seeds
//! the heap with the plan's events before any arrival (so at equal
//! timestamps a crash always precedes the work it dooms):
//!
//! * **Crash** — the server stops making progress. Jobs already running
//!   there (and jobs dispatched there before the failure detector notices)
//!   are stuck until the detector's *down* verdict fires, at which point
//!   they are requeued through [`ServiceCore::fail`]. That window — nothing
//!   but detection latency — is exactly what the report's MTTR measures.
//! * **Slowdown / stall** — service times are stretched through
//!   [`FaultPlan::inflate`]; a stretched run that blows past the job's
//!   timeout is killed at the timeout mark like any other slow run.
//! * **Hedging** — an interactive job still in flight after
//!   `hedge_after` of its deadline budget gets a duplicate on the best
//!   detected-up idle server; first completion wins, the loser's work is
//!   discarded (and billed — the server really did it).

use std::collections::BTreeSet;

use vtx_chaos::{FaultKind, FaultPlan};
use vtx_telemetry::Span;

use crate::calendar::CalendarQueue;
use crate::cost::CostModel;
use crate::error::ServeError;
use crate::fleet::Fleet;
use crate::inflight::{InFlight, Outcome, Started};
use crate::policy::DispatchPolicy;
use crate::report::ServingReport;
use crate::service::{EventRecord, ScaleAction, ServeConfig, ServiceCore};
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
    /// windowed quantiles and the SLO alert stream.
    pub obs: vtx_obs::ObsPlane,
}

/// Event payload. `Finish` names a `(server, instance)` pair rather than
/// carrying the job: the job lives in the [`InFlight`] slot so a crash (or
/// requeue) can invalidate a stale finish without queue surgery.
#[derive(Debug)]
enum SimEvent {
    Arrive(JobSpec),
    Finish {
        server: usize,
        instance: u64,
        /// The run was cut at the job's timeout (known when it started).
        timed_out: bool,
    },
    /// A planned fault fires; a crash also flips the engine's ground truth.
    Fault {
        server: usize,
        kind: FaultKind,
    },
    Suspect {
        server: usize,
    },
    Down {
        server: usize,
    },
    HedgeDue {
        id: u64,
    },
    /// A parked (backed-off) job becomes due for re-admission.
    RequeueDue,
    /// Periodic autoscaler evaluation.
    AutoscaleTick,
    /// A scale-out's warm-up delay elapsed; the server may take work.
    ServerReady {
        server: usize,
    },
}

/// What only the simulator knows: the event calendar, the fault plan's
/// ground truth, and from them what a started copy costs.
struct Engine {
    events: CalendarQueue<SimEvent>,
    /// Tie-breaker making the pop order total — identical to the binary
    /// heap the calendar replaced.
    seq: u64,
    plan: FaultPlan,
    /// Which servers have really crashed (the detector learns later).
    crashed: Vec<bool>,
}

impl Engine {
    fn push(&mut self, t: u64, ev: SimEvent) {
        self.events.push(t, self.seq, ev);
        self.seq += 1;
    }

    /// Schedules the finish of a copy that just started: on a live server
    /// after the fault-inflated service time (capped at the job's timeout),
    /// or after just the cache lookup cost when `cached_us` is set — a hit
    /// skips the transcode and fault inflation entirely. On a
    /// crashed-but-undetected server the copy is simply stuck: no finish is
    /// scheduled and the down verdict will requeue it.
    fn start(&mut self, core: &ServiceCore, flight: &InFlight, s: Started, now: u64) {
        if self.crashed[s.server] {
            return;
        }
        let spec = &flight.job(s.server).spec;
        // A run longer than the job's timeout is killed at the timeout
        // mark; the server is occupied (and billed) until then.
        let (dur, timed_out) = match s.cached_us {
            Some(lookup) => (lookup.min(spec.timeout_us), false),
            None => {
                let true_us = core.true_service_us(spec, s.server, core.fleet().server(s.server));
                let wall = self.plan.inflate(s.server, now, true_us);
                (wall.min(spec.timeout_us), wall > spec.timeout_us)
            }
        };
        self.push(
            now.saturating_add(dur),
            SimEvent::Finish {
                server: s.server,
                instance: s.instance,
                timed_out,
            },
        );
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

    let detector = cfg.chaos.detector;
    let autoscale = cfg.chaos.autoscale;
    let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap_or(0) + 1;
    let mut eng = Engine {
        events: CalendarQueue::new(horizon, jobs.len() * 2 + 64),
        seq: 0,
        plan: cfg.chaos.plan.clone(),
        crashed: vec![false; fleet.len()],
    };
    let mut core = ServiceCore::new(cfg, fleet, model, policy);
    let mut flight = InFlight::new(&core);

    // Plan events first: at equal timestamps a fault precedes the arrival
    // or finish it affects, and suspicion precedes the down verdict.
    for server in 0..core.fleet().len() {
        let faults = eng.plan.server(server);
        if let Some(c) = faults.crash_us {
            let kind = FaultKind::Crash;
            eng.push(c, SimEvent::Fault { server, kind });
            eng.push(detector.suspect_at(c), SimEvent::Suspect { server });
            eng.push(detector.down_at(c), SimEvent::Down { server });
        }
        for w in &faults.slowdowns {
            let kind = FaultKind::SlowDown;
            eng.push(w.from_us, SimEvent::Fault { server, kind });
        }
        for st in &faults.stalls {
            let kind = FaultKind::Stall;
            eng.push(st.at_us, SimEvent::Fault { server, kind });
        }
    }
    for j in jobs {
        eng.push(j.arrival_us, SimEvent::Arrive(j.clone()));
    }
    if autoscale.enabled {
        eng.push(autoscale.eval_every_us.max(1), SimEvent::AutoscaleTick);
    }

    // Backoff wake-ups already scheduled (dedup so each due instant gets
    // exactly one RequeueDue event).
    let mut requeue_wakeups: BTreeSet<u64> = BTreeSet::new();
    let mut arrivals_left = jobs.len();

    let mut now: u64 = 0;
    while let Some((t, _, ev)) = eng.events.pop() {
        now = t;
        match ev {
            SimEvent::Arrive(spec) => {
                arrivals_left -= 1;
                core.offer(spec, now);
            }
            SimEvent::Fault { server, kind } => {
                // Whatever runs on a crashed server is stuck until
                // detection; its pending Finish (if any) is ignored below.
                eng.crashed[server] |= kind == FaultKind::Crash;
                core.record_fault(server, kind, now);
            }
            SimEvent::Suspect { server } => core.mark_suspected(server, now),
            SimEvent::Down { server } => {
                core.mark_down(server, now);
                flight.server_lost(&mut core, server, now);
            }
            SimEvent::Finish {
                server,
                instance,
                timed_out,
            } => {
                // A stale finish, or one from a server that died mid-run,
                // is ignored: the job (if still held) stays stuck until the
                // down verdict.
                if flight.holds(server, instance) && !eng.crashed[server] {
                    let outcome = if timed_out {
                        Outcome::TimedOut
                    } else {
                        Outcome::Finished { bytes: None }
                    };
                    flight.finish(&mut core, server, outcome, now);
                }
            }
            SimEvent::RequeueDue => core.release_parked(now),
            SimEvent::AutoscaleTick => {
                for action in core.autoscale_tick(now) {
                    match action {
                        ScaleAction::Out { server, ready_us } => {
                            eng.push(ready_us, SimEvent::ServerReady { server });
                        }
                        // Drain: the deactivated server gives up any running
                        // job through the same path a down verdict uses.
                        ScaleAction::In { server } => flight.server_lost(&mut core, server, now),
                    }
                }
                // Re-arm only while work can still exist — the tick chain
                // must not keep an otherwise-finished run alive.
                let work_left = arrivals_left > 0
                    || core.queued() > 0
                    || core.parked_count() > 0
                    || !flight.is_empty();
                if work_left {
                    let next = now.saturating_add(autoscale.eval_every_us.max(1));
                    eng.push(next, SimEvent::AutoscaleTick);
                }
            }
            SimEvent::ServerReady { server } => {
                flight.server_ready(&mut core, server, !eng.crashed[server], now);
            }
            SimEvent::HedgeDue { id } => {
                if let Some(copy) = flight.hedge(&mut core, id, now) {
                    eng.start(&core, &flight, copy, now);
                }
            }
        }
        // Every state change is a dispatch opportunity.
        for copy in flight.dispatch(&mut core, now) {
            if let Some(due) = copy.hedge_due_us {
                eng.push(due, SimEvent::HedgeDue { id: copy.id });
            }
            eng.start(&core, &flight, copy, now);
        }
        // Any event can park a job under backoff; make sure the earliest
        // due instant has a wake-up scheduled (deduplicated per instant).
        if let Some(due) = core.next_parked_due() {
            if requeue_wakeups.insert(due) {
                eng.push(due, SimEvent::RequeueDue);
            }
        }
    }

    // The fleet may have died with work still queued (or parked under
    // backoff); settle the books so every admitted job reaches a terminal
    // state.
    if core.queued() > 0 || core.parked_count() > 0 {
        core.shed_stranded(now);
    }

    let assignments = core.assignments().to_vec();
    let (report, event_log, obs) = core.finish(seed, now);
    Ok(SimOutcome {
        report,
        event_log,
        assignments,
        obs,
    })
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
        let w = WorkloadSpec::smoke(42);
        let cfg = ServeConfig {
            queue: crate::queue::QueueConfig {
                per_class_cap: [1, 1, 1],
            },
            ..ServeConfig::default()
        };
        let out = simulate(
            &w,
            Fleet::table_iv(),
            policy_by_name("rr", 42).unwrap(),
            cfg,
        )
        .unwrap();
        assert!(
            out.report.shed_total() > 0,
            "1-deep queues under a 60-job burst must shed"
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

    fn surge_cfg(autoscale_max: Option<usize>) -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.chaos.backoff = crate::chaos::BackoffConfig {
            base_us: 50_000,
            cap_us: 2_000_000,
            jitter_milli: 500,
        };
        if let Some(max) = autoscale_max {
            cfg.chaos.autoscale = crate::chaos::AutoscaleConfig {
                enabled: true,
                min_servers: 2,
                max_servers: max,
                eval_every_us: 500_000,
                warmup_us: 2_000_000,
                warmup_jitter_milli: 250,
                backlog_high: 3.0,
                backlog_low: 1.0,
                step: 1,
            };
        }
        cfg
    }

    fn flash_run(autoscale_max: Option<usize>, seed: u64) -> SimOutcome {
        let w = WorkloadSpec::flash_crowd(seed);
        simulate(
            &w,
            Fleet::table_iv(),
            policy_by_name("smart", seed).unwrap(),
            surge_cfg(autoscale_max),
        )
        .unwrap()
    }

    #[test]
    fn flash_crowd_autoscaled_runs_are_byte_identical() {
        let a = flash_run(Some(5), 42);
        let b = flash_run(Some(5), 42);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.report, b.report);
        assert_eq!(
            render_event_log(&a.event_log),
            render_event_log(&b.event_log)
        );
        assert_eq!(a.report.render(), b.report.render());
        assert_eq!(a.obs.render_scale_events(), b.obs.render_scale_events());
    }

    #[test]
    fn flash_crowd_autoscaler_scales_out_and_conserves_jobs() {
        let out = flash_run(Some(5), 42);
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
        let mut cfg = surge_cfg(Some(8));
        let faults = ChaosConfig::kill_two_straggle_one(42, 8, horizon);
        cfg.chaos.plan = faults.plan;
        cfg.chaos.detector = faults.detector;
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
        assert!(r.completed > 0, "the fleet keeps serving through the spike");
        let stats = out.obs.tracker().check_conservation().unwrap();
        assert_eq!(stats.arrived, r.offered);
        assert_eq!(stats.completed, r.completed);
        // Determinism holds under surge x faults too.
        let again = {
            let mut cfg = surge_cfg(Some(8));
            let faults = ChaosConfig::kill_two_straggle_one(42, 8, horizon);
            cfg.chaos.plan = faults.plan;
            cfg.chaos.detector = faults.detector;
            simulate_trace(
                &jobs,
                42,
                Fleet::sized(8).unwrap(),
                policy_by_name("smart", 42).unwrap(),
                cfg,
            )
            .unwrap()
        };
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
        let mut cfg = ServeConfig {
            chaos: ChaosConfig::kill_two_straggle_one(42, 8, horizon),
            ..ServeConfig::default()
        };
        cfg.chaos.backoff = crate::chaos::BackoffConfig {
            base_us: 50_000,
            cap_us: 2_000_000,
            jitter_milli: 500,
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
