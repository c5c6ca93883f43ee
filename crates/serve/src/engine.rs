//! The one engine loop: an event calendar over the shared [`ServiceCore`]
//! and [`InFlight`] machine, generic over a [`Transport`].
//!
//! Everything that decides *what happens when* in a serving run is here:
//! the event type, the calendar's seeding, the single `pop → handle →
//! dispatch → arm the parked wake-up` loop and the end-of-run settle. The
//! simulator ([`crate::sim`]) and the real executor ([`crate::exec`]) call
//! [`run`] with their own transport and differ in nothing else. Events pop
//! in ascending `(time, sequence)`, so ties break identically run to run.
//!
//! # Fault injection
//!
//! When [`crate::service::ServeConfig::chaos`] carries a fault plan, the
//! calendar is seeded with the plan's events before any arrival (so at
//! equal timestamps a crash always precedes the work it dooms):
//!
//! * **Crash** — the server stops making progress. Jobs already running
//!   there (and jobs dispatched there before the failure detector notices)
//!   are stuck until the detector's *down* verdict fires, at which point
//!   they are requeued through [`ServiceCore::fail`]. That window — nothing
//!   but detection latency — is exactly what the report's MTTR measures.
//!   The verdicts are calendar events too: a crashed server's heartbeats
//!   stop at its crash time, so suspicion and the down verdict fall at
//!   `DetectorConfig::suspect_at` / `down_at` of it.
//! * **Slowdown / stall** — service times are stretched through
//!   `FaultPlan::inflate`, by the transport.
//! * **Hedging** — an interactive job still in flight after
//!   `hedge_after` of its deadline budget gets a duplicate on the best
//!   detected-up idle server; first completion wins, the loser's work is
//!   discarded (and billed — the server really did it).

use std::collections::BTreeSet;

use vtx_chaos::FaultKind;

use crate::calendar::CalendarQueue;
use crate::inflight::{InFlight, Outcome, Started};
use crate::queue::PendingJob;
use crate::service::{ScaleAction, ServiceCore};
use crate::sim::SimOutcome;
use crate::workload::JobSpec;

/// How a copy's run ended, as the calendar or a worker reports it. It names
/// a `(server, instance)` pair rather than carrying the job: the job lives
/// in the [`InFlight`] slot so a crash (or requeue) can invalidate a stale
/// report without queue surgery.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Report {
    pub(crate) server: usize,
    /// Which copy this reports ([`Started::instance`]); the loop drops the
    /// report if the server no longer holds that copy.
    pub(crate) instance: u64,
    pub(crate) outcome: Outcome,
}

/// Event payload.
#[derive(Debug)]
enum Event {
    Arrive(JobSpec),
    Finish(Report),
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
    /// The hedge trigger armed when `instance`, the first copy of job
    /// `id`, started.
    HedgeDue {
        id: u64,
        instance: u64,
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

/// What a driver owns: a clock and a way to run a copy. The defaults are a
/// virtual clock's — an event is handled at its due instant, nothing is
/// ever waited for, a crash needs no telling — so the simulator's transport
/// is [`Transport::start`] alone.
pub(crate) trait Transport {
    /// The instant an event due at `due_us` is handled at: `due_us` itself
    /// on a virtual clock, the wall clock (never earlier) on a real one.
    fn now(&mut self, due_us: u64) -> u64 {
        due_us
    }

    /// Runs `copy` of `job`, which just started on a live server and missed
    /// the cache. A transport that knows the cost up front returns the run's
    /// duration and outcome, and the loop schedules the finish; one that
    /// finds out by doing the work returns `None` and reports through
    /// [`Transport::wait`].
    fn start(
        &mut self,
        core: &ServiceCore,
        job: &PendingJob,
        copy: Started,
        now_us: u64,
    ) -> Option<(u64, Outcome)>;

    /// Blocks until a copy reports back (the report and the instant it is
    /// handled at) or the calendar's next event, due at `next_due()`, is due
    /// (`None`; also when nothing can report any more).
    fn wait(&mut self, _next_due: impl FnOnce() -> Option<u64>) -> Option<(u64, Report)> {
        None
    }

    /// A planned crash fired on `server`: whatever runs there is lost, and
    /// the loop will start nothing there again.
    fn crash(&mut self, _server: usize) {}
}

/// The calendar and the transport it schedules for.
struct Engine<'t, T> {
    events: CalendarQueue<Event>,
    /// Tie-breaker making the pop order total — identical to the binary
    /// heap the calendar replaced.
    seq: u64,
    /// Which servers have really crashed (the detector learns later). The
    /// plan is the only thing that kills a server, so the loop that fires
    /// its events is the ground truth.
    crashed: Vec<bool>,
    transport: &'t mut T,
}

impl<T: Transport> Engine<'_, T> {
    fn push(&mut self, t: u64, ev: Event) {
        self.events.push(t, self.seq, ev);
        self.seq += 1;
    }

    /// Puts a copy that just started on the transport. A cache hit skips
    /// the transcode and fault inflation entirely: the server fronts the
    /// lookup and finishes after its cost. Either way a run longer than the
    /// job's timeout is cut at the timeout mark; the server is occupied
    /// (and billed) until then. On a crashed-but-undetected server the copy
    /// is simply stuck: nothing runs and the down verdict will requeue it.
    fn start(&mut self, core: &ServiceCore, flight: &InFlight, copy: Started, now: u64) {
        if self.crashed[copy.server] {
            return;
        }
        let job = flight.job(copy.server);
        let run = match copy.cached_us {
            Some(lookup) => Some((
                lookup.min(job.spec.timeout_us),
                Outcome::Finished { bytes: None },
            )),
            None => self.transport.start(core, job, copy, now),
        };
        if let Some((dur, outcome)) = run {
            let report = Report {
                server: copy.server,
                instance: copy.instance,
                outcome,
            };
            self.push(now.saturating_add(dur), Event::Finish(report));
        }
    }
}

/// Runs `jobs` through `core` on `transport` until the calendar is drained
/// and nothing is in flight — planned faults and detector verdicts are
/// calendar events, so by then every one of them has fired. The makespan
/// is the time of the last handled event.
pub(crate) fn run<T: Transport>(
    jobs: &[JobSpec],
    seed: u64,
    mut core: ServiceCore,
    transport: &mut T,
) -> SimOutcome {
    let detector = core.chaos().detector;
    let autoscale = core.chaos().autoscale;
    let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap_or(0) + 1;
    let mut eng = Engine {
        events: CalendarQueue::new(horizon, jobs.len() * 2 + 64),
        seq: 0,
        crashed: vec![false; core.fleet().len()],
        transport,
    };
    let mut flight = InFlight::new(&core);

    // Plan events first: at equal timestamps a fault precedes the arrival
    // or finish it affects, and suspicion precedes the down verdict.
    for server in 0..core.fleet().len() {
        let faults = core.chaos().plan.server(server);
        if let Some(c) = faults.crash_us {
            let kind = FaultKind::Crash;
            eng.push(c, Event::Fault { server, kind });
            eng.push(detector.suspect_at(c), Event::Suspect { server });
            eng.push(detector.down_at(c), Event::Down { server });
        }
        for w in &faults.slowdowns {
            let kind = FaultKind::SlowDown;
            eng.push(w.from_us, Event::Fault { server, kind });
        }
        for st in &faults.stalls {
            let kind = FaultKind::Stall;
            eng.push(st.at_us, Event::Fault { server, kind });
        }
    }
    for j in jobs {
        eng.push(j.arrival_us, Event::Arrive(j.clone()));
    }
    core.reserve(jobs.len());
    if autoscale.enabled {
        eng.push(autoscale.eval_every_us.max(1), Event::AutoscaleTick);
    }

    // Backoff wake-ups already scheduled (dedup so each due instant gets
    // exactly one RequeueDue event).
    let mut requeue_wakeups: BTreeSet<u64> = BTreeSet::new();
    let mut arrivals_left = jobs.len();
    // Each round's started copies, a buffer kept across rounds.
    let mut started = Vec::new();

    let mut now: u64 = 0;
    while !(eng.events.is_empty() && flight.is_empty()) {
        let events = &mut eng.events;
        let next_due = || events.peek_key().map(|(t, _)| t);
        let ev = match eng.transport.wait(next_due) {
            Some((t, report)) => {
                now = t;
                Event::Finish(report)
            }
            None => match eng.events.pop() {
                Some((due, _, ev)) => {
                    now = eng.transport.now(due);
                    ev
                }
                None => break,
            },
        };
        match ev {
            Event::Arrive(spec) => {
                arrivals_left -= 1;
                core.offer(spec, now);
            }
            Event::Fault { server, kind } => {
                // Whatever runs on a crashed server is stuck until
                // detection; its pending Finish (if any) is ignored below.
                if kind == FaultKind::Crash {
                    eng.crashed[server] = true;
                    eng.transport.crash(server);
                }
                core.record_fault(server, kind, now);
            }
            Event::Suspect { server } => core.mark_suspected(server, now),
            Event::Down { server } => {
                core.mark_down(server, now);
                flight.server_lost(&mut core, server, now);
            }
            Event::Finish(r) => {
                // A stale report (its copy was drained off a lost server,
                // or it raced the down verdict or a scale-in), or one from
                // a server that died mid-run, is ignored: the job (if still
                // held) stays stuck until the down verdict.
                if flight.holds(r.server, r.instance) && !eng.crashed[r.server] {
                    flight.finish(&mut core, r.server, r.outcome, now);
                }
            }
            Event::RequeueDue => core.release_parked(now),
            Event::AutoscaleTick => {
                for action in core.autoscale_tick(now) {
                    match action {
                        ScaleAction::Out { server, ready_us } => {
                            eng.push(ready_us, Event::ServerReady { server });
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
                    eng.push(next, Event::AutoscaleTick);
                }
            }
            Event::ServerReady { server } => {
                flight.server_ready(&mut core, server, !eng.crashed[server], now);
            }
            Event::HedgeDue { id, instance } => {
                if let Some(copy) = flight.hedge(&mut core, id, instance, now) {
                    eng.start(&core, &flight, copy, now);
                }
            }
        }
        // Every state change is a dispatch opportunity.
        flight.dispatch(&mut core, now, &mut started);
        for copy in started.drain(..) {
            if let Some(due) = copy.hedge_due_us {
                eng.push(
                    due,
                    Event::HedgeDue {
                        id: copy.id,
                        instance: copy.instance,
                    },
                );
            }
            eng.start(&core, &flight, copy, now);
        }
        // Any event can park a job under backoff; make sure the earliest
        // due instant has a wake-up scheduled (deduplicated per instant).
        if let Some(due) = core.next_parked_due() {
            if requeue_wakeups.insert(due) {
                eng.push(due, Event::RequeueDue);
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
    SimOutcome {
        report,
        event_log,
        assignments,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::chaos::{BreakerConfig, ChaosConfig};
    use crate::cost::CostModel;
    use crate::fleet::Fleet;
    use crate::policy::policy_by_name;
    use crate::segment::{SegmentOptions, SegmentPlan};
    use crate::service::{render_event_log, EventRecord, ServeConfig};
    use crate::sim::{simulate_trace, Virtual};
    use crate::workload::{Priority, WorkloadSpec};
    use vtx_chaos::{DetectorConfig, FaultPlan};

    /// A transport shaped like the real one, on a virtual clock: it never
    /// pre-schedules a finish. `start` queues the copy on its server's
    /// scripted worker, which reports back through `wait` after the same
    /// inflated, timeout-capped service time the simulator bills; a crashed
    /// worker loses what it held and never reports. A report that ties with
    /// a calendar event on time waits for it; reports tie-break by start
    /// order.
    struct Scripted {
        /// Pending reports by `(instant, instance)`.
        pending: BTreeMap<(u64, u64), Report>,
    }

    impl Transport for Scripted {
        fn start(
            &mut self,
            core: &ServiceCore,
            job: &PendingJob,
            copy: Started,
            now_us: u64,
        ) -> Option<(u64, Outcome)> {
            let (dur, outcome) = Virtual.start(core, job, copy, now_us)?;
            let report = Report {
                server: copy.server,
                instance: copy.instance,
                outcome,
            };
            let at = now_us.saturating_add(dur);
            self.pending.insert((at, copy.instance), report);
            None
        }

        fn wait(&mut self, next_due: impl FnOnce() -> Option<u64>) -> Option<(u64, Report)> {
            let (&(at, instance), _) = self.pending.first_key_value()?;
            if next_due().is_some_and(|due| due <= at) {
                return None;
            }
            let report = self.pending.remove(&(at, instance))?;
            Some((at, report))
        }

        fn crash(&mut self, server: usize) {
            self.pending.retain(|_, r| r.server != server);
        }
    }

    /// Runs the trace on the virtual transport and on the scripted one and
    /// requires the same bytes out of both; returns the run.
    fn differential(jobs: &[JobSpec], seed: u64, fleet: &Fleet, cfg: &ServeConfig) -> SimOutcome {
        let policy = || policy_by_name("smart", seed).unwrap();
        let want = simulate_trace(jobs, seed, fleet.clone(), policy(), cfg.clone()).unwrap();
        let mut scripted = Scripted {
            pending: BTreeMap::new(),
        };
        let core = ServiceCore::new(cfg.clone(), fleet.clone(), CostModel::new(seed), policy());
        let got = run(jobs, seed, core, &mut scripted);
        assert!(scripted.pending.is_empty(), "every report was delivered");
        assert_eq!(got.report.render(), want.report.render());
        assert_eq!(
            render_event_log(&got.event_log),
            render_event_log(&want.event_log)
        );
        assert_eq!(got.assignments, want.assignments);
        got
    }

    #[test]
    fn scripted_workers_reproduce_the_bundled_trace() {
        for seed in [42, 7] {
            let jobs = WorkloadSpec::bundled(seed).generate().unwrap();
            let out = differential(&jobs, seed, &Fleet::table_iv(), &ServeConfig::default());
            assert_eq!(out.report.offered, 400);
        }
    }

    #[test]
    fn scripted_workers_reproduce_kill_two_straggle_one_with_hedging_and_the_ladder() {
        for seed in [42, 7] {
            let jobs = WorkloadSpec::bundled(seed).generate().unwrap();
            let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap();
            let fleet = Fleet::sized(8).unwrap();
            let cfg = ServeConfig {
                chaos: ChaosConfig::hedged_kill_two_straggle_one(seed, 8, horizon),
                ..ServeConfig::default()
            };
            let r = differential(&jobs, seed, &fleet, &cfg).report;
            assert_eq!((r.faults.crashes, r.faults.slowdowns), (2, 1));
            assert!(r.faults.hedges_launched > 0 && r.faults.requeued > 0);
        }
    }

    /// PR 14's case 5: a cache hit occupies its server for the lookup in
    /// both drivers, as a calendar finish neither transport sees.
    #[test]
    fn scripted_workers_reproduce_a_cached_segmented_plan() {
        let seed = 19;
        let parents = WorkloadSpec::smoke(seed)
            .with_popularity(1.0, 0.25)
            .generate()
            .unwrap();
        let opts = SegmentOptions {
            target_ms: 500,
            ..SegmentOptions::default()
        };
        let plan = SegmentPlan::expand(&parents, &opts).unwrap();
        let mut cfg = ServeConfig {
            cache: Some(vtx_cache::CacheSpec {
                capacity_bytes: 64 << 20,
                policy: vtx_cache::EvictPolicy::Gdsf,
                lookup_us: 250,
            }),
            ..ServeConfig::default()
        };
        plan.fill_unit_tables(&mut cfg);
        let out = differential(&plan.units, seed, &Fleet::table_iv(), &cfg);
        assert!(out.report.cache.unwrap().hits > 0);
    }

    fn surge_cfg() -> ServeConfig {
        let breaker = BreakerConfig {
            enabled: true,
            failures: 2,
            open_us: 1_000_000,
        };
        ServeConfig {
            chaos: ChaosConfig {
                breaker,
                ..ChaosConfig::default()
            }
            .with_overload(2, 5),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn scripted_workers_reproduce_a_flash_crowd_with_autoscale_breaker_and_backoff() {
        for seed in [42, 7] {
            let jobs = WorkloadSpec::flash_crowd(seed).generate().unwrap();
            let out = differential(&jobs, seed, &Fleet::table_iv(), &surge_cfg());
            let scale = out.report.scale.unwrap();
            assert!(scale.scale_outs > 0 && scale.scale_ins > 0);
            let logged = |f: fn(&EventRecord) -> bool| out.event_log.iter().any(f);
            assert!(logged(|e| matches!(e, EventRecord::Backoff { .. })));
        }
    }

    /// PR 14's case 2: a server that crashes while warming never reports
    /// ready, though the detector has not noticed yet.
    #[test]
    fn server_ready_on_a_crashed_but_undetected_server_gives_it_no_work() {
        let seed = 42;
        let jobs = WorkloadSpec::flash_crowd(seed).generate().unwrap();
        let fleet = Fleet::table_iv();
        let dry = differential(&jobs, seed, &fleet, &surge_cfg());
        let (victim, ready_us) = dry
            .event_log
            .iter()
            .find_map(|e| match *e {
                EventRecord::ScaleOut {
                    server, ready_us, ..
                } => Some((server, ready_us)),
                _ => None,
            })
            .expect("the spike scales out");
        let mut cfg = surge_cfg();
        let crash_us = ready_us - 10;
        cfg.chaos.plan = FaultPlan::none(5).with_crash(victim, crash_us).unwrap();
        assert!(cfg.chaos.detector.suspect_at(crash_us) > ready_us);
        let out = differential(&jobs, seed, &fleet, &cfg);
        assert!(out.assignments.iter().all(|&(_, s)| s != victim));
        let r = &out.report;
        assert_eq!(r.completed + r.shed_total(), r.offered);
    }

    /// PR 14's case 3: reports are matched by `(server, instance)`, so the
    /// down verdict on a hedged job's origin does not make its twin's
    /// report stale (the twin shares the origin's job id and attempt).
    ///
    /// The second job only keeps the run going: the simulator still pops
    /// (and ignores) the finish it scheduled for the origin, a dead worker
    /// never reports, and a run that ended on that phantom would stamp the
    /// two makespans differently.
    #[test]
    fn report_from_a_hedge_twin_counts_after_its_origin_is_lost() {
        let seed = 42;
        let mut jobs = WorkloadSpec::smoke(seed).generate().unwrap();
        jobs.truncate(2);
        jobs[0].priority = Priority::Interactive;
        jobs[0].deadline_us = jobs[0].arrival_us + 60_000_000;
        jobs[0].timeout_us = 60_000_000;
        jobs[1].priority = Priority::Batch;
        jobs[1].arrival_us = jobs[0].arrival_us + 30_000_000;
        jobs[1].deadline_us = jobs[1].arrival_us + 60_000_000;
        let mut cfg = ServeConfig::default();
        cfg.chaos.hedge_after = 0.001;
        cfg.chaos.detector = DetectorConfig {
            heartbeat_us: 1_000,
            ..DetectorConfig::default()
        };
        let fleet = Fleet::table_iv();
        let dry = differential(&jobs, seed, &fleet, &cfg);
        let (origin, twin) = match dry.assignments[..] {
            [(0, origin), (0, twin), (1, _)] => (origin, twin),
            ref other => panic!("a dispatch, its hedge, the late job: got {other:?}"),
        };
        let hedged_us = jobs[0].arrival_us + 60_000;
        cfg.chaos.plan = FaultPlan::none(5)
            .with_crash(origin, hedged_us + 1)
            .unwrap();
        let out = differential(&jobs, seed, &fleet, &cfg);
        let r = &out.report;
        let won_us = out.event_log.iter().find_map(|e| match *e {
            EventRecord::Complete {
                t, id: 0, server, ..
            } if server == twin => Some(t),
            _ => None,
        });
        assert!(
            won_us.expect("the twin completes job 0") > cfg.chaos.detector.down_at(hedged_us + 1)
        );
        assert_eq!((r.completed, r.faults.requeued), (2, 0));
        assert_eq!(r.faults.hedges_won, 1);
    }
}
