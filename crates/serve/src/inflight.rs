//! The in-flight state machine: which server runs which copy of which job.
//!
//! Between a dispatch and its terminal booking a job lives here, not in the
//! [`ServiceCore`]: one running slot per server, the servers holding a copy
//! of each job (two while hedged), the ids already completed, and the
//! [`IdleIndex`] every dispatch round reads. The engine loop owns one
//! [`InFlight`] beside the core and calls its handlers as events pop; a
//! transport only decides *when* an event is handled and what a started
//! copy costs.
//!
//! A server is in the idle index exactly when its slot is empty and the core
//! would give it work (not detected down, active, breaker closed). Policies
//! therefore never see a server they may not use, at any fleet size.

use std::collections::{BTreeMap, BTreeSet};

use vtx_chaos::Health;

use crate::cells::{CellPlan, IdleIndex};
use crate::chaos::hedge_due_us;
use crate::queue::PendingJob;
use crate::service::ServiceCore;
use crate::workload::Priority;

/// One in-flight copy of a job on one server.
#[derive(Debug)]
struct Running {
    job: PendingJob,
    started_us: u64,
    instance: u64,
    is_hedge: bool,
    /// Satisfied from the segment cache: the server only fronts the
    /// lookup, and completion must not re-insert the artifact.
    cached: bool,
}

/// A copy the driver must now put on its transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Started {
    /// Job id.
    pub(crate) id: u64,
    /// Server the copy occupies; [`InFlight::job`] returns the job there.
    pub(crate) server: usize,
    /// Serial of this copy within the run. A finish report is current only
    /// while [`InFlight::holds`] this `(server, instance)` pair.
    pub(crate) instance: u64,
    /// `Some(lookup cost)` when the segment cache satisfied the dispatch:
    /// no transcode runs.
    pub(crate) cached_us: Option<u64>,
    /// When the driver should call [`InFlight::hedge`] for this job (set on
    /// the first dispatch of an interactive job that missed the cache).
    pub(crate) hedge_due_us: Option<u64>,
}

/// How the transport saw a copy's run end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The work finished. `bytes` is the real artifact size when the driver
    /// has one (it sizes the cache insertion).
    Finished {
        /// Encoded artifact size in bytes.
        bytes: Option<u64>,
    },
    /// The run was cut at the job's timeout, or the transcode failed.
    TimedOut,
}

/// What a finished copy meant for its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolution {
    /// First good finish: the job completed.
    Complete,
    /// The work is discarded (and billed): the twin already won, or this
    /// copy timed out while its twin can still decide the job's fate.
    HedgeDiscard,
    /// The last copy timed out: the job retries or is shed.
    Timeout,
}

impl Resolution {
    /// The verdict for a copy that just left its server, given whether the
    /// job already completed and how many copies of it are still running.
    fn of(already_done: bool, copies_left: usize, outcome: Outcome) -> Resolution {
        match outcome {
            _ if already_done => Resolution::HedgeDiscard,
            Outcome::TimedOut if copies_left > 0 => Resolution::HedgeDiscard,
            Outcome::TimedOut => Resolution::Timeout,
            Outcome::Finished { .. } => Resolution::Complete,
        }
    }
}

/// The in-flight bookkeeping under the engine loop (see the module docs).
#[derive(Debug)]
pub(crate) struct InFlight {
    idle: IdleIndex,
    running: Vec<Option<Running>>,
    /// Servers holding a copy of each in-flight job, so hedge triggers find
    /// the origin without scanning the fleet and hedged jobs terminate
    /// exactly once.
    holders: BTreeMap<u64, Vec<usize>>,
    done: BTreeSet<u64>,
    instance: u64,
}

impl InFlight {
    /// Empty slots over `core`'s fleet; servers the core would not give
    /// work (not yet scaled out) start outside the idle index.
    pub(crate) fn new(core: &ServiceCore) -> Self {
        let n = core.fleet().len();
        let mut idle = IdleIndex::new(CellPlan::build(n, core.cells(), core.model().seed));
        for s in (0..n).filter(|&s| !core.takes_work(s, 0)) {
            idle.set_busy(s);
        }
        InFlight {
            idle,
            running: (0..n).map(|_| None).collect(),
            holders: BTreeMap::new(),
            done: BTreeSet::new(),
            instance: 0,
        }
    }

    /// Whether no copy occupies any server.
    pub(crate) fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }

    /// The job running on `server`. Panics on an empty slot: drivers ask
    /// only about a copy they were just handed.
    pub(crate) fn job(&self, server: usize) -> &PendingJob {
        &self.running[server].as_ref().expect("slot in use").job
    }

    /// Whether `server` still runs the copy started as `instance`. A finish
    /// report for any other instance is stale (the copy was drained off a
    /// lost server) and must be dropped.
    pub(crate) fn holds(&self, server: usize, instance: u64) -> bool {
        self.running[server]
            .as_ref()
            .is_some_and(|r| r.instance == instance)
    }

    /// Re-derives `server`'s idle bit after anything that may have changed
    /// it: its slot emptied or filled, or the core's verdict on it moved.
    fn settle(&mut self, core: &ServiceCore, server: usize, now_us: u64) {
        if self.running[server].is_none() && core.takes_work(server, now_us) {
            self.idle.set_idle(server);
        } else {
            self.idle.set_busy(server);
        }
    }

    fn start(
        &mut self,
        job: PendingJob,
        server: usize,
        now_us: u64,
        is_hedge: bool,
        cached_us: Option<u64>,
    ) -> Started {
        self.instance += 1;
        self.idle.set_busy(server);
        self.holders.entry(job.spec.id).or_default().push(server);
        let started = Started {
            id: job.spec.id,
            server,
            instance: self.instance,
            cached_us,
            hedge_due_us: None,
        };
        self.running[server] = Some(Running {
            job,
            started_us: now_us,
            instance: self.instance,
            is_hedge,
            cached: cached_us.is_some(),
        });
        started
    }

    /// Empties `server`'s slot; returns the copy and how many copies of its
    /// job are still running elsewhere.
    fn take(&mut self, server: usize) -> Option<(Running, usize)> {
        let r = self.running[server].take()?;
        let id = r.job.spec.id;
        let holders = self
            .holders
            .get_mut(&id)
            .expect("running copies are indexed");
        holders.retain(|&s| s != server);
        let left = holders.len();
        if left == 0 {
            self.holders.remove(&id);
        }
        Some((r, left))
    }

    /// One dispatch round over the idle servers; drivers call it after every
    /// event. Each started copy has consulted the segment cache (a hit
    /// occupies the server for the lookup only, and hedging it would be
    /// pointless) and carries its hedge trigger, if any.
    pub(crate) fn dispatch(&mut self, core: &mut ServiceCore, now_us: u64) -> Vec<Started> {
        for server in core.closed_breakers(now_us) {
            self.settle(core, server, now_us);
        }
        let picks = core.dispatch(&self.idle, now_us);
        let hedge_after = core.chaos().hedge_after;
        picks
            .into_iter()
            .map(|(job, server)| {
                let cached_us = core.cache_lookup(&job, server, now_us);
                let spec = &job.spec;
                let hedge_due_us = (cached_us.is_none()
                    && spec.priority == Priority::Interactive
                    && job.attempts == 1)
                    .then(|| hedge_due_us(spec.arrival_us, spec.deadline_us, hedge_after))
                    .flatten()
                    .filter(|&due| due > now_us && due < spec.deadline_us);
                Started {
                    hedge_due_us,
                    ..self.start(job, server, now_us, false, cached_us)
                }
            })
            .collect()
    }

    /// A hedge trigger fired for job `id`. Launches a duplicate only if
    /// exactly the original copy is still in flight (not done, not
    /// requeued, not already hedged), on the predicted-fastest idle server
    /// the detector calls up (not merely "not down"); first completion wins.
    pub(crate) fn hedge(
        &mut self,
        core: &mut ServiceCore,
        id: u64,
        now_us: u64,
    ) -> Option<Started> {
        if self.done.contains(&id) {
            return None;
        }
        let &[origin] = self.holders.get(&id)?.as_slice() else {
            return None;
        };
        let job = self.job(origin);
        let server = self
            .idle
            .to_vec()
            .into_iter()
            .filter(|&s| core.health()[s] == Health::Up)
            .min_by_key(|&s| {
                let predicted = core.model().predicted_us(&job.spec, core.fleet().server(s));
                (predicted, s)
            })?;
        let job = job.clone();
        core.hedge_dispatch(&job, server, now_us);
        Some(self.start(job, server, now_us, true, None))
    }

    /// The copy on `server` left it with `outcome`: books what that means
    /// for the job (see [`Resolution::of`]) and frees the server. Panics on
    /// an empty slot; check [`Self::holds`] first if the report may be stale.
    pub(crate) fn finish(
        &mut self,
        core: &mut ServiceCore,
        server: usize,
        outcome: Outcome,
        now_us: u64,
    ) -> Resolution {
        let (r, left) = self.take(server).expect("finish names a running copy");
        let id = r.job.spec.id;
        let resolution = Resolution::of(self.done.contains(&id), left, outcome);
        match (resolution, outcome) {
            (Resolution::Complete, Outcome::Finished { bytes }) => {
                core.complete(&r.job, server, r.started_us, now_us);
                self.done.insert(id);
                if r.is_hedge {
                    core.note_hedge_won();
                }
                // A real transcode populates the cache; a hit never
                // re-inserts what it just read.
                if !r.cached {
                    core.cache_insert(&r.job, server, bytes);
                }
            }
            (Resolution::Timeout, _) => core.timeout(r.job, server, r.started_us, now_us),
            _ => core.hedge_discard(id, server, r.started_us, now_us),
        }
        // After the booking: a timeout may have tripped the server's breaker.
        self.settle(core, server, now_us);
        resolution
    }

    /// `server` can run nothing any more — the caller has just booked a down
    /// verdict or a scale-in on the core. It leaves the idle index, and the
    /// copy it held is requeued unless a twin can still finish the job (or
    /// already has).
    pub(crate) fn server_lost(&mut self, core: &mut ServiceCore, server: usize, now_us: u64) {
        if let Some((r, left)) = self.take(server) {
            if left == 0 && !self.done.contains(&r.job.spec.id) {
                core.fail(r.job, server, r.started_us, now_us);
            }
        }
        self.settle(core, server, now_us);
    }

    /// A scale-out's warm-up elapsed. The server joins the idle index if
    /// the core activates it and it is `alive` — the engine's ground truth:
    /// a server that crashed while warming never reports ready, detected
    /// or not.
    pub(crate) fn server_ready(
        &mut self,
        core: &mut ServiceCore,
        server: usize,
        alive: bool,
        now_us: u64,
    ) {
        if core.server_ready(server, now_us) && alive {
            self.settle(core, server, now_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::BreakerConfig;
    use crate::cost::CostModel;
    use crate::fleet::Fleet;
    use crate::policy::SmartPolicy;
    use crate::service::ServeConfig;
    use crate::workload::JobSpec;
    use vtx_codec::Preset;
    use vtx_sched::TranscodeTask;

    const DEADLINE: u64 = 1_000_000;
    const FINISHED: Outcome = Outcome::Finished { bytes: None };

    /// Table IV under `smart` with a generous retry budget.
    fn machine(mut cfg: ServeConfig) -> (ServiceCore, InFlight) {
        cfg.max_retries = 5;
        let policy = Box::new(SmartPolicy::new());
        let core = ServiceCore::new(cfg, Fleet::table_iv(), CostModel::new(7), policy);
        let flight = InFlight::new(&core);
        (core, flight)
    }

    /// The same, hedging at half the deadline budget.
    fn hedging() -> (ServiceCore, InFlight) {
        let mut cfg = ServeConfig::default();
        cfg.chaos.hedge_after = 0.5;
        machine(cfg)
    }

    /// Offers job `id` at `t` and runs the dispatch round that starts it.
    fn submit(m: &mut (ServiceCore, InFlight), id: u64, priority: Priority, t: u64) -> Started {
        let spec = JobSpec {
            id,
            arrival_us: 0,
            task: TranscodeTask::new("bike", 23, 3, Preset::Fast),
            priority,
            deadline_us: DEADLINE,
            timeout_us: u64::MAX,
        };
        m.0.offer(spec, t);
        let started = m.1.dispatch(&mut m.0, t);
        assert_eq!(started.len(), 1);
        started[0]
    }

    #[test]
    fn finish_resolution_table() {
        use Resolution::{Complete, HedgeDiscard, Timeout};
        for (done, left, outcome, want) in [
            (false, 0, FINISHED, Complete),
            (false, 1, FINISHED, Complete), // first of two copies wins
            (true, 0, FINISHED, HedgeDiscard), // the twin already won
            (true, 0, Outcome::TimedOut, HedgeDiscard),
            (true, 1, Outcome::TimedOut, HedgeDiscard),
            (false, 1, Outcome::TimedOut, HedgeDiscard), // twin still decides
            (false, 0, Outcome::TimedOut, Timeout),
        ] {
            let got = Resolution::of(done, left, outcome);
            assert_eq!(got, want, "done={done} left={left} {outcome:?}");
        }
    }

    #[test]
    fn server_lost_while_the_hedge_twin_runs_does_not_requeue() {
        let mut m = hedging();
        let origin = submit(&mut m, 0, Priority::Interactive, 0);
        let (mut core, mut flight) = m;
        let twin = flight
            .hedge(&mut core, 0, DEADLINE / 2)
            .expect("idle up server");
        assert_ne!(twin.server, origin.server);
        assert_eq!(flight.hedge(&mut core, 0, DEADLINE / 2), None, "one hedge");
        core.mark_down(origin.server, 600_000);
        flight.server_lost(&mut core, origin.server, 600_000);
        assert_eq!((core.queued(), flight.is_empty()), (0, false));
        assert!(!flight.idle.is_idle(origin.server), "down stays out");
        let res = flight.finish(&mut core, twin.server, FINISHED, 700_000);
        assert_eq!(res, Resolution::Complete);
        assert!(flight.idle.is_idle(twin.server));
        let (report, _, _) = core.finish(7, 700_000);
        assert_eq!((report.completed, report.faults.requeued), (1, 0));
        assert_eq!(report.faults.hedges_won, 1);
    }

    #[test]
    fn server_lost_with_the_last_copy_requeues_exactly_once() {
        let mut m = machine(ServeConfig::default());
        let copy = submit(&mut m, 0, Priority::Standard, 0);
        let (mut core, mut flight) = m;
        core.mark_down(copy.server, 10);
        flight.server_lost(&mut core, copy.server, 10);
        flight.server_lost(&mut core, copy.server, 20); // the real sweep repeats
        assert_eq!((core.queued(), flight.is_empty()), (1, true));
        assert!(!flight.holds(copy.server, copy.instance), "finish is stale");
        let again = flight.dispatch(&mut core, 30)[0];
        assert_ne!(again.server, copy.server);
        assert_eq!(flight.job(again.server).attempts, 2);
        assert_eq!(core.finish(7, 30).0.faults.requeued, 1);
    }

    #[test]
    fn hedges_arm_on_first_interactive_dispatch_inside_the_window() {
        let mut m = hedging();
        let first = submit(&mut m, 0, Priority::Interactive, 10);
        assert_eq!(first.hedge_due_us, Some(DEADLINE / 2));
        let standard = submit(&mut m, 1, Priority::Standard, 10);
        assert_eq!(standard.hedge_due_us, None, "interactive class only");
        // A retry never re-arms.
        let res = m.1.finish(&mut m.0, first.server, Outcome::TimedOut, 20);
        assert_eq!(res, Resolution::Timeout);
        let retry = m.1.dispatch(&mut m.0, 30)[0];
        assert_eq!((retry.id, retry.hedge_due_us), (0, None));
        // Nor does a first dispatch at or past the due instant.
        let late = submit(&mut m, 2, Priority::Interactive, DEADLINE / 2);
        assert_eq!(late.hedge_due_us, None);
        // With hedging off (the default) nothing arms.
        let mut off = machine(ServeConfig::default());
        let copy = submit(&mut off, 3, Priority::Interactive, 10);
        assert_eq!(copy.hedge_due_us, None);
    }

    #[test]
    fn cache_hit_neither_arms_a_hedge_nor_reinserts() {
        let mut cfg = ServeConfig::default();
        cfg.chaos.hedge_after = 0.5;
        cfg.cache = Some(vtx_cache::CacheSpec {
            capacity_bytes: 64 << 20,
            policy: vtx_cache::EvictPolicy::Lru,
            lookup_us: 250,
        });
        let mut m = machine(cfg);
        let miss = submit(&mut m, 0, Priority::Interactive, 0);
        assert_eq!(miss.cached_us, None);
        let bytes = Some(1_000);
        m.1.finish(&mut m.0, miss.server, Outcome::Finished { bytes }, 10);
        // Same knobs, so the same cache key.
        let hit = submit(&mut m, 1, Priority::Interactive, 20);
        assert_eq!((hit.cached_us, hit.hedge_due_us), (Some(250), None));
        // Were the hit re-inserted, the entry would take this other size.
        let bytes = Some(5_000);
        let res =
            m.1.finish(&mut m.0, hit.server, Outcome::Finished { bytes }, 30);
        assert_eq!(res, Resolution::Complete);
        let stats = m.0.finish(7, 30).0.cache.expect("cache stats");
        assert_eq!(
            (stats.hits, stats.inserted, stats.occupancy_bytes),
            (1, 1, 1_000)
        );
    }

    #[test]
    fn breaker_open_on_the_preferred_server_places_the_job_elsewhere_at_once() {
        let mut cfg = ServeConfig::default();
        cfg.chaos.breaker = BreakerConfig {
            enabled: true,
            failures: 1,
            open_us: 500_000,
        };
        let mut m = machine(cfg);
        let best = submit(&mut m, 0, Priority::Standard, 0).server;
        let (mut core, mut flight) = m;
        // One timeout trips `best`'s breaker and requeues the job.
        flight.finish(&mut core, best, Outcome::TimedOut, 10);
        assert!(!flight.idle.is_idle(best), "held out while open");
        // Post-filtering the policy's pick (it would choose `best` again)
        // would leave the job waiting a round beside four idle servers.
        let retry = flight.dispatch(&mut core, 10);
        assert_eq!(retry.len(), 1, "placed in the same round");
        assert_ne!(retry[0].server, best);
        // Once the window passes the server is dispatchable again.
        flight.dispatch(&mut core, 10 + 500_000);
        assert!(flight.idle.is_idle(best));
    }
}
