//! The shared service core: admission, dispatch, and accounting.
//!
//! The engine loop (`crate::engine`) — under the simulator
//! ([`crate::sim`]) and the real threaded executor ([`crate::exec`]) alike —
//! owns a [`ServiceCore`] and, beside it, one `crate::inflight::InFlight`
//! that tracks what runs where between a dispatch and its terminal booking.
//! The core holds the queue, the policy, the event log and all counters;
//! the loop decides *when* its handlers fire, and its transport what a
//! started copy costs. That split is what makes the simulated and real
//! paths comparable: a policy bug or queueing bug shows up identically in
//! both.

use std::collections::BTreeMap;

use vtx_cache::{CacheKey, CacheSpec, SegmentCache};
use vtx_chaos::degrade::{downgrade, DegradeLadder};
use vtx_chaos::{Cause, FaultKind, Health};
use vtx_obs::{AlertTransition, ObsConfig, ObsPlane};

use crate::cells::IdleIndex;
use crate::chaos::ChaosConfig;
use crate::cost::CostModel;
use crate::fleet::{Fleet, ServerSpec};
use crate::policy::{ClassMap, DispatchCtx, DispatchPolicy};
use crate::queue::{Admission, AdmissionQueue, PendingJob, QueueConfig, ShedReason};
use crate::report::{FaultAccounting, LatencyStats, ScaleStats, ServerStats, ServingReport};
use crate::workload::{JobSpec, Priority};

/// Service-layer tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission-queue sizing.
    pub queue: QueueConfig,
    /// Dispatch attempts allowed after a timeout (0 = fail on first).
    pub max_retries: u32,
    /// Whether to keep the full event log (reports always work).
    pub collect_event_log: bool,
    /// Fault injection and recovery (default: fully disabled — an
    /// un-faulted run behaves and renders exactly as before).
    pub chaos: ChaosConfig,
    /// Observability plane: per-job tracing, windowed quantiles and SLO
    /// burn-rate alerting (enabled by default; alerting only changes the
    /// event stream when an SLO actually burns).
    pub obs: ObsConfig,
    /// Cell count the idle index shards the fleet into (0 = auto-size at
    /// `crate::cells::DEFAULT_CELL_SIZE` servers per cell), in both
    /// drivers. Cells steer the model-driven policies' two-level routing;
    /// below [`crate::cells::XL_FLEET_THRESHOLD`] servers those solve the
    /// whole idle set in one piece, whatever the sharding.
    pub cells: usize,
    /// Per-unit `(frames, total_frames)` when jobs are per-(segment, rung)
    /// dispatch units (see [`crate::segment`]), indexed by dense job id.
    /// Scales true service time by the unit's share of the clip. Empty =
    /// whole-clip jobs; service times are untouched.
    pub unit_frames: Vec<(u32, u32)>,
    /// Popularity-aware segment cache (`None` = caching disabled; the
    /// legacy path is byte-identical). When set, both drivers consult the
    /// cache at dispatch time: a hit skips the transcode entirely and
    /// bills only the cache's lookup cost.
    pub cache: Option<CacheSpec>,
    /// Per-unit ladder rung indexed by dense job id (0 = highest rung).
    /// Feeds rung-ordered displacement (`AdmissionQueue::set_rung_table`)
    /// and per-rung shed accounting. Empty = whole-clip jobs.
    pub unit_rungs: Vec<u8>,
    /// Per-unit segment index within the parent clip, indexed by dense job
    /// id. Empty = whole-clip jobs (cache keys use segment 0).
    pub unit_segs: Vec<u32>,
    /// Per-unit muxed artifact size in bytes, indexed by dense job id.
    /// Sizes cache insertions; empty falls back to a bitrate-model
    /// estimate from the job's knobs.
    pub unit_bytes: Vec<u64>,
    /// Per-tenant token-bucket admission (`None` = disabled; the legacy
    /// path is byte-identical). Tenants are decoded from job ids via
    /// `crate::workload::tenant_of`; a job arriving to an empty bucket
    /// is shed with [`ShedReason::Throttled`] before it can displace
    /// anyone, so one tenant's flood cannot starve the others.
    pub tenants: Option<TenantAdmissionConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue: QueueConfig::default(),
            max_retries: 1,
            collect_event_log: true,
            chaos: ChaosConfig::default(),
            obs: ObsConfig::default(),
            cells: 0,
            unit_frames: Vec::new(),
            cache: None,
            unit_rungs: Vec::new(),
            unit_segs: Vec::new(),
            unit_bytes: Vec::new(),
            tenants: None,
        }
    }
}

impl ServeConfig {
    /// The fleet-scale configuration: no event log and no observability
    /// plane. At hundreds of servers both are pure overhead, and the report
    /// carries the findings.
    pub fn xl() -> Self {
        ServeConfig {
            collect_event_log: false,
            obs: ObsConfig::disabled(),
            ..ServeConfig::default()
        }
    }
}

/// How many queued candidates the policy sees per dispatch round.
const CANDIDATE_WINDOW: usize = 8;

/// Per-tenant token-bucket admission quotas.
///
/// Each tenant owns a bucket that refills at its quota rate and holds at
/// most `burst_milli` milli-jobs; admitting one job spends 1000
/// milli-tokens. Refill is integer arithmetic over a
/// microsecond-times-milli-rate accumulator, so admission decisions are
/// exact and byte-deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAdmissionConfig {
    /// Tenant count (must match the workload's tenant encoding).
    pub(crate) n_tenants: usize,
    /// Per-tenant sustained admission rate, milli-jobs per second,
    /// `crate::workload::tenant_of` index order. Shorter vectors repeat
    /// their last entry; empty disables throttling.
    pub(crate) rate_milli_per_s: Vec<u64>,
    /// Bucket depth in milli-jobs (shared by all tenants).
    pub(crate) burst_milli: u64,
}

impl TenantAdmissionConfig {
    /// Quotas for the tenant mix of `workload`'s scenario, or `None` when
    /// the workload has no tenant mix.
    pub fn for_workload(workload: &crate::workload::WorkloadSpec) -> Option<Self> {
        let tenants = &workload.scenario.as_ref()?.tenants;
        (!tenants.is_empty()).then(|| TenantAdmissionConfig::from_tenants(tenants))
    }

    /// Builds quotas from a scenario's tenant specs: each tenant's bucket
    /// refills at its declared `quota_hz`.
    pub fn from_tenants(tenants: &[crate::workload::TenantSpec]) -> Self {
        TenantAdmissionConfig {
            n_tenants: tenants.len().max(1),
            rate_milli_per_s: tenants
                .iter()
                .map(|t| (t.quota_hz.max(0.0) * 1000.0).round() as u64)
                .collect(),
            burst_milli: 2_000,
        }
    }

    /// The refill rate for one tenant (last entry repeats; 0 if empty).
    fn rate_for(&self, tenant: usize) -> u64 {
        self.rate_milli_per_s
            .get(tenant)
            .or(self.rate_milli_per_s.last())
            .copied()
            .unwrap_or(0)
    }
}

/// Per-tenant token-bucket state. Token balances are scaled by 10^6 so the
/// µs × milli-rate refill product needs no division remainder tracking.
#[derive(Debug)]
struct TokenBuckets {
    cfg: TenantAdmissionConfig,
    /// Balance per tenant, in milli-tokens × 10^6.
    scaled: Vec<u128>,
    last_us: Vec<u64>,
}

/// One admitted job costs 1000 milli-tokens, scaled.
const TOKEN_JOB_SCALED: u128 = 1_000 * 1_000_000;

impl TokenBuckets {
    fn new(cfg: TenantAdmissionConfig) -> Self {
        let n = cfg.n_tenants.max(1);
        let full = u128::from(cfg.burst_milli) * 1_000_000;
        TokenBuckets {
            cfg,
            scaled: vec![full; n],
            last_us: vec![0; n],
        }
    }

    /// Refills `tenant`'s bucket to `now_us` and tries to spend one job's
    /// worth of tokens. Returns whether the job is admitted.
    fn admit(&mut self, tenant: usize, now_us: u64) -> bool {
        let t = tenant.min(self.scaled.len() - 1);
        let rate = self.cfg.rate_for(t);
        let dt = now_us.saturating_sub(self.last_us[t]);
        self.last_us[t] = now_us;
        let cap = u128::from(self.cfg.burst_milli) * 1_000_000;
        self.scaled[t] = (self.scaled[t] + u128::from(dt) * u128::from(rate)).min(cap);
        if self.scaled[t] >= TOKEN_JOB_SCALED {
            self.scaled[t] -= TOKEN_JOB_SCALED;
            true
        } else {
            false
        }
    }
}

/// Service-class names in `Priority::index` order, used by the
/// observability plane's renderers.
pub const CLASS_NAMES: [&str; 3] = ["interactive", "standard", "batch"];

/// One service-layer event, timestamped in microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventRecord {
    /// A job arrived from the load generator.
    Arrive {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
    },
    /// The queue admitted a job.
    Admit {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// Service class.
        class: Priority,
    },
    /// A job was shed.
    Shed {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// Why.
        reason: ShedReason,
    },
    /// The policy placed a job on a server.
    Dispatch {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// Server index in the fleet.
        server: usize,
        /// 1-based dispatch attempt.
        attempt: u32,
    },
    /// A job finished on a server.
    Complete {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// Server index in the fleet.
        server: usize,
        /// Arrival → completion time (µs).
        sojourn_us: u64,
        /// Whether it finished past its deadline.
        violation: bool,
    },
    /// A dispatch attempt hit the job's timeout.
    Timeout {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// Server index in the fleet.
        server: usize,
        /// 1-based attempt that timed out.
        attempt: u32,
    },
    /// The fault plan injected a fault on a server.
    Fault {
        /// Timestamp (µs).
        t: u64,
        /// Server index in the fleet.
        server: usize,
        /// What kind of fault.
        kind: FaultKind,
    },
    /// The failure detector started suspecting a server.
    Suspect {
        /// Timestamp (µs).
        t: u64,
        /// Server index in the fleet.
        server: usize,
        /// Why the transition happened.
        cause: Cause,
    },
    /// The failure detector declared a server down.
    Down {
        /// Timestamp (µs).
        t: u64,
        /// Server index in the fleet.
        server: usize,
        /// Why the transition happened.
        cause: Cause,
    },
    /// An in-flight job was recovered off a server declared down.
    Requeue {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// The dead server it was pulled from.
        server: usize,
        /// The (doomed) attempt it was on.
        attempt: u32,
    },
    /// A hedged duplicate dispatch was launched.
    Hedge {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// Server the duplicate was placed on.
        server: usize,
    },
    /// The graceful-degradation ladder changed level.
    Degrade {
        /// Timestamp (µs).
        t: u64,
        /// New ladder level (0 = full quality).
        level: u8,
        /// Why the step was taken.
        cause: Cause,
    },
    /// A dispatch was satisfied from the segment cache (no transcode ran;
    /// only emitted when a [`CacheSpec`] is configured, so legacy logs are
    /// byte-identical).
    CacheHit {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// Server that fronted the lookup.
        server: usize,
    },
    /// An SLO burn-rate alert changed state (see `vtx_obs::slo`).
    Alert {
        /// Timestamp (µs).
        t: u64,
        /// Service class the alert concerns.
        class: Priority,
        /// `true` = started firing, `false` = cleared.
        firing: bool,
        /// Fast-window burn rate, milli-multiples of the error budget.
        fast_burn_milli: u64,
        /// Slow-window burn rate, milli-multiples of the error budget.
        slow_burn_milli: u64,
    },
    /// A requeued job was parked under seeded exponential backoff instead
    /// of rejoining the queue immediately (only emitted when
    /// [`crate::chaos::BackoffConfig`] is enabled, so legacy logs are
    /// byte-identical).
    Backoff {
        /// Timestamp (µs).
        t: u64,
        /// Job id.
        id: u64,
        /// How long the job is held before re-admission (µs).
        delay_us: u64,
    },
    /// A per-server circuit breaker tripped: the server leaves the
    /// dispatchable set until `until_us`.
    Breaker {
        /// Timestamp (µs).
        t: u64,
        /// Server index in the fleet.
        server: usize,
        /// When the breaker re-admits the server (µs).
        until_us: u64,
    },
    /// The autoscaler launched a server; it takes work at `ready_us`.
    ScaleOut {
        /// Timestamp (µs).
        t: u64,
        /// Server index in the fleet.
        server: usize,
        /// End of the seeded warm-up delay (µs).
        ready_us: u64,
    },
    /// The autoscaler drained and deactivated a server.
    ScaleIn {
        /// Timestamp (µs).
        t: u64,
        /// Server index in the fleet.
        server: usize,
    },
}

impl EventRecord {
    /// Event timestamp (µs).
    #[cfg(test)]
    pub(crate) fn time_us(&self) -> u64 {
        match *self {
            EventRecord::Arrive { t, .. }
            | EventRecord::Admit { t, .. }
            | EventRecord::Shed { t, .. }
            | EventRecord::Dispatch { t, .. }
            | EventRecord::Complete { t, .. }
            | EventRecord::Timeout { t, .. }
            | EventRecord::Fault { t, .. }
            | EventRecord::Suspect { t, .. }
            | EventRecord::Down { t, .. }
            | EventRecord::Requeue { t, .. }
            | EventRecord::Hedge { t, .. }
            | EventRecord::Degrade { t, .. }
            | EventRecord::CacheHit { t, .. }
            | EventRecord::Alert { t, .. }
            | EventRecord::Backoff { t, .. }
            | EventRecord::Breaker { t, .. }
            | EventRecord::ScaleOut { t, .. }
            | EventRecord::ScaleIn { t, .. } => t,
        }
    }

    /// One deterministic log line (no trailing newline).
    pub(crate) fn render(&self) -> String {
        match self {
            EventRecord::Arrive { t, id } => format!("{t:>12} arrive   job={id}"),
            EventRecord::Admit { t, id, class } => {
                format!("{t:>12} admit    job={id} class={}", class.name())
            }
            EventRecord::Shed { t, id, reason } => {
                format!("{t:>12} shed     job={id} reason={}", reason.name())
            }
            EventRecord::Dispatch {
                t,
                id,
                server,
                attempt,
            } => format!("{t:>12} dispatch job={id} server={server} attempt={attempt}"),
            EventRecord::Complete {
                t,
                id,
                server,
                sojourn_us,
                violation,
            } => format!(
                "{t:>12} complete job={id} server={server} sojourn_us={sojourn_us} violation={violation}"
            ),
            EventRecord::Timeout {
                t,
                id,
                server,
                attempt,
            } => format!("{t:>12} timeout  job={id} server={server} attempt={attempt}"),
            EventRecord::Fault { t, server, kind } => {
                format!("{t:>12} fault    server={server} kind={}", kind.name())
            }
            EventRecord::Suspect { t, server, cause } => {
                format!("{t:>12} suspect  server={server} cause={}", cause.name())
            }
            EventRecord::Down { t, server, cause } => {
                format!("{t:>12} down     server={server} cause={}", cause.name())
            }
            EventRecord::Requeue {
                t,
                id,
                server,
                attempt,
            } => format!("{t:>12} requeue  job={id} server={server} attempt={attempt}"),
            EventRecord::Hedge { t, id, server } => {
                format!("{t:>12} hedge    job={id} server={server}")
            }
            EventRecord::Degrade { t, level, cause } => {
                format!("{t:>12} degrade  level={level} cause={}", cause.name())
            }
            EventRecord::CacheHit { t, id, server } => {
                format!("{t:>12} cachehit job={id} server={server}")
            }
            EventRecord::Alert {
                t,
                class,
                firing,
                fast_burn_milli,
                slow_burn_milli,
            } => {
                let state = if *firing { "FIRING" } else { "ok" };
                format!(
                    "{t:>12} alert    class={} state={state} fast_burn_milli={fast_burn_milli} slow_burn_milli={slow_burn_milli}",
                    class.name()
                )
            }
            EventRecord::Backoff { t, id, delay_us } => {
                format!("{t:>12} backoff  job={id} delay_us={delay_us}")
            }
            EventRecord::Breaker { t, server, until_us } => format!(
                "{t:>12} breaker  server={server} until_us={until_us} cause={}",
                Cause::BreakerOpen.name()
            ),
            EventRecord::ScaleOut {
                t,
                server,
                ready_us,
            } => format!("{t:>12} scaleout server={server} ready_us={ready_us}"),
            EventRecord::ScaleIn { t, server } => {
                format!("{t:>12} scalein  server={server}")
            }
        }
    }
}

/// The state machine under the engine loop.
#[derive(Debug)]
pub struct ServiceCore {
    cfg: ServeConfig,
    fleet: Fleet,
    /// The fleet's server classes, lent to the policy every round.
    classes: ClassMap,
    model: CostModel,
    policy: Box<dyn DispatchPolicy>,
    queue: AdmissionQueue,
    log: Vec<EventRecord>,
    offered: u64,
    completed: u64,
    violations: u64,
    retries: u64,
    shed: [u64; 5],
    sojourns: Vec<u64>,
    sojourns_by_class: [Vec<u64>; 3],
    server_busy_us: Vec<u64>,
    server_jobs: Vec<u64>,
    /// `(job id, server index)` in dispatch order — the serving analog of a
    /// Fig 9 assignment vector, asserted on by the determinism tests.
    assignments: Vec<(u64, usize)>,
    /// Detector belief per server, fleet order (all `Up` without chaos).
    health: Vec<Health>,
    /// Monotone counter bumped on every Suspect / Down / Degrade
    /// transition. Policies key their cost caches on it: a stable epoch
    /// guarantees nothing a prediction depends on has changed.
    health_epoch: u64,
    /// Cached `Σ speed` over detected-up servers; recomputed only on
    /// health transitions (the sum is otherwise invariant, and at 10k
    /// servers re-deriving it per dispatch round dominates the round).
    up_capacity: f64,
    ladder: DegradeLadder,
    peak_degrade: u8,
    degraded_jobs: u64,
    requeued: u64,
    hedges_launched: u64,
    hedges_won: u64,
    hedges_wasted: u64,
    /// Per requeued job: dispatch-to-requeue span (µs); mean = MTTR.
    lost_spans: Vec<u64>,
    /// Observability plane fed by every entry point (see `vtx-obs`).
    obs: ObsPlane,
    /// Popularity-aware segment cache (`None` = disabled).
    cache: Option<SegmentCache>,
    /// Shed counts by ladder rung (index = rung, 0 = highest). Empty when
    /// no rung table is configured, so legacy reports are unchanged.
    shed_by_rung: Vec<u64>,
    /// Per-tenant admission buckets (`None` = throttling disabled).
    buckets: Option<TokenBuckets>,
    /// Shed counts by tenant; empty when no tenant config is set.
    shed_by_tenant: Vec<u64>,
    /// Jobs parked under backoff, keyed `(due_us, id)` so release order is
    /// total. The bool marks front-of-line re-admission (requeue path).
    parked: BTreeMap<(u64, u64), (PendingJob, bool)>,
    /// Consecutive requeue/timeout count per server (circuit breaker).
    breaker_fails: Vec<u32>,
    /// Breaker-open horizon per server (0 = closed).
    breaker_until: Vec<u64>,
    /// Servers whose breaker tripped and has not been seen closed again, so
    /// [`ServiceCore::closed_breakers`] never scans the fleet.
    open_breakers: Vec<usize>,
    /// Which servers currently take work. All-true unless the autoscaler
    /// is enabled, in which case only the first `min_servers` start
    /// active.
    active: Vec<bool>,
    /// Servers a scale-out has launched but whose warm-up has not
    /// finished.
    warming: Vec<bool>,
    /// When each server's current active span began (`None` while
    /// parked).
    active_since: Vec<Option<u64>>,
    /// Closed active span time per server (µs).
    active_us_acc: Vec<u64>,
    /// Closed active-and-alive span time per server (µs): active time
    /// clipped to the server's planned crash instant.
    alive_us_acc: Vec<u64>,
    /// Σ speed over active servers right now (provisioned capacity).
    cap_now: f64,
    /// Peak of `cap_now` over the run.
    cap_peak: f64,
    /// ∫ cap_now dt (capacity-microseconds), for the served-capacity mean.
    cap_integral: f64,
    /// Timestamp of the last capacity change.
    cap_last_us: u64,
    scale_outs: u64,
    scale_ins: u64,
}

/// One autoscaler decision for the driver to act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Launch `server`; it becomes dispatchable at `ready_us` (the driver
    /// calls `ServiceCore::server_ready` then).
    Out {
        /// Server index in the provisioned fleet.
        server: usize,
        /// End of the seeded warm-up delay (µs).
        ready_us: u64,
    },
    /// `server` was deactivated; the driver drains any job still running
    /// there through the stranded-work requeue path.
    In {
        /// Server index in the provisioned fleet.
        server: usize,
    },
}

impl ServiceCore {
    /// Builds a core over a fleet, model and policy.
    pub(crate) fn new(
        cfg: ServeConfig,
        fleet: Fleet,
        model: CostModel,
        policy: Box<dyn DispatchPolicy>,
    ) -> Self {
        let n = fleet.len();
        // All servers start Up; with the autoscaler enabled only the first
        // `min_servers` start *active*, and capacity counts active servers
        // only. The sum must be taken in fleet order every time it is
        // recomputed so the f64 value is bit-stable across paths.
        let autoscale = cfg.chaos.autoscale;
        let active: Vec<bool> = if autoscale.enabled {
            (0..n).map(|i| i < autoscale.min_servers.max(1)).collect()
        } else {
            vec![true; n]
        };
        let up_capacity: f64 = fleet
            .servers()
            .iter()
            .zip(&active)
            .filter(|(_, &a)| a)
            .map(|(s, _)| s.speed)
            .sum();
        let cap_now = up_capacity;
        let active_since: Vec<Option<u64>> = active
            .iter()
            .map(|&a| if a { Some(0) } else { None })
            .collect();
        let buckets = cfg.tenants.clone().map(TokenBuckets::new);
        let shed_by_tenant = cfg
            .tenants
            .as_ref()
            .map(|t| vec![0; t.n_tenants.max(1)])
            .unwrap_or_default();
        let mut queue = AdmissionQueue::new(cfg.queue.clone());
        if !cfg.unit_rungs.is_empty() {
            queue.set_rung_table(cfg.unit_rungs.clone());
        }
        let ladder = DegradeLadder::new(cfg.chaos.degrade);
        let obs = ObsPlane::new(cfg.obs.clone(), Priority::ALL.len());
        let cache = cfg.cache.clone().map(SegmentCache::new);
        let shed_by_rung = match cfg.unit_rungs.iter().max() {
            Some(&top) => vec![0; usize::from(top) + 1],
            None => Vec::new(),
        };
        ServiceCore {
            cfg,
            classes: ClassMap::of(&fleet),
            fleet,
            model,
            policy,
            queue,
            log: Vec::new(),
            offered: 0,
            completed: 0,
            violations: 0,
            retries: 0,
            shed: [0; 5],
            sojourns: Vec::new(),
            sojourns_by_class: [Vec::new(), Vec::new(), Vec::new()],
            server_busy_us: vec![0; n],
            server_jobs: vec![0; n],
            assignments: Vec::new(),
            health: vec![Health::Up; n],
            health_epoch: 0,
            up_capacity,
            ladder,
            peak_degrade: 0,
            degraded_jobs: 0,
            requeued: 0,
            hedges_launched: 0,
            hedges_won: 0,
            hedges_wasted: 0,
            lost_spans: Vec::new(),
            obs,
            cache,
            shed_by_rung,
            buckets,
            shed_by_tenant,
            parked: BTreeMap::new(),
            breaker_fails: vec![0; n],
            breaker_until: vec![0; n],
            open_breakers: Vec::new(),
            active,
            warming: vec![false; n],
            active_since,
            active_us_acc: vec![0; n],
            alive_us_acc: vec![0; n],
            cap_now,
            cap_peak: cap_now,
            cap_integral: 0.0,
            cap_last_us: 0,
            scale_outs: 0,
            scale_ins: 0,
        }
    }

    /// Folds a burn-rate transition into the event log as an `Alert`.
    fn record_alert(&mut self, tr: AlertTransition) {
        self.record(EventRecord::Alert {
            t: tr.t_us,
            class: Priority::ALL[tr.class.min(Priority::ALL.len() - 1)],
            firing: tr.firing,
            fast_burn_milli: tr.fast_burn_milli,
            slow_burn_milli: tr.slow_burn_milli,
        });
    }

    /// The fleet this core serves.
    pub(crate) fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The cost model (drivers bill truth from it).
    pub(crate) fn model(&self) -> &CostModel {
        &self.model
    }

    /// True service time for a job, scaled to the unit's share of its
    /// parent clip when segment-granular dispatch is active. A unit
    /// covering `frames` of a `total`-frame clip costs that fraction of
    /// the whole-clip time (never rounded below 1 µs); with no segment
    /// plan this is exactly [`CostModel::true_us`].
    pub(crate) fn true_service_us(
        &self,
        spec: &JobSpec,
        server_idx: usize,
        server: &ServerSpec,
    ) -> u64 {
        let t = self.model.true_us(spec, server_idx, server);
        match self.cfg.unit_frames.get(spec.id as usize) {
            Some(&(frames, total)) if total > 0 => {
                let scaled = u128::from(t) * u128::from(frames) / u128::from(total);
                (scaled as u64).max(1)
            }
            _ => t,
        }
    }

    /// Cache key for a dispatch unit: the knobs that determine the encoded
    /// bytes, plus the unit's rung and segment from the config tables
    /// (whole-clip jobs key as rung 0, segment 0).
    fn cache_key(&self, spec: &JobSpec) -> CacheKey {
        let id = spec.id as usize;
        CacheKey {
            video: spec.task.video.to_string(),
            preset: spec.task.preset.name().to_owned(),
            crf: spec.task.crf,
            refs: u32::from(spec.task.refs),
            rung: self.cfg.unit_rungs.get(id).copied().map_or(0, u32::from),
            seg: self.cfg.unit_segs.get(id).copied().unwrap_or(0),
        }
    }

    /// Consults the segment cache for a just-dispatched job. On a hit the
    /// transcode is skipped entirely: the driver bills only the returned
    /// lookup cost as service time. Returns `None` on a miss or with the
    /// cache disabled (misses are counted; disabled is free).
    pub(crate) fn cache_lookup(
        &mut self,
        job: &PendingJob,
        server: usize,
        now_us: u64,
    ) -> Option<u64> {
        self.cache.as_ref()?;
        let key = self.cache_key(&job.spec);
        let cache = self.cache.as_mut().expect("checked above");
        if cache.lookup(&key) {
            let lookup_us = cache.lookup_us();
            self.record(EventRecord::CacheHit {
                t: now_us,
                id: job.spec.id,
                server,
            });
            Some(lookup_us)
        } else {
            None
        }
    }

    /// Populates the cache after a job completed off the transcode path
    /// (never after a cache hit). `bytes_override` carries real encoder
    /// output when the driver has it; otherwise the unit-bytes table or a
    /// knob-based estimate sizes the entry. The entry's recompute cost is
    /// the port-refined prediction scaled to the unit's share of the clip,
    /// which is what the GDSF policy protects.
    pub(crate) fn cache_insert(
        &mut self,
        job: &PendingJob,
        server_idx: usize,
        bytes_override: Option<u64>,
    ) {
        if self.cache.is_none() {
            return;
        }
        let key = self.cache_key(&job.spec);
        let id = job.spec.id as usize;
        let bytes = bytes_override
            .or_else(|| self.cfg.unit_bytes.get(id).copied())
            .unwrap_or_else(|| 1_048_576 / (u64::from(job.spec.task.crf) + 4));
        let server = &self.fleet.servers()[server_idx];
        let full_cost = self.model.port_predicted_us(&job.spec, server);
        let cost_us = match self.cfg.unit_frames.get(id) {
            Some(&(frames, total)) if total > 0 => {
                let scaled = u128::from(full_cost) * u128::from(frames) / u128::from(total);
                (scaled as u64).max(1)
            }
            _ => full_cost,
        };
        let cache = self.cache.as_mut().expect("checked above");
        cache.insert(key, bytes, cost_us);
    }

    /// Jobs currently queued.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The chaos configuration (drivers read the plan and detector from it).
    pub(crate) fn chaos(&self) -> &ChaosConfig {
        &self.cfg.chaos
    }

    /// [`ServeConfig::cells`], for whoever builds the idle index.
    pub(crate) fn cells(&self) -> usize {
        self.cfg.cells
    }

    /// Detector belief per server, fleet order.
    pub(crate) fn health(&self) -> &[Health] {
        &self.health
    }

    /// Books a health or activation transition: bumps the cache epoch and
    /// re-derives the detected-up capacity over *active* servers in fleet
    /// order (bit-stable f64 sum; with the autoscaler disabled every
    /// server is active and the sum is the legacy one).
    fn on_health_transition(&mut self) {
        self.health_epoch += 1;
        self.up_capacity = self
            .health
            .iter()
            .zip(self.fleet.servers())
            .zip(&self.active)
            .filter(|((&h, _), &a)| h == Health::Up && a)
            .map(|((_, s), _)| s.speed)
            .sum();
    }

    /// Marks a server suspected (no-op unless it is currently `Up`).
    pub(crate) fn mark_suspected(&mut self, server: usize, now_us: u64) {
        if self.health[server] == Health::Up {
            self.health[server] = Health::Suspected;
            self.on_health_transition();
            self.record(EventRecord::Suspect {
                t: now_us,
                server,
                cause: Cause::HeartbeatMiss,
            });
        }
    }

    /// Marks a server down (no-op if already down).
    pub(crate) fn mark_down(&mut self, server: usize, now_us: u64) {
        if self.health[server] != Health::Down {
            self.health[server] = Health::Down;
            self.on_health_transition();
            self.record(EventRecord::Down {
                t: now_us,
                server,
                cause: Cause::HeartbeatMiss,
            });
        }
    }

    /// Advances the provisioned-capacity integral to `now_us`.
    fn cap_advance(&mut self, now_us: u64) {
        let dt = now_us.saturating_sub(self.cap_last_us);
        self.cap_integral += self.cap_now * dt as f64;
        self.cap_last_us = now_us;
    }

    /// Re-derives `cap_now` (Σ speed over active servers, fleet order so
    /// the f64 sum is bit-stable) and folds it into the peak.
    fn recompute_cap_now(&mut self) {
        self.cap_now = self
            .fleet
            .servers()
            .iter()
            .zip(&self.active)
            .filter(|(_, &a)| a)
            .map(|(s, _)| s.speed)
            .sum();
        self.cap_peak = self.cap_peak.max(self.cap_now);
    }

    /// Closes the server's open active span at `now_us`, crediting active
    /// time and alive time (active time clipped at the planned crash).
    fn close_active_span(&mut self, server: usize, now_us: u64) {
        if let Some(since) = self.active_since[server].take() {
            let end = now_us.max(since);
            self.active_us_acc[server] += end - since;
            let alive_end = self
                .cfg
                .chaos
                .plan
                .crash_us(server)
                .map_or(end, |c| c.min(end))
                .max(since);
            self.alive_us_acc[server] += alive_end - since;
        }
    }

    /// One autoscaler evaluation at `now_us`. Pure function of core state:
    /// compares queue backlog against detected-up capacity and commits
    /// scale-out (start warming a parked server) or scale-in (deactivate
    /// the highest-index active server) decisions. Returns the actions for
    /// the driver to act on — scheduling [`ServiceCore::server_ready`] at
    /// each `Out` action's `ready_us` and draining any job running on an
    /// `In` action's server through [`ServiceCore::fail`].
    pub(crate) fn autoscale_tick(&mut self, now_us: u64) -> Vec<ScaleAction> {
        let cfg = self.cfg.chaos.autoscale;
        if !cfg.enabled {
            return Vec::new();
        }
        let n = self.fleet.len();
        let max = cfg.max_servers.min(n).max(1);
        let min = cfg.min_servers.max(1).min(max);
        let capacity = self.up_capacity.max(0.0);
        let backlog = self.queue.len() as f64;
        let committed = self
            .active
            .iter()
            .zip(&self.warming)
            .filter(|(&a, &w)| a || w)
            .count();
        let mut actions = Vec::new();
        if backlog > cfg.backlog_high * capacity && committed < max {
            let mut launched = 0usize;
            for s in 0..n {
                if launched >= cfg.step.max(1) || committed + launched >= max {
                    break;
                }
                if self.active[s] || self.warming[s] || self.health[s] == Health::Down {
                    continue;
                }
                self.warming[s] = true;
                let ready_us = now_us.saturating_add(cfg.warmup_delay_us(self.model.seed, s));
                self.scale_outs += 1;
                self.record(EventRecord::ScaleOut {
                    t: now_us,
                    server: s,
                    ready_us,
                });
                actions.push(ScaleAction::Out {
                    server: s,
                    ready_us,
                });
                launched += 1;
            }
        } else if backlog < cfg.backlog_low * capacity && committed > min {
            let mut dropped = 0usize;
            for s in (0..n).rev() {
                if dropped >= cfg.step.max(1) || committed - dropped <= min {
                    break;
                }
                if !self.active[s] {
                    continue;
                }
                self.cap_advance(now_us);
                self.close_active_span(s, now_us);
                self.active[s] = false;
                self.recompute_cap_now();
                self.on_health_transition();
                self.scale_ins += 1;
                self.record(EventRecord::ScaleIn {
                    t: now_us,
                    server: s,
                });
                actions.push(ScaleAction::In { server: s });
                dropped += 1;
            }
        }
        actions
    }

    /// Finishes a scale-out's warm-up: the server becomes active (and
    /// dispatchable) unless it died while warming. Returns whether it
    /// activated, so the driver knows to mark it idle.
    pub(crate) fn server_ready(&mut self, server: usize, now_us: u64) -> bool {
        self.warming[server] = false;
        if self.active[server] {
            return true;
        }
        if self.health[server] == Health::Down {
            return false;
        }
        self.cap_advance(now_us);
        self.active[server] = true;
        self.active_since[server] = Some(now_us);
        self.recompute_cap_now();
        self.on_health_transition();
        true
    }

    /// Books one injected fault (the driver calls this when a planned fault
    /// actually fires).
    pub(crate) fn record_fault(&mut self, server: usize, kind: FaultKind, now_us: u64) {
        self.record(EventRecord::Fault {
            t: now_us,
            server,
            kind,
        });
    }

    /// Recovers an in-flight job off a server declared down: the attempt is
    /// charged against the retry budget (the work is lost) but the dead
    /// server is *not* billed busy time for it. The job rejoins the front
    /// of its class queue if budget and deadline allow.
    pub(crate) fn fail(&mut self, job: PendingJob, server: usize, started_us: u64, now_us: u64) {
        self.requeued += 1;
        self.lost_spans.push(now_us.saturating_sub(started_us));
        self.obs.on_requeue(now_us, job.spec.id, server);
        self.record(EventRecord::Requeue {
            t: now_us,
            id: job.spec.id,
            server,
            attempt: job.attempts,
        });
        self.breaker_note_failure(server, now_us);
        self.retry_or_shed(job, true, now_us);
    }

    /// What happens to a job whose attempt was lost (`front`: requeued off
    /// a lost server) or timed out: shed when the retry budget or the
    /// deadline is spent; otherwise back through admission — at once, or,
    /// with backoff enabled, parked for a seeded delay instead of storming
    /// straight back.
    fn retry_or_shed(&mut self, job: PendingJob, front: bool, now_us: u64) {
        if job.attempts > self.cfg.max_retries {
            return self.shed_job(&job, ShedReason::RetriesExhausted, now_us);
        }
        if job.spec.deadline_us <= now_us {
            return self.shed_job(&job, ShedReason::Expired, now_us);
        }
        let backoff = self.cfg.chaos.backoff;
        match backoff.delay_us(self.model.seed, job.spec.id, job.attempts.max(1)) {
            Some(delay_us) => self.park(job, front, now_us, delay_us),
            None => self.readmit(job, front, now_us),
        }
    }

    /// Re-offers a job the queue has held before: requeue-path jobs rejoin
    /// the front of their class queue (they already waited their turn
    /// once), timeout-path jobs the back.
    fn readmit(&mut self, job: PendingJob, front: bool, now_us: u64) {
        let admission = if front {
            self.queue.offer_front(job)
        } else {
            self.queue.offer(job)
        };
        match admission {
            Admission::Admitted => {}
            Admission::AdmittedDisplacing(victim) => {
                self.shed_job(&victim, ShedReason::Displaced, now_us);
            }
            Admission::Refused(job) => self.shed_job(&job, ShedReason::QueueFull, now_us),
        }
    }

    /// Parks a job under backoff; it re-enters admission when
    /// [`ServiceCore::release_parked`] passes its due instant.
    fn park(&mut self, job: PendingJob, front: bool, now_us: u64, delay_us: u64) {
        let due = now_us.saturating_add(delay_us);
        self.record(EventRecord::Backoff {
            t: now_us,
            id: job.spec.id,
            delay_us,
        });
        self.parked.insert((due, job.spec.id), (job, front));
    }

    /// The earliest instant a parked job becomes due (`None` = nothing
    /// parked). Drivers schedule their release wake-up from this.
    pub(crate) fn next_parked_due(&self) -> Option<u64> {
        self.parked.keys().next().map(|&(due, _)| due)
    }

    /// Jobs currently parked under backoff.
    pub(crate) fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Re-admits every parked job whose delay has elapsed, due order —
    /// the same admission rules as the immediate path, just later.
    pub(crate) fn release_parked(&mut self, now_us: u64) {
        while let Some(&(due, id)) = self.parked.keys().next() {
            if due > now_us {
                break;
            }
            let (job, front) = self.parked.remove(&(due, id)).expect("key just observed");
            if job.spec.deadline_us <= now_us {
                self.shed_job(&job, ShedReason::Expired, now_us);
            } else {
                self.readmit(job, front, now_us);
            }
        }
    }

    /// Books one requeue/timeout against the server's circuit breaker and
    /// trips it after the configured run of consecutive failures.
    fn breaker_note_failure(&mut self, server: usize, now_us: u64) {
        let cfg = self.cfg.chaos.breaker;
        if !cfg.enabled {
            return;
        }
        self.breaker_fails[server] += 1;
        if self.breaker_fails[server] >= cfg.failures && self.breaker_until[server] <= now_us {
            let until = now_us.saturating_add(cfg.open_us);
            self.breaker_until[server] = until;
            self.open_breakers.push(server);
            self.breaker_fails[server] = 0;
            self.record(EventRecord::Breaker {
                t: now_us,
                server,
                until_us: until,
            });
        }
    }

    /// Whether a server may take new work at `now_us`: not detected down,
    /// active under the autoscaler, and not held out by an open breaker.
    /// Servers failing this are kept out of the idle index, so no policy
    /// ever sees them.
    pub(crate) fn takes_work(&self, server: usize, now_us: u64) -> bool {
        self.health[server] != Health::Down
            && self.active[server]
            && self.breaker_until[server] <= now_us
    }

    /// Drains the servers whose breaker open window has elapsed by
    /// `now_us`, for the idle index to take back.
    pub(crate) fn closed_breakers(&mut self, now_us: u64) -> Vec<usize> {
        let (closed, open) = std::mem::take(&mut self.open_breakers)
            .into_iter()
            .partition(|&s| self.breaker_until[s] <= now_us);
        self.open_breakers = open;
        closed
    }

    /// Books a hedged duplicate dispatch (the driver schedules the copy).
    pub(crate) fn hedge_dispatch(&mut self, job: &PendingJob, server: usize, now_us: u64) {
        self.hedges_launched += 1;
        self.obs.on_hedge(now_us, job.spec.id, server);
        self.record(EventRecord::Hedge {
            t: now_us,
            id: job.spec.id,
            server,
        });
        self.assignments.push((job.spec.id, server));
    }

    /// Books a hedge copy of job `id` whose work was discarded (the other
    /// copy won, or both attempts timed out). The server still did the
    /// work, so it is billed busy time.
    pub(crate) fn hedge_discard(&mut self, id: u64, server: usize, started_us: u64, now_us: u64) {
        self.server_busy_us[server] += now_us.saturating_sub(started_us);
        self.hedges_wasted += 1;
        self.obs.on_hedge_discard(now_us, id, server);
    }

    /// Books a completion that was won by the hedge copy, not the original.
    pub(crate) fn note_hedge_won(&mut self) {
        self.hedges_won += 1;
    }

    /// Sheds everything still queued. Called by drivers when the whole
    /// fleet is down and nothing can ever be served again, so every
    /// admitted job still reaches a terminal state.
    pub(crate) fn shed_stranded(&mut self, now_us: u64) {
        for job in self.queue.drain_all() {
            self.shed_job(&job, ShedReason::Expired, now_us);
        }
        // Parked (backed-off) jobs are equally stranded: without this
        // drain they would never reach a terminal state and the obs
        // conservation check would flag them as leaked.
        let parked: Vec<PendingJob> = std::mem::take(&mut self.parked)
            .into_values()
            .map(|(job, _)| job)
            .collect();
        for job in parked {
            self.shed_job(&job, ShedReason::Expired, now_us);
        }
    }

    fn record(&mut self, ev: EventRecord) {
        if self.cfg.collect_event_log {
            self.log.push(ev);
        }
    }

    fn shed_job(&mut self, job: &PendingJob, reason: ShedReason, now_us: u64) {
        self.shed[reason as usize] += 1;
        if !self.shed_by_tenant.is_empty() {
            let n = self.shed_by_tenant.len();
            self.shed_by_tenant[crate::workload::tenant_of(job.spec.id, n)] += 1;
        }
        if !self.shed_by_rung.is_empty() {
            let rung = self
                .cfg
                .unit_rungs
                .get(job.spec.id as usize)
                .copied()
                .unwrap_or(0);
            let slot = usize::from(rung).min(self.shed_by_rung.len() - 1);
            self.shed_by_rung[slot] += 1;
        }
        let alert = self.obs.on_shed(
            now_us,
            job.spec.id,
            job.spec.priority.index(),
            reason.name(),
        );
        self.record(EventRecord::Shed {
            t: now_us,
            id: job.spec.id,
            reason,
        });
        if let Some(tr) = alert {
            self.record_alert(tr);
        }
    }

    /// Offers an arriving job to admission control.
    pub(crate) fn offer(&mut self, spec: JobSpec, now_us: u64) {
        self.offered += 1;
        let id = spec.id;
        let class = spec.priority;
        self.obs.on_arrive(now_us, id);
        self.record(EventRecord::Arrive { t: now_us, id });
        let job = PendingJob {
            spec,
            admitted_us: now_us,
            attempts: 0,
        };
        // Per-tenant token bucket: an over-quota tenant's job is shed
        // before it can occupy queue space or displace anyone else's work.
        if let Some(buckets) = &mut self.buckets {
            let tenant = crate::workload::tenant_of(id, buckets.cfg.n_tenants);
            if !buckets.admit(tenant, now_us) {
                self.shed_job(&job, ShedReason::Throttled, now_us);
                return;
            }
        }
        match self.queue.offer(job) {
            Admission::Admitted => {
                self.obs.on_admit(now_us, id, class.index());
                self.record(EventRecord::Admit {
                    t: now_us,
                    id,
                    class,
                });
            }
            Admission::AdmittedDisplacing(victim) => {
                self.obs.on_admit(now_us, id, class.index());
                self.record(EventRecord::Admit {
                    t: now_us,
                    id,
                    class,
                });
                self.shed_job(&victim, ShedReason::Displaced, now_us);
            }
            Admission::Refused(job) => {
                self.shed_job(&job, ShedReason::QueueFull, now_us);
            }
        }
    }

    /// Runs one dispatch round: expire stale jobs, show the policy the
    /// front of the queue and the idle servers, and commit its choices.
    /// Returns `(job, server index)` pairs for the driver to start. `idle`
    /// must hold only servers that may take work — down, deactivated and
    /// breaker-open servers stay out of it (see [`crate::inflight`]).
    pub(crate) fn dispatch(&mut self, idle: &IdleIndex, now_us: u64) -> Vec<(PendingJob, usize)> {
        let level = self.pre_dispatch(now_us);
        if idle.total() == 0 || self.queue.is_empty() {
            return Vec::new();
        }
        let picks: Vec<(u64, usize)> = {
            let candidates = self.queue.candidates(CANDIDATE_WINDOW);
            let ctx = DispatchCtx {
                fleet: &self.fleet,
                classes: &self.classes,
                model: &self.model,
                now_us,
                health: &self.health,
                health_epoch: self.health_epoch,
            };
            self.policy
                .assign(&candidates, idle, &ctx)
                .into_iter()
                .map(|(job_pos, server)| (candidates[job_pos].spec.id, server))
                .collect()
        };
        // Commit the picks: pull each job out of the queue, apply the
        // degrade ladder's preset downgrade, and book the dispatch.
        let mut started = Vec::with_capacity(picks.len());
        for (id, server) in picks {
            // A policy returning stale or duplicate ids is a bug; skip
            // rather than poison the run.
            let Some(mut job) = self.queue.take(id) else {
                continue;
            };
            job.attempts += 1;
            if job.attempts > 1 {
                self.retries += 1;
            }
            if level > 0 {
                let from = job.spec.task.preset;
                let to = downgrade(from, level);
                if to != from {
                    job.spec.task = job.spec.task.clone().with_preset(to);
                    self.degraded_jobs += 1;
                }
            }
            self.obs.on_dispatch(now_us, id, server, job.attempts);
            self.record(EventRecord::Dispatch {
                t: now_us,
                id,
                server,
                attempt: job.attempts,
            });
            self.assignments.push((id, server));
            started.push((job, server));
        }
        started
    }

    /// Dispatch preamble: expire stale jobs and feed the degradation
    /// ladder. Returns the (possibly stepped) degrade level.
    fn pre_dispatch(&mut self, now_us: u64) -> u8 {
        for victim in self.queue.drop_expired(now_us) {
            self.shed_job(&victim, ShedReason::Expired, now_us);
        }
        // Feed the degradation ladder: backlog vs detected-up capacity.
        // A disabled ladder (the default) never leaves level 0, so the
        // legacy path is untouched.
        let prev_level = self.ladder.level();
        let level = self.ladder.observe(self.queue.len(), self.up_capacity);
        if level != prev_level {
            // A preset downgrade changes what a dispatch costs, so cached
            // predictions must not outlive the step.
            self.health_epoch += 1;
            // Attribute the step: if an SLO burn-rate alert is firing the
            // ladder is reacting to burn, otherwise to raw backlog.
            let cause = if self.obs.alert_firing() {
                Cause::SloBurn
            } else {
                Cause::BacklogPressure
            };
            self.record(EventRecord::Degrade {
                t: now_us,
                level,
                cause,
            });
            self.peak_degrade = self.peak_degrade.max(level);
        }
        level
    }

    /// Books a finished job: `started_us` is when the dispatch began.
    pub(crate) fn complete(
        &mut self,
        job: &PendingJob,
        server: usize,
        started_us: u64,
        now_us: u64,
    ) {
        self.server_busy_us[server] += now_us.saturating_sub(started_us);
        self.server_jobs[server] += 1;
        // A success closes the breaker's consecutive-failure run.
        self.breaker_fails[server] = 0;
        self.completed += 1;
        let sojourn = now_us.saturating_sub(job.spec.arrival_us);
        let violation = now_us > job.spec.deadline_us;
        if violation {
            self.violations += 1;
        }
        self.sojourns.push(sojourn);
        self.sojourns_by_class[job.spec.priority.index()].push(sojourn);
        let alert = self.obs.on_complete(
            now_us,
            job.spec.id,
            server,
            job.spec.priority.index(),
            sojourn,
            violation,
        );
        self.record(EventRecord::Complete {
            t: now_us,
            id: job.spec.id,
            server,
            sojourn_us: sojourn,
            violation,
        });
        if let Some(tr) = alert {
            self.record_alert(tr);
        }
    }

    /// Books a timed-out dispatch attempt. The job goes back through
    /// admission if it has retry budget left; otherwise it is shed.
    pub(crate) fn timeout(&mut self, job: PendingJob, server: usize, started_us: u64, now_us: u64) {
        self.server_busy_us[server] += now_us.saturating_sub(started_us);
        self.obs.on_timeout(now_us, job.spec.id, server);
        self.record(EventRecord::Timeout {
            t: now_us,
            id: job.spec.id,
            server,
            attempt: job.attempts,
        });
        self.breaker_note_failure(server, now_us);
        self.retry_or_shed(job, false, now_us);
    }

    /// The `(job id, server)` sequence committed so far, dispatch order.
    pub(crate) fn assignments(&self) -> &[(u64, usize)] {
        &self.assignments
    }

    /// Finalizes the run into a report, the event log and the finalized
    /// observability plane (stranded job spans closed), so drivers can
    /// export traces, live quantiles and the alert stream; `makespan_us` is
    /// the timestamp of the last event the driver processed.
    pub(crate) fn finish(
        mut self,
        seed: u64,
        makespan_us: u64,
    ) -> (ServingReport, Vec<EventRecord>, ObsPlane) {
        self.obs.on_finish(makespan_us);
        let makespan_secs = makespan_us as f64 / 1e6;
        let throughput = if makespan_us == 0 {
            0.0
        } else {
            self.completed as f64 / makespan_secs
        };
        let servers = self
            .fleet
            .servers()
            .iter()
            .enumerate()
            .map(|(i, s)| ServerStats {
                name: s.name.clone(),
                jobs: self.server_jobs[i],
                busy_us: self.server_busy_us[i],
                utilization: if makespan_us == 0 {
                    0.0
                } else {
                    self.server_busy_us[i] as f64 / makespan_us as f64
                },
            })
            .collect();
        // Availability: fraction of provisioned server-time the fleet was
        // actually alive. A server that crashes at 30% of the run
        // contributes 0.3; with no crashes (or a zero-length run)
        // availability is 1.0. Without the autoscaler every server's active
        // span is [0, makespan]; under it the denominator is the union of
        // each server's active spans, not n·makespan — a parked server is
        // neither available nor unavailable, it just isn't paid for.
        let autoscale_on = self.cfg.chaos.autoscale.enabled;
        self.cap_advance(makespan_us);
        for s in 0..self.fleet.len() {
            self.close_active_span(s, makespan_us);
        }
        let active_total: u64 = self.active_us_acc.iter().sum();
        let alive_total: u64 = self.alive_us_acc.iter().sum();
        let availability = if active_total == 0 {
            1.0
        } else {
            alive_total as f64 / active_total as f64
        };
        let scale = if autoscale_on {
            Some(ScaleStats {
                scale_outs: self.scale_outs,
                scale_ins: self.scale_ins,
                peak_capacity_milli: (self.cap_peak * 1000.0).round() as u64,
                served_capacity_milli: if makespan_us == 0 {
                    0
                } else {
                    (self.cap_integral / makespan_us as f64 * 1000.0).round() as u64
                },
                active_server_us: active_total,
            })
        } else {
            None
        };
        let goodput = if makespan_us == 0 {
            0.0
        } else {
            self.completed.saturating_sub(self.violations) as f64 / makespan_secs
        };
        let mttr_us = if self.lost_spans.is_empty() {
            0
        } else {
            let sum: u128 = self.lost_spans.iter().map(|&v| u128::from(v)).sum();
            (sum / self.lost_spans.len() as u128) as u64
        };
        let plan_counts = self.cfg.chaos.plan.counts();
        let faults = FaultAccounting {
            crashes: plan_counts.crashes,
            slowdowns: plan_counts.slowdowns,
            stalls: plan_counts.stalls,
            requeued: self.requeued,
            hedges_launched: self.hedges_launched,
            hedges_won: self.hedges_won,
            hedges_wasted: self.hedges_wasted,
            degraded_jobs: self.degraded_jobs,
            peak_degrade_level: self.peak_degrade,
        };
        let report = ServingReport {
            policy: self.policy.name().to_owned(),
            seed,
            offered: self.offered,
            completed: self.completed,
            slo_violations: self.violations,
            shed: self.shed,
            retries: self.retries,
            makespan_us,
            throughput_jps: throughput,
            availability,
            goodput_jps: goodput,
            mttr_us,
            faults,
            sojourn: LatencyStats::from_samples(&self.sojourns),
            sojourn_by_class: [
                LatencyStats::from_samples(&self.sojourns_by_class[0]),
                LatencyStats::from_samples(&self.sojourns_by_class[1]),
                LatencyStats::from_samples(&self.sojourns_by_class[2]),
            ],
            servers,
            segments: None,
            cache: self.cache.as_ref().map(|c| c.stats()),
            shed_by_rung: self.shed_by_rung,
            shed_by_tenant: self.shed_by_tenant,
            scale,
        };
        (report, self.log, self.obs)
    }
}

/// Renders an event log as deterministic text, one line per event.
pub fn render_event_log(log: &[EventRecord]) -> String {
    let mut out = String::with_capacity(log.len() * 48);
    for ev in log {
        out.push_str(&ev.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RoundRobinPolicy;
    use crate::workload::WorkloadSpec;

    /// Table IV's five servers with exactly `servers` idle.
    fn idle(servers: &[usize]) -> IdleIndex {
        crate::cells::idle_only(5, servers)
    }

    fn core_with(cfg: ServeConfig) -> ServiceCore {
        ServiceCore::new(
            cfg,
            Fleet::table_iv(),
            CostModel::new(7),
            Box::new(RoundRobinPolicy::new()),
        )
    }

    fn spec_jobs(n: usize) -> Vec<JobSpec> {
        let mut w = WorkloadSpec::smoke(7);
        w.jobs = n;
        w.generate().unwrap()
    }

    #[test]
    fn offer_dispatch_complete_roundtrip() {
        let mut core = core_with(ServeConfig::default());
        let jobs = spec_jobs(3);
        for j in &jobs {
            core.offer(j.clone(), j.arrival_us);
        }
        assert_eq!(core.queued(), 3);
        let started = core.dispatch(&idle(&[0, 1, 2, 3, 4]), 1_000_000);
        assert_eq!(started.len(), 3);
        assert_eq!(core.queued(), 0);
        for (job, server) in &started {
            core.complete(job, *server, 1_000_000, 1_500_000);
        }
        let (report, log, _) = core.finish(7, 1_500_000);
        assert_eq!(report.offered, 3);
        assert_eq!(report.completed, 3);
        assert_eq!(report.sojourn.count, 3);
        assert!(log
            .iter()
            .any(|e| matches!(e, EventRecord::Complete { .. })));
        // 3 arrivals + 3 admits + 3 dispatches + 3 completes.
        assert_eq!(log.len(), 12);
    }

    #[test]
    fn timeout_requeues_then_exhausts() {
        let mut core = core_with(ServeConfig {
            max_retries: 1,
            ..ServeConfig::default()
        });
        let jobs = spec_jobs(1);
        core.offer(jobs[0].clone(), 0);
        let started = core.dispatch(&idle(&[0]), 10);
        let (job, server) = started.into_iter().next().unwrap();
        assert_eq!(job.attempts, 1);
        core.timeout(job, server, 10, 20);
        assert_eq!(core.queued(), 1, "first timeout re-queues");
        let started = core.dispatch(&idle(&[1]), 30);
        let (job, server) = started.into_iter().next().unwrap();
        assert_eq!(job.attempts, 2);
        core.timeout(job, server, 30, 40);
        assert_eq!(core.queued(), 0, "retry budget spent");
        let (report, _, _) = core.finish(7, 40);
        assert_eq!(report.shed[ShedReason::RetriesExhausted as usize], 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn late_completion_counts_as_violation() {
        let mut core = core_with(ServeConfig::default());
        let mut jobs = spec_jobs(1);
        jobs[0].deadline_us = 5;
        core.offer(jobs[0].clone(), 0);
        let started = core.dispatch(&idle(&[0]), 1);
        let (job, server) = started.into_iter().next().unwrap();
        core.complete(&job, server, 1, 100);
        let (report, _, _) = core.finish(7, 100);
        assert_eq!(report.slo_violations, 1);
        assert!(report.violation_rate() > 0.99);
    }

    #[test]
    fn expired_jobs_are_shed_at_dispatch() {
        let mut core = core_with(ServeConfig::default());
        let mut jobs = spec_jobs(2);
        jobs[0].deadline_us = 5;
        jobs[1].deadline_us = u64::MAX;
        for j in &jobs {
            core.offer(j.clone(), 0);
        }
        let started = core.dispatch(&idle(&[0]), 10);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].0.spec.id, jobs[1].id);
        let (report, _, _) = core.finish(7, 10);
        assert_eq!(report.shed[ShedReason::Expired as usize], 1);
    }

    #[test]
    fn event_log_can_be_disabled() {
        let mut core = core_with(ServeConfig {
            collect_event_log: false,
            ..ServeConfig::default()
        });
        let jobs = spec_jobs(2);
        for j in &jobs {
            core.offer(j.clone(), j.arrival_us);
        }
        assert!(core.log.is_empty());
        let (report, log, _) = core.finish(7, 100);
        assert!(log.is_empty());
        assert_eq!(report.offered, 2);
    }

    #[test]
    fn render_event_log_is_line_per_event() {
        let mut core = core_with(ServeConfig::default());
        let jobs = spec_jobs(1);
        core.offer(jobs[0].clone(), 0);
        let text = render_event_log(&core.log);
        assert_eq!(text.lines().count(), 2); // arrive + admit
        assert!(text.contains("arrive"));
        assert!(text.contains("admit"));
    }

    #[test]
    fn token_buckets_throttle_over_quota_tenants_fairly() {
        // Tenant 0 (even ids): zero refill, one-job burst. Tenant 1 (odd
        // ids): 1 job/s refill, one-job burst.
        let cfg = ServeConfig {
            tenants: Some(TenantAdmissionConfig {
                n_tenants: 2,
                rate_milli_per_s: vec![0, 1_000],
                burst_milli: 1_000,
            }),
            ..ServeConfig::default()
        };
        let mut core = core_with(cfg);
        let jobs = spec_jobs(8);
        for j in jobs.iter().take(6) {
            core.offer(j.clone(), 0);
        }
        // Each tenant's burst admits one job; the rest are throttled.
        assert_eq!(core.queued(), 2);
        // Tenant 0 never refills; tenant 1 has a fresh token after 1 s.
        core.offer(jobs[6].clone(), 2_000_000); // id 6, tenant 0
        core.offer(jobs[7].clone(), 2_000_000); // id 7, tenant 1
        assert_eq!(core.queued(), 3);
        let (report, log, _) = core.finish(7, 2_000_000);
        assert_eq!(report.shed[ShedReason::Throttled as usize], 5);
        assert_eq!(report.shed_by_tenant, vec![3, 2]);
        assert!(render_event_log(&log).contains("reason=throttled"));
    }

    #[test]
    fn backoff_parks_requeued_jobs_and_releases_them_on_time() {
        let cfg = ServeConfig {
            max_retries: 10,
            chaos: ChaosConfig {
                backoff: crate::chaos::BackoffConfig {
                    base_us: 10_000,
                    cap_us: 1_000_000,
                    jitter_milli: 500,
                },
                ..ChaosConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut core = core_with(cfg);
        let jobs = spec_jobs(1);
        core.offer(jobs[0].clone(), 0);
        let (job, server) = core.dispatch(&idle(&[0]), 10).into_iter().next().unwrap();
        core.fail(job, server, 10, 1_000);
        assert_eq!(core.queued(), 0, "requeue parks instead of re-admitting");
        assert_eq!(core.parked_count(), 1);
        let due = core.next_parked_due().unwrap();
        assert!(due > 1_000, "parked strictly into the future");
        core.release_parked(due - 1);
        assert_eq!(core.parked_count(), 1, "not due yet");
        core.release_parked(due);
        assert_eq!(core.parked_count(), 0);
        assert_eq!(core.queued(), 1, "released job rejoins admission");
        let (_, log, _) = core.finish(7, due);
        assert!(render_event_log(&log).contains("backoff"));
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_reopens() {
        let cfg = ServeConfig {
            max_retries: 10,
            chaos: ChaosConfig {
                breaker: crate::chaos::BreakerConfig {
                    enabled: true,
                    failures: 2,
                    open_us: 1_000_000,
                },
                ..ChaosConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut core = core_with(cfg);
        let jobs = spec_jobs(1);
        core.offer(jobs[0].clone(), 0);
        let mut t = 10;
        for _ in 0..2 {
            let (job, server) = core.dispatch(&idle(&[0]), t).into_iter().next().unwrap();
            assert_eq!(server, 0);
            core.fail(job, server, t, t + 5);
            t += 10;
        }
        let log = render_event_log(&core.log);
        assert!(log.contains("breaker"), "two consecutive fails trip it");
        assert!(
            !core.takes_work(0, t) && core.closed_breakers(t).is_empty(),
            "an open breaker holds the server out of dispatch"
        );
        let after = t + 1_000_000;
        assert_eq!(core.closed_breakers(after), vec![0]);
        assert!(
            core.takes_work(0, after) && core.closed_breakers(after).is_empty(),
            "the breaker re-admits the server, once, after open_us"
        );
    }

    #[test]
    fn autoscale_grows_under_backlog_and_shrinks_when_idle() {
        let autoscale = crate::chaos::AutoscaleConfig {
            enabled: true,
            min_servers: 1,
            max_servers: 3,
            eval_every_us: 100_000,
            warmup_us: 50_000,
            warmup_jitter_milli: 0,
            backlog_high: 1.0,
            backlog_low: 0.5,
            step: 1,
        };
        let cfg = ServeConfig {
            chaos: ChaosConfig {
                autoscale,
                ..ChaosConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut core = core_with(cfg);
        assert!(core.takes_work(0, 0) && !core.takes_work(1, 0));
        let jobs = spec_jobs(5);
        for j in &jobs {
            core.offer(j.clone(), 0);
        }
        // Backlog 5 over capacity 0.9 → scale out one server per tick.
        let a1 = core.autoscale_tick(100_000);
        assert_eq!(
            a1,
            vec![ScaleAction::Out {
                server: 1,
                ready_us: 150_000
            }],
            "zero jitter makes ready_us exactly tick + warmup"
        );
        let a2 = core.autoscale_tick(200_000);
        assert!(matches!(a2[..], [ScaleAction::Out { server: 2, .. }]));
        assert!(
            core.autoscale_tick(300_000).is_empty(),
            "committed reached max_servers"
        );
        assert!(core.server_ready(1, 150_000));
        assert!(core.server_ready(2, 250_000));
        // Drain the queue; an idle over-provisioned fleet scales back in,
        // highest index first, never below min_servers.
        let started = core.dispatch(&idle(&[0, 1, 2]), 300_000);
        assert!(started.len() >= 2, "activated servers take work");
        for (job, server) in started {
            core.complete(&job, server, 300_000, 310_000);
        }
        while core.queued() > 0 {
            for (job, server) in core.dispatch(&idle(&[0, 1, 2]), 320_000) {
                core.complete(&job, server, 320_000, 330_000);
            }
        }
        let i1 = core.autoscale_tick(400_000);
        assert_eq!(i1, vec![ScaleAction::In { server: 2 }]);
        let i2 = core.autoscale_tick(500_000);
        assert_eq!(i2, vec![ScaleAction::In { server: 1 }]);
        assert!(core.autoscale_tick(600_000).is_empty(), "min_servers floor");
        let (report, log, _) = core.finish(7, 700_000);
        let scale = report.scale.expect("autoscale stats exported");
        assert_eq!(scale.scale_outs, 2);
        assert_eq!(scale.scale_ins, 2);
        // Peak = servers 0+1+2 of Table IV: 0.9 + 1.0 + 1.05.
        assert_eq!(scale.peak_capacity_milli, 2_950);
        assert!(scale.served_capacity_milli <= scale.peak_capacity_milli);
        assert!(scale.active_server_us > 0);
        assert_eq!(report.availability, 1.0, "no crashes, fully alive");
        let text = render_event_log(&log);
        assert!(text.contains("scaleout server=1 ready_us=150000"));
        assert!(text.contains("scalein  server=2"));
    }
}
