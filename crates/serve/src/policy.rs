//! Online dispatch policies: the Figure 9 trio, re-posed for serving.
//!
//! The paper's schedulers assign a *static batch* one-to-one; an online
//! dispatcher repeatedly faces a smaller problem — the currently queued
//! candidates versus the currently idle servers — every time an arrival or
//! completion changes the state. All policies implement one trait so the
//! discrete-event engine and the real threaded executor drive them through
//! the same code path.
//!
//! There is one dispatch surface, [`DispatchPolicy::assign`], over the
//! incremental [`IdleIndex`], at every fleet size, and one assignment
//! solver under the model-driven policies: the exact rectangular Hungarian,
//! whose cost follows the matrix it is given (a round never has more rows
//! than the queue's candidate window). The baselines sample the index's
//! Fenwick tree directly. The model-driven policies choose only the
//! *routing* from the fleet size they observe: below
//! [`XL_FLEET_THRESHOLD`] servers one solve over the whole idle set; from
//! the threshold up each candidate is routed to one of two
//! consistent-hashed cells (power-of-two-choices on idle capacity) and the
//! same solve runs *within* each chosen cell, so nothing is O(fleet). A
//! solve with one row needs no solver: the cheapest (class, suspected)
//! group's lowest idle server is the pick the Hungarian would return (see
//! [`SmartPolicy`]).
//!
//! The model-driven policies also memoize predictions: the cost model is a
//! pure function of (task parameters, server class), so each task owns one
//! row of base prices indexed by class, priced for every class when the
//! task is first seen and invalidated wholesale on any Suspect/Down/Degrade
//! transition (the epoch bump in [`DispatchCtx::health_epoch`]). The
//! server → class map is the run's, not the policy's
//! ([`DispatchCtx::classes`]), and the cost matrix, the idle list, the
//! group firsts, the cell routing and the solver's state are buffers the
//! policy keeps: a round in steady state allocates only the pick list it
//! returns.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vtx_chaos::Health;

use crate::cells::{IdleIndex, XL_FLEET_THRESHOLD};
use crate::cost::{preset_rank, CostModel};
use crate::fleet::Fleet;
use crate::queue::PendingJob;
use crate::rng::SplitMix64;
use vtx_sched::hungarian::Solver;

/// Cost multiplier the model-driven policies apply to servers the failure
/// detector currently suspects: high enough that a suspected server is only
/// chosen when nothing healthy is idle, low enough that the assignment
/// matrix stays well-conditioned.
const SUSPECT_PENALTY: f64 = 64.0;

/// Server → class: servers with identical (uarch, speed) — the only inputs
/// the cost model reads — share a class, so a prediction made for one
/// prices them all. Built once per run by whoever owns the fleet
/// (`crate::service::ServiceCore::new`) and lent to policies through
/// [`DispatchCtx::classes`].
#[derive(Debug, Clone)]
pub struct ClassMap {
    /// Process-unique identity: what a policy keeps to notice that the map
    /// it priced under is not the one it is handed now. Identity, not
    /// content — two maps of equal fleets differ, which costs a policy
    /// reused across them one refill of its memo.
    id: u64,
    class_of: Vec<u16>,
    /// The first server of each class: what a class is priced on.
    reps: Vec<usize>,
}

impl ClassMap {
    /// Classes of `fleet`, numbered in order of first appearance.
    pub fn of(fleet: &Fleet) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mut ids: BTreeMap<(&str, u64), u16> = BTreeMap::new();
        let mut reps = Vec::new();
        let class_of = fleet
            .servers()
            .iter()
            .enumerate()
            .map(|(s, sv)| {
                let key = (sv.uarch.name.as_str(), sv.speed.to_bits());
                let next = ids.len() as u16;
                *ids.entry(key).or_insert_with(|| {
                    reps.push(s);
                    next
                })
            })
            .collect();
        ClassMap {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            class_of,
            reps,
        }
    }

    /// The class of server `s`.
    fn class_of(&self, s: usize) -> usize {
        usize::from(self.class_of[s])
    }

    /// Number of distinct classes.
    fn n_classes(&self) -> usize {
        self.reps.len()
    }

    /// The first of `servers` (ascending) in each (class, `flag`) group:
    /// slot `2 × class + flag` of `firsts`, `usize::MAX` where the group
    /// is empty. Servers of one group are interchangeable to anything that
    /// prices by class, so a minimum over these firsts, ties to the lower
    /// server, is the first minimum over all of `servers`.
    pub(crate) fn first_of_each(
        &self,
        servers: impl IntoIterator<Item = usize>,
        flag: impl Fn(usize) -> bool,
        firsts: &mut Vec<usize>,
    ) {
        firsts.clear();
        firsts.resize(2 * self.n_classes(), usize::MAX);
        for s in servers {
            let slot = &mut firsts[2 * self.class_of(s) + usize::from(flag(s))];
            if *slot == usize::MAX {
                *slot = s;
            }
        }
    }
}

/// Everything a policy may look at when assigning.
#[derive(Debug)]
pub struct DispatchCtx<'a> {
    /// The fleet (server specs, speeds, uarch kinds).
    pub fleet: &'a Fleet,
    /// The fleet's server classes.
    pub classes: &'a ClassMap,
    /// The throughput model (predictions only — truth is engine-private).
    pub model: &'a CostModel,
    /// Current time in microseconds.
    pub now_us: u64,
    /// Failure-detector view per server, fleet order. `Down` servers never
    /// appear in the idle set; `Suspected` ones do, and it is up to each
    /// policy whether to care — the blind baselines (random, round-robin)
    /// keep throwing work at suspects, which is exactly the behavior the
    /// faulted study measures them on.
    pub health: &'a [Health],
    /// Monotone counter bumped by the service on every Suspect/Down/Degrade
    /// transition. Policies may cache anything derived from `health` or the
    /// degrade ladder for as long as this value holds still.
    pub health_epoch: u64,
}

impl DispatchCtx<'_> {
    /// Whether the detector suspects `server` (out-of-range indices count
    /// as up, for bare test contexts).
    fn suspected(&self, server: usize) -> bool {
        self.health.get(server) == Some(&Health::Suspected)
    }

    /// `base` cost inflated by [`SUSPECT_PENALTY`] when `server` is
    /// suspected.
    fn penalized(&self, base: f64, server: usize) -> f64 {
        if self.suspected(server) {
            base * SUSPECT_PENALTY
        } else {
            base
        }
    }
}

/// An online dispatch policy.
pub trait DispatchPolicy: fmt::Debug + Send {
    /// Policy name used in reports.
    fn name(&self) -> &'static str;

    /// Chooses assignments among `jobs` (queue candidates, priority/EDF
    /// order) and the servers idle in `idle`. Returns `(job_pos,
    /// server_index)` pairs: each job and each server at most once, servers
    /// drawn from the index's idle set. Unmatched jobs stay queued.
    fn assign(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)>;
}

/// Uniform-random placement (the paper's random scheduler, online).
#[derive(Debug)]
struct RandomPolicy {
    rng: SplitMix64,
}

impl RandomPolicy {
    /// Creates the policy with its own seeded stream.
    fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: SplitMix64::new(seed),
        }
    }
}

impl DispatchPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn assign(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        _ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        let n = jobs.len().min(idle.total());
        // Sample n distinct idle ranks without materializing the idle set:
        // draw a rank among the not-yet-picked, then shift it past the
        // already-picked ranks (ascending) to index the full idle order.
        let mut picked_ranks: Vec<usize> = Vec::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        for job_pos in 0..n {
            let mut r = self.rng.next_range((idle.total() - job_pos) as u64) as usize;
            for &p in picked_ranks.iter() {
                if p <= r {
                    r += 1;
                }
            }
            let pos = picked_ranks.partition_point(|&p| p < r);
            picked_ranks.insert(pos, r);
            let server = idle.nth_idle(r).expect("rank < idle.total()");
            out.push((job_pos, server));
        }
        out
    }
}

/// Round-robin over the fleet (the classic characterization-blind
/// baseline): a cursor walks server indices; each job takes the next idle
/// server at or after the cursor.
#[derive(Debug, Default)]
pub(crate) struct RoundRobinPolicy {
    cursor: usize,
}

impl RoundRobinPolicy {
    /// Creates the policy with the cursor at server 0.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl DispatchPolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn assign(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        _ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        let fleet_len = idle.plan().n_servers();
        let n = jobs.len().min(idle.total());
        let mut picked: Vec<usize> = Vec::with_capacity(n);
        let mut out = Vec::with_capacity(n);
        for job_pos in 0..n {
            // First idle server at or after the cursor (cyclic) that is not
            // already taken this round; at most `picked + 2` probes.
            let mut start = self.cursor % fleet_len;
            let mut server = None;
            for _ in 0..=picked.len() + 1 {
                let cand = idle
                    .next_idle_at_or_after(start)
                    .or_else(|| idle.next_idle_at_or_after(0));
                match cand {
                    Some(s) if picked.binary_search(&s).is_err() => {
                        server = Some(s);
                        break;
                    }
                    Some(s) => start = (s + 1) % fleet_len,
                    None => break,
                }
            }
            let Some(s) = server else { break };
            let pos = picked.partition_point(|&p| p < s);
            picked.insert(pos, s);
            self.cursor = (s + 1) % fleet_len;
            out.push((job_pos, s));
        }
        out
    }
}

/// Which prediction face a model-driven policy ranks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredictionKind {
    /// [`CostModel::predicted_us`] — the affinity-model face (`smart`).
    Affinity,
    /// [`CostModel::port_predicted_us`] — the port-refined face (`port`).
    Port,
}

/// Shared machinery of the model-driven policies (`smart` / `port`): the
/// prediction memo, the exact solve, and the two routings
/// [`ModelCore::assign`] chooses between. A solve over more than one job
/// builds the cost matrix and runs the rectangular Hungarian; a solve over
/// one job (the one-job rule) takes the same pick as a class argmin, in
/// time linear in the idle servers and without the matrix.
#[derive(Debug)]
struct ModelCore {
    kind: PredictionKind,
    /// Prediction memo: where in `rows` the row of each (video slot, crf,
    /// refs, preset rank) starts, packed into one key by
    /// [`ModelCore::prices`]. Only probed, never iterated, and emptied only
    /// by `clear`, so neither its order nor its growth reaches an output or
    /// an allocation count.
    memo: HashMap<u64, usize>,
    /// The memo's rows: per server class, the base (un-penalized)
    /// predicted µs, all classes priced when the row is made.
    rows: Vec<u64>,
    /// The videos the memo has priced, by slot. A trace hands every task of
    /// one video the same `Arc`, so a slot is found by pointer; a task
    /// carrying its own copy of a known name costs a string comparison.
    videos: Vec<Arc<str>>,
    /// ([`ClassMap`] identity, detector epoch) the memo was filled under;
    /// any mismatch clears it.
    memo_key: (u64, u64),
    /// The round's cost matrix, row-major (jobs × idle servers).
    cost: Vec<f64>,
    /// The idle servers the round solves over.
    idle: Vec<usize>,
    /// A one-job round's first idle server per (class, suspected) group.
    firsts: Vec<usize>,
    /// Cell routing of the round: (cell, job position).
    routed: Vec<(usize, usize)>,
    solver: Solver,
}

impl ModelCore {
    fn new(kind: PredictionKind) -> Self {
        ModelCore {
            kind,
            memo: HashMap::new(),
            rows: Vec::new(),
            videos: Vec::new(),
            memo_key: (0, 0),
            cost: Vec::new(),
            idle: Vec::new(),
            firsts: Vec::new(),
            routed: Vec::new(),
            solver: Solver::new(),
        }
    }

    /// `job`'s memo row, one base price per class, priced on first sight.
    fn prices(&mut self, ctx: &DispatchCtx<'_>, job: &PendingJob) -> &[u64] {
        let key = (ctx.classes.id, ctx.health_epoch);
        if self.memo_key != key {
            self.memo.clear();
            self.rows.clear();
            self.memo_key = key;
        }
        let t = &job.spec.task;
        let videos = &mut self.videos;
        let slot = videos
            .iter()
            .position(|v| Arc::ptr_eq(v, &t.video))
            .or_else(|| videos.iter().position(|v| *v == t.video))
            .unwrap_or_else(|| {
                videos.push(t.video.clone());
                videos.len() - 1
            });
        let rank = preset_rank(t.preset) as u64;
        let knobs = (slot as u64) << 24 | u64::from(t.crf) << 16 | u64::from(t.refs) << 8 | rank;
        let n = ctx.classes.n_classes();
        let rows = &mut self.rows;
        let at = *self.memo.entry(knobs).or_insert_with(|| {
            let at = rows.len();
            rows.resize(at + n, 0);
            let reps = ctx.classes.reps.iter().map(|&s| ctx.fleet.server(s));
            let port = self.kind == PredictionKind::Port;
            ctx.model
                .predict_row(&job.spec, port, reps, &mut rows[at..]);
            at
        });
        &rows[at..at + n]
    }

    /// Appends one job's row of the cost matrix over `servers` to
    /// `self.cost`: the memo is probed once for the job, and suspects are
    /// penalized per server.
    fn cost_row(&mut self, ctx: &DispatchCtx<'_>, job: &PendingJob, servers: &[usize]) {
        let mut cost = std::mem::take(&mut self.cost);
        let prices = self.prices(ctx, job);
        for &s in servers {
            cost.push(ctx.penalized(prices[ctx.classes.class_of(s)] as f64, s));
        }
        self.cost = cost;
    }

    /// The server [`Solver`] gives a one-row round over `idle` (ascending),
    /// without the row: a server's cost depends on it only through its
    /// (class, suspected) group, so each group is priced once, at its first
    /// idle server, and the cheapest group's first server wins, ties to the
    /// lower server. That is the row's first strict-`<` minimum, which is
    /// what the potentials loop returns for one row.
    fn cheapest(
        &mut self,
        ctx: &DispatchCtx<'_>,
        job: &PendingJob,
        idle: impl IntoIterator<Item = usize>,
    ) -> Option<usize> {
        let mut firsts = std::mem::take(&mut self.firsts);
        ctx.classes
            .first_of_each(idle, |s| ctx.suspected(s), &mut firsts);
        let prices = self.prices(ctx, job);
        let mut best: Option<(f64, usize)> = None;
        for (group, &s) in firsts.iter().enumerate().filter(|&(_, &s)| s != usize::MAX) {
            let cost = ctx.penalized(prices[group / 2] as f64, s);
            if best.is_none_or(|(c, b)| cost < c || (cost == c && s < b)) {
                best = Some((cost, s));
            }
        }
        self.firsts = firsts;
        best.map(|(_, s)| s)
    }

    /// One dispatch round: one global solve below [`XL_FLEET_THRESHOLD`]
    /// servers, the same solve per routed cell from there up.
    fn assign(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        if jobs.is_empty() || idle.total() == 0 {
            return Vec::new();
        }
        if idle.plan().n_servers() >= XL_FLEET_THRESHOLD {
            return self.assign_cells(jobs, idle, ctx);
        }
        let mut out = Vec::with_capacity(jobs.len().min(idle.total()));
        self.assign_exact(jobs, 0..jobs.len(), idle.servers(), ctx, &mut out);
        out
    }

    /// The exact solver over rows `jobs[p]` for `p` in `job_ps` and columns
    /// `servers` (ascending): rectangular Hungarian over the f64 matrix,
    /// O(min(r,c)²·max(r,c)), picks pushed onto `out` as `(p, server)`; one
    /// row is [`ModelCore::cheapest`], the same pick without the matrix.
    /// Costs are byte-identical to the pre-memo implementation (the memo
    /// returns the very same `u64` the model would); among equally priced
    /// servers the lowest index wins.
    fn assign_exact(
        &mut self,
        jobs: &[&PendingJob],
        job_ps: impl ExactSizeIterator<Item = usize> + Clone,
        servers: impl Iterator<Item = usize>,
        ctx: &DispatchCtx<'_>,
        out: &mut Vec<(usize, usize)>,
    ) {
        if job_ps.len() == 1 {
            let p = job_ps.clone().next().expect("one row");
            out.extend(self.cheapest(ctx, jobs[p], servers).map(|s| (p, s)));
            return;
        }
        let mut idle = std::mem::take(&mut self.idle);
        idle.clear();
        idle.extend(servers);
        self.cost.clear();
        for p in job_ps.clone() {
            self.cost_row(ctx, jobs[p], &idle);
        }
        match self
            .solver
            .solve_padded(&self.cost, job_ps.len(), idle.len())
        {
            Ok(assignment) => out.extend(
                job_ps
                    .zip(assignment)
                    .filter_map(|(p, slot)| slot.map(|idle_pos| (p, idle[idle_pos]))),
            ),
            // Only an empty matrix is an error, and callers hand over
            // neither — fall back to in-order greedy rather than crash the
            // serving loop.
            Err(_) => out.extend(job_ps.zip(idle.iter().copied())),
        }
        self.idle = idle;
    }

    /// Two-level dispatch: consistent-hash + power-of-two-choices cell
    /// routing, then [`ModelCore::assign_exact`] within each cell.
    fn assign_cells(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        // Level 1: route each candidate to the roomier of its two hashed
        // cells, debiting capacity as jobs land so a burst spreads out.
        let mut routed = std::mem::take(&mut self.routed);
        routed.clear();
        for (job_pos, j) in jobs.iter().enumerate() {
            let (a, b) = idle.plan().candidates(j.spec.id);
            let room = |c: usize| {
                idle.idle_in_cell(c)
                    .saturating_sub(routed.iter().filter(|&&(cell, _)| cell == c).count())
            };
            let (room_a, room_b) = (room(a), room(b));
            let cell = if room_a == 0 && room_b == 0 {
                continue; // both candidate cells saturated — job waits
            } else if room_b > room_a {
                b
            } else {
                a
            };
            routed.push((cell, job_pos));
        }
        // Level 2: the exact solve within each cell, cells ascending, each
        // cell's jobs in candidate order.
        routed.sort_unstable();
        let mut out = Vec::with_capacity(routed.len());
        for group in routed.chunk_by(|x, y| x.0 == y.0) {
            let job_ps = group.iter().map(|&(_, job_pos)| job_pos);
            let servers = idle.cell_servers(group[0].0);
            self.assign_exact(jobs, job_ps, servers, ctx, &mut out);
        }
        self.routed = routed;
        out
    }
}

/// The characterization-driven policy: minimum predicted total service time
/// over the (candidates × idle servers) matrix — the smart scheduler of
/// Figure 9 run continuously over whatever is currently queued and idle.
/// Fleets below [`XL_FLEET_THRESHOLD`] servers get one exact Hungarian
/// solve, larger ones the same solve per consistent-hashed cell. When
/// queued jobs outnumber idle servers the rectangular solve picks which
/// jobs run *now* (the rest wait), still minimizing predicted cost. A
/// solve over one job is the one-job rule: the cheapest (class, suspected)
/// group's lowest idle server, which is exactly the first minimum of the
/// job's cost row that the Hungarian returns for one row.
#[derive(Debug)]
pub struct SmartPolicy {
    core: ModelCore,
}

impl Default for SmartPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SmartPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        SmartPolicy {
            core: ModelCore::new(PredictionKind::Affinity),
        }
    }
}

impl DispatchPolicy for SmartPolicy {
    fn name(&self) -> &'static str {
        "smart"
    }

    fn assign(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        self.core.assign(jobs, idle, ctx)
    }
}

/// The port-informed policy: like [`SmartPolicy`] but ranking by the
/// port-refined prediction ([`CostModel::port_predicted_us`]). The engine
/// bills the port-refined cost, so this policy minimizes the true objective
/// while `smart` minimizes a port-blind approximation of it — the
/// difference shows up on fleets whose `be_op2` column offers port relief
/// that the flat affinity model cannot see.
#[derive(Debug)]
struct PortPolicy {
    core: ModelCore,
}

impl Default for PortPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl PortPolicy {
    /// Creates the policy.
    fn new() -> Self {
        PortPolicy {
            core: ModelCore::new(PredictionKind::Port),
        }
    }
}

impl DispatchPolicy for PortPolicy {
    fn name(&self) -> &'static str {
        "port"
    }

    fn assign(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        self.core.assign(jobs, idle, ctx)
    }
}

/// Builds a policy by name (`random`, `round_robin`/`rr`, `smart`, `port`).
pub fn policy_by_name(name: &str, seed: u64) -> Option<Box<dyn DispatchPolicy>> {
    match name {
        "random" => Some(Box::new(RandomPolicy::new(seed))),
        "round_robin" | "rr" => Some(Box::new(RoundRobinPolicy::new())),
        "smart" => Some(Box::new(SmartPolicy::new())),
        "port" => Some(Box::new(PortPolicy::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::idle_only;
    use crate::fleet::ServerSpec;
    use crate::queue::PendingJob;
    use crate::workload::{JobSpec, Priority};
    use vtx_codec::Preset;
    use vtx_sched::TranscodeTask;
    use vtx_uarch::config::UarchConfig;

    fn pending(id: u64, video: &str, preset: Preset) -> PendingJob {
        PendingJob {
            spec: JobSpec {
                id,
                arrival_us: 0,
                task: TranscodeTask::new(video, 23, 3, preset),
                priority: Priority::Standard,
                deadline_us: u64::MAX,
                timeout_us: u64::MAX,
            },
            admitted_us: 0,
            attempts: 0,
        }
    }

    /// Raw (un-cached, un-penalized) prediction of `kind` — the reference
    /// the memo is tested against.
    fn predict_raw(kind: PredictionKind, ctx: &DispatchCtx<'_>, job: &PendingJob, s: usize) -> u64 {
        let server = ctx.fleet.server(s);
        match kind {
            PredictionKind::Affinity => ctx.model.predicted_us(&job.spec, server),
            PredictionKind::Port => ctx.model.port_predicted_us(&job.spec, server),
        }
    }

    /// What a run owns and lends to its policy.
    struct World {
        fleet: Fleet,
        classes: ClassMap,
        model: CostModel,
    }

    impl World {
        fn new(fleet: Fleet) -> Self {
            World {
                classes: ClassMap::of(&fleet),
                fleet,
                model: CostModel::new(42),
            }
        }

        fn table_iv() -> Self {
            Self::new(Fleet::table_iv())
        }

        /// Everything up, epoch 0.
        fn ctx(&self) -> DispatchCtx<'_> {
            self.ctx_with(&[], 0)
        }

        fn ctx_with<'a>(&'a self, health: &'a [Health], health_epoch: u64) -> DispatchCtx<'a> {
            DispatchCtx {
                fleet: &self.fleet,
                classes: &self.classes,
                model: &self.model,
                now_us: 0,
                health,
                health_epoch,
            }
        }
    }

    #[test]
    fn assignments_are_injective_for_all_policies() {
        let w = World::table_iv();
        let jobs: Vec<PendingJob> = (0..8).map(|i| pending(i, "bike", Preset::Medium)).collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let idle = idle_only(5, &[0, 2, 4]);
        for mut p in [
            Box::new(RandomPolicy::new(1)) as Box<dyn DispatchPolicy>,
            Box::new(RoundRobinPolicy::new()),
            Box::new(SmartPolicy::new()),
            Box::new(PortPolicy::new()),
        ] {
            let a = p.assign(&refs, &idle, &w.ctx());
            assert_eq!(a.len(), 3, "{} should fill all idle servers", p.name());
            let mut seen_jobs = vec![false; refs.len()];
            let mut seen_servers = [false; 5];
            for (j, s) in a {
                assert!(idle.is_idle(s), "{} picked busy server {s}", p.name());
                assert!(!seen_jobs[j] && !seen_servers[s], "{}", p.name());
                seen_jobs[j] = true;
                seen_servers[s] = true;
            }
        }
    }

    #[test]
    fn round_robin_cycles_the_fleet() {
        let w = World::table_iv();
        let mut p = RoundRobinPolicy::new();
        let jobs: Vec<PendingJob> = (0..2).map(|i| pending(i, "bike", Preset::Fast)).collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let all = idle_only(5, &[0, 1, 2, 3, 4]);
        let a1 = p.assign(&refs[..1], &all, &w.ctx());
        assert_eq!(a1, vec![(0, 0)]);
        // Cursor advanced: next single job goes to server 1.
        let a2 = p.assign(&refs[..1], &all, &w.ctx());
        assert_eq!(a2, vec![(0, 1)]);
        // Sparse idle set, cursor now at 2: the next idle server *at or
        // after the cursor* is 4, not the lowest-numbered idle one.
        let sparse = idle_only(5, &[0, 4]);
        let a3 = p.assign(&refs[..1], &sparse, &w.ctx());
        assert_eq!(a3, vec![(0, 4)]);
        // The cursor wraps, and skips a dead server (2 never rejoins the
        // index): two jobs from cursor 0 with {1, 3, 4} idle take 1 and 3.
        let dead = idle_only(5, &[1, 3, 4]);
        let a4 = p.assign(&refs, &dead, &w.ctx());
        assert_eq!(a4, vec![(0, 1), (1, 3)]);
        let a5 = p.assign(&refs, &dead, &w.ctx());
        assert_eq!(a5, vec![(0, 4), (1, 1)], "wraps past the dead server");
    }

    #[test]
    fn cost_memo_returns_exactly_what_the_model_would() {
        // The memo must be a pure speedup: for every catalog video × knob
        // × server it returns `predict_raw`'s value, when filling and when
        // hitting, across detector-epoch bumps and changes of fleet — and a
        // row filled once per class (server 1 suspected, its class twins
        // not) equals the row priced server by server. Fleet 2 has the
        // size of fleet 1 and another composition: what `ModelCore` once
        // told apart by length alone.
        let reversed: Vec<_> = Fleet::sized(8)
            .unwrap()
            .servers()
            .iter()
            .rev()
            .cloned()
            .collect();
        let worlds = [
            World::table_iv(),
            World::new(Fleet::sized(8).unwrap()),
            World::new(Fleet::try_new(reversed).unwrap()),
            World::new(Fleet::sized(64).unwrap()),
        ];
        let health = [Health::Up, Health::Suspected];
        for kind in [PredictionKind::Affinity, PredictionKind::Port] {
            let mut core = ModelCore::new(kind);
            for (health_epoch, w) in [
                (0, 0),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 1),
                (2, 0),
                (2, 3),
                (3, 3),
            ] {
                let w = &worlds[w];
                let ctx = w.ctx_with(&health, health_epoch);
                let servers: Vec<usize> = (0..w.fleet.len()).rev().collect();
                for video in vtx_frame::vbench::catalog() {
                    for (crf, refs, preset) in [(18, 1, Preset::Ultrafast), (35, 8, Preset::Slow)] {
                        let mut j = pending(0, &video.short_name, preset);
                        j.spec.task = TranscodeTask::new(&video.short_name, crf, refs, preset);
                        let by_server: Vec<f64> = servers
                            .iter()
                            .map(|&s| ctx.penalized(predict_raw(kind, &ctx, &j, s) as f64, s))
                            .collect();
                        for pass in ["fill", "hit"] {
                            core.cost.clear();
                            core.cost_row(&ctx, &j, &servers);
                            assert_eq!(core.cost, by_server, "row {pass}");
                        }
                        // One server at a time: a row made for one server
                        // prices every class.
                        for (i, &s) in servers.iter().enumerate() {
                            core.cost.clear();
                            core.cost_row(&ctx, &j, &[s]);
                            assert_eq!(core.cost, by_server[i..=i], "server {s}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_policy_reused_on_a_second_fleet_prices_with_that_fleets_classes() {
        // Ten servers, then the same ten reversed: equal size, every class
        // at another index. A policy that carried its class map (or its
        // memo) over would price server s as server 9 - s.
        let first = World::new(Fleet::sized(10).unwrap());
        let reversed: Vec<_> = first.fleet.servers().iter().rev().cloned().collect();
        let second = World::new(Fleet::try_new(reversed).unwrap());
        let jobs: Vec<PendingJob> = ["hall", "bike", "cat", "desktop"]
            .iter()
            .enumerate()
            .map(|(i, v)| pending(i as u64, v, Preset::ALL[2 * i + 1]))
            .collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let idle = idle_only(10, &[0, 2, 3, 5, 6, 7, 9]);
        for name in ["smart", "port"] {
            let mut reused = policy_by_name(name, 1).unwrap();
            let on_first = reused.assign(&refs, &idle, &first.ctx());
            let fresh = |w: &World| {
                policy_by_name(name, 1)
                    .unwrap()
                    .assign(&refs, &idle, &w.ctx())
            };
            assert_eq!(on_first, fresh(&first), "{name}");
            let on_second = reused.assign(&refs, &idle, &second.ctx());
            assert_eq!(on_second, fresh(&second), "{name}: second fleet");
            assert_ne!(on_first, on_second, "{name}: the fleets do differ");
        }
    }

    #[test]
    fn smart_prefers_the_affine_server() {
        let w = World::table_iv();
        // One job, all servers idle: smart must pick the predicted-fastest.
        let j = pending(0, "hall", Preset::Medium);
        let refs = vec![&j];
        let idle = idle_only(5, &[0, 1, 2, 3, 4]);
        let mut p = SmartPolicy::new();
        let a = p.assign(&refs, &idle, &w.ctx());
        assert_eq!(a.len(), 1);
        let best = (0..5)
            .min_by_key(|&s| w.model.predicted_us(&j.spec, w.fleet.server(s)))
            .unwrap();
        assert_eq!(a[0].1, best);
    }

    #[test]
    fn smart_handles_more_jobs_than_servers() {
        let w = World::table_iv();
        let jobs: Vec<PendingJob> = (0..7)
            .map(|i| pending(i, "girl", Preset::Veryfast))
            .collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let idle = idle_only(5, &[1, 3]);
        let mut p = SmartPolicy::new();
        let a = p.assign(&refs, &idle, &w.ctx());
        assert_eq!(a.len(), 2, "exactly the idle servers get work");
    }

    #[test]
    fn random_is_seed_deterministic() {
        let w = World::table_iv();
        let jobs: Vec<PendingJob> = (0..5).map(|i| pending(i, "cat", Preset::Fast)).collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let idle = idle_only(5, &[0, 1, 2, 3, 4]);
        let mut p1 = RandomPolicy::new(9);
        let mut p2 = RandomPolicy::new(9);
        assert_eq!(
            p1.assign(&refs, &idle, &w.ctx()),
            p2.assign(&refs, &idle, &w.ctx())
        );
    }

    #[test]
    fn policy_by_name_resolves() {
        assert_eq!(policy_by_name("random", 1).unwrap().name(), "random");
        assert_eq!(policy_by_name("rr", 1).unwrap().name(), "round_robin");
        assert_eq!(policy_by_name("smart", 1).unwrap().name(), "smart");
        assert_eq!(policy_by_name("port", 1).unwrap().name(), "port");
        assert!(policy_by_name("oracle", 1).is_none());
    }

    #[test]
    fn smart_steers_away_from_suspected_servers() {
        let w = World::table_iv();
        let j = pending(0, "hall", Preset::Medium);
        let refs = vec![&j];
        let idle = idle_only(5, &[0, 1, 2, 3, 4]);
        let mut p = SmartPolicy::new();
        let best = (0..5)
            .min_by_key(|&s| w.model.predicted_us(&j.spec, w.fleet.server(s)))
            .unwrap();
        // Suspect the predicted-best server: smart must pick another one.
        let mut health = vec![Health::Up; 5];
        health[best] = Health::Suspected;
        let a = p.assign(&refs, &idle, &w.ctx_with(&health, 0));
        assert_eq!(a.len(), 1);
        assert_ne!(a[0].1, best, "suspected server is avoided");
        // With everything suspected the penalty cancels out: still assigns.
        let all = vec![Health::Suspected; 5];
        assert_eq!(p.assign(&refs, &idle, &w.ctx_with(&all, 0)).len(), 1);
    }

    #[test]
    fn tied_servers_resolve_to_the_lowest_index_and_skip_suspects() {
        // Servers s and s + 5 of a sized fleet share a class, so a job's
        // row is full of exact ties; the pinned fig9-XL rows depend on how
        // they break. Both routings: one global solve (10 servers) and per
        // cell (200 servers, the twins spread over every cell).
        let j = pending(7, "hall", Preset::Medium);
        for n in [10, 200] {
            let w = World::new(Fleet::sized(n).unwrap());
            let twins: Vec<usize> = (3..n).step_by(5).collect();
            let idle = idle_only(n, &twins);
            let mut p = SmartPolicy::new();
            let a = p.assign(&[&j], &idle, &w.ctx());
            assert_eq!(a.len(), 1);
            // The idle twins the solve saw: all of them, or the routed cell's.
            let seen = if n < XL_FLEET_THRESHOLD {
                idle.to_vec()
            } else {
                idle.cell_idle(idle.plan().cell_of(a[0].1))
            };
            assert_eq!(a[0].1, seen[0], "n={n}: lowest index among the ties");
            let mut health = vec![Health::Up; n];
            health[seen[0]] = Health::Suspected;
            let b = p.assign(&[&j], &idle, &w.ctx_with(&health, 1));
            assert_eq!(
                b,
                vec![(0, seen[1])],
                "n={n}: the suspected twin is avoided"
            );
        }
    }

    #[test]
    fn a_one_job_round_picks_what_the_full_row_solve_picks() {
        // Seeded fleets of 5, 64 and 500 servers (every class repeated),
        // random idle sets and suspects, some rounds with every server
        // suspected: the one-job pick equals the Hungarian solve over the
        // job's full cost row, under both prediction faces, for the global
        // solve and per routed cell. The five are two classes the model
        // prices alike (the baseline under a second name) with a twin
        // each, interleaved so that a tie between classes must go to the
        // lower server, and one slow server.
        let server = |name: &str, uarch: &UarchConfig, speed: f64| ServerSpec {
            name: name.to_owned(),
            uarch: uarch.clone(),
            speed,
        };
        let (a, slow) = (UarchConfig::baseline(), &UarchConfig::modified_configs()[0]);
        let b = UarchConfig {
            name: "baseline_b".to_owned(),
            ..a.clone()
        };
        let five = vec![
            server("b-0", &b, 2.0),
            server("a-0", &a, 2.0),
            server("b-1", &b, 2.0),
            server("slow-0", slow, 0.5),
            server("a-1", &a, 2.0),
        ];
        let fleets = [
            Fleet::try_new(five).unwrap(),
            Fleet::sized(64).unwrap(),
            Fleet::sized(500).unwrap(),
        ];
        let videos = ["bike", "hall", "cat", "girl", "desktop"];
        let mut rng = SplitMix64::new(0x0E_70B);
        for fleet in fleets {
            let n = fleet.len();
            let w = World::new(fleet);
            for round in 0..60u64 {
                let mut idle = IdleIndex::new(crate::cells::CellPlan::build(n, 0, 42));
                for s in 0..n {
                    if rng.next_range(3) == 0 && idle.total() > 1 {
                        idle.set_busy(s);
                    }
                }
                let health: Vec<Health> = (0..n)
                    .map(|_| match (round % 10, rng.next_range(4)) {
                        (9, _) | (_, 0) => Health::Suspected,
                        _ => Health::Up,
                    })
                    .collect();
                let mut j = pending(
                    rng.next_range(1 << 40),
                    videos[round as usize % 5],
                    Preset::Fast,
                );
                j.spec.task = TranscodeTask::new(
                    videos[round as usize % 5],
                    [18, 23, 28, 35][rng.next_range(4) as usize],
                    [1, 3, 6][rng.next_range(3) as usize],
                    Preset::ALL[rng.next_range(10) as usize],
                );
                let ctx = w.ctx_with(&health, round);
                for (kind, name) in [
                    (PredictionKind::Affinity, "smart"),
                    (PredictionKind::Port, "port"),
                ] {
                    let picks = policy_by_name(name, 1).unwrap().assign(&[&j], &idle, &ctx);
                    assert_eq!(picks.len(), 1, "n={n} round {round} {name}");
                    let seen = if n < XL_FLEET_THRESHOLD {
                        idle.to_vec()
                    } else {
                        idle.cell_idle(idle.plan().cell_of(picks[0].1))
                    };
                    let mut core = ModelCore::new(kind);
                    core.cost_row(&ctx, &j, &seen);
                    let solved = Solver::new()
                        .solve_padded(&core.cost, 1, seen.len())
                        .unwrap()[0];
                    assert_eq!(
                        Some(picks[0].1),
                        solved.map(|i| seen[i]),
                        "n={n} round {round} {name}: {:?}",
                        core.cost
                    );
                }
            }
        }
    }

    #[test]
    fn assign_cells_is_injective_routed_and_optimal_per_cell() {
        let n = 200;
        let w = World::new(Fleet::sized(n).unwrap());
        let mut rng = SplitMix64::new(0xCE11);
        let mut idle = IdleIndex::new(crate::cells::CellPlan::build(n, 0, 42));
        let mut health = vec![Health::Up; n];
        for (s, h) in health.iter_mut().enumerate() {
            match rng.next_range(8) {
                0..=4 => _ = idle.set_busy(s),
                5 => *h = Health::Suspected,
                _ => {}
            }
        }
        let videos = ["bike", "hall", "cat", "girl"];
        let jobs: Vec<PendingJob> = (0..8)
            .map(|i| {
                let id = rng.next_range(1 << 40);
                let preset = Preset::ALL[rng.next_range(10) as usize];
                pending(id, videos[i % videos.len()], preset)
            })
            .collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let ctx = w.ctx_with(&health, 0);
        for kind in [PredictionKind::Affinity, PredictionKind::Port] {
            let mut core = ModelCore::new(kind);
            let picks = core.assign_cells(&refs, &idle, &ctx);
            assert_eq!(picks.len(), refs.len(), "every cell has room");
            let mut by_cell: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
            let mut seen_jobs = vec![false; refs.len()];
            let mut seen_servers = vec![false; n];
            for &(jp, s) in &picks {
                assert!(idle.is_idle(s), "picked busy server {s}");
                assert!(
                    !seen_jobs[jp] && !seen_servers[s],
                    "pick ({jp}, {s}) repeats"
                );
                seen_jobs[jp] = true;
                seen_servers[s] = true;
                let cell = idle.plan().cell_of(s);
                let (a, b) = idle.plan().candidates(jobs[jp].spec.id);
                assert!(cell == a || cell == b, "job {jp} left its candidate cells");
                by_cell.entry(cell).or_default().push((jp, s));
            }
            assert!(
                by_cell.values().any(|g| g.len() > 1),
                "some cell solves > 1 row"
            );
            let total = |picks: &[(usize, usize)]| {
                picks
                    .iter()
                    .map(|&(jp, s)| ctx.penalized(predict_raw(kind, &ctx, refs[jp], s) as f64, s))
                    .sum::<f64>()
            };
            for (cell, group) in by_cell {
                let mut alone = Vec::new();
                ModelCore::new(kind).assign_exact(
                    &refs,
                    group.iter().map(|&(jp, _)| jp),
                    idle.cell_servers(cell),
                    &ctx,
                    &mut alone,
                );
                assert_eq!(
                    total(&group),
                    total(&alone),
                    "cell {cell}: same optimum as the exact solve over that cell alone"
                );
            }
        }
    }

    #[test]
    fn penalized_defaults_to_up_for_short_health_slices() {
        let w = World::table_iv();
        assert_eq!(w.ctx().penalized(10.0, 3), 10.0);
        let health = [Health::Up, Health::Suspected];
        let c = w.ctx_with(&health, 0);
        assert_eq!(c.penalized(10.0, 1), 10.0 * SUSPECT_PENALTY);
        assert_eq!(c.penalized(10.0, 0), 10.0);
    }

    #[test]
    fn port_policy_picks_the_billed_fastest_server() {
        let w = World::table_iv();
        // Slow preset → SATD/trellis-heavy mix → be_op2's extra port pays.
        let j = pending(0, "bike", Preset::Veryslow);
        let refs = vec![&j];
        let idle = idle_only(5, &[0, 1, 2, 3, 4]);
        let mut p = PortPolicy::new();
        let a = p.assign(&refs, &idle, &w.ctx());
        assert_eq!(a.len(), 1);
        let best = (0..5)
            .min_by_key(|&s| w.model.port_predicted_us(&j.spec, w.fleet.server(s)))
            .unwrap();
        assert_eq!(a[0].1, best);
    }
}
