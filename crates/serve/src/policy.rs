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
//! same solve runs *within* each chosen cell, so nothing is O(fleet).
//!
//! The model-driven policies also memoize predictions: the cost model is a
//! pure function of (task parameters, server class), so each task owns one
//! row of base prices indexed by class, filled as classes are first seen
//! and invalidated wholesale on any Suspect/Down/Degrade transition (the
//! epoch bump in [`DispatchCtx::health_epoch`]). The server → class map is
//! the run's, not the policy's ([`DispatchCtx::classes`]), and the cost
//! matrix, the idle list, the cell routing and the solver's state are
//! buffers the policy keeps: a round in steady state allocates only the
//! pick list it returns.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vtx_chaos::Health;
use vtx_codec::Preset;

use crate::cells::{IdleIndex, XL_FLEET_THRESHOLD};
use crate::cost::CostModel;
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
    n_classes: usize,
}

impl ClassMap {
    /// Classes of `fleet`, numbered in order of first appearance.
    pub fn of(fleet: &Fleet) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let mut ids: BTreeMap<(&str, u64), u16> = BTreeMap::new();
        let class_of = fleet
            .servers()
            .iter()
            .map(|sv| {
                let key = (sv.uarch.name.as_str(), sv.speed.to_bits());
                let next = ids.len() as u16;
                *ids.entry(key).or_insert(next)
            })
            .collect();
        ClassMap {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            class_of,
            n_classes: ids.len(),
        }
    }

    /// The class of server `s`.
    fn class_of(&self, s: usize) -> usize {
        usize::from(self.class_of[s])
    }

    /// Number of distinct classes.
    fn n_classes(&self) -> usize {
        self.n_classes
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
    /// `base` cost inflated by [`SUSPECT_PENALTY`] when `server` is
    /// suspected (out-of-range indices count as up, for bare test contexts).
    fn penalized(&self, base: f64, server: usize) -> f64 {
        match self.health.get(server) {
            Some(Health::Suspected) => base * SUSPECT_PENALTY,
            _ => base,
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

/// One video's entry of the prediction memo: (crf, refs, preset rank) →
/// base (un-penalized) predicted µs per server class; 0 = not yet priced
/// (a prediction is at least 1).
type KnobPrices = BTreeMap<(u8, u8, u8), Box<[u64]>>;

/// Shared machinery of the model-driven policies (`smart` / `port`): the
/// prediction memo, the exact solve, and the two routings
/// [`ModelCore::assign`] chooses between.
#[derive(Debug)]
struct ModelCore {
    kind: PredictionKind,
    /// Prediction memo, by video.
    memo: BTreeMap<Arc<str>, KnobPrices>,
    /// ([`ClassMap`] identity, detector epoch) the memo was filled under;
    /// any mismatch clears it.
    memo_key: (u64, u64),
    /// The round's cost matrix, row-major (jobs × idle servers).
    cost: Vec<f64>,
    /// The idle servers the round solves over.
    idle: Vec<usize>,
    /// Cell routing of the round: (cell, job position).
    routed: Vec<(usize, usize)>,
    solver: Solver,
}

impl ModelCore {
    fn new(kind: PredictionKind) -> Self {
        ModelCore {
            kind,
            memo: BTreeMap::new(),
            memo_key: (0, 0),
            cost: Vec::new(),
            idle: Vec::new(),
            routed: Vec::new(),
            solver: Solver::new(),
        }
    }

    /// Raw (un-cached, un-penalized) prediction for this kind — the
    /// reference the memo is tested against.
    fn predict_raw(kind: PredictionKind, ctx: &DispatchCtx<'_>, job: &PendingJob, s: usize) -> u64 {
        let server = ctx.fleet.server(s);
        match kind {
            PredictionKind::Affinity => ctx.model.predicted_us(&job.spec, server),
            PredictionKind::Port => ctx.model.port_predicted_us(&job.spec, server),
        }
    }

    /// Appends one job's row of the cost matrix over `servers` to
    /// `self.cost`: the memo is probed once for the job, its class row
    /// filled where a class is seen for the first time, and suspects are
    /// penalized per server.
    fn cost_row(&mut self, ctx: &DispatchCtx<'_>, job: &PendingJob, servers: &[usize]) {
        let key = (ctx.classes.id, ctx.health_epoch);
        if self.memo_key != key {
            self.memo.clear();
            self.memo_key = key;
        }
        let t = &job.spec.task;
        let rank = Preset::ALL.iter().position(|&p| p == t.preset).unwrap_or(5) as u8;
        if !self.memo.contains_key(&*t.video) {
            self.memo.insert(t.video.clone(), KnobPrices::new());
        }
        let prices = self
            .memo
            .get_mut(&*t.video)
            .expect("inserted above")
            .entry((t.crf, t.refs, rank))
            .or_insert_with(|| vec![0; ctx.classes.n_classes()].into());
        for &s in servers {
            let base = &mut prices[ctx.classes.class_of(s)];
            if *base == 0 {
                *base = Self::predict_raw(self.kind, ctx, job, s);
            }
            self.cost.push(ctx.penalized(*base as f64, s));
        }
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
        let mut servers = std::mem::take(&mut self.idle);
        let out = if idle.plan().n_servers() < XL_FLEET_THRESHOLD {
            idle.fill_idle(&mut servers);
            let mut out = Vec::with_capacity(jobs.len().min(servers.len()));
            self.assign_exact(jobs, 0..jobs.len(), &servers, ctx, &mut out);
            out
        } else {
            self.assign_cells(jobs, idle, &mut servers, ctx)
        };
        self.idle = servers;
        out
    }

    /// The exact solver over rows `jobs[p]` for `p` in `job_ps` and columns
    /// `idle`: rectangular Hungarian over the f64 matrix,
    /// O(min(r,c)²·max(r,c)), picks pushed onto `out` as `(p, server)`.
    /// Costs are byte-identical to the pre-memo implementation (the memo
    /// returns the very same `u64` the model would); among equally priced
    /// servers the lowest index wins.
    fn assign_exact(
        &mut self,
        jobs: &[&PendingJob],
        job_ps: impl ExactSizeIterator<Item = usize> + Clone,
        idle: &[usize],
        ctx: &DispatchCtx<'_>,
        out: &mut Vec<(usize, usize)>,
    ) {
        self.cost.clear();
        for p in job_ps.clone() {
            self.cost_row(ctx, jobs[p], idle);
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
    }

    /// Two-level dispatch: consistent-hash + power-of-two-choices cell
    /// routing, then [`ModelCore::assign_exact`] within each cell.
    /// `servers` is the idle-list buffer.
    fn assign_cells(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        servers: &mut Vec<usize>,
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
            idle.fill_cell_idle(group[0].0, servers);
            let job_ps = group.iter().map(|&(_, job_pos)| job_pos);
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
/// jobs run *now* (the rest wait), still minimizing predicted cost.
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
    use crate::queue::PendingJob;
    use crate::workload::{JobSpec, Priority};
    use vtx_codec::Preset;
    use vtx_sched::TranscodeTask;

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
                            .map(|&s| {
                                ctx.penalized(ModelCore::predict_raw(kind, &ctx, &j, s) as f64, s)
                            })
                            .collect();
                        for pass in ["fill", "hit"] {
                            core.cost.clear();
                            core.cost_row(&ctx, &j, &servers);
                            assert_eq!(core.cost, by_server, "row {pass}");
                        }
                        // One server at a time: the classes it skips stay
                        // unpriced, not mispriced.
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
            let picks = core.assign_cells(&refs, &idle, &mut Vec::new(), &ctx);
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
                    .map(|&(jp, s)| {
                        ctx.penalized(ModelCore::predict_raw(kind, &ctx, refs[jp], s) as f64, s)
                    })
                    .sum::<f64>()
            };
            for (cell, group) in by_cell {
                let mut alone = Vec::new();
                ModelCore::new(kind).assign_exact(
                    &refs,
                    group.iter().map(|&(jp, _)| jp),
                    &idle.cell_idle(cell),
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
