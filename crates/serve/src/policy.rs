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
//! incremental [`IdleIndex`], at every fleet size. The baselines sample the
//! index's Fenwick tree directly. The model-driven policies pick their
//! assignment solver from the fleet size they observe: below
//! [`XL_FLEET_THRESHOLD`] servers an exact Hungarian solve over the idle
//! set (faster there, and what the committed fig9 artifacts pin); from the
//! threshold up each candidate is routed to one of two consistent-hashed
//! cells (power-of-two-choices on idle capacity) and a warm-started
//! ε-scaling auction runs *within* the chosen cell, so nothing is O(fleet).
//!
//! The model-driven policies also memoize predictions: the cost model is a
//! pure function of (task parameters, server class), so each (task, class)
//! pair is priced once per detector epoch and invalidated wholesale on any
//! Suspect/Down/Degrade transition (the epoch bump in
//! [`DispatchCtx::health_epoch`]).

use std::collections::BTreeMap;
use std::fmt;

use vtx_chaos::Health;
use vtx_codec::Preset;

use crate::cells::{IdleIndex, XL_FLEET_THRESHOLD};
use crate::cost::CostModel;
use crate::fleet::Fleet;
use crate::queue::PendingJob;
use crate::rng::SplitMix64;
use vtx_sched::{auction, hungarian};

/// Cost multiplier the model-driven policies apply to servers the failure
/// detector currently suspects: high enough that a suspected server is only
/// chosen when nothing healthy is idle, low enough that the assignment
/// matrix stays well-conditioned.
pub const SUSPECT_PENALTY: f64 = 64.0;

/// Everything a policy may look at when assigning.
#[derive(Debug)]
pub struct DispatchCtx<'a> {
    /// The fleet (server specs, speeds, uarch kinds).
    pub fleet: &'a Fleet,
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
    pub fn penalized(&self, base: f64, server: usize) -> f64 {
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
pub struct RandomPolicy {
    rng: SplitMix64,
}

impl RandomPolicy {
    /// Creates the policy with its own seeded stream.
    pub fn new(seed: u64) -> Self {
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
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl RoundRobinPolicy {
    /// Creates the policy with the cursor at server 0.
    pub fn new() -> Self {
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

/// Integer suspect penalty applied to milli-costs on the auction path —
/// the same ×64 as [`SUSPECT_PENALTY`], kept integral so bids stay exact.
const SUSPECT_PENALTY_INT: u64 = SUSPECT_PENALTY as u64;

/// Prediction memo keys: (crf, refs, preset rank, server class) within a
/// video's entry.
type KnobKey = (u8, u8, u8, u16);

/// Shared machinery of the model-driven policies (`smart` / `port`): the
/// prediction memo, the per-server auction prices, and the two assignment
/// solvers [`ModelCore::assign`] chooses between.
#[derive(Debug)]
struct ModelCore {
    kind: PredictionKind,
    /// Prediction memo: video → (crf, refs, preset rank, server class) →
    /// base (un-penalized) predicted µs. The server class collapses servers
    /// with identical (uarch, speed) — the only inputs the model reads.
    cache: BTreeMap<String, BTreeMap<KnobKey, u64>>,
    /// Detector epoch the memo was filled under; any mismatch clears it.
    cache_epoch: u64,
    /// Server index → class id, rebuilt when the fleet size changes.
    class_of: Vec<u16>,
    /// Warm-start auction prices per server index (cell-auction solver only).
    prices: BTreeMap<usize, i64>,
}

impl ModelCore {
    fn new(kind: PredictionKind) -> Self {
        ModelCore {
            kind,
            cache: BTreeMap::new(),
            cache_epoch: 0,
            class_of: Vec::new(),
            prices: BTreeMap::new(),
        }
    }

    /// Raw (un-cached, un-penalized) prediction for this kind — the
    /// reference the memo is tested against.
    fn predict_raw(&self, ctx: &DispatchCtx<'_>, job: &PendingJob, s: usize) -> u64 {
        let server = ctx.fleet.server(s);
        match self.kind {
            PredictionKind::Affinity => ctx.model.predicted_us(&job.spec, server),
            PredictionKind::Port => ctx.model.port_predicted_us(&job.spec, server),
        }
    }

    fn ensure_classes(&mut self, fleet: &Fleet) {
        if self.class_of.len() == fleet.len() {
            return;
        }
        let mut ids: BTreeMap<(&str, u64), u16> = BTreeMap::new();
        self.class_of = fleet
            .servers()
            .iter()
            .map(|sv| {
                let key = (sv.uarch.name.as_str(), sv.speed.to_bits());
                let next = ids.len() as u16;
                *ids.entry(key).or_insert(next)
            })
            .collect();
        self.cache.clear();
    }

    /// Base (un-penalized) predicted µs, through the memo.
    fn predicted_base(&mut self, ctx: &DispatchCtx<'_>, job: &PendingJob, s: usize) -> u64 {
        if self.cache_epoch != ctx.health_epoch {
            self.cache.clear();
            self.cache_epoch = ctx.health_epoch;
        }
        self.ensure_classes(ctx.fleet);
        let t = &job.spec.task;
        let rank = Preset::ALL.iter().position(|&p| p == t.preset).unwrap_or(5) as u8;
        let key = (t.crf, t.refs, rank, self.class_of[s]);
        if let Some(&hit) = self.cache.get(t.video.as_str()).and_then(|m| m.get(&key)) {
            return hit;
        }
        let val = self.predict_raw(ctx, job, s);
        self.cache
            .entry(t.video.clone())
            .or_default()
            .insert(key, val);
        val
    }

    /// Suspect-penalized integer milli-µs cost for the auction path.
    fn milli_cost(&mut self, ctx: &DispatchCtx<'_>, job: &PendingJob, s: usize) -> u64 {
        let base = self.predicted_base(ctx, job, s).saturating_mul(1000);
        match ctx.health.get(s) {
            Some(Health::Suspected) => base.saturating_mul(SUSPECT_PENALTY_INT),
            _ => base,
        }
    }

    /// One dispatch round, by whichever solver is the faster one at the
    /// observed fleet size (see [`XL_FLEET_THRESHOLD`] for the measurement).
    fn assign(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        if jobs.is_empty() || idle.total() == 0 {
            Vec::new()
        } else if idle.plan().n_servers() < XL_FLEET_THRESHOLD {
            self.assign_exact(jobs, &idle.to_vec(), ctx)
        } else {
            self.assign_cells(jobs, idle, ctx)
        }
    }

    /// The exact solver: Hungarian over the full (jobs × idle) f64 matrix.
    /// Costs are byte-identical to the pre-memo implementation (the memo
    /// returns the very same `u64` the model would).
    fn assign_exact(
        &mut self,
        jobs: &[&PendingJob],
        idle: &[usize],
        ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        let cost: Vec<Vec<f64>> = jobs
            .iter()
            .map(|j| {
                idle.iter()
                    .map(|&s| ctx.penalized(self.predicted_base(ctx, j, s) as f64, s))
                    .collect()
            })
            .collect();
        match hungarian::solve_padded(&cost) {
            Ok(assignment) => assignment
                .into_iter()
                .enumerate()
                .filter_map(|(job_pos, slot)| slot.map(|idle_pos| (job_pos, idle[idle_pos])))
                .collect(),
            // The matrix is rectangular by construction; a solver error
            // would be a bug — fall back to in-order greedy rather than
            // crash the serving loop.
            Err(_) => idle.iter().copied().enumerate().take(jobs.len()).collect(),
        }
    }

    /// The two-level solver: consistent-hash + power-of-two-choices cell
    /// routing, then a warm-started ε-scaling auction within each cell.
    fn assign_cells(
        &mut self,
        jobs: &[&PendingJob],
        idle: &IdleIndex,
        ctx: &DispatchCtx<'_>,
    ) -> Vec<(usize, usize)> {
        // Level 1: route each candidate to the roomier of its two hashed
        // cells, debiting capacity as jobs land so a burst spreads out.
        let mut routed: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut taken: BTreeMap<usize, usize> = BTreeMap::new();
        for (job_pos, j) in jobs.iter().enumerate() {
            let (a, b) = idle.plan().candidates(j.spec.id);
            let room_a = idle
                .idle_in_cell(a)
                .saturating_sub(*taken.get(&a).unwrap_or(&0));
            let room_b = idle
                .idle_in_cell(b)
                .saturating_sub(*taken.get(&b).unwrap_or(&0));
            let cell = if room_a == 0 && room_b == 0 {
                continue; // both candidate cells saturated — job waits
            } else if room_b > room_a {
                b
            } else {
                a
            };
            *taken.entry(cell).or_insert(0) += 1;
            routed.entry(cell).or_default().push(job_pos);
        }
        // Level 2: auction within each cell, prices warm across rounds.
        let mut out = Vec::new();
        for (cell, job_ps) in routed {
            let servers = idle.cell_idle(cell);
            if servers.is_empty() {
                continue;
            }
            let cost: Vec<Vec<u64>> = job_ps
                .iter()
                .map(|&jp| {
                    servers
                        .iter()
                        .map(|&s| self.milli_cost(ctx, jobs[jp], s))
                        .collect()
                })
                .collect();
            let mut prices: Vec<i64> = servers
                .iter()
                .map(|&s| self.prices.get(&s).copied().unwrap_or(0))
                .collect();
            let Ok(assignment) = auction::solve_padded_warm(&cost, &mut prices) else {
                continue; // unreachable: matrix is rectangular by construction
            };
            for (&s, &p) in servers.iter().zip(&prices) {
                self.prices.insert(s, p);
            }
            for (row, slot) in assignment.iter().enumerate() {
                if let Some(col) = slot {
                    out.push((job_ps[row], servers[*col]));
                }
            }
        }
        out
    }
}

/// The characterization-driven policy: minimum predicted total service time
/// over the (candidates × idle servers) matrix — the smart scheduler of
/// Figure 9 run continuously over whatever is currently queued and idle.
/// Fleets below [`XL_FLEET_THRESHOLD`] servers get the exact Hungarian
/// solve, larger ones two-level cell-auction dispatch. When queued jobs
/// outnumber idle servers the rectangular solve picks which jobs run *now*
/// (the rest wait), still minimizing predicted cost.
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
pub struct PortPolicy {
    core: ModelCore,
}

impl Default for PortPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl PortPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
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

    fn ctx<'a>(fleet: &'a Fleet, model: &'a CostModel) -> DispatchCtx<'a> {
        DispatchCtx {
            fleet,
            model,
            now_us: 0,
            health: &[],
            health_epoch: 0,
        }
    }

    #[test]
    fn assignments_are_injective_for_all_policies() {
        let fleet = Fleet::table_iv();
        let model = CostModel::new(42);
        let jobs: Vec<PendingJob> = (0..8).map(|i| pending(i, "bike", Preset::Medium)).collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let idle = idle_only(5, &[0, 2, 4]);
        for mut p in [
            Box::new(RandomPolicy::new(1)) as Box<dyn DispatchPolicy>,
            Box::new(RoundRobinPolicy::new()),
            Box::new(SmartPolicy::new()),
            Box::new(PortPolicy::new()),
        ] {
            let a = p.assign(&refs, &idle, &ctx(&fleet, &model));
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
        let fleet = Fleet::table_iv();
        let model = CostModel::new(42);
        let mut p = RoundRobinPolicy::new();
        let jobs: Vec<PendingJob> = (0..2).map(|i| pending(i, "bike", Preset::Fast)).collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let all = idle_only(5, &[0, 1, 2, 3, 4]);
        let a1 = p.assign(&refs[..1], &all, &ctx(&fleet, &model));
        assert_eq!(a1, vec![(0, 0)]);
        // Cursor advanced: next single job goes to server 1.
        let a2 = p.assign(&refs[..1], &all, &ctx(&fleet, &model));
        assert_eq!(a2, vec![(0, 1)]);
        // Sparse idle set, cursor now at 2: the next idle server *at or
        // after the cursor* is 4, not the lowest-numbered idle one.
        let sparse = idle_only(5, &[0, 4]);
        let a3 = p.assign(&refs[..1], &sparse, &ctx(&fleet, &model));
        assert_eq!(a3, vec![(0, 4)]);
        // The cursor wraps, and skips a dead server (2 never rejoins the
        // index): two jobs from cursor 0 with {1, 3, 4} idle take 1 and 3.
        let dead = idle_only(5, &[1, 3, 4]);
        let a4 = p.assign(&refs, &dead, &ctx(&fleet, &model));
        assert_eq!(a4, vec![(0, 1), (1, 3)]);
        let a5 = p.assign(&refs, &dead, &ctx(&fleet, &model));
        assert_eq!(a5, vec![(0, 4), (1, 1)], "wraps past the dead server");
    }

    #[test]
    fn cost_memo_returns_exactly_what_the_model_would() {
        // The memo must be a pure speedup: for every catalog video × knob
        // × server it returns `predict_raw`'s value, when filling and when
        // hitting, across detector-epoch bumps and fleet-size changes.
        let model = CostModel::new(42);
        let fleets = [Fleet::table_iv(), Fleet::sized(8).unwrap()];
        for kind in [PredictionKind::Affinity, PredictionKind::Port] {
            let mut core = ModelCore::new(kind);
            for (health_epoch, fleet) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 0)] {
                let fleet = &fleets[fleet];
                let ctx = DispatchCtx {
                    health_epoch,
                    ..ctx(fleet, &model)
                };
                for video in vtx_frame::vbench::catalog() {
                    for (crf, refs, preset) in [(18, 1, Preset::Ultrafast), (35, 8, Preset::Slow)] {
                        let mut j = pending(0, &video.short_name, preset);
                        j.spec.task = TranscodeTask::new(&video.short_name, crf, refs, preset);
                        for s in 0..fleet.len() {
                            let want = core.predict_raw(&ctx, &j, s);
                            assert_eq!(core.predicted_base(&ctx, &j, s), want, "fill");
                            assert_eq!(core.predicted_base(&ctx, &j, s), want, "hit");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn smart_prefers_the_affine_server() {
        let fleet = Fleet::table_iv();
        let model = CostModel::new(42);
        // One job, all servers idle: smart must pick the predicted-fastest.
        let j = pending(0, "hall", Preset::Medium);
        let refs = vec![&j];
        let idle = idle_only(5, &[0, 1, 2, 3, 4]);
        let mut p = SmartPolicy::new();
        let a = p.assign(&refs, &idle, &ctx(&fleet, &model));
        assert_eq!(a.len(), 1);
        let best = (0..5)
            .min_by_key(|&s| model.predicted_us(&j.spec, fleet.server(s)))
            .unwrap();
        assert_eq!(a[0].1, best);
    }

    #[test]
    fn smart_handles_more_jobs_than_servers() {
        let fleet = Fleet::table_iv();
        let model = CostModel::new(42);
        let jobs: Vec<PendingJob> = (0..7)
            .map(|i| pending(i, "girl", Preset::Veryfast))
            .collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let idle = idle_only(5, &[1, 3]);
        let mut p = SmartPolicy::new();
        let a = p.assign(&refs, &idle, &ctx(&fleet, &model));
        assert_eq!(a.len(), 2, "exactly the idle servers get work");
    }

    #[test]
    fn random_is_seed_deterministic() {
        let fleet = Fleet::table_iv();
        let model = CostModel::new(42);
        let jobs: Vec<PendingJob> = (0..5).map(|i| pending(i, "cat", Preset::Fast)).collect();
        let refs: Vec<&PendingJob> = jobs.iter().collect();
        let idle = idle_only(5, &[0, 1, 2, 3, 4]);
        let mut p1 = RandomPolicy::new(9);
        let mut p2 = RandomPolicy::new(9);
        assert_eq!(
            p1.assign(&refs, &idle, &ctx(&fleet, &model)),
            p2.assign(&refs, &idle, &ctx(&fleet, &model))
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
        let fleet = Fleet::table_iv();
        let model = CostModel::new(42);
        let j = pending(0, "hall", Preset::Medium);
        let refs = vec![&j];
        let idle = idle_only(5, &[0, 1, 2, 3, 4]);
        let mut p = SmartPolicy::new();
        let best = (0..5)
            .min_by_key(|&s| model.predicted_us(&j.spec, fleet.server(s)))
            .unwrap();
        // Suspect the predicted-best server: smart must pick another one.
        let mut health = vec![Health::Up; 5];
        health[best] = Health::Suspected;
        let ctx = DispatchCtx {
            fleet: &fleet,
            model: &model,
            now_us: 0,
            health: &health,
            health_epoch: 0,
        };
        let a = p.assign(&refs, &idle, &ctx);
        assert_eq!(a.len(), 1);
        assert_ne!(a[0].1, best, "suspected server is avoided");
        // With everything suspected the penalty cancels out: still assigns.
        let all = vec![Health::Suspected; 5];
        let ctx = DispatchCtx {
            fleet: &fleet,
            model: &model,
            now_us: 0,
            health: &all,
            health_epoch: 0,
        };
        assert_eq!(p.assign(&refs, &idle, &ctx).len(), 1);
    }

    #[test]
    fn penalized_defaults_to_up_for_short_health_slices() {
        let fleet = Fleet::table_iv();
        let model = CostModel::new(1);
        let c = ctx(&fleet, &model);
        assert_eq!(c.penalized(10.0, 3), 10.0);
        let health = [Health::Up, Health::Suspected];
        let c = DispatchCtx {
            fleet: &fleet,
            model: &model,
            now_us: 0,
            health: &health,
            health_epoch: 0,
        };
        assert_eq!(c.penalized(10.0, 1), 10.0 * SUSPECT_PENALTY);
        assert_eq!(c.penalized(10.0, 0), 10.0);
    }

    #[test]
    fn port_policy_picks_the_billed_fastest_server() {
        let fleet = Fleet::table_iv();
        let model = CostModel::new(42);
        // Slow preset → SATD/trellis-heavy mix → be_op2's extra port pays.
        let j = pending(0, "bike", Preset::Veryslow);
        let refs = vec![&j];
        let idle = idle_only(5, &[0, 1, 2, 3, 4]);
        let mut p = PortPolicy::new();
        let a = p.assign(&refs, &idle, &ctx(&fleet, &model));
        assert_eq!(a.len(), 1);
        let best = (0..5)
            .min_by_key(|&s| model.port_predicted_us(&j.spec, fleet.server(s)))
            .unwrap();
        assert_eq!(a[0].1, best);
    }
}
