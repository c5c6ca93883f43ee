//! Allocation budget of the serving hot path, counted, not timed.
//!
//! A dispatch round in steady state may allocate the pick list it returns
//! and nothing else: the cost matrix, the idle list, the cell routing, the
//! solver's potentials and the price memo are buffers the policy keeps.
//! `CostModel::new` may allocate nothing once the process-wide table
//! exists. Whole `fleet_xl`- and `fleet_small`-shaped runs are held to
//! per-job budgets. The
//! counts repeat exactly, so they are pinned as constants; a change that
//! makes a round or a job allocate again fails here before any benchmark
//! has to notice.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vtx_chaos::Health;
use vtx_serve::cells::{CellPlan, IdleIndex};
use vtx_serve::cost::CostModel;
use vtx_serve::policy::{ClassMap, DispatchCtx, DispatchPolicy, SmartPolicy};
use vtx_serve::queue::PendingJob;
use vtx_serve::sim::simulate_trace;
use vtx_serve::{Fleet, JobSpec, ServeConfig, WorkloadSpec};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    /// `const`-initialised and without a destructor, so reading it from
    /// inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs while a thread is torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract for `alloc`, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract for `alloc_zeroed`, passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract for `realloc`, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const ROUNDS: usize = 1_000;

fn pending(trace: Vec<JobSpec>) -> Vec<PendingJob> {
    trace
        .into_iter()
        .map(|spec| PendingJob {
            spec,
            admitted_us: 0,
            attempts: 0,
        })
        .collect()
}

/// Runs `rounds` twice — once to warm the policy, once counted — and
/// returns the counted pass's allocations and picks.
fn counted_pass(
    policy: &mut SmartPolicy,
    mut round: impl FnMut(&mut SmartPolicy, usize) -> usize,
) -> (u64, usize) {
    for r in 0..ROUNDS {
        round(policy, r);
    }
    let mut picks = 0;
    let allocations = allocations_in(|| {
        for r in 0..ROUNDS {
            picks += round(policy, r);
        }
    });
    (allocations, picks)
}

#[test]
fn an_xl_round_allocates_only_its_pick_list() {
    // `fleet_xl`'s shape: 500 servers in 64-server cells, one candidate a
    // round, some two thirds of each cell idle, one server suspected.
    let fleet = Fleet::sized(500).unwrap();
    let classes = ClassMap::of(&fleet);
    let model = CostModel::new(42);
    let mut idle = IdleIndex::new(CellPlan::build(fleet.len(), 0, 42));
    for s in (0..fleet.len()).step_by(3) {
        idle.set_busy(s);
    }
    let mut health = vec![Health::Up; fleet.len()];
    health[7] = Health::Suspected;
    let ctx = DispatchCtx {
        fleet: &fleet,
        classes: &classes,
        model: &model,
        now_us: 0,
        health: &health,
        health_epoch: 3,
    };
    let jobs = pending(
        WorkloadSpec {
            jobs: ROUNDS,
            ..WorkloadSpec::xl_smoke(42)
        }
        .generate()
        .unwrap(),
    );
    let mut policy = SmartPolicy::new();
    let (allocations, picks) =
        counted_pass(&mut policy, |p, r| p.assign(&[&jobs[r]], &idle, &ctx).len());
    assert_eq!(picks, ROUNDS, "every round places its job");
    assert_eq!(allocations, 1_000, "one pick list a round, nothing else");
}

#[test]
fn a_small_fleet_round_allocates_only_its_pick_list() {
    // `fleet_small`'s shape: eight servers, one global solve over 1..=8
    // candidates and whatever is idle, wide and tall matrices both.
    let fleet = Fleet::sized(8).unwrap();
    let classes = ClassMap::of(&fleet);
    let model = CostModel::new(42);
    let idles: Vec<IdleIndex> = (1u32..=8)
        .map(|k| {
            let mut idle = IdleIndex::new(CellPlan::build(fleet.len(), 0, 42));
            for s in (0..fleet.len()).filter(|s| (s * 5 + 3) % 8 >= k as usize) {
                idle.set_busy(s);
            }
            idle
        })
        .collect();
    let ctx = DispatchCtx {
        fleet: &fleet,
        classes: &classes,
        model: &model,
        now_us: 0,
        health: &[],
        health_epoch: 0,
    };
    let jobs = pending(WorkloadSpec::bundled(42).generate().unwrap());
    let refs: Vec<&PendingJob> = jobs.iter().collect();
    let mut policy = SmartPolicy::new();
    let (allocations, picks) = counted_pass(&mut policy, |p, r| {
        let window = &refs[r % 300..][..1 + r % 8];
        p.assign(window, &idles[(r / 8) % 8], &ctx).len()
    });
    let want: usize = (0..ROUNDS).map(|r| (1 + r % 8).min(1 + (r / 8) % 8)).sum();
    assert_eq!(picks, want, "min(candidates, idle) a round");
    assert_eq!(allocations, 1_000, "one pick list a round, nothing else");
}

#[test]
fn a_cost_model_is_free_once_the_table_exists() {
    let first = CostModel::new(1);
    let allocations = allocations_in(|| {
        for seed in 0..ROUNDS as u64 {
            assert_eq!(std::hint::black_box(CostModel::new(seed)).seed, seed);
        }
    });
    assert_eq!(allocations, 0);
    assert!(first.knows("bike"));
}

/// Allocations of one `fleet_xl`-shaped run over the first `jobs` jobs of
/// one trace: 500 servers, the event log and the obs plane off.
fn xl_run_allocations(policy: &str, jobs: usize) -> u64 {
    let trace = WorkloadSpec {
        jobs,
        ..WorkloadSpec::xl_smoke(42)
    }
    .generate()
    .unwrap();
    let fleet = Fleet::sized(500).unwrap();
    let policy = vtx_serve::policy_by_name(policy, 42).unwrap();
    allocations_in(|| {
        let out = simulate_trace(&trace, 42, fleet, policy, ServeConfig::xl()).unwrap();
        assert_eq!(out.report.offered, jobs as u64);
    })
}

#[test]
fn an_xl_job_stays_inside_its_allocation_budget() {
    // What 2,000 more jobs cost a run, so that the run's fixed setup (the
    // fleet, the cell plan, the report) cancels out: 2.46 a job. A job
    // allocates its round's pick list (the core's id list reuses it, and
    // the candidate list is kept across rounds); the rest is the first
    // push into each of the calendar's buckets, whose count grows with
    // the trace, the node churn of the in-flight table's B-tree and the
    // growth of the run's records. The flat admission queue allocates
    // nothing once a class reaches its high-water mark, nor does a job in
    // flight or a price the memo already holds.
    for (policy, want) in [("smart", 4_912), ("port", 4_933)] {
        xl_run_allocations(policy, 100); // builds the process-wide cost table
        let extra = xl_run_allocations(policy, 4_000) - xl_run_allocations(policy, 2_000);
        assert_eq!(extra, want, "{policy}: allocations of 2,000 more jobs");
    }
}

/// Allocations of one `fleet_small`-shaped run over the first `jobs` jobs
/// of the bundled trace: 8 servers, the event log and the obs plane on.
fn small_run_allocations(jobs: usize) -> u64 {
    let trace = WorkloadSpec {
        jobs,
        ..WorkloadSpec::bundled(42)
    }
    .generate()
    .unwrap();
    let fleet = Fleet::sized(8).unwrap();
    let policy = vtx_serve::policy_by_name("smart", 42).unwrap();
    allocations_in(|| {
        let out = simulate_trace(&trace, 42, fleet, policy, ServeConfig::default()).unwrap();
        assert_eq!(out.report.offered, jobs as u64);
    })
}

#[test]
fn a_small_fleet_job_stays_inside_its_allocation_budget() {
    // What 400 more jobs cost, as above but with both planes writing:
    // 2.40 a job, the same pick list and calendar buckets. The event log
    // and the run's records grow by doubling, and the obs plane adds
    // nothing per job — its tracker keeps a job's first attempt inline in
    // one flat table, its sketches count into arrays, and a shed reason
    // is a static label.
    small_run_allocations(100); // builds the process-wide cost table
    let extra = small_run_allocations(800) - small_run_allocations(400);
    assert_eq!(extra, 960, "allocations of 400 more jobs");
}
