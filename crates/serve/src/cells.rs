//! Fleet sharding for two-level dispatch: cells, consistent-hash routing,
//! and an indexed idle set.
//!
//! A 10k-server fleet cannot afford a global assignment solve per event.
//! fig9-XL shards the fleet into contiguous **cells** of a few dozen
//! servers; jobs are routed to a cell by seeded consistent hashing with
//! **power-of-two-choices** (two candidate cells per job id, the one with
//! more idle capacity wins), and the exact assignment problem is solved
//! only *within* the chosen cell. Both levels are pure functions of the
//! seed, so the whole arrangement stays byte-deterministic.
//!
//! [`IdleIndex`] is the companion data structure: a Fenwick (binary
//! indexed) tree over the per-server idle bits with per-cell counters. It
//! answers "k-th idle server" (random policy), "first idle server at or
//! after s" (round-robin) and "how idle is cell c" (routing) in
//! O(log fleet). The in-flight machine (`crate::inflight`) maintains it
//! incrementally for both drivers, and every dispatch round at every fleet
//! size reads it; it holds only servers that may take work.

use crate::rng::derive;

/// Virtual nodes per cell on the consistent-hash ring. More points smooth
/// the key distribution across cells.
const VNODES_PER_CELL: usize = 16;

/// Default servers per cell when the caller does not force a cell count.
const DEFAULT_CELL_SIZE: usize = 64;

/// The routing threshold, in servers: below it the model-driven policies
/// solve a round over the whole idle set (which the committed fig9
/// artifacts pin byte-for-byte), from it up they route each candidate to a
/// cell and solve per cell. It chooses *routing*, not a solver — both
/// sides run the same exact rectangular Hungarian, whose cost follows the
/// matrix it is handed, and a round never has more rows than the queue's
/// candidate window (8 by default): on `fleet_xl` every solve — 5 000 of
/// 5 000 a pass — is 1 job × 25–63 (mean 40) idle servers
/// (EXPERIMENTS.md, fig9-XL). Nothing else in the crate branches on it.
pub const XL_FLEET_THRESHOLD: usize = 64;

/// Static sharding of `n_servers` into contiguous cells, plus the seeded
/// consistent-hash ring used to route jobs to cells.
#[derive(Debug, Clone)]
pub struct CellPlan {
    n_servers: usize,
    n_cells: usize,
    /// Cell boundaries: cell `c` owns servers `starts[c] .. starts[c + 1]`.
    starts: Vec<usize>,
    /// Consistent-hash ring: (point, cell), sorted by point.
    ring: Vec<(u64, usize)>,
    seed: u64,
}

impl CellPlan {
    /// Builds a plan with `target_cells` cells (0 = auto-size at
    /// `DEFAULT_CELL_SIZE` servers per cell). Cells are contiguous index
    /// ranges whose sizes differ by at most one server.
    pub fn build(n_servers: usize, target_cells: usize, seed: u64) -> CellPlan {
        assert!(n_servers > 0, "cannot shard an empty fleet");
        let n_cells = if target_cells == 0 {
            n_servers.div_ceil(DEFAULT_CELL_SIZE)
        } else {
            target_cells.min(n_servers)
        }
        .max(1);
        let base = n_servers / n_cells;
        let extra = n_servers % n_cells;
        let mut starts = Vec::with_capacity(n_cells + 1);
        let mut at = 0usize;
        for c in 0..n_cells {
            starts.push(at);
            at += base + usize::from(c < extra);
        }
        starts.push(n_servers);
        let mut ring: Vec<(u64, usize)> = (0..n_cells)
            .flat_map(|c| {
                (0..VNODES_PER_CELL).map(move |v| {
                    (
                        derive(seed ^ 0xCE11_0000, (c * VNODES_PER_CELL + v) as u64),
                        c,
                    )
                })
            })
            .collect();
        ring.sort_unstable();
        CellPlan {
            n_servers,
            n_cells,
            starts,
            ring,
            seed,
        }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Fleet size this plan shards.
    pub(crate) fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// The cell owning server `s`.
    pub(crate) fn cell_of(&self, s: usize) -> usize {
        debug_assert!(s < self.n_servers);
        // starts is sorted; partition_point gives the first start > s.
        self.starts.partition_point(|&b| b <= s) - 1
    }

    /// The server range of cell `c`.
    fn range(&self, c: usize) -> std::ops::Range<usize> {
        self.starts[c]..self.starts[c + 1]
    }

    /// Successor cell of a hash point on the ring.
    fn ring_cell(&self, point: u64) -> usize {
        let i = self.ring.partition_point(|&(p, _)| p < point);
        self.ring[if i == self.ring.len() { 0 } else { i }].1
    }

    /// The job's two candidate cells (power-of-two-choices): successors of
    /// two independent seeded hashes of the job id on the ring. The pair is
    /// a pure function of `(seed, job id)`.
    pub(crate) fn candidates(&self, job_id: u64) -> (usize, usize) {
        let a = self.ring_cell(derive(self.seed ^ 0x0007_E001, job_id));
        let b = self.ring_cell(derive(self.seed ^ 0x0007_E002, job_id.wrapping_add(1)));
        (a, b)
    }
}

/// Fenwick-indexed idle set with per-cell counters.
#[derive(Debug, Clone)]
pub struct IdleIndex {
    plan: CellPlan,
    idle: Vec<bool>,
    /// 1-based Fenwick tree over the idle bits.
    tree: Vec<u32>,
    per_cell: Vec<u32>,
    total: usize,
}

impl IdleIndex {
    /// Builds the index with every server idle.
    pub fn new(plan: CellPlan) -> IdleIndex {
        let n = plan.n_servers();
        let mut idx = IdleIndex {
            per_cell: (0..plan.n_cells())
                .map(|c| (plan.range(c).len()) as u32)
                .collect(),
            plan,
            idle: vec![true; n],
            tree: vec![0; n + 1],
            total: n,
        };
        for s in 0..n {
            idx.tree_add(s, 1);
        }
        idx
    }

    /// The plan this index shards by.
    pub(crate) fn plan(&self) -> &CellPlan {
        &self.plan
    }

    fn tree_add(&mut self, s: usize, delta: i32) {
        let mut i = s + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Idle servers among indices `0..=s`.
    fn rank(&self, s: usize) -> usize {
        let mut i = s + 1;
        let mut acc = 0usize;
        while i > 0 {
            acc += self.tree[i] as usize;
            i -= i & i.wrapping_neg();
        }
        acc
    }

    /// Marks `s` idle. Returns whether the bit changed.
    pub fn set_idle(&mut self, s: usize) -> bool {
        if self.idle[s] {
            return false;
        }
        self.idle[s] = true;
        self.tree_add(s, 1);
        self.per_cell[self.plan.cell_of(s)] += 1;
        self.total += 1;
        true
    }

    /// Marks `s` busy (or removed — a Down server simply never comes back).
    /// Returns whether the bit changed.
    pub fn set_busy(&mut self, s: usize) -> bool {
        if !self.idle[s] {
            return false;
        }
        self.idle[s] = false;
        self.tree_add(s, -1);
        self.per_cell[self.plan.cell_of(s)] -= 1;
        self.total -= 1;
        true
    }

    /// Whether server `s` is idle.
    #[cfg(test)]
    pub(crate) fn is_idle(&self, s: usize) -> bool {
        self.idle[s]
    }

    /// Total idle servers.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Idle servers in cell `c`.
    pub(crate) fn idle_in_cell(&self, c: usize) -> usize {
        self.per_cell[c] as usize
    }

    /// The `k`-th idle server (0-based, ascending index order), if any —
    /// a Fenwick descend, O(log fleet).
    pub fn nth_idle(&self, k: usize) -> Option<usize> {
        if k >= self.total {
            return None;
        }
        let mut want = k + 1;
        let mut pos = 0usize; // 1-based prefix position
        let mut step = self.tree.len().next_power_of_two() >> 1;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && (self.tree[next] as usize) < want {
                want -= self.tree[next] as usize;
                pos = next;
            }
            step >>= 1;
        }
        Some(pos) // pos is 1-based index of the predecessor → 0-based server
    }

    /// First idle server with index `>= s`, without wraparound.
    pub(crate) fn next_idle_at_or_after(&self, s: usize) -> Option<usize> {
        let before = if s == 0 { 0 } else { self.rank(s - 1) };
        self.nth_idle(before)
    }

    /// The idle servers of cell `c`, ascending.
    pub(crate) fn cell_servers(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.plan.range(c).filter(|&s| self.idle[s])
    }

    /// The idle servers, ascending.
    pub(crate) fn servers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.idle.len()).filter(|&s| self.idle[s])
    }

    /// The idle servers of cell `c`, ascending.
    #[cfg(test)]
    pub(crate) fn cell_idle(&self, c: usize) -> Vec<usize> {
        self.cell_servers(c).collect()
    }

    /// All idle servers, ascending.
    #[cfg(test)]
    pub(crate) fn to_vec(&self) -> Vec<usize> {
        self.servers().collect()
    }
}

/// An index over `n_servers` in which exactly the servers in `idle` are
/// idle — what the dispatch unit tests hand to the one surface.
#[cfg(test)]
pub(crate) fn idle_only(n_servers: usize, idle: &[usize]) -> IdleIndex {
    let mut idx = IdleIndex::new(CellPlan::build(n_servers, 0, 0));
    for s in (0..n_servers).filter(|s| !idle.contains(s)) {
        idx.set_busy(s);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_partition_the_fleet() {
        for (n, target) in [(10, 3), (500, 0), (64, 1), (7, 10)] {
            let plan = CellPlan::build(n, target, 42);
            let mut covered = vec![false; n];
            for c in 0..plan.n_cells() {
                for s in plan.range(c) {
                    assert!(!covered[s], "server {s} in two cells");
                    covered[s] = true;
                    assert_eq!(plan.cell_of(s), c);
                }
            }
            assert!(covered.iter().all(|&x| x), "n={n} target={target}");
            let sizes: Vec<usize> = (0..plan.n_cells()).map(|c| plan.range(c).len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "uneven cells: {sizes:?}");
        }
    }

    #[test]
    fn routing_is_deterministic_and_spread() {
        let plan = CellPlan::build(512, 8, 7);
        let plan2 = CellPlan::build(512, 8, 7);
        let mut hits = vec![0usize; plan.n_cells()];
        for id in 0..4000u64 {
            let (a, b) = plan.candidates(id);
            assert_eq!((a, b), plan2.candidates(id), "id {id}");
            hits[a] += 1;
            hits[b] += 1;
        }
        // Every cell must see a reasonable share of candidates.
        for (c, &h) in hits.iter().enumerate() {
            assert!(h > 200, "cell {c} starved: {h} of 8000 candidate slots");
        }
    }

    #[test]
    fn different_seeds_route_differently() {
        let a = CellPlan::build(256, 4, 1);
        let b = CellPlan::build(256, 4, 2);
        let differs = (0..100u64).any(|id| a.candidates(id) != b.candidates(id));
        assert!(differs);
    }

    #[test]
    fn idle_index_tracks_bits_and_counts() {
        let plan = CellPlan::build(10, 3, 0);
        let mut idx = IdleIndex::new(plan);
        assert_eq!(idx.total(), 10);
        assert!(idx.set_busy(3));
        assert!(!idx.set_busy(3), "double busy is a no-op");
        assert!(idx.set_busy(0));
        assert_eq!(idx.total(), 8);
        assert_eq!(idx.to_vec(), vec![1, 2, 4, 5, 6, 7, 8, 9]);
        assert!(idx.set_idle(3));
        assert_eq!(idx.to_vec(), vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let cell_sum: usize = (0..idx.plan().n_cells()).map(|c| idx.idle_in_cell(c)).sum();
        assert_eq!(cell_sum, idx.total());
    }

    #[test]
    fn nth_idle_matches_linear_scan() {
        let plan = CellPlan::build(67, 5, 3);
        let mut idx = IdleIndex::new(plan);
        for s in [0, 1, 13, 40, 66, 65, 32] {
            idx.set_busy(s);
        }
        let linear = idx.to_vec();
        for (k, &want) in linear.iter().enumerate() {
            assert_eq!(idx.nth_idle(k), Some(want), "k={k}");
        }
        assert_eq!(idx.nth_idle(linear.len()), None);
    }

    #[test]
    fn next_idle_at_or_after_matches_scan() {
        let plan = CellPlan::build(20, 2, 9);
        let mut idx = IdleIndex::new(plan);
        for s in [0, 1, 2, 7, 19] {
            idx.set_busy(s);
        }
        for s in 0..20 {
            let want = (s..20).find(|&x| idx.is_idle(x));
            assert_eq!(idx.next_idle_at_or_after(s), want, "s={s}");
        }
    }

    #[test]
    fn idle_lists_equal_the_filtered_ranges_under_churn() {
        use crate::rng::SplitMix64;
        let n = 300;
        let mut idx = IdleIndex::new(CellPlan::build(n, 7, 1));
        let mut bits = vec![true; n];
        let mut rng = SplitMix64::new(0x1D1E);
        for step in 0..10_000 {
            let s = rng.next_range(n as u64) as usize;
            let to_idle = rng.next_range(2) == 0;
            let changed = if to_idle {
                idx.set_idle(s)
            } else {
                idx.set_busy(s)
            };
            assert_eq!(changed, bits[s] != to_idle, "step {step}");
            bits[s] = to_idle;
            if step % 97 != 0 {
                continue;
            }
            let want: Vec<usize> = (0..n).filter(|&s| bits[s]).collect();
            assert_eq!(idx.to_vec(), want, "step {step}");
            assert_eq!(idx.total(), want.len());
            for c in 0..idx.plan().n_cells() {
                let want: Vec<usize> = idx.plan().range(c).filter(|&s| bits[s]).collect();
                assert_eq!(idx.cell_idle(c), want, "step {step} cell {c}");
                assert_eq!(idx.idle_in_cell(c), want.len());
            }
        }
    }

    #[test]
    fn cell_idle_respects_ranges() {
        let plan = CellPlan::build(30, 3, 5);
        let mut idx = IdleIndex::new(plan);
        idx.set_busy(11);
        for c in 0..idx.plan().n_cells() {
            let r = idx.plan().range(c);
            let got = idx.cell_idle(c);
            assert!(got.iter().all(|s| r.contains(s)));
            assert_eq!(got.len(), idx.idle_in_cell(c));
        }
    }
}
