//! The Hungarian (Kuhn–Munkres) algorithm for minimum-cost one-to-one
//! assignment, implemented with the O(n³) potentials formulation.
//!
//! There is one body: [`Solver::solve_padded`] over a flat row-major
//! `rows × cols` slice. The solver owns the potentials, the matching and
//! the transpose buffer, so a caller that keeps one across calls (the
//! serving layer solves a small matrix per dispatch round) allocates
//! nothing once the buffers have grown to its largest shape. `solve`,
//! `try_solve` and [`solve_padded`] are thin wrappers that flatten a
//! `&[Vec<f64>]` and run a fresh solver. Ties break to the lowest index
//! (every comparison is a strict `<` scanned in ascending order); the
//! pinned serving artifacts depend on it.

use crate::error::{validate_matrix, SchedError};

/// Reusable state of the potentials algorithm (1-indexed internally:
/// slot 0 of every column-indexed vector is the virtual start column).
#[derive(Debug, Default)]
pub struct Solver {
    /// Row potentials.
    u: Vec<f64>,
    /// Column potentials.
    v: Vec<f64>,
    /// `p[j]` = row matched to column `j` (0 = none).
    p: Vec<usize>,
    /// Previous column on the alternating path to column `j`.
    way: Vec<usize>,
    /// Smallest reduced cost seen per column in the current phase.
    minv: Vec<f64>,
    used: Vec<bool>,
    /// The transposed matrix when `rows > cols`.
    transposed: Vec<f64>,
    /// The answer handed back by [`Solver::solve_padded`].
    out: Vec<Option<usize>>,
}

impl Solver {
    /// An empty solver; buffers grow on first use and are kept.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rectangular assignment in *both* orientations over the row-major
    /// `rows × cols` matrix `cost`: the column given to each row.
    ///
    /// With `rows <= cols` every row is assigned. With `rows > cols` (more
    /// queued tasks than idle servers — the common case in an online
    /// dispatcher) the matrix is transposed, solved for the columns, and
    /// mapped back: exactly `cols` rows receive a column, the rest get
    /// `None` and stay queued. The chosen subset minimizes total cost among
    /// all ways of giving each column one row.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::NoTasks`] for `rows == 0` and
    /// [`SchedError::NoConfigs`] for `cols == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `cost.len() != rows * cols`.
    pub fn solve_padded(
        &mut self,
        cost: &[f64],
        rows: usize,
        cols: usize,
    ) -> Result<&[Option<usize>], SchedError> {
        if rows == 0 {
            return Err(SchedError::NoTasks);
        }
        if cols == 0 {
            return Err(SchedError::NoConfigs);
        }
        assert_eq!(cost.len(), rows * cols, "cost must be rows × cols");
        self.out.clear();
        self.out.resize(rows, None);
        if rows <= cols {
            self.run(cost, rows, cols);
            for j in 1..=cols {
                if self.p[j] != 0 {
                    self.out[self.p[j] - 1] = Some(j - 1);
                }
            }
        } else {
            // Transpose: rows become the servers, columns the tasks, so the
            // transposed problem satisfies rows <= cols.
            let mut t = std::mem::take(&mut self.transposed);
            t.clear();
            t.extend((0..cols).flat_map(|j| (0..rows).map(move |i| cost[i * cols + j])));
            self.run(&t, cols, rows);
            self.transposed = t;
            // p[i] = server (transposed row) matched to task i.
            for i in 1..=rows {
                if self.p[i] != 0 {
                    self.out[i - 1] = Some(self.p[i] - 1);
                }
            }
        }
        Ok(&self.out)
    }

    /// The potentials loop over an `n × m` row-major matrix, `n <= m`:
    /// leaves the matching in `self.p`.
    fn run(&mut self, cost: &[f64], n: usize, m: usize) {
        debug_assert!(n <= m && cost.len() == n * m);
        let inf = f64::INFINITY;
        let Solver {
            u,
            v,
            p,
            way,
            minv,
            used,
            ..
        } = self;
        u.clear();
        u.resize(n + 1, 0.0);
        v.clear();
        v.resize(m + 1, 0.0);
        p.clear();
        p.resize(m + 1, 0);
        way.clear();
        way.resize(m + 1, 0);
        minv.resize(m + 1, inf);
        used.resize(m + 1, false);
        // Slices, not `&mut Vec`s: their pointers and lengths are locals no
        // store in the loop can alias, so they stay in registers.
        let (u, v, p, way) = (&mut u[..=n], &mut v[..=m], &mut p[..=m], &mut way[..=m]);
        let (minv, used) = (&mut minv[..=m], &mut used[..=m]);

        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            minv.fill(inf);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let row = &cost[(i0 - 1) * m..i0 * m];
                let ui = u[i0];
                let mut delta = inf;
                let mut j1 = 0usize;
                // Columns 1..=m in step: cost, potential, best reduced cost,
                // its predecessor, and whether the column is in the tree.
                let columns = row
                    .iter()
                    .zip(&v[1..])
                    .zip(&mut minv[1..])
                    .zip(&mut way[1..])
                    .zip(&used[1..]);
                for (j, ((((&c, &vj), minv_j), way_j), &in_tree)) in (1..).zip(columns) {
                    if in_tree {
                        continue;
                    }
                    let cur = c - ui - vj;
                    if cur < *minv_j {
                        *minv_j = cur;
                        *way_j = j0;
                    }
                    if *minv_j < delta {
                        delta = *minv_j;
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
    }
}

/// Solves the rectangular assignment problem: `cost[i][j]` is the cost of
/// giving row (task) `i` to column (server) `j`, with `rows <= cols`.
/// Returns the column assigned to each row, minimizing total cost.
///
/// # Panics
///
/// Panics if `cost` is empty, ragged, or has more rows than columns.
fn solve(cost: &[Vec<f64>]) -> Vec<usize> {
    let n = cost.len();
    assert!(n > 0, "cost matrix must be nonempty");
    let m = cost[0].len();
    assert!(
        cost.iter().all(|r| r.len() == m),
        "cost matrix must be rectangular"
    );
    assert!(n <= m, "need at least as many columns as rows");
    Solver::new()
        .solve_padded(&cost.concat(), n, m)
        .expect("nonempty, asserted above")
        .iter()
        .map(|slot| slot.expect("rows <= cols: every row is assigned"))
        .collect()
}

/// Fallible variant of [`solve`]: validates the matrix instead of
/// panicking, for callers fed from untrusted input (the online serving
/// layer).
///
/// # Errors
///
/// Returns [`SchedError`] when the matrix is empty, ragged, or has more
/// rows than columns.
pub(crate) fn try_solve(cost: &[Vec<f64>]) -> Result<Vec<usize>, SchedError> {
    let (n, m) = validate_matrix(cost)?;
    if n > m {
        return Err(SchedError::TooManyTasks {
            tasks: n,
            configs: m,
        });
    }
    Ok(solve(cost))
}

/// [`Solver::solve_padded`] for a matrix held as rows, with a fresh solver.
///
/// # Errors
///
/// Returns [`SchedError`] when the matrix is empty or ragged.
pub fn solve_padded(cost: &[Vec<f64>]) -> Result<Vec<Option<usize>>, SchedError> {
    let (n, m) = validate_matrix(cost)?;
    let mut solver = Solver::new();
    solver.solve_padded(&cost.concat(), n, m)?;
    Ok(solver.out)
}

/// Total cost of an assignment.
#[cfg(test)]
fn assignment_cost(cost: &[Vec<f64>], assignment: &[usize]) -> f64 {
    assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| cost[i][j])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-`Solver` implementation, kept verbatim as the oracle the
    /// flat solver must agree with pick for pick (not only in cost).
    fn oracle_solve(cost: &[Vec<f64>]) -> Vec<usize> {
        let n = cost.len();
        let m = cost[0].len();
        assert!(n > 0 && n <= m);
        let inf = f64::INFINITY;
        let mut u = vec![0.0f64; n + 1];
        let mut v = vec![0.0f64; m + 1];
        let mut p = vec![0usize; m + 1];
        let mut way = vec![0usize; m + 1];
        let mut minv = vec![inf; m + 1];
        let mut used = vec![false; m + 1];
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            minv.fill(inf);
            used.fill(false);
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = inf;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        let mut assignment = vec![usize::MAX; n];
        for j in 1..=m {
            if p[j] != 0 {
                assignment[p[j] - 1] = j - 1;
            }
        }
        assignment
    }

    fn oracle_solve_padded(cost: &[Vec<f64>]) -> Vec<Option<usize>> {
        let (n, m) = (cost.len(), cost[0].len());
        if n <= m {
            return oracle_solve(cost).into_iter().map(Some).collect();
        }
        let t: Vec<Vec<f64>> = (0..m)
            .map(|j| (0..n).map(|i| cost[i][j]).collect())
            .collect();
        let mut out = vec![None; n];
        for (col, &row) in oracle_solve(&t).iter().enumerate() {
            out[row] = Some(col);
        }
        out
    }

    /// Minimum total cost over every way of matching `min(rows, cols)`
    /// rows to distinct columns.
    fn brute_force_padded(cost: &[Vec<f64>]) -> f64 {
        let (n, m) = (cost.len(), cost[0].len());
        if n <= m {
            return brute_force(cost);
        }
        let t: Vec<Vec<f64>> = (0..m)
            .map(|j| (0..n).map(|i| cost[i][j]).collect())
            .collect();
        brute_force(&t)
    }

    #[test]
    fn flat_solver_matches_permutation_oracle_and_old_picks_on_every_small_shape() {
        // Every shape 1..=6 × 1..=7 and its transpose, costs drawn from a
        // five-value alphabet so rows are full of exact ties: the optimum
        // equals brute force, the picks equal the old implementation's, and
        // one solver reused across all shapes (growing and shrinking)
        // answers exactly as a fresh one does.
        let mut state = 0x5EED_7135u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % 5) as f64 * 1.5 + 1.0
        };
        let mut reused = Solver::new();
        for a in 1..=6usize {
            for b in 1..=7usize {
                for (rows, cols) in [(a, b), (b, a)] {
                    for trial in 0..4 {
                        let cost: Vec<Vec<f64>> = (0..rows)
                            .map(|_| (0..cols).map(|_| next()).collect())
                            .collect();
                        let flat = cost.concat();
                        let got = reused.solve_padded(&flat, rows, cols).unwrap().to_vec();
                        let what = format!("{rows}x{cols} trial {trial}: {cost:?}");
                        assert_eq!(got, oracle_solve_padded(&cost), "picks, {what}");
                        assert_eq!(
                            got,
                            Solver::new().solve_padded(&flat, rows, cols).unwrap(),
                            "reuse leaks state, {what}"
                        );
                        assert_eq!(solve_padded(&cost).unwrap(), got, "wrapper, {what}");
                        let mut seen = vec![false; cols];
                        let mut total = 0.0;
                        for (i, slot) in got.iter().enumerate() {
                            if let Some(j) = *slot {
                                assert!(!seen[j], "column {j} twice, {what}");
                                seen[j] = true;
                                total += cost[i][j];
                            }
                        }
                        assert_eq!(got.iter().flatten().count(), rows.min(cols), "{what}");
                        let want = brute_force_padded(&cost);
                        assert!((total - want).abs() < 1e-9, "{total} vs {want}, {what}");
                        if rows <= cols {
                            let picks: Vec<usize> = got.iter().map(|s| s.unwrap()).collect();
                            assert_eq!(solve(&cost), picks, "solve, {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flat_solver_rejects_empty_shapes() {
        let mut s = Solver::new();
        assert_eq!(s.solve_padded(&[], 0, 3), Err(SchedError::NoTasks));
        assert_eq!(s.solve_padded(&[], 3, 0), Err(SchedError::NoConfigs));
        // ... and still solves afterwards.
        assert_eq!(s.solve_padded(&[2.0, 1.0], 1, 2), Ok(&[Some(1)][..]));
    }

    fn brute_force(cost: &[Vec<f64>]) -> f64 {
        let n = cost.len();
        let m = cost[0].len();
        let mut cols: Vec<usize> = (0..m).collect();
        let mut best = f64::INFINITY;
        permute(&mut cols, 0, n, &mut |perm| {
            let total: f64 = (0..n).map(|i| cost[i][perm[i]]).sum();
            if total < best {
                best = total;
            }
        });
        best
    }

    fn permute(cols: &mut Vec<usize>, k: usize, n: usize, f: &mut impl FnMut(&[usize])) {
        if k == n {
            f(cols);
            return;
        }
        for i in k..cols.len() {
            cols.swap(k, i);
            permute(cols, k + 1, n, f);
            cols.swap(k, i);
        }
    }

    #[test]
    fn known_small_case() {
        let cost = vec![
            vec![4.0, 1.0, 3.0],
            vec![2.0, 0.0, 5.0],
            vec![3.0, 2.0, 2.0],
        ];
        let a = solve(&cost);
        assert_eq!(assignment_cost(&cost, &a), 5.0); // 1 + 2 + 2
    }

    #[test]
    fn assignment_is_injective() {
        let cost = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 4.0, 6.0, 8.0],
            vec![3.0, 6.0, 9.0, 12.0],
            vec![4.0, 8.0, 12.0, 16.0],
        ];
        let a = solve(&cost);
        let mut seen = [false; 4];
        for &j in &a {
            assert!(!seen[j], "column {j} assigned twice");
            seen[j] = true;
        }
    }

    #[test]
    fn matches_brute_force_on_many_random_matrices() {
        // Deterministic pseudo-random matrices.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) % 1000) as f64 / 10.0
        };
        for trial in 0..50 {
            let n = 2 + (trial % 4);
            let m = n + (trial % 3);
            let cost: Vec<Vec<f64>> = (0..n).map(|_| (0..m).map(|_| next()).collect()).collect();
            let a = solve(&cost);
            let got = assignment_cost(&cost, &a);
            let want = brute_force(&cost);
            assert!(
                (got - want).abs() < 1e-9,
                "trial {trial}: hungarian {got} vs brute {want} on {cost:?}"
            );
        }
    }

    #[test]
    fn rectangular_uses_extra_columns() {
        let cost = vec![vec![10.0, 1.0, 10.0], vec![10.0, 2.0, 0.5]];
        let a = solve(&cost);
        assert_eq!(a, vec![1, 2]);
    }

    #[test]
    fn one_row_ties_break_to_the_lowest_column() {
        // The shape online dispatch produces most (1 job × k idle servers,
        // servers of one class priced alike): the lowest tied column wins,
        // in both orientations. The fig9-XL rows are pinned on this.
        let row = vec![vec![5.0, 3.0, 9.0, 3.0, 3.0]];
        assert_eq!(solve(&row), vec![1]);
        assert_eq!(solve_padded(&row), Ok(vec![Some(1)]));
        let col: Vec<Vec<f64>> = row[0].iter().map(|&c| vec![c]).collect();
        let mut want = vec![None; 5];
        want[1] = Some(0);
        assert_eq!(solve_padded(&col), Ok(want));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn more_rows_than_cols_panics() {
        let cost = vec![vec![1.0], vec![2.0]];
        let _ = solve(&cost);
    }

    #[test]
    fn try_solve_rejects_malformed_input() {
        use crate::error::SchedError;
        assert_eq!(try_solve(&[]), Err(SchedError::NoTasks));
        assert_eq!(try_solve(&[vec![]]), Err(SchedError::NoConfigs));
        assert_eq!(
            try_solve(&[vec![1.0, 2.0], vec![3.0]]),
            Err(SchedError::RaggedMatrix {
                row: 1,
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            try_solve(&[vec![1.0], vec![2.0]]),
            Err(SchedError::TooManyTasks {
                tasks: 2,
                configs: 1
            })
        );
        assert_eq!(try_solve(&[vec![2.0, 1.0]]), Ok(vec![1]));
    }

    #[test]
    fn padded_1x1() {
        assert_eq!(solve_padded(&[vec![7.0]]), Ok(vec![Some(0)]));
    }

    #[test]
    fn padded_wide_assigns_every_row() {
        // rows < cols: same as solve().
        let cost = vec![vec![10.0, 1.0, 10.0], vec![10.0, 2.0, 0.5]];
        assert_eq!(solve_padded(&cost), Ok(vec![Some(1), Some(2)]));
    }

    #[test]
    fn padded_tall_assigns_exactly_cols_rows() {
        // 4 tasks, 2 servers: tasks 1 and 3 are the cheap fits.
        let cost = vec![
            vec![9.0, 9.0],
            vec![1.0, 8.0],
            vec![9.0, 9.0],
            vec![8.0, 1.0],
        ];
        let a = solve_padded(&cost).unwrap();
        assert_eq!(a, vec![None, Some(0), None, Some(1)]);
        let assigned = a.iter().flatten().count();
        assert_eq!(assigned, 2);
    }

    #[test]
    fn padded_tall_is_injective_and_optimal() {
        // Compare against brute force over which 3 of the 5 rows get the 3
        // columns (transposed brute force: columns pick distinct rows).
        let mut state = 0xdead_beefu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            ((state >> 33) % 1000) as f64 / 10.0
        };
        for trial in 0..20 {
            let n = 3 + (trial % 3); // 3..5 rows
            let m = 2; // fewer columns
            let cost: Vec<Vec<f64>> = (0..n).map(|_| (0..m).map(|_| next()).collect()).collect();
            let a = solve_padded(&cost).unwrap();
            // Injective over columns, exactly m assigned.
            let mut seen = vec![false; m];
            let mut total = 0.0;
            for (i, slot) in a.iter().enumerate() {
                if let Some(j) = slot {
                    assert!(!seen[*j], "column {j} assigned twice (trial {trial})");
                    seen[*j] = true;
                    total += cost[i][*j];
                }
            }
            assert_eq!(a.iter().flatten().count(), m);
            // Brute force the transposed problem for the optimum.
            let t: Vec<Vec<f64>> = (0..m)
                .map(|j| (0..n).map(|i| cost[i][j]).collect())
                .collect();
            let want = brute_force(&t);
            assert!(
                (total - want).abs() < 1e-9,
                "trial {trial}: padded {total} vs brute {want}"
            );
        }
    }

    #[test]
    fn padded_breaks_ties_deterministically() {
        // All-equal costs: any assignment is optimal, but repeated runs must
        // agree (the serving layer's determinism contract).
        let cost = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]];
        let a = solve_padded(&cost).unwrap();
        let b = solve_padded(&cost).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.iter().flatten().count(), 2);
    }
}
