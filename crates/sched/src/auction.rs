//! Bertsekas ε-scaling auction for minimum-cost one-to-one assignment over
//! integer costs — the **integer oracle for the Hungarian**, not on the
//! dispatch path.
//!
//! Nothing in `vtx-serve` calls this module: every dispatch round, at every
//! fleet size, is solved by [`crate::hungarian::solve_padded`], whose cost
//! follows the real (rows × cols) matrix. This solver **pads thin matrices
//! to a square** of dummy bidders — a 1 × 40 round becomes a 40 × 40
//! `i128` problem and a dozen ε-phases to find the minimum of 40 numbers —
//! so do not call it per event. It stays as an independent implementation
//! on exact integer arithmetic that the tests check the `f64` Hungarian
//! against, and for the `sched.auction_us.*` probes of `perf/`.
//!
//! * costs are **integers** (milli-units chosen by the caller), so every
//!   bid, price and benefit is exact — determinism survives reordering;
//! * prices may persist across calls (**warm start**,
//!   [`solve_padded_warm`]): when the next matrix resembles the last one,
//!   most persons bid straight into their final objects;
//! * ε-scaling with a final phase at ε = 1 over benefits pre-scaled by
//!   `rows + 1` yields an *exactly* optimal assignment (Bertsekas 1988):
//!   any two distinct assignment totals differ by at least `rows + 1`
//!   scaled units, while ε-complementary slackness bounds the gap by
//!   `rows · ε = rows`.
//!
//! Orientation follows [`crate::hungarian::solve_padded`]: rows are tasks,
//! columns are servers. With `rows <= cols` every row is assigned; with
//! `rows > cols` the matrix is transposed and exactly `cols` rows win a
//! column, the rest return `None` and stay queued.
//!
//! Costs are clamped to `COST_CAP` before scaling so all arithmetic fits
//! comfortably in `i128`; entries at or above the cap compete as equals.

use crate::error::SchedError;

/// Upper clamp on input costs (milli-units). Chosen so that scaled benefits
/// and price escalations stay far inside `i128` for any feasible matrix; in
/// the serving layer the largest suspect-penalized prediction is ~2^43.
const COST_CAP: u64 = 1 << 50;

/// Sentinel for "no second-best object" (single-column matrices).
const NO_SECOND: i128 = i128::MIN / 4;

fn validate_milli(m: &[Vec<u64>]) -> Result<(usize, usize), SchedError> {
    if m.is_empty() {
        return Err(SchedError::NoTasks);
    }
    let cols = m[0].len();
    if cols == 0 {
        return Err(SchedError::NoConfigs);
    }
    for (row, r) in m.iter().enumerate() {
        if r.len() != cols {
            return Err(SchedError::RaggedMatrix {
                row,
                expected: cols,
                got: r.len(),
            });
        }
    }
    Ok((m.len(), cols))
}

/// One auction phase at a fixed ε: all persons start unassigned, prices are
/// inherited. Returns `assigned[i] = j` with every person assigned
/// (requires `rows <= cols`). Deterministic: the bid queue is FIFO seeded
/// in row order and value ties break toward the lowest column.
fn phase(benefit: &[Vec<i128>], prices: &mut [i128], eps: i128) -> Vec<usize> {
    let n = benefit.len();
    let m = prices.len();
    let mut owner: Vec<Option<usize>> = vec![None; m];
    let mut assigned: Vec<Option<usize>> = vec![None; n];
    let mut queue: std::collections::VecDeque<usize> = (0..n).collect();
    while let Some(i) = queue.pop_front() {
        let mut best_j = 0usize;
        let mut best_v = i128::MIN;
        let mut second_v = NO_SECOND;
        for (j, p) in prices.iter().enumerate() {
            let v = benefit[i][j] - p;
            if v > best_v {
                second_v = if best_v == i128::MIN {
                    NO_SECOND
                } else {
                    best_v
                };
                best_v = v;
                best_j = j;
            } else if v > second_v {
                second_v = v;
            }
        }
        let incr = if second_v == NO_SECOND {
            eps
        } else {
            best_v - second_v + eps
        };
        prices[best_j] += incr;
        if let Some(prev) = owner[best_j] {
            assigned[prev] = None;
            queue.push_back(prev);
        }
        owner[best_j] = Some(i);
        assigned[i] = Some(best_j);
    }
    assigned
        .into_iter()
        .map(|a| a.expect("rows <= cols"))
        .collect()
}

/// Auction for `rows <= cols`: minimizes total cost exactly. `prices` are
/// read as the warm start and left holding the final prices.
///
/// The problem is padded to a square one with `cols - rows` zero-benefit
/// dummy bidders. That keeps every column assigned at termination, which is
/// what makes the ε-complementary-slackness optimality bound hold from
/// *arbitrary* starting prices — the asymmetric forward auction is only
/// optimal when unassigned columns sit at their minimal price, a property
/// warm starts and ε-scaling phases both destroy.
fn auction_min(cost: &[Vec<u64>], prices: &mut [i128]) -> Vec<usize> {
    let n = cost.len();
    let m = cost[0].len();
    let scale = (m + 1) as i128;
    let max_c = cost
        .iter()
        .flat_map(|r| r.iter())
        .map(|&c| c.min(COST_CAP))
        .max()
        .unwrap_or(0) as i128;
    // Benefits: scale * (max_c - cost); higher is better. Dummy rows are
    // indifferent (benefit 0 everywhere), so real totals alone decide the
    // optimum and any two distinct ones differ by at least `scale` — which
    // the final ε = 1 phase's m·ε gap cannot bridge.
    let mut benefit: Vec<Vec<i128>> = cost
        .iter()
        .map(|r| {
            r.iter()
                .map(|&c| scale * (max_c - c.min(COST_CAP) as i128))
                .collect()
        })
        .collect();
    benefit.extend((n..m).map(|_| vec![0i128; m]));
    // ε-scaling: start near the benefit range, divide by 8 down to 1. Each
    // phase keeps prices and re-auctions everyone; only the final ε = 1
    // assignment is returned (it is exactly optimal).
    let range = scale * max_c;
    let mut epsilons = Vec::new();
    let mut eps = (range / 8).max(1);
    while eps > 1 {
        epsilons.push(eps);
        eps /= 8;
    }
    epsilons.push(1);
    let mut assignment = Vec::new();
    for e in epsilons {
        assignment = phase(&benefit, prices, e);
    }
    assignment.truncate(n);
    assignment
}

/// Rectangular minimum-cost assignment over integer (milli-unit) costs, in
/// both orientations — the auction twin of
/// [`crate::hungarian::solve_padded`].
///
/// # Errors
///
/// Returns [`SchedError`] when the matrix is empty or ragged.
pub fn solve_padded(cost: &[Vec<u64>]) -> Result<Vec<Option<usize>>, SchedError> {
    let (_, m) = validate_milli(cost)?;
    let mut prices = vec![0i64; m];
    solve_padded_warm(cost, &mut prices)
}

/// [`solve_padded`] with persistent prices: `prices` (one per column) carry
/// the auction state across rounds, warm-starting the next solve when the
/// cost structure is similar. The result is exactly optimal regardless of
/// the starting prices. In the transposed orientation (`rows > cols`) the
/// bidding roles flip, so the warm start is skipped and `prices` are left
/// untouched.
///
/// # Errors
///
/// Returns [`SchedError`] when the matrix is empty or ragged, or
/// [`SchedError::ShapeMismatch`] when `prices.len() != cols`.
pub fn solve_padded_warm(
    cost: &[Vec<u64>],
    prices: &mut [i64],
) -> Result<Vec<Option<usize>>, SchedError> {
    let (n, m) = validate_milli(cost)?;
    if prices.len() != m {
        return Err(SchedError::ShapeMismatch {
            left: (n, m),
            right: (1, prices.len()),
        });
    }
    if n <= m {
        let mut p: Vec<i128> = prices.iter().map(|&x| i128::from(x)).collect();
        let a = auction_min(cost, &mut p);
        for (dst, src) in prices.iter_mut().zip(&p) {
            *dst = (*src).clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
        }
        return Ok(a.into_iter().map(Some).collect());
    }
    // Transpose: the m servers bid for the n tasks; exactly m tasks win.
    let t: Vec<Vec<u64>> = (0..m)
        .map(|j| (0..n).map(|i| cost[i][j]).collect())
        .collect();
    let mut p = vec![0i128; n];
    let per_col = auction_min(&t, &mut p);
    let mut out = vec![None; n];
    for (col, &row) in per_col.iter().enumerate() {
        out[row] = Some(col);
    }
    Ok(out)
}

/// Total cost of a padded assignment (skipping unassigned rows), saturating.
pub fn assignment_cost(cost: &[Vec<u64>], assignment: &[Option<usize>]) -> u64 {
    assignment
        .iter()
        .enumerate()
        .filter_map(|(i, j)| j.map(|j| cost[i][j]))
        .fold(0u64, u64::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hungarian;

    fn to_f64(cost: &[Vec<u64>]) -> Vec<Vec<f64>> {
        cost.iter()
            .map(|r| r.iter().map(|&c| c as f64).collect())
            .collect()
    }

    fn hungarian_total(cost: &[Vec<u64>]) -> u64 {
        let a = hungarian::solve_padded(&to_f64(cost)).unwrap();
        assignment_cost(cost, &a)
    }

    fn rand_matrix(state: &mut u64, n: usize, m: usize, span: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| {
                        *state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1);
                        (*state >> 33) % span
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn known_small_case() {
        let cost = vec![vec![4, 1, 3], vec![2, 0, 5], vec![3, 2, 2]];
        let a = solve_padded(&cost).unwrap();
        assert_eq!(assignment_cost(&cost, &a), 5);
    }

    #[test]
    fn matches_hungarian_on_random_matrices_all_shapes() {
        let mut state = 0x5eed_cafe_u64;
        for trial in 0..60 {
            let n = 1 + (trial % 6);
            let m = 1 + (trial % 8);
            let cost = rand_matrix(&mut state, n, m, 10_000);
            let a = solve_padded(&cost).unwrap();
            assert_eq!(a.iter().flatten().count(), n.min(m), "trial {trial}");
            let mut seen = vec![false; m];
            for j in a.iter().flatten() {
                assert!(!seen[*j], "column {j} assigned twice (trial {trial})");
                seen[*j] = true;
            }
            assert_eq!(
                assignment_cost(&cost, &a),
                hungarian_total(&cost),
                "trial {trial}: auction total != hungarian total on {cost:?}"
            );
        }
    }

    #[test]
    fn ties_break_deterministically() {
        let cost = vec![vec![7, 7], vec![7, 7], vec![7, 7]];
        let a = solve_padded(&cost).unwrap();
        let b = solve_padded(&cost).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.iter().flatten().count(), 2);
    }

    #[test]
    fn warm_start_stays_optimal_across_rounds() {
        let mut state = 0xbead_5eed_u64;
        let mut prices = vec![0i64; 6];
        for round in 0..20 {
            let n = 1 + (round % 5);
            let cost = rand_matrix(&mut state, n, 6, 1_000_000);
            let a = solve_padded_warm(&cost, &mut prices).unwrap();
            assert_eq!(
                assignment_cost(&cost, &a),
                hungarian_total(&cost),
                "round {round}: warm-started auction lost optimality"
            );
        }
        // Prices should actually be carrying state by now.
        assert!(prices.iter().any(|&p| p != 0));
    }

    #[test]
    fn single_cell_shapes() {
        assert_eq!(solve_padded(&[vec![9]]), Ok(vec![Some(0)]));
        assert_eq!(solve_padded(&[vec![5, 1, 5]]), Ok(vec![Some(1)]));
        // Tall single column: exactly one row wins.
        let a = solve_padded(&[vec![3], vec![1], vec![2]]).unwrap();
        assert_eq!(a, vec![None, Some(0), None]);
    }

    #[test]
    fn huge_costs_are_clamped_not_overflowed() {
        let cost = vec![vec![u64::MAX, 1], vec![u64::MAX, u64::MAX]];
        let a = solve_padded(&cost).unwrap();
        // Row 0 must take the cheap column; row 1 takes the capped one.
        assert_eq!(a, vec![Some(1), Some(0)]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(solve_padded(&[]), Err(SchedError::NoTasks));
        assert_eq!(solve_padded(&[vec![]]), Err(SchedError::NoConfigs));
        assert_eq!(
            solve_padded(&[vec![1, 2], vec![3]]),
            Err(SchedError::RaggedMatrix {
                row: 1,
                expected: 2,
                got: 1
            })
        );
        let mut short = vec![0i64; 1];
        assert!(matches!(
            solve_padded_warm(&[vec![1, 2]], &mut short),
            Err(SchedError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_path_matches_hungarian_and_leaves_prices_alone() {
        let mut state = 0x0a0b_0c0d_u64;
        for trial in 0..20 {
            let n = 3 + (trial % 4);
            let m = 2;
            let cost = rand_matrix(&mut state, n, m, 5_000);
            let mut prices = vec![17i64; m];
            let a = solve_padded_warm(&cost, &mut prices).unwrap();
            assert_eq!(prices, vec![17i64; m], "transpose must not touch prices");
            assert_eq!(a.iter().flatten().count(), m);
            assert_eq!(
                assignment_cost(&cost, &a),
                hungarian_total(&cost),
                "trial {trial}"
            );
        }
    }
}
