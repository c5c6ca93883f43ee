//! The three scheduling policies of Figure 9 and their evaluation.
//!
//! All three are evaluated against a *measured* time matrix
//! `times[task][config]` (simulated transcoding seconds); only the best
//! scheduler may peek at it — the smart scheduler decides from predicted
//! benefit scores alone.

use crate::error::{validate_matrix, SchedError};
use crate::hungarian;

/// Result of running one scheduling policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Configuration index chosen for each task.
    pub assignment: Vec<usize>,
    /// Total time across tasks under that assignment.
    pub total_time: f64,
}

impl ScheduleOutcome {
    /// Speedup of this schedule over a reference total time (>1 is faster).
    pub fn speedup_over(&self, reference_total: f64) -> f64 {
        if self.total_time <= 0.0 {
            return 1.0;
        }
        reference_total / self.total_time
    }
}

/// Expected total time of the random scheduler: each task's expected time is
/// its average over all configurations (the paper's definition).
///
/// # Panics
///
/// Panics on an empty or ragged matrix; see [`try_random_expected_time`]
/// for the fallible variant.
pub fn random_expected_time(times: &[Vec<f64>]) -> f64 {
    try_random_expected_time(times).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`random_expected_time`].
///
/// # Errors
///
/// Returns [`SchedError`] on an empty or ragged matrix.
pub fn try_random_expected_time(times: &[Vec<f64>]) -> Result<f64, SchedError> {
    validate_matrix(times)?;
    Ok(times
        .iter()
        .map(|row| row.iter().sum::<f64>() / row.len() as f64)
        .sum())
}

/// The best (oracle) scheduler: per-task minimum with no one-to-one
/// constraint.
///
/// # Panics
///
/// Panics on an empty or ragged matrix; see [`try_best_assignment`] for the
/// fallible variant.
pub fn best_assignment(times: &[Vec<f64>]) -> ScheduleOutcome {
    try_best_assignment(times).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`best_assignment`].
///
/// # Errors
///
/// Returns [`SchedError`] on an empty or ragged matrix.
pub fn try_best_assignment(times: &[Vec<f64>]) -> Result<ScheduleOutcome, SchedError> {
    validate_matrix(times)?;
    let assignment: Vec<usize> = times
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .expect("nonempty row")
        })
        .collect();
    let total_time = assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| times[i][j])
        .sum();
    emit_placements("best", &assignment, None, times);
    Ok(ScheduleOutcome {
        assignment,
        total_time,
    })
}

/// Records one telemetry event per task placement: the chosen configuration
/// index, its predicted benefit (when the policy has one) and the realized
/// measured time. No-ops while telemetry is disabled.
fn emit_placements(
    policy: &'static str,
    assignment: &[usize],
    benefit: Option<&[Vec<f64>]>,
    times: &[Vec<f64>],
) {
    for (task, &config) in assignment.iter().enumerate() {
        vtx_telemetry::instant("sched/assign", |a| {
            a.str("policy", policy)
                .u64("task", task as u64)
                .u64("config", config as u64)
                .f64("realized_time", times[task][config]);
            if let Some(b) = benefit {
                a.f64("predicted_benefit", b[task][config]);
            }
        });
    }
}

/// The smart scheduler: one-to-one assignment maximizing *predicted* benefit
/// (`benefit[task][config]`, higher = better fit), evaluated afterwards on
/// the measured `times`.
///
/// # Panics
///
/// Panics if the matrices are ragged, have mismatched shapes, or there are
/// more tasks than configurations (the one-to-one constraint would be
/// unsatisfiable).
pub fn smart_assignment(benefit: &[Vec<f64>], times: &[Vec<f64>]) -> ScheduleOutcome {
    try_smart_assignment(benefit, times).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`smart_assignment`].
///
/// # Errors
///
/// Returns [`SchedError`] when either matrix is empty or ragged, their
/// shapes disagree, or tasks outnumber configurations.
pub fn try_smart_assignment(
    benefit: &[Vec<f64>],
    times: &[Vec<f64>],
) -> Result<ScheduleOutcome, SchedError> {
    let t_shape = validate_matrix(times)?;
    let b_shape = validate_matrix(benefit)?;
    if t_shape != b_shape {
        return Err(SchedError::ShapeMismatch {
            left: b_shape,
            right: t_shape,
        });
    }

    // Hungarian minimizes; negate benefits to maximize.
    let cost: Vec<Vec<f64>> = benefit
        .iter()
        .map(|row| row.iter().map(|&b| -b).collect())
        .collect();
    let assignment = hungarian::try_solve(&cost)?;
    let total_time = assignment
        .iter()
        .enumerate()
        .map(|(i, &j)| times[i][j])
        .sum();
    emit_placements("smart", &assignment, Some(benefit), times);
    Ok(ScheduleOutcome {
        assignment,
        total_time,
    })
}

/// Fraction of tasks where two assignments agree (the paper reports the
/// smart scheduler matching the best scheduler 75% of the time).
pub fn match_rate(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.is_empty() {
        return 1.0;
    }
    a.iter().zip(b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// times[task][config]: task i is fastest on config i.
    fn diagonal_times() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 2.0, 2.0, 2.0],
            vec![2.0, 1.0, 2.0, 2.0],
            vec![2.0, 2.0, 1.0, 2.0],
            vec![2.0, 2.0, 2.0, 1.0],
        ]
    }

    /// Benefit scores aligned with the diagonal.
    fn diagonal_benefit() -> Vec<Vec<f64>> {
        vec![
            vec![0.9, 0.1, 0.1, 0.1],
            vec![0.1, 0.9, 0.1, 0.1],
            vec![0.1, 0.1, 0.9, 0.1],
            vec![0.1, 0.1, 0.1, 0.9],
        ]
    }

    #[test]
    fn random_is_the_average() {
        let t = diagonal_times();
        // Each row averages (1 + 2*3)/4 = 1.75 -> total 7.
        assert!((random_expected_time(&t) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn best_picks_row_minima() {
        let t = diagonal_times();
        let b = best_assignment(&t);
        assert_eq!(b.assignment, vec![0, 1, 2, 3]);
        assert!((b.total_time - 4.0).abs() < 1e-12);
    }

    #[test]
    fn smart_matches_best_with_aligned_predictions() {
        let t = diagonal_times();
        let s = smart_assignment(&diagonal_benefit(), &t);
        let b = best_assignment(&t);
        assert_eq!(s.assignment, b.assignment);
        assert!((match_rate(&s.assignment, &b.assignment) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn smart_respects_one_to_one() {
        // All tasks would love config 0; smart must spread them out.
        let benefit = vec![vec![0.9, 0.5, 0.2, 0.1]; 4];
        let times = diagonal_times();
        let s = smart_assignment(&benefit, &times);
        let mut seen = [false; 4];
        for &j in &s.assignment {
            assert!(!seen[j], "config {j} assigned twice");
            seen[j] = true;
        }
    }

    #[test]
    fn best_may_reuse_configs() {
        let times = vec![vec![1.0, 9.0], vec![1.0, 9.0]];
        let b = best_assignment(&times);
        assert_eq!(b.assignment, vec![0, 0]);
    }

    #[test]
    fn smart_beats_random_with_informative_predictions() {
        let t = diagonal_times();
        let s = smart_assignment(&diagonal_benefit(), &t);
        let r = random_expected_time(&t);
        assert!(s.total_time < r);
        assert!(s.speedup_over(r) > 1.0);
    }

    #[test]
    fn match_rate_counts_agreements() {
        assert!((match_rate(&[0, 1, 2, 3], &[0, 1, 3, 2]) - 0.5).abs() < 1e-12);
        assert!((match_rate(&[], &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn try_variants_reject_malformed_matrices() {
        use crate::error::SchedError;
        assert_eq!(try_random_expected_time(&[]), Err(SchedError::NoTasks));
        assert_eq!(
            try_best_assignment(&[vec![]]).unwrap_err(),
            SchedError::NoConfigs
        );
        assert_eq!(
            try_smart_assignment(&[vec![1.0]], &[vec![1.0, 2.0]]).unwrap_err(),
            SchedError::ShapeMismatch {
                left: (1, 1),
                right: (1, 2)
            }
        );
        // More tasks than configs: one-to-one unsatisfiable.
        assert_eq!(
            try_smart_assignment(&[vec![1.0], vec![1.0]], &[vec![1.0], vec![1.0]]).unwrap_err(),
            SchedError::TooManyTasks {
                tasks: 2,
                configs: 1
            }
        );
    }

    #[test]
    fn try_variants_agree_with_panicking_api() {
        let t = diagonal_times();
        let b = diagonal_benefit();
        assert_eq!(
            try_best_assignment(&t).unwrap().assignment,
            best_assignment(&t).assignment
        );
        assert_eq!(
            try_smart_assignment(&b, &t).unwrap().assignment,
            smart_assignment(&b, &t).assignment
        );
        assert!((try_random_expected_time(&t).unwrap() - random_expected_time(&t)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn panicking_wrapper_keeps_message() {
        let _ = random_expected_time(&[]);
    }
}
