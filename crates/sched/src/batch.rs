//! Batch scheduling: placing a whole queue of transcoding jobs on a
//! heterogeneous fleet.
//!
//! The paper's case study assigns four tasks one-to-one; a production
//! transcoding farm (the paper's motivating scenario) continuously places
//! *many* jobs per server. This module extends the characterization-driven
//! idea to that setting: given predicted per-(task, server) times, build a
//! schedule minimizing the makespan with the classic LPT (longest processing
//! time first) greedy for unrelated machines.

/// A many-to-one schedule: which tasks each server runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSchedule {
    /// `per_server[s]` lists the task indices placed on server `s`.
    pub per_server: Vec<Vec<usize>>,
    /// Predicted makespan (max per-server load) under the times used to
    /// build the schedule.
    pub predicted_makespan: f64,
}

impl BatchSchedule {
    /// Evaluates the schedule's true makespan under measured times.
    ///
    /// # Panics
    ///
    /// Panics if `times` does not cover every (task, server) pair in the
    /// schedule.
    pub fn makespan(&self, times: &[Vec<f64>]) -> f64 {
        self.per_server
            .iter()
            .enumerate()
            .map(|(s, tasks)| tasks.iter().map(|&t| times[t][s]).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// The server each task was placed on.
    pub fn assignment(&self, n_tasks: usize) -> Vec<usize> {
        let mut a = vec![usize::MAX; n_tasks];
        for (s, tasks) in self.per_server.iter().enumerate() {
            for &t in tasks {
                a[t] = s;
            }
        }
        a
    }
}

fn validate(times: &[Vec<f64>]) -> usize {
    assert!(!times.is_empty(), "need at least one task");
    let m = times[0].len();
    assert!(m > 0, "need at least one server");
    assert!(
        times.iter().all(|r| r.len() == m),
        "time matrix must be rectangular"
    );
    m
}

/// LPT greedy for unrelated machines: tasks are placed in decreasing order
/// of their best-case time; each goes to the server where it *finishes*
/// earliest given current loads.
///
/// # Panics
///
/// Panics on an empty or ragged time matrix.
pub fn lpt_schedule(pred_times: &[Vec<f64>]) -> BatchSchedule {
    let m = validate(pred_times);
    let n = pred_times.len();

    let mut order: Vec<usize> = (0..n).collect();
    let best_time =
        |t: usize| -> f64 { pred_times[t].iter().copied().fold(f64::INFINITY, f64::min) };
    order.sort_by(|&a, &b| best_time(b).total_cmp(&best_time(a)));

    let mut loads = vec![0.0f64; m];
    let mut per_server: Vec<Vec<usize>> = vec![Vec::new(); m];
    for &t in &order {
        let (s, _) = loads
            .iter()
            .enumerate()
            .map(|(s, &l)| (s, l + pred_times[t][s]))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one server");
        loads[s] += pred_times[t][s];
        per_server[s].push(t);
    }
    let predicted_makespan = loads.iter().copied().fold(0.0, f64::max);
    BatchSchedule {
        per_server,
        predicted_makespan,
    }
}

/// Round-robin placement (the characterization-blind baseline).
///
/// # Panics
///
/// Panics on an empty or ragged time matrix.
pub fn round_robin_schedule(times: &[Vec<f64>]) -> BatchSchedule {
    let m = validate(times);
    let mut per_server: Vec<Vec<usize>> = vec![Vec::new(); m];
    for t in 0..times.len() {
        per_server[t % m].push(t);
    }
    let sched = BatchSchedule {
        per_server,
        predicted_makespan: 0.0,
    };
    let makespan = sched.makespan(times);
    BatchSchedule {
        predicted_makespan: makespan,
        ..sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tasks alternate between being fast on server 0 and server 1.
    fn affinity_matrix(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|t| {
                if t % 2 == 0 {
                    vec![1.0, 4.0]
                } else {
                    vec![4.0, 1.0]
                }
            })
            .collect()
    }

    #[test]
    fn lpt_exploits_affinity() {
        let times = affinity_matrix(8);
        let lpt = lpt_schedule(&times);
        let rr = round_robin_schedule(&times);
        assert!(
            lpt.makespan(&times) <= rr.makespan(&times),
            "lpt {} vs rr {}",
            lpt.makespan(&times),
            rr.makespan(&times)
        );
        // Perfect affinity: 4 tasks x 1.0 per server.
        assert!((lpt.makespan(&times) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn every_task_placed_exactly_once() {
        let times = affinity_matrix(9);
        let s = lpt_schedule(&times);
        let a = s.assignment(9);
        assert!(a.iter().all(|&x| x < 2));
        let placed: usize = s.per_server.iter().map(Vec::len).sum();
        assert_eq!(placed, 9);
    }

    #[test]
    fn single_server_serializes() {
        let times = vec![vec![2.0], vec![3.0], vec![5.0]];
        let s = lpt_schedule(&times);
        assert!((s.makespan(&times) - 10.0).abs() < 1e-9);
        assert_eq!(s.per_server.len(), 1);
    }

    #[test]
    fn lpt_stays_within_its_approximation_bound() {
        // Classic adversarial LPT case: tasks {5,4,3,3,3} on 2 identical
        // servers. OPT = 9 (5+4 vs 3+3+3); LPT yields 10, within its 4/3
        // bound, and must never exceed it.
        let times: Vec<Vec<f64>> = [5.0, 4.0, 3.0, 3.0, 3.0]
            .iter()
            .map(|&t| vec![t, t])
            .collect();
        let s = lpt_schedule(&times);
        let ms = s.makespan(&times);
        assert!(ms >= 9.0 - 1e-9, "{s:?}");
        assert!(ms <= 9.0 * 4.0 / 3.0 + 1e-9, "{s:?}");
    }

    #[test]
    fn predicted_vs_true_makespan_diverge_gracefully() {
        let pred = affinity_matrix(4);
        // Truth is inverted: predictions are maximally wrong.
        let truth: Vec<Vec<f64>> = pred.iter().map(|r| vec![r[1], r[0]]).collect();
        let s = lpt_schedule(&pred);
        let true_ms = s.makespan(&truth);
        assert!(true_ms >= s.predicted_makespan);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_matrix_panics() {
        let _ = lpt_schedule(&[]);
    }
}
