//! The smart-scheduler case study — Figure 9 with Tables III and IV.
//!
//! The four Table III tasks are simulated on the baseline and on all four
//! modified Table IV configurations. The random scheduler's performance is
//! the average over the modified configurations; the smart scheduler
//! assigns tasks one-to-one using only the *baseline characterization*
//! (which Top-down category dominates each task); the best scheduler picks
//! each task's measured optimum without the constraint.

use vtx_sched::affinity::benefit_from_characterization;
use vtx_sched::scheduler::{
    best_assignment, match_rate, random_expected_time, smart_assignment, ScheduleOutcome,
};
use vtx_sched::task::{table_iii_tasks, TranscodeTask};
use vtx_telemetry::{instant, Span};
use vtx_uarch::config::UarchConfig;

use super::parallel_map;
use crate::{CoreError, TranscodeOptions, Transcoder};

/// Everything Figure 9 plots.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerStudy {
    /// The tasks (Table III).
    pub tasks: Vec<TranscodeTask>,
    /// Modified configuration names, column order of `times`.
    pub config_names: Vec<String>,
    /// Measured seconds on the baseline configuration, per task.
    pub baseline_times: Vec<f64>,
    /// Measured seconds, `times[task][config]`.
    pub times: Vec<Vec<f64>>,
    /// Predicted benefit scores the smart scheduler used, `benefit[task][config]`.
    pub benefit: Vec<Vec<f64>>,
    /// Expected total time of the random scheduler.
    pub random_total: f64,
    /// The smart scheduler's outcome (one-to-one, characterization-driven).
    pub smart: ScheduleOutcome,
    /// The best (oracle) scheduler's outcome.
    pub best: ScheduleOutcome,
    /// Fraction of tasks where smart matches best.
    pub smart_match_rate: f64,
}

impl SchedulerStudy {
    /// Total baseline time.
    pub fn baseline_total(&self) -> f64 {
        self.baseline_times.iter().sum()
    }

    /// Speedup of the random scheduler over the baseline configuration.
    pub fn random_speedup(&self) -> f64 {
        self.baseline_total() / self.random_total
    }

    /// Speedup of the smart scheduler over the baseline configuration.
    pub fn smart_speedup(&self) -> f64 {
        self.smart.speedup_over(self.baseline_total())
    }

    /// Speedup of the best scheduler over the baseline configuration.
    pub fn best_speedup(&self) -> f64 {
        self.best.speedup_over(self.baseline_total())
    }

    /// Smart scheduler's advantage over random (the paper reports 3.72%).
    pub fn smart_over_random(&self) -> f64 {
        self.random_total / self.smart.total_time
    }
}

/// Runs the study with the Table III tasks.
///
/// # Errors
///
/// Propagates transcoding failures.
pub fn scheduler_study(seed: u64, sample_shift: u32) -> Result<SchedulerStudy, CoreError> {
    scheduler_study_with_tasks(&table_iii_tasks(), seed, sample_shift)
}

/// Measured (task × config) matrices: the raw material of the Figure 9
/// study and the calibration input of `vtx-serve`'s cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredMatrix {
    /// Modified configuration names, column order of `times`.
    pub config_names: Vec<String>,
    /// Measured seconds on the baseline configuration, per task.
    pub baseline_times: Vec<f64>,
    /// Measured seconds, `times[task][config]`.
    pub times: Vec<Vec<f64>>,
    /// Characterization-driven benefit predictions, `benefit[task][config]`.
    pub benefit: Vec<Vec<f64>>,
}

/// Measures every (task, config) pair on the Table IV configurations plus
/// the baseline, and derives the smart scheduler's benefit predictions from
/// the baseline characterization alone.
///
/// # Errors
///
/// Propagates transcoding failures.
pub fn measure_task_matrix(
    tasks: &[TranscodeTask],
    seed: u64,
    sample_shift: u32,
) -> Result<MeasuredMatrix, CoreError> {
    let configs = UarchConfig::modified_configs();
    let config_names: Vec<String> = configs.iter().map(|c| c.name.clone()).collect();

    // One parallel job per (task, config) pair, plus the baseline column.
    struct Job {
        task_idx: usize,
        config: UarchConfig,
        col: Option<usize>, // None = baseline
    }
    let mut jobs = Vec::new();
    for (ti, _) in tasks.iter().enumerate() {
        jobs.push(Job {
            task_idx: ti,
            config: UarchConfig::baseline(),
            col: None,
        });
        for (ci, cfg) in configs.iter().enumerate() {
            jobs.push(Job {
                task_idx: ti,
                config: cfg.clone(),
                col: Some(ci),
            });
        }
    }

    // Transcoders are built per task up front (shared read-only).
    let transcoders: Vec<Transcoder> = tasks
        .iter()
        .map(|t| Transcoder::from_catalog(&t.video, seed))
        .collect::<Result<_, _>>()?;

    let results = parallel_map(jobs, |job| {
        let opts = TranscodeOptions::on(job.config.clone()).with_sample_shift(sample_shift);
        let report =
            transcoders[job.task_idx].transcode(&tasks[job.task_idx].encoder_config(), &opts)?;
        Ok((job.task_idx, job.col, report))
    })?;

    let n = tasks.len();
    let m = configs.len();
    let mut baseline_times = vec![0.0; n];
    let mut times = vec![vec![0.0; m]; n];
    let mut benefit = vec![vec![0.0; m]; n];
    for (ti, col, report) in results {
        match col {
            None => {
                baseline_times[ti] = report.seconds;
                // Characterization-driven prediction: the baseline run's
                // Top-down shares and miss density are the smart scheduler's
                // only inputs.
                let b = benefit_from_characterization(
                    &report.summary.topdown,
                    report.summary.mpki.l2,
                    report.summary.mpki.l3,
                );
                benefit[ti].copy_from_slice(&b);
            }
            Some(ci) => times[ti][ci] = report.seconds,
        }
    }

    Ok(MeasuredMatrix {
        config_names,
        baseline_times,
        times,
        benefit,
    })
}

/// Runs the study with custom tasks (used by tests and ablations).
///
/// # Errors
///
/// Propagates transcoding failures.
pub fn scheduler_study_with_tasks(
    tasks: &[TranscodeTask],
    seed: u64,
    sample_shift: u32,
) -> Result<SchedulerStudy, CoreError> {
    let _span = Span::enter_with("experiment/scheduler", |a| {
        a.u64("tasks", tasks.len() as u64);
    });
    let MeasuredMatrix {
        config_names,
        baseline_times,
        times,
        benefit,
    } = measure_task_matrix(tasks, seed, sample_shift)?;

    let random_total = random_expected_time(&times);
    let smart = smart_assignment(&benefit, &times);
    let benefit = benefit.clone();
    let best = best_assignment(&times);
    let smart_match_rate = match_rate(&smart.assignment, &best.assignment);

    // One placement event per task: the smart scheduler's pick with its
    // predicted benefit next to the realized time (and the oracle's pick,
    // so mispredictions are visible in the trace).
    for (ti, task) in tasks.iter().enumerate() {
        let ci = smart.assignment[ti];
        instant("sched/placement", |a| {
            a.str("task", &task.video)
                .str("config", &config_names[ci])
                .f64("predicted_benefit", benefit[ti][ci])
                .f64("realized_seconds", times[ti][ci])
                .str("oracle_config", &config_names[best.assignment[ti]])
                .f64("oracle_seconds", times[ti][best.assignment[ti]]);
        });
    }

    Ok(SchedulerStudy {
        tasks: tasks.to_vec(),
        config_names,
        baseline_times,
        times,
        benefit,
        random_total,
        smart,
        best,
        smart_match_rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_codec::Preset;

    /// Small tasks so the 4x(1+4) = 20 simulations stay test-sized; the
    /// full Table III study runs in the fig9 bench.
    #[test]
    fn study_invariants_hold() {
        let tasks = vec![
            TranscodeTask::new("desktop", 30, 2, Preset::Veryfast),
            TranscodeTask::new("holi", 14, 1, Preset::Veryfast),
        ];
        let study = scheduler_study_with_tasks(&tasks, 3, 3).unwrap();
        assert_eq!(study.times.len(), 2);
        assert_eq!(study.times[0].len(), 4);
        assert!(study.baseline_total() > 0.0);
        // Best is at least as good as smart; smart at least as good as its
        // own worst case; all totals positive.
        assert!(study.best.total_time <= study.smart.total_time + 1e-12);
        assert!(study.smart.total_time > 0.0);
        assert!((0.0..=1.0).contains(&study.smart_match_rate));
        // All four modified configs strictly improve on baseline per task
        // (they only add resources), so every scheduler speeds things up.
        assert!(study.best_speedup() >= 1.0);
    }
}
