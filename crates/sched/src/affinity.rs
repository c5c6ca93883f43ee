//! Task-to-configuration affinity prediction.
//!
//! The smart scheduler must decide *without measuring every (task, config)
//! pair*. Its inputs are the characterization results the paper builds in
//! §IV-A: each Table IV configuration attacks exactly one Top-down category,
//! so a task's predicted benefit on a configuration is the share of pipeline
//! slots it loses to that category. The share estimates come either from a
//! cheap baseline profiling run (`benefit_from_topdown`) or, when no
//! profile is available, from the parameter-trend model the paper's heatmaps
//! establish (`predict_topdown`).
//!
//! # Degenerate inputs
//!
//! Every predictor here is total — the scheduler calls them on whatever it
//! has — so the edge cases are contracts, not accidents:
//!
//! * **Single-server fleet**: a fleet with one server means one column in
//!   the assignment matrices. The one-to-one Hungarian path accepts the
//!   1×1 case (the only possible assignment) and rejects over-subscription
//!   (more tasks than servers) with a typed error, never a panic — queueing
//!   the surplus is the caller's job (the serving queue).
//! * **All-zero Top-down shares**: benefit vectors come out all-zero, never
//!   NaN; an argmax over them picks the first configuration
//!   deterministically.
//!
//! Both degenerate paths are pinned by tests in this module.

use vtx_codec::Preset;
use vtx_uarch::topdown::TopDown;

use crate::task::TranscodeTask;

/// Order of the modified configurations in all benefit vectors:
/// `[fe_op, be_op1, be_op2, bs_op]` (Table IV order, baseline excluded).
pub const CONFIG_NAMES: [&str; 4] = ["fe_op", "be_op1", "be_op2", "bs_op"];

/// Maps a measured Top-down breakdown to per-configuration benefit scores:
/// each configuration's score is the slot share of the category it attacks.
fn benefit_from_topdown(td: &TopDown) -> [f64; 4] {
    [
        td.frontend,
        td.backend_memory,
        td.backend_core,
        td.bad_speculation,
    ]
}

/// Refined benefit model using the full characterization (Top-down shares
/// plus the L2 miss rate), reflecting *how* each Table IV configuration
/// attacks its category:
///
/// * `fe_op` roughly halves instruction-fetch stalls (bigger L1i + iTLB);
/// * `be_op1` moves data misses one level up the hierarchy — a fraction of
///   the memory-bound share;
/// * `be_op2` doubles the out-of-order window, which overlaps long-latency
///   misses — but only when misses are *dense* enough to be window-limited,
///   hence the saturating L2-MPKI factor — plus all core-bound stalls;
/// * `bs_op` (TAGE) removes roughly half the mispredictions.
pub fn benefit_from_characterization(td: &TopDown, l2_mpki: f64, l3_mpki: f64) -> [f64; 4] {
    // Doubling the ROB (be_op2) only overlaps more misses when they arrive
    // faster than one per ~256 retired instructions — i.e. when the L2 miss
    // rate exceeds ~4 per kilo-instruction; below that the 128-entry window
    // already covers the gap.
    let density = ((l2_mpki - 4.0) / 4.0).clamp(0.0, 1.0);
    // be_op1 trades L3 capacity (8 MiB -> 4 MiB + slow L4) for bigger
    // L1d/L2: tasks whose working set lives in the L3 (high L3 miss
    // pressure once halved) gain little or even lose.
    let l3_pressure = (l3_mpki / 2.0).min(1.0);
    [
        0.9 * td.frontend,
        0.35 * td.backend_memory * (1.0 - 0.8 * l3_pressure),
        td.backend_core + 0.6 * td.backend_memory * density,
        0.1 * td.bad_speculation,
    ]
}

/// Parameter-trend model of the Top-down shares, encoding the paper's
/// Figure 3/6/7 findings:
///
/// * raising `crf` or `refs` lowers front-end and bad-speculation shares and
///   raises the back-end (memory) share (operational-intensity argument);
/// * slower presets are less memory-bound;
/// * the entropy of the input (motion/scene complexity) raises front-end and
///   bad-speculation shares.
fn predict_topdown(task: &TranscodeTask, entropy: f64) -> TopDown {
    let crf = f64::from(task.crf);
    let refs = f64::from(task.refs);
    let speed_rank = Preset::ALL
        .iter()
        .position(|&p| p == task.preset)
        .unwrap_or(5) as f64; // 0 = ultrafast .. 9 = placebo

    let frontend = (0.055 - 0.0006 * crf - 0.0012 * refs + 0.004 * entropy).max(0.01);
    let bad_spec = (0.065 - 0.0007 * crf - 0.0015 * refs + 0.006 * entropy).max(0.01);
    let backend_memory =
        (0.18 + 0.0030 * crf + 0.0080 * refs - 0.012 * speed_rank - 0.008 * entropy).max(0.02);
    let backend_core = (0.12 + 0.0010 * crf + 0.0020 * refs).max(0.02);
    let retiring = (1.0 - frontend - bad_spec - backend_memory - backend_core).max(0.05);
    TopDown {
        retiring,
        frontend,
        bad_speculation: bad_spec,
        backend_memory,
        backend_core,
    }
}

/// Predicted per-configuration benefit for a task (no measurement needed).
pub fn predict_benefit(task: &TranscodeTask, entropy: f64) -> [f64; 4] {
    benefit_from_topdown(&predict_topdown(task, entropy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TranscodeTask;

    fn task(crf: u8, refs: u8, preset: Preset) -> TranscodeTask {
        TranscodeTask::new("bike", crf, refs, preset)
    }

    #[test]
    fn higher_crf_more_memory_bound() {
        let lo = predict_topdown(&task(10, 3, Preset::Medium), 1.0);
        let hi = predict_topdown(&task(45, 3, Preset::Medium), 1.0);
        assert!(hi.backend_memory > lo.backend_memory);
        assert!(hi.frontend < lo.frontend);
        assert!(hi.bad_speculation < lo.bad_speculation);
    }

    #[test]
    fn higher_refs_more_memory_bound() {
        let lo = predict_topdown(&task(23, 1, Preset::Medium), 1.0);
        let hi = predict_topdown(&task(23, 16, Preset::Medium), 1.0);
        assert!(hi.backend_memory > lo.backend_memory);
        assert!(hi.bad_speculation < lo.bad_speculation);
    }

    #[test]
    fn slower_presets_less_memory_bound() {
        let fast = predict_topdown(&task(23, 3, Preset::Ultrafast), 1.0);
        let slow = predict_topdown(&task(23, 3, Preset::Veryslow), 1.0);
        assert!(slow.backend_memory < fast.backend_memory);
    }

    #[test]
    fn complex_video_more_frontend_and_badspec() {
        let calm = predict_topdown(&task(23, 3, Preset::Medium), 0.2);
        let busy = predict_topdown(&task(23, 3, Preset::Medium), 7.7);
        assert!(busy.frontend > calm.frontend);
        assert!(busy.bad_speculation > calm.bad_speculation);
        assert!(busy.backend_memory < calm.backend_memory);
    }

    #[test]
    fn shares_are_sane() {
        for crf in [1u8, 23, 51] {
            for refs in [1u8, 8, 16] {
                let td = predict_topdown(&task(crf, refs, Preset::Medium), 3.0);
                assert!((td.sum() - 1.0).abs() < 0.3, "{td:?}");
                assert!(td.retiring > 0.0);
            }
        }
    }

    #[test]
    fn characterization_model_is_density_aware() {
        let memory_bound = TopDown {
            retiring: 0.3,
            frontend: 0.05,
            bad_speculation: 0.05,
            backend_memory: 0.5,
            backend_core: 0.1,
        };
        // Dense misses: the bigger window (be_op2) is the best fit.
        let dense = benefit_from_characterization(&memory_bound, 12.0, 0.2);
        let best_dense = (0..4)
            .max_by(|&a, &b| dense[a].total_cmp(&dense[b]))
            .unwrap();
        assert_eq!(CONFIG_NAMES[best_dense], "be_op2");
        // Sparse misses: the window already covers them; bigger caches win.
        let sparse = benefit_from_characterization(&memory_bound, 1.0, 0.2);
        let best_sparse = (0..4)
            .max_by(|&a, &b| sparse[a].total_cmp(&sparse[b]))
            .unwrap();
        assert_eq!(CONFIG_NAMES[best_sparse], "be_op1");
    }

    #[test]
    fn all_zero_topdown_yields_all_zero_benefit() {
        let td = TopDown {
            retiring: 0.0,
            frontend: 0.0,
            bad_speculation: 0.0,
            backend_memory: 0.0,
            backend_core: 0.0,
        };
        let characterized = benefit_from_characterization(&td, 0.0, 0.0);
        for v in characterized.into_iter().chain(benefit_from_topdown(&td)) {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn single_server_fleet_degenerate_paths() {
        // 1×1: the only possible assignment, accepted.
        let out = crate::scheduler::try_smart_assignment(&[vec![0.4]], &[vec![2.0]])
            .expect("1x1 matrices are valid");
        assert_eq!(out.assignment, vec![0]);
        assert!((out.total_time - 2.0).abs() < 1e-12);
        // 3 tasks × 1 server: one-to-one is unsatisfiable — a typed error,
        // not a panic; batching the surplus is the caller's job.
        let times = vec![vec![2.0], vec![3.0], vec![5.0]];
        let benefit = vec![vec![0.1], vec![0.2], vec![0.3]];
        assert!(crate::scheduler::try_smart_assignment(&benefit, &times).is_err());
    }

    #[test]
    fn benefit_vector_maps_categories() {
        let td = TopDown {
            retiring: 0.5,
            frontend: 0.1,
            bad_speculation: 0.05,
            backend_memory: 0.25,
            backend_core: 0.1,
        };
        let b = benefit_from_topdown(&td);
        assert_eq!(b, [0.1, 0.25, 0.1, 0.05]);
        // be_op1 is the best fit for this memory-bound profile.
        let best = (0..4).max_by(|&a, &c| b[a].total_cmp(&b[c])).unwrap();
        assert_eq!(CONFIG_NAMES[best], "be_op1");
    }
}
