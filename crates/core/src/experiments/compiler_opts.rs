//! The compiler-optimization study — Figure 8.
//!
//! Three "binaries" transcode the same inputs: the stock build, an
//! AutoFDO-optimized build (trained on profiles collected from the baseline
//! runs, exactly like the real `perf`-record → recompile flow), and a
//! Graphite-optimized build. Per video, each binary's time is averaged over
//! a set of (crf, refs, preset) combinations and reported as a speedup over
//! baseline.

use vtx_codec::{instr, Preset};
use vtx_opt::{compile, BinaryVariant};
use vtx_telemetry::Span;
use vtx_trace::kernel::KernelProfile;

use super::parallel_map;
use crate::{CoreError, TranscodeOptions, Transcoder};

/// Speedups for one video (Figure 8's bars).
#[derive(Debug, Clone, PartialEq)]
pub struct OptRun {
    /// Video short name.
    pub video: String,
    /// Baseline mean time (seconds) across the parameter combinations.
    pub baseline_seconds: f64,
    /// AutoFDO speedup over baseline (1.05 = 5% faster).
    pub autofdo_speedup: f64,
    /// Graphite speedup over baseline.
    pub graphite_speedup: f64,
}

/// The four parameter combinations each video is averaged over (the paper
/// averages 32).
pub fn quick_combos() -> Vec<(u8, u8, Preset)> {
    vec![
        (23, 3, Preset::Veryfast),
        (23, 3, Preset::Medium),
        (33, 1, Preset::Veryfast),
        (18, 3, Preset::Medium),
    ]
}

/// Runs the study for one video over the given combinations.
///
/// # Errors
///
/// Propagates transcoding failures.
pub fn compiler_opt_run(
    transcoder: &Transcoder,
    video_name: &str,
    combos: &[(u8, u8, Preset)],
    opts: &TranscodeOptions,
) -> Result<OptRun, CoreError> {
    let _span = Span::enter_with("experiment/compiler_opts", |a| {
        a.str("video", video_name)
            .u64("combos", combos.len() as u64);
    });
    let kernels = instr::kernel_table();

    // 1. Baseline runs: measure and collect the training profile.
    let mut training = KernelProfile::new(kernels.len());
    let mut baseline_times = Vec::with_capacity(combos.len());
    for &(crf, refs, preset) in combos {
        let cfg = preset.config().with_crf(f64::from(crf)).with_refs(refs);
        let report = transcoder.transcode(&cfg, opts)?;
        training.merge(&report.profile.profile);
        baseline_times.push(report.seconds);
    }

    // 2. Build the optimized binaries.
    let autofdo = compile(
        BinaryVariant::AutoFdo,
        kernels,
        Some(&training),
        &opts.uarch,
    )
    .expect("profile supplied");
    let graphite = compile(BinaryVariant::Graphite, kernels, None, &opts.uarch)
        .expect("graphite needs no profile");

    // 3. Re-run the combinations under each binary.
    let mut autofdo_times = Vec::with_capacity(combos.len());
    let mut graphite_times = Vec::with_capacity(combos.len());
    for &(crf, refs, preset) in combos {
        let cfg = preset.config().with_crf(f64::from(crf)).with_refs(refs);
        let fdo_opts = opts.clone().with_binary(&autofdo);
        autofdo_times.push(transcoder.transcode(&cfg, &fdo_opts)?.seconds);
        let gra_opts = opts.clone().with_binary(&graphite);
        graphite_times.push(transcoder.transcode(&cfg, &gra_opts)?.seconds);
    }

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let base = mean(&baseline_times);
    Ok(OptRun {
        video: video_name.to_owned(),
        baseline_seconds: base,
        autofdo_speedup: base / mean(&autofdo_times),
        graphite_speedup: base / mean(&graphite_times),
    })
}

/// Runs the study across several videos in parallel.
///
/// # Errors
///
/// Returns [`CoreError::UnknownVideo`] for bad names and propagates
/// transcoding failures.
pub fn compiler_opt_study(
    videos: &[&str],
    seed: u64,
    combos: &[(u8, u8, Preset)],
    opts: &TranscodeOptions,
) -> Result<Vec<OptRun>, CoreError> {
    parallel_map(videos.iter().map(|s| s.to_string()).collect(), |name| {
        let transcoder = Transcoder::from_catalog(&name, seed)?;
        compiler_opt_run(&transcoder, &name, combos, opts)
    })
}

/// Mean speedups across videos: the paper's headline 4.66% / 4.42% numbers.
pub fn mean_speedups(runs: &[OptRun]) -> (f64, f64) {
    if runs.is_empty() {
        return (1.0, 1.0);
    }
    let n = runs.len() as f64;
    (
        runs.iter().map(|r| r.autofdo_speedup).sum::<f64>() / n,
        runs.iter().map(|r| r.graphite_speedup).sum::<f64>() / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_frame::{synth, vbench};

    #[test]
    fn combos_have_documented_sizes() {
        assert_eq!(quick_combos().len(), 4);
    }

    #[test]
    fn optimized_binaries_speed_up_tiny_workload() {
        let mut spec = vbench::by_name("cricket").unwrap();
        spec.sim_width = 96;
        spec.sim_height = 64;
        spec.sim_frames = 6;
        let t = Transcoder::from_video(synth::generate(&spec, 3)).unwrap();
        let opts = TranscodeOptions::default().with_sample_shift(1);
        let run = compiler_opt_run(&t, "cricket", &[(23, 3, Preset::Veryfast)], &opts).unwrap();
        assert!(
            run.autofdo_speedup > 1.0,
            "autofdo speedup {}",
            run.autofdo_speedup
        );
        assert!(
            run.graphite_speedup > 1.0,
            "graphite speedup {}",
            run.graphite_speedup
        );
    }

    #[test]
    fn mean_speedups_average() {
        let runs = vec![
            OptRun {
                video: "a".into(),
                baseline_seconds: 1.0,
                autofdo_speedup: 1.02,
                graphite_speedup: 1.06,
            },
            OptRun {
                video: "b".into(),
                baseline_seconds: 1.0,
                autofdo_speedup: 1.06,
                graphite_speedup: 1.02,
            },
        ];
        let (a, g) = mean_speedups(&runs);
        assert!((a - 1.04).abs() < 1e-12);
        assert!((g - 1.04).abs() < 1e-12);
        assert_eq!(mean_speedups(&[]), (1.0, 1.0));
    }
}
