//! The preset study — Figure 6.
//!
//! All ten x264 presets on one video, with `crf = 23` and `refs = 3` fixed
//! (the paper studies those two parameters separately).

use vtx_codec::Preset;
use vtx_telemetry::Span;

use super::parallel_map;
use crate::{CoreError, RunSummary, TranscodeOptions, Transcoder};

/// One preset's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PresetRun {
    /// The preset.
    pub preset: Preset,
    /// Transcoded bitrate in kbit/s.
    pub bitrate_kbps: f64,
    /// PSNR in dB.
    pub psnr_db: f64,
    /// Microarchitectural summary.
    pub summary: RunSummary,
}

/// Runs every preset in [`Preset::ALL`] order (the x-axis of Figure 6).
///
/// # Errors
///
/// Propagates the first transcoding failure.
pub fn preset_study(
    transcoder: &Transcoder,
    opts: &TranscodeOptions,
) -> Result<Vec<PresetRun>, CoreError> {
    preset_study_subset(transcoder, &Preset::ALL, opts)
}

/// Runs a subset of presets (used by fast tests; benches run all ten).
///
/// # Errors
///
/// Propagates the first transcoding failure.
pub fn preset_study_subset(
    transcoder: &Transcoder,
    presets: &[Preset],
    opts: &TranscodeOptions,
) -> Result<Vec<PresetRun>, CoreError> {
    let _span = Span::enter_with("experiment/presets", |a| {
        a.u64("presets", presets.len() as u64);
    });
    parallel_map(presets.to_vec(), |preset| {
        let _point = Span::enter_with("preset_run", |a| {
            a.str("preset", preset.name());
        });
        // Paper setup: preset options with the default crf (23) and refs (3).
        let cfg = preset.config().with_crf(23.0).with_refs(3);
        let report = transcoder.transcode(&cfg, opts)?;
        Ok(PresetRun {
            preset,
            bitrate_kbps: report.bitrate_kbps,
            psnr_db: report.psnr_db,
            summary: report.summary,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_frame::{synth, vbench};

    fn tiny_transcoder() -> Transcoder {
        let mut spec = vbench::by_name("bike").unwrap();
        spec.sim_width = 64;
        spec.sim_height = 48;
        spec.sim_frames = 5;
        Transcoder::from_video(synth::generate(&spec, 3)).unwrap()
    }

    #[test]
    fn faster_presets_transcode_faster() {
        let t = tiny_transcoder();
        let opts = TranscodeOptions::default().with_sample_shift(1);
        let runs = preset_study_subset(
            &t,
            &[Preset::Ultrafast, Preset::Medium, Preset::Slower],
            &opts,
        )
        .unwrap();
        assert_eq!(runs.len(), 3);
        // On a 64x48 test clip the ultrafast/medium gap is within noise
        // (the full-size ordering is asserted by the fig6 bench and the
        // paper_trends integration test); `slower` must clearly lose.
        assert!(
            runs[0].summary.seconds < runs[2].summary.seconds,
            "ultrafast {} < slower {}",
            runs[0].summary.seconds,
            runs[2].summary.seconds
        );
        assert!(
            runs[1].summary.seconds < runs[2].summary.seconds,
            "medium {} < slower {}",
            runs[1].summary.seconds,
            runs[2].summary.seconds
        );
    }

    #[test]
    fn slower_presets_compress_better() {
        let t = tiny_transcoder();
        let opts = TranscodeOptions::default().with_sample_shift(2);
        let runs = preset_study_subset(&t, &[Preset::Ultrafast, Preset::Slow], &opts).unwrap();
        assert!(
            runs[1].bitrate_kbps < runs[0].bitrate_kbps,
            "slow {} should beat ultrafast {}",
            runs[1].bitrate_kbps,
            runs[0].bitrate_kbps
        );
    }
}
