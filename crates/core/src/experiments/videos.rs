//! The cross-video study — Figure 7.
//!
//! Every vbench video transcoded with `crf = 23`, `refs = 3`, preset
//! `medium`; results are grouped by resolution and ordered by entropy, like
//! the paper's figure.

use vtx_codec::EncoderConfig;
use vtx_frame::{synth, vbench, VideoSpec};
use vtx_telemetry::{progress::ProgressReporter, Span};

use super::parallel_map;
use crate::{CoreError, RunSummary, TranscodeOptions, Transcoder};

/// One video's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoRun {
    /// Catalog metadata (name, resolution, fps, entropy).
    pub spec: VideoSpec,
    /// Transcoded bitrate in kbit/s.
    pub bitrate_kbps: f64,
    /// PSNR in dB.
    pub psnr_db: f64,
    /// Microarchitectural summary.
    pub summary: RunSummary,
}

/// Runs the study over the full Table I catalog (or a named subset).
///
/// Results follow the paper's presentation order: grouped by nominal
/// resolution (ascending), entropy-sorted within each group.
///
/// # Errors
///
/// Returns [`CoreError::UnknownVideo`] for names outside the catalog and
/// propagates transcoding failures.
pub fn video_study(
    names: Option<&[&str]>,
    seed: u64,
    opts: &TranscodeOptions,
) -> Result<Vec<VideoRun>, CoreError> {
    let mut specs: Vec<VideoSpec> = match names {
        Some(list) => list
            .iter()
            .map(|n| {
                vbench::by_name(n).ok_or_else(|| CoreError::UnknownVideo {
                    name: (*n).to_owned(),
                })
            })
            .collect::<Result<_, _>>()?,
        None => vbench::catalog(),
    };
    specs.sort_by(|a, b| {
        a.nominal_height
            .cmp(&b.nominal_height)
            .then(a.entropy.total_cmp(&b.entropy))
    });

    let _span = Span::enter_with("experiment/videos", |a| {
        a.u64("videos", specs.len() as u64);
    });
    let progress = ProgressReporter::new("videos", specs.len() as u64);
    parallel_map(specs, |spec| {
        let _point = Span::enter_with("video_run", |a| {
            a.str("video", &spec.short_name);
        });
        let transcoder = Transcoder::from_video(synth::generate(&spec, seed))?;
        let report = transcoder.transcode(&EncoderConfig::default(), opts)?;
        progress.tick();
        Ok(VideoRun {
            spec,
            bitrate_kbps: report.bitrate_kbps,
            psnr_db: report.psnr_db,
            summary: report.summary,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_study_orders_by_resolution_then_entropy() {
        let opts = TranscodeOptions::default().with_sample_shift(3);
        let runs = video_study(Some(&["holi", "cat", "desktop"]), 5, &opts).unwrap();
        assert_eq!(runs.len(), 3);
        // 480p group (cat 6.8, holi 7.0) precedes 720p (desktop).
        assert_eq!(runs[0].spec.short_name, "cat");
        assert_eq!(runs[1].spec.short_name, "holi");
        assert_eq!(runs[2].spec.short_name, "desktop");
    }

    #[test]
    fn unknown_video_rejected() {
        let opts = TranscodeOptions::default();
        assert!(matches!(
            video_study(Some(&["nope"]), 1, &opts),
            Err(CoreError::UnknownVideo { .. })
        ));
    }
}
