//! One-call characterization: runs the parameter, preset and video studies
//! and renders a single Markdown report — the paper's evaluation in
//! miniature, for any corpus subset.

use vtx_codec::{EncoderConfig, Preset};

use super::presets::{preset_study_subset, PresetRun};
use super::sweep::{crf_refs_sweep, SweepPoint};
use super::videos::{video_study, VideoRun};
use crate::export::{presets_markdown, sweep_markdown, videos_markdown};
use crate::{CoreError, TranscodeOptions, Transcoder};

/// Scope of a characterization run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportScope {
    /// Video used for the crf × refs sweep and the preset study.
    pub sweep_video: String,
    /// CRF values for the sweep.
    pub crfs: Vec<u8>,
    /// refs values for the sweep.
    pub refs: Vec<u8>,
    /// Presets to study.
    pub presets: Vec<Preset>,
    /// Videos for the cross-video study (`None` = whole catalog).
    pub videos: Option<Vec<String>>,
    /// Seed for clip synthesis.
    pub(crate) seed: u64,
}

impl Default for ReportScope {
    fn default() -> Self {
        ReportScope {
            sweep_video: "bike".to_owned(),
            crfs: vec![10, 18, 26, 34, 42],
            refs: vec![1, 4, 8],
            presets: vec![
                Preset::Ultrafast,
                Preset::Veryfast,
                Preset::Medium,
                Preset::Slow,
            ],
            videos: Some(vec![
                "desktop".to_owned(),
                "bike".to_owned(),
                "cricket".to_owned(),
                "holi".to_owned(),
            ]),
            seed: 42,
        }
    }
}

/// The assembled characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// Scope that produced this report.
    pub(crate) scope: ReportScope,
    /// The crf × refs sweep points.
    pub(crate) sweep: Vec<SweepPoint>,
    /// Preset study results.
    pub(crate) presets: Vec<PresetRun>,
    /// Cross-video study results.
    pub(crate) videos: Vec<VideoRun>,
}

impl Characterization {
    /// Renders the whole characterization as a Markdown document.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Transcoding characterization report\n\n");
        out.push_str(&format!(
            "Sweep video `{}`, seed {}.\n\n",
            self.scope.sweep_video, self.scope.seed
        ));
        out.push_str("## crf x refs sweep (Figures 3-5)\n\n");
        out.push_str(&sweep_markdown(&self.sweep));
        out.push_str("\n## Presets (Figure 6)\n\n");
        out.push_str(&presets_markdown(&self.presets));
        out.push_str("\n## Videos (Figure 7)\n\n");
        out.push_str(&videos_markdown(&self.videos));
        out
    }
}

/// Runs the three profiling studies of §IV-A over the given scope.
///
/// # Errors
///
/// Propagates transcoding failures and unknown video names.
pub fn characterize(
    scope: &ReportScope,
    opts: &TranscodeOptions,
) -> Result<Characterization, CoreError> {
    let _span = vtx_telemetry::Span::enter_with("experiment/characterize", |a| {
        a.str("sweep_video", &scope.sweep_video)
            .u64("crfs", scope.crfs.len() as u64)
            .u64("refs", scope.refs.len() as u64);
    });
    let transcoder = Transcoder::from_catalog(&scope.sweep_video, scope.seed)?;
    let sweep = crf_refs_sweep(
        &transcoder,
        &scope.crfs,
        &scope.refs,
        &EncoderConfig::default(),
        opts,
    )?;
    let presets = preset_study_subset(&transcoder, &scope.presets, opts)?;
    let names: Option<Vec<&str>> = scope
        .videos
        .as_ref()
        .map(|v| v.iter().map(String::as_str).collect());
    let videos = video_study(names.as_deref(), scope.seed, opts)?;
    Ok(Characterization {
        scope: scope.clone(),
        sweep,
        presets,
        videos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_characterization_renders() {
        let scope = ReportScope {
            sweep_video: "cat".to_owned(),
            crfs: vec![20, 40],
            refs: vec![1],
            presets: vec![Preset::Veryfast],
            videos: Some(vec!["cat".to_owned()]),
            seed: 3,
        };
        let opts = TranscodeOptions::default().with_sample_shift(3);
        let c = characterize(&scope, &opts).unwrap();
        assert_eq!(c.sweep.len(), 2);
        assert_eq!(c.presets.len(), 1);
        assert_eq!(c.videos.len(), 1);
        let md = c.to_markdown();
        assert!(md.contains("# Transcoding characterization report"));
        assert!(md.contains("| crf | refs |"));
        assert!(md.contains("veryfast"));
        assert!(md.contains("cat"));
    }
}
