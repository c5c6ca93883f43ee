//! Transcoding tasks — Table III of the paper.

use std::sync::Arc;

use vtx_codec::{EncoderConfig, Preset};

/// One transcoding job: a video plus its parameter combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranscodeTask {
    /// Short video name from the vbench catalog. Shared: a trace names a
    /// handful of videos thousands of times, so generators hand every task
    /// of one video the same allocation and a clone is a count bump.
    pub video: Arc<str>,
    /// CRF value.
    pub crf: u8,
    /// Reference frame count.
    pub refs: u8,
    /// x264 preset.
    pub preset: Preset,
}

impl TranscodeTask {
    /// Creates a task.
    pub fn new(video: &str, crf: u8, refs: u8, preset: Preset) -> Self {
        TranscodeTask {
            video: video.into(),
            crf,
            refs,
            preset,
        }
    }

    /// The same task at a different preset. Used by the serving layer's
    /// graceful-degradation ladder, which steps jobs toward `ultrafast`
    /// under capacity loss; `crf`/`refs` overrides survive the swap.
    pub fn with_preset(mut self, preset: Preset) -> Self {
        self.preset = preset;
        self
    }

    /// The encoder configuration this task runs with: the preset's options
    /// with the task's `crf` and `refs` overriding the preset values.
    pub fn encoder_config(&self) -> EncoderConfig {
        self.preset
            .config()
            .with_crf(f64::from(self.crf))
            .with_refs(self.refs)
    }
}

/// The four tasks of Table III.
///
/// # Example
///
/// ```
/// let tasks = vtx_sched::table_iii_tasks();
/// assert_eq!(tasks.len(), 4);
/// assert_eq!(&*tasks[0].video, "desktop");
/// assert_eq!(tasks[1].crf, 10);
/// ```
pub fn table_iii_tasks() -> Vec<TranscodeTask> {
    vec![
        TranscodeTask::new("desktop", 30, 8, Preset::Veryfast),
        TranscodeTask::new("holi", 10, 1, Preset::Slow),
        TranscodeTask::new("presentation", 35, 6, Preset::Veryfast),
        TranscodeTask::new("game2", 15, 2, Preset::Medium),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_matches_paper() {
        let t = table_iii_tasks();
        assert_eq!(t[0], TranscodeTask::new("desktop", 30, 8, Preset::Veryfast));
        assert_eq!(t[1], TranscodeTask::new("holi", 10, 1, Preset::Slow));
        assert_eq!(
            t[2],
            TranscodeTask::new("presentation", 35, 6, Preset::Veryfast)
        );
        assert_eq!(t[3], TranscodeTask::new("game2", 15, 2, Preset::Medium));
    }

    #[test]
    fn with_preset_swaps_only_the_preset() {
        let t = TranscodeTask::new("holi", 10, 1, Preset::Slow).with_preset(Preset::Ultrafast);
        assert_eq!(t.preset, Preset::Ultrafast);
        assert_eq!((&*t.video, t.crf, t.refs), ("holi", 10, 1));
        // The crf/refs overrides still apply at the new preset.
        let cfg = t.encoder_config();
        assert_eq!(cfg.refs, 1);
    }

    #[test]
    fn encoder_config_overrides_preset_crf_refs() {
        let t = TranscodeTask::new("desktop", 30, 8, Preset::Veryfast);
        let cfg = t.encoder_config();
        assert_eq!(cfg.refs, 8); // veryfast's own refs is 1 — task overrides
        match cfg.rc {
            vtx_codec::RateControlMode::Crf(c) => assert!((c - 30.0).abs() < 1e-9),
            other => panic!("expected CRF, got {other:?}"),
        }
        // Non-overridden preset options survive.
        assert_eq!(cfg.subme, Preset::Veryfast.config().subme);
        cfg.validate().unwrap();
    }
}
