//! The port-pressure study — the issue-port extension of the Top-down
//! characterization.
//!
//! One video is transcoded on every Table IV configuration; each run's
//! report is then *port-refined*: the profiled hotspot mix is solved
//! against the configuration's port layout and the cycle accounting re-run
//! under the resulting dispatch bound. The study reports both views side by
//! side, showing how much backend-core share the flat-width model hides and
//! which configurations (the core-widened `be_op2`) buy it back.

use vtx_codec::EncoderConfig;
use vtx_frame::{synth, vbench};
use vtx_port::{refine_report, PortRefinement};
use vtx_telemetry::Span;
use vtx_uarch::config::UarchConfig;

use super::parallel_map;
use crate::{CoreError, RunSummary, TranscodeOptions, Transcoder};

/// One configuration's flat-width vs port-aware accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct PortStudyRun {
    /// Configuration name (Table IV column).
    pub config_name: String,
    /// Summary under the flat dispatch-width model.
    pub flat: RunSummary,
    /// Summary under the port-aware dispatch bound.
    pub ported: RunSummary,
    /// The refinement details (mix, bound, per-port utilization).
    pub refinement: PortRefinement,
}

/// Runs the study: `video` transcoded on every Table IV configuration,
/// each report port-refined.
///
/// # Errors
///
/// Returns [`CoreError::UnknownVideo`] for names outside the catalog and
/// propagates transcoding and port-model failures.
pub fn port_study(
    video: &str,
    seed: u64,
    opts: &TranscodeOptions,
) -> Result<Vec<PortStudyRun>, CoreError> {
    let spec = vbench::by_name(video).ok_or_else(|| CoreError::UnknownVideo {
        name: video.to_owned(),
    })?;
    let _span = Span::enter_with("experiment/ports", |a| {
        a.str("video", video);
    });
    let configs = UarchConfig::table_iv();
    parallel_map(configs, |cfg| {
        let _point = Span::enter_with("port_run", |a| {
            a.str("config", &cfg.name);
        });
        let run_opts = TranscodeOptions {
            uarch: cfg.clone(),
            ..opts.clone()
        };
        let transcoder = Transcoder::from_video(synth::generate(&spec, seed))?;
        let report = transcoder.transcode(&EncoderConfig::default(), &run_opts)?;
        let flat = RunSummary::from_profile(&report.profile);
        let mut refined = report.profile;
        let refinement = refine_report(&mut refined, &cfg)?;
        Ok(PortStudyRun {
            config_name: cfg.name,
            flat,
            ported: RunSummary::from_profile(&refined),
            refinement,
        })
    })
}

/// Renders the study as a fixed-precision text table (deterministic for a
/// fixed seed; safe to byte-compare across runs).
pub fn render_port_study(runs: &[PortStudyRun]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "config", "flat_ipc", "port_ipc", "bound", "core_fl", "core_pt"
    );
    for r in runs {
        let _ = writeln!(
            out,
            "{:<10} {:>9.3} {:>9.3} {:>8.3} {:>8.3} {:>8.3}",
            r.config_name,
            r.flat.ipc,
            r.ported.ipc,
            r.refinement.dispatch_bound,
            r.flat.topdown.backend_core,
            r.ported.topdown.backend_core,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn study_covers_table_iv_and_port_model_only_slows() {
        let opts = TranscodeOptions::default().with_sample_shift(3);
        let runs = port_study("cat", 7, &opts).unwrap();
        assert_eq!(runs.len(), 5);
        for r in &runs {
            // Port contention can only stretch time, never shrink it.
            assert!(
                r.ported.seconds >= r.flat.seconds - 1e-12,
                "{}: {} vs {}",
                r.config_name,
                r.ported.seconds,
                r.flat.seconds
            );
            assert!(
                (r.ported.topdown.sum() - 1.0).abs() < 1e-9,
                "{}",
                r.config_name
            );
            assert!(r.refinement.dispatch_bound > 0.0);
        }
        let text = render_port_study(&runs);
        assert!(text.contains("baseline") && text.contains("be_op2"));
    }

    #[test]
    fn unknown_video_rejected() {
        let opts = TranscodeOptions::default();
        assert!(matches!(
            port_study("nope", 1, &opts),
            Err(CoreError::UnknownVideo { .. })
        ));
    }
}
