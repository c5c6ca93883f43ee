//! The speed / quality / size triangle — Figure 2.
//!
//! Figure 2 is a conceptual diagram: raising `crf` actively degrades
//! quality while passively shrinking files and speeding up transcoding;
//! raising `refs` actively shrinks files while passively slowing
//! transcoding. [`triangle_study`] measures a small grid and
//! [`TriangleReport::directions`] checks each arrow of the diagram
//! empirically.

use vtx_codec::EncoderConfig;

use super::sweep::{crf_refs_sweep, SweepPoint};
use crate::{CoreError, TranscodeOptions, Transcoder};

/// Empirical verification of Figure 2's arrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriangleDirections {
    /// Raising crf lowers PSNR (active effect, red arrow).
    pub crf_degrades_quality: bool,
    /// Raising crf shrinks the file (passive effect, green arrow).
    pub crf_shrinks_size: bool,
    /// Raising crf speeds up transcoding (passive effect, green arrow).
    pub crf_speeds_up: bool,
    /// Raising refs shrinks the file (active effect, green arrow).
    pub refs_shrink_size: bool,
    /// Raising refs slows down transcoding (passive effect, red arrow).
    pub refs_slow_down: bool,
}

impl TriangleDirections {
    /// Whether every arrow of the diagram holds.
    pub fn all_hold(&self) -> bool {
        self.crf_degrades_quality
            && self.crf_shrinks_size
            && self.crf_speeds_up
            && self.refs_shrink_size
            && self.refs_slow_down
    }
}

/// The measured grid plus its direction summary.
#[derive(Debug, Clone, PartialEq)]
pub struct TriangleReport {
    /// Measured grid points.
    pub points: Vec<SweepPoint>,
    /// CRF values of the grid.
    pub(crate) crfs: Vec<u8>,
    /// refs values of the grid.
    pub(crate) refs: Vec<u8>,
}

impl TriangleReport {
    /// Checks the diagram's arrows by comparing the grid corners, averaged
    /// over the other axis.
    pub fn directions(&self) -> TriangleDirections {
        let lo_crf = *self.crfs.first().expect("nonempty grid");
        let hi_crf = *self.crfs.last().expect("nonempty grid");
        let lo_refs = *self.refs.first().expect("nonempty grid");
        let hi_refs = *self.refs.last().expect("nonempty grid");

        let avg = |f: &dyn Fn(&SweepPoint) -> bool, g: &dyn Fn(&SweepPoint) -> f64| {
            let sel: Vec<f64> = self.points.iter().filter(|p| f(p)).map(g).collect();
            sel.iter().sum::<f64>() / sel.len().max(1) as f64
        };

        let at_crf =
            |crf: u8, g: &dyn Fn(&SweepPoint) -> f64| avg(&move |p: &SweepPoint| p.crf == crf, g);
        let at_refs =
            |r: u8, g: &dyn Fn(&SweepPoint) -> f64| avg(&move |p: &SweepPoint| p.refs == r, g);

        TriangleDirections {
            crf_degrades_quality: at_crf(hi_crf, &|p| p.psnr_db) < at_crf(lo_crf, &|p| p.psnr_db),
            crf_shrinks_size: at_crf(hi_crf, &|p| p.bitrate_kbps)
                < at_crf(lo_crf, &|p| p.bitrate_kbps),
            crf_speeds_up: at_crf(hi_crf, &|p| p.summary.seconds)
                < at_crf(lo_crf, &|p| p.summary.seconds),
            refs_shrink_size: at_refs(hi_refs, &|p| p.bitrate_kbps)
                <= at_refs(lo_refs, &|p| p.bitrate_kbps),
            refs_slow_down: at_refs(hi_refs, &|p| p.summary.seconds)
                > at_refs(lo_refs, &|p| p.summary.seconds),
        }
    }
}

/// Measures the triangle on the default crf × refs grid.
///
/// # Errors
///
/// Propagates transcoding failures.
pub fn triangle_study(
    transcoder: &Transcoder,
    opts: &TranscodeOptions,
) -> Result<TriangleReport, CoreError> {
    triangle_study_with(
        transcoder,
        vec![16, 24, 32, 40],
        vec![1, 4, 8, 16],
        &EncoderConfig::default(),
        opts,
    )
}

/// Measures the triangle on a custom grid and base configuration.
///
/// Note that `refs` values beyond the number of anchor frames the clip
/// produces cannot change behaviour (there is nothing more to reference);
/// pick grids compatible with the clip length and B-frame settings.
///
/// # Errors
///
/// Propagates transcoding failures.
fn triangle_study_with(
    transcoder: &Transcoder,
    crfs: Vec<u8>,
    refs: Vec<u8>,
    base_cfg: &EncoderConfig,
    opts: &TranscodeOptions,
) -> Result<TriangleReport, CoreError> {
    let _span = vtx_telemetry::Span::enter("experiment/triangle");
    let points = crf_refs_sweep(transcoder, &crfs, &refs, base_cfg, opts)?;
    Ok(TriangleReport { points, crfs, refs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_frame::{synth, vbench};

    #[test]
    fn directions_hold_on_tiny_clip() {
        let mut spec = vbench::by_name("cricket").unwrap();
        spec.sim_width = 64;
        spec.sim_height = 48;
        spec.sim_frames = 10;
        let t = Transcoder::from_video(synth::generate(&spec, 3)).unwrap();
        let opts = TranscodeOptions::default().with_sample_shift(2);
        // All-P encode so every frame becomes an anchor: the 10-frame test
        // clip then genuinely exercises refs 1 vs 4.
        let cfg = EncoderConfig {
            bframes: 0,
            ..EncoderConfig::default()
        };
        let report =
            triangle_study_with(&t, vec![16, 24, 32, 40], vec![1, 2, 4], &cfg, &opts).unwrap();
        assert_eq!(report.points.len(), 12);
        let d = report.directions();
        assert!(d.crf_degrades_quality, "{d:?}");
        assert!(d.crf_shrinks_size, "{d:?}");
        assert!(d.crf_speeds_up, "{d:?}");
        assert!(d.refs_slow_down, "{d:?}");
    }
}
