//! The speed / quality / size triangle — Figure 2.
//!
//! Figure 2 is a conceptual diagram: raising `crf` actively degrades
//! quality while passively shrinking files and speeding up transcoding;
//! raising `refs` actively shrinks files while passively slowing
//! transcoding. [`TriangleReport::from_plane`] reads a small grid from a
//! measured crf × refs plane, and [`TriangleReport::ends`] gives the two ends
//! each arrow of the diagram compares.

use super::sweep::{subgrid, Knob, SweepPoint};

/// A measured crf × refs grid, read as the diagram's arrows.
#[derive(Debug, Clone, PartialEq)]
pub struct TriangleReport {
    /// Measured grid points.
    pub points: Vec<SweepPoint>,
    /// CRF values of the grid.
    crfs: Vec<u8>,
    /// refs values of the grid.
    refs: Vec<u8>,
}

impl TriangleReport {
    /// The report over the `crfs` × `refs` grid, read from a measured crf ×
    /// refs plane that contains every point of it (see [`subgrid`]).
    pub fn from_plane(plane: &[SweepPoint], crfs: Vec<u8>, refs: Vec<u8>) -> Self {
        TriangleReport {
            points: subgrid(plane, &crfs, &refs),
            crfs,
            refs,
        }
    }

    /// Mean of `metric` at `knob`'s lowest and at its highest grid value,
    /// each averaged over the other knob: the two ends of one arrow.
    pub fn ends(&self, knob: Knob, metric: impl Fn(&SweepPoint) -> f64) -> (f64, f64) {
        let (axis, value): (&[u8], fn(&SweepPoint) -> u8) = match knob {
            Knob::Crf => (&self.crfs, |p| p.crf),
            Knob::Refs => (&self.refs, |p| p.refs),
        };
        let mean_at = |v: u8| {
            let sel: Vec<f64> = self
                .points
                .iter()
                .filter(|p| value(p) == v)
                .map(&metric)
                .collect();
            sel.iter().sum::<f64>() / sel.len().max(1) as f64
        };
        (mean_at(axis[0]), mean_at(axis[axis.len() - 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::crf_refs_sweep;
    use crate::{TranscodeOptions, Transcoder};
    use vtx_codec::EncoderConfig;
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
        let (crfs, refs) = (vec![16, 24, 32, 40], vec![1, 2, 4]);
        let plane = crf_refs_sweep(&t, &crfs, &refs, &cfg, &opts).unwrap();
        let report = TriangleReport::from_plane(&plane, crfs, refs);
        assert_eq!(report.points.len(), 12);
        let psnr = report.ends(Knob::Crf, |p| p.psnr_db);
        assert!(psnr.1 < psnr.0, "crf degrades quality: {psnr:?}");
        let size = report.ends(Knob::Crf, |p| p.bitrate_kbps);
        assert!(size.1 < size.0, "crf shrinks size: {size:?}");
        let time = report.ends(Knob::Crf, |p| p.summary.seconds);
        assert!(time.1 < time.0, "crf speeds up: {time:?}");
        let time = report.ends(Knob::Refs, |p| p.summary.seconds);
        assert!(time.1 > time.0, "refs slow down: {time:?}");
    }
}
