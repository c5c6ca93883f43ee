//! The crf × refs parameter sweep — Figures 3, 4 and 5.
//!
//! The paper varies `crf` 1–51 and `refs` 1–16 (816 combinations) on a
//! single video and plots Top-down heat maps (Figure 3), the
//! quality/size/time projections (Figure 4) and eight microarchitectural
//! event rates (Figure 5). [`crf_refs_sweep`] measures any grid of that
//! plane, the full 816 points through [`full_crf_grid`]/[`full_refs_grid`];
//! [`subgrid`] reads a smaller grid, such as Figure 5's
//! [`default_crf_grid`] × [`default_refs_grid`], out of a measured plane.

use vtx_codec::EncoderConfig;
use vtx_telemetry::{progress::ProgressReporter, Span};

use super::parallel_map;
use crate::{CoreError, RunSummary, TranscodeOptions, Transcoder};

/// One grid point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// CRF value of this point.
    pub crf: u8,
    /// Reference-frame count of this point.
    pub refs: u8,
    /// Transcoded bitrate in kbit/s (Figure 4's size axis).
    pub bitrate_kbps: f64,
    /// PSNR in dB (Figure 4's quality axis).
    pub psnr_db: f64,
    /// Microarchitectural summary (Figures 3 and 5).
    pub summary: RunSummary,
}

/// One of the plane's two knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// The constant rate factor.
    Crf,
    /// The reference-frame count.
    Refs,
}

/// The paper's full CRF axis (1..=51).
pub fn full_crf_grid() -> Vec<u8> {
    (1..=51).collect()
}

/// The paper's full refs axis (1..=16).
pub fn full_refs_grid() -> Vec<u8> {
    (1..=16).collect()
}

/// Strided CRF axis for fast runs (11 values).
pub fn default_crf_grid() -> Vec<u8> {
    (1..=51).step_by(5).collect()
}

/// Strided refs axis for fast runs (5 values).
pub fn default_refs_grid() -> Vec<u8> {
    vec![1, 2, 4, 8, 16]
}

/// Runs the sweep over the cartesian product of the two grids, starting
/// from `base_cfg` (its rate mode is overridden per point). Points run in
/// parallel; results come back in grid order (crf-major).
///
/// # Errors
///
/// Propagates the first transcoding failure.
pub fn crf_refs_sweep(
    transcoder: &Transcoder,
    crfs: &[u8],
    refs_list: &[u8],
    base_cfg: &EncoderConfig,
    opts: &TranscodeOptions,
) -> Result<Vec<SweepPoint>, CoreError> {
    let _span = Span::enter_with("experiment/sweep", |a| {
        a.u64("crf_values", crfs.len() as u64)
            .u64("refs_values", refs_list.len() as u64);
    });
    let mut points = Vec::new();
    for &crf in crfs {
        for &refs in refs_list {
            points.push((crf, refs));
        }
    }
    let progress = ProgressReporter::new("sweep", points.len() as u64);
    parallel_map(points, |(crf, refs)| {
        let _point = Span::enter_with("sweep_point", |a| {
            a.u64("crf", u64::from(crf)).u64("refs", u64::from(refs));
        });
        let cfg = base_cfg.clone().with_crf(f64::from(crf)).with_refs(refs);
        let report = transcoder.transcode(&cfg, opts)?;
        progress.tick();
        Ok(SweepPoint {
            crf,
            refs,
            bitrate_kbps: report.bitrate_kbps,
            psnr_db: report.psnr_db,
            summary: report.summary,
        })
    })
}

/// The `crfs` × `refs_list` points of a measured plane, crf-major: how
/// Figures 2, 4 and 5 read their grids from Figure 3's plane instead of
/// transcoding them again.
///
/// # Panics
///
/// If the plane lacks one of the points.
pub fn subgrid(plane: &[SweepPoint], crfs: &[u8], refs_list: &[u8]) -> Vec<SweepPoint> {
    crfs.iter()
        .flat_map(|&crf| {
            refs_list.iter().map(move |&refs| {
                plane
                    .iter()
                    .find(|p| p.crf == crf && p.refs == refs)
                    .expect("the plane holds every point of the subgrid")
                    .clone()
            })
        })
        .collect()
}

/// Figure 4's projection B helper: for each crf, the (refs, seconds)
/// series, demonstrating the elbow of diminishing returns.
pub fn projection_time_vs_refs(points: &[SweepPoint]) -> Vec<(u8, Vec<(u8, f64)>)> {
    let mut crfs: Vec<u8> = points.iter().map(|p| p.crf).collect();
    crfs.sort_unstable();
    crfs.dedup();
    crfs.into_iter()
        .map(|crf| {
            let mut series: Vec<(u8, f64)> = points
                .iter()
                .filter(|p| p.crf == crf)
                .map(|p| (p.refs, p.summary.seconds))
                .collect();
            series.sort_by_key(|&(r, _)| r);
            (crf, series)
        })
        .collect()
}

/// Figure 4's projection A helper: for each crf, the bitrate range achieved
/// by varying refs (the "line length" the paper discusses).
pub fn projection_bitrate_range(points: &[SweepPoint]) -> Vec<(u8, f64, f64)> {
    let mut crfs: Vec<u8> = points.iter().map(|p| p.crf).collect();
    crfs.sort_unstable();
    crfs.dedup();
    crfs.into_iter()
        .map(|crf| {
            let rates: Vec<f64> = points
                .iter()
                .filter(|p| p.crf == crf)
                .map(|p| p.bitrate_kbps)
                .collect();
            let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
            let max = rates.iter().copied().fold(0.0, f64::max);
            (crf, min, max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_frame::{synth, vbench};

    fn tiny_transcoder() -> Transcoder {
        let mut spec = vbench::by_name("cricket").unwrap();
        spec.sim_width = 64;
        spec.sim_height = 48;
        spec.sim_frames = 5;
        Transcoder::from_video(synth::generate(&spec, 3)).unwrap()
    }

    #[test]
    fn sweep_covers_grid_in_order() {
        let t = tiny_transcoder();
        let opts = TranscodeOptions::default().with_sample_shift(1);
        let pts = crf_refs_sweep(&t, &[20, 40], &[1, 4], &EncoderConfig::default(), &opts).unwrap();
        assert_eq!(pts.len(), 4);
        assert_eq!((pts[0].crf, pts[0].refs), (20, 1));
        assert_eq!((pts[3].crf, pts[3].refs), (40, 4));
    }

    #[test]
    fn projections_group_by_crf() {
        let t = tiny_transcoder();
        let opts = TranscodeOptions::default().with_sample_shift(1);
        let pts = crf_refs_sweep(&t, &[20, 40], &[1, 4], &EncoderConfig::default(), &opts).unwrap();
        let proj_b = projection_time_vs_refs(&pts);
        assert_eq!(proj_b.len(), 2);
        assert_eq!(proj_b[0].1.len(), 2);
        let proj_a = projection_bitrate_range(&pts);
        assert_eq!(proj_a.len(), 2);
        for (_, min, max) in proj_a {
            assert!(min <= max);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let t = tiny_transcoder();
        let opts = TranscodeOptions::default().with_sample_shift(2);
        let run =
            || crf_refs_sweep(&t, &[20, 36], &[1, 2], &EncoderConfig::default(), &opts).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn grids_have_documented_sizes() {
        assert_eq!(full_crf_grid().len(), 51);
        assert_eq!(full_refs_grid().len(), 16);
        assert_eq!(full_crf_grid().len() * full_refs_grid().len(), 816);
        assert_eq!(default_crf_grid().len(), 11);
        assert_eq!(default_refs_grid().len(), 5);
    }
}
