//! The vbench video catalog (Table I of the paper) plus Big Buck Bunny.
//!
//! vbench selects 15 five-second clips that cluster a corpus of millions of
//! cloud videos; each clip is characterized by resolution, frame rate and an
//! *entropy* score (bits needed for visually lossless encoding — a proxy for
//! motion and scene-transition complexity). The clips themselves are not
//! redistributable, so this module records the published metadata and derives
//! a *simulation geometry* for the synthetic stand-in content produced by
//! [`crate::synth`]: nominal dimensions are divided by 8 and rounded to
//! macroblock multiples, and half a second of frames is synthesized so that
//! frame-rate differences still matter while the full 816-point parameter
//! sweep of Figure 3 remains tractable.

/// Metadata for one benchmark video (one row of Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSpec {
    /// Full vbench file name, e.g. `bike_1280x720_29.mkv`.
    pub full_name: String,
    /// Short name used throughout the paper's figures, e.g. `bike`.
    pub short_name: String,
    /// Nominal (published) luma width in pixels.
    pub nominal_width: u32,
    /// Nominal (published) luma height in pixels.
    pub nominal_height: u32,
    /// Frames per second.
    pub fps: u32,
    /// vbench entropy score (0.2 = near-static screen content, 7.7 = very complex).
    pub entropy: f64,
    /// Width actually synthesized and encoded (multiple of 16).
    pub sim_width: u32,
    /// Height actually synthesized and encoded (multiple of 16).
    pub sim_height: u32,
    /// Number of frames synthesized (about half a second of content).
    pub sim_frames: u32,
}

impl VideoSpec {
    /// Builds a spec from Table I fields, deriving the simulation geometry.
    fn from_table(short: &str, width: u32, height: u32, fps: u32, entropy: f64) -> Self {
        let sim_width = round_to_mb(width / 8);
        let sim_height = round_to_mb(height / 8);
        // Half a second of content, but always at least 10 frames so GOP
        // structure (I/P/B) is exercised even at low frame rates.
        let sim_frames = (fps / 2).max(10);
        VideoSpec {
            full_name: format!("{short}_{width}x{height}_{fps}.mkv"),
            short_name: short.to_owned(),
            nominal_width: width,
            nominal_height: height,
            fps,
            entropy,
            sim_width,
            sim_height,
            sim_frames,
        }
    }

    /// Resolution label as used in the paper ("480p", "720p", "1080p", "2160p").
    pub fn resolution_label(&self) -> String {
        format!("{}p", self.nominal_height)
    }

    /// Number of 16x16 macroblocks per synthesized frame.
    #[cfg(test)]
    fn mbs_per_frame(&self) -> u32 {
        (self.sim_width / 16) * (self.sim_height / 16)
    }
}

fn round_to_mb(v: u32) -> u32 {
    let r = ((v + 8) / 16) * 16;
    r.max(32)
}

/// Table I as published — short name, nominal width and height, frames per
/// second, entropy — in the paper's (entropy-sorted) order, plus Big Buck
/// Bunny, widely studied in prior work (entropy estimated mid-range).
const TABLE1: [(&str, u32, u32, u32, f64); 16] = [
    ("desktop", 1280, 720, 30, 0.2),
    ("presentation", 1920, 1080, 25, 0.2),
    ("bike", 1280, 720, 29, 0.9),
    ("funny", 1920, 1080, 30, 2.5),
    ("cricket", 1280, 720, 30, 3.4),
    ("house", 1920, 1080, 30, 3.6),
    ("game1", 1920, 1080, 60, 4.6),
    ("game2", 1280, 720, 30, 4.9),
    ("girl", 1280, 720, 30, 5.9),
    ("chicken", 3840, 2160, 30, 5.9),
    ("game3", 1280, 720, 59, 6.1),
    ("cat", 854, 480, 29, 6.8),
    ("holi", 854, 480, 30, 7.0),
    ("landscape", 1920, 1080, 29, 7.2),
    ("hall", 1920, 1080, 29, 7.7),
    ("bbb", 1920, 1080, 30, 3.0),
];

fn spec_of(&(short, width, height, fps, entropy): &(&str, u32, u32, u32, f64)) -> VideoSpec {
    VideoSpec::from_table(short, width, height, fps, entropy)
}

/// The 15 vbench clips of Table I, in the paper's (entropy-sorted) order,
/// plus Big Buck Bunny which the paper also studies.
///
/// # Example
///
/// ```
/// let cat = vtx_frame::vbench::catalog();
/// assert_eq!(cat.len(), 16);
/// assert_eq!(cat[0].short_name, "desktop");
/// assert!(cat.iter().any(|v| v.short_name == "bbb"));
/// ```
pub fn catalog() -> Vec<VideoSpec> {
    TABLE1.iter().map(spec_of).collect()
}

/// Looks up a catalog entry by its short name.
///
/// # Example
///
/// ```
/// let v = vtx_frame::vbench::by_name("holi").expect("holi is in Table I");
/// assert_eq!(v.nominal_height, 480);
/// ```
pub fn by_name(short_name: &str) -> Option<VideoSpec> {
    TABLE1.iter().find(|row| row.0 == short_name).map(spec_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_values() {
        let v = by_name("chicken").unwrap();
        assert_eq!(v.nominal_width, 3840);
        assert_eq!(v.nominal_height, 2160);
        assert_eq!(v.fps, 30);
        assert!((v.entropy - 5.9).abs() < 1e-9);
        assert_eq!(v.resolution_label(), "2160p");
    }

    #[test]
    fn sim_geometry_is_mb_aligned_and_ordered() {
        for v in catalog() {
            assert_eq!(v.sim_width % 16, 0, "{}", v.short_name);
            assert_eq!(v.sim_height % 16, 0, "{}", v.short_name);
            assert!(v.sim_frames >= 10);
        }
        let c480 = by_name("cat").unwrap();
        let c720 = by_name("bike").unwrap();
        let c1080 = by_name("hall").unwrap();
        let c2160 = by_name("chicken").unwrap();
        assert!(c480.mbs_per_frame() < c720.mbs_per_frame());
        assert!(c720.mbs_per_frame() < c1080.mbs_per_frame());
        assert!(c1080.mbs_per_frame() < c2160.mbs_per_frame());
    }

    #[test]
    fn fps_differentiates_frame_counts() {
        let game1 = by_name("game1").unwrap(); // 60 fps
        let funny = by_name("funny").unwrap(); // 30 fps
        assert!(game1.sim_frames > funny.sim_frames);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn by_name_is_the_catalog_row() {
        for v in catalog() {
            assert_eq!(by_name(&v.short_name), Some(v));
        }
    }

    #[test]
    fn entropy_sorted_within_paper_order() {
        let cat = catalog();
        // Paper's Table I is sorted by entropy (sans bbb which we append).
        let entropies: Vec<f64> = cat[..15].iter().map(|v| v.entropy).collect();
        let mut sorted = entropies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(entropies, sorted);
    }
}
