//! A decoded raw video: a spec plus its frames.

use crate::{Frame, VideoSpec};

/// A fully materialized raw video clip.
///
/// Produced by [`crate::synth::generate`] and consumed by the encoder. The
/// attached [`VideoSpec`] carries both the nominal (reported) and simulated
/// (actual) geometry.
#[derive(Debug, Clone)]
pub struct Video {
    /// Catalog metadata for this clip.
    pub spec: VideoSpec,
    /// The raw frames, in display order.
    pub frames: Vec<Frame>,
}

impl Video {
    /// Creates a video from a spec and pre-built frames.
    ///
    /// # Panics
    ///
    /// Panics if any frame's geometry disagrees with `spec.sim_width/height`.
    pub fn new(spec: VideoSpec, frames: Vec<Frame>) -> Self {
        for f in &frames {
            assert_eq!(f.width(), spec.sim_width as usize, "frame width mismatch");
            assert_eq!(
                f.height(),
                spec.sim_height as usize,
                "frame height mismatch"
            );
        }
        Video { spec, frames }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the clip has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Duration in (simulated) seconds given the spec's frame rate.
    #[cfg(test)]
    fn duration_secs(&self) -> f64 {
        self.frames.len() as f64 / f64::from(self.spec.fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbench;

    #[test]
    fn construction_checks_geometry() {
        let spec = vbench::by_name("cat").unwrap();
        let f = Frame::new(spec.sim_width as usize, spec.sim_height as usize);
        let v = Video::new(spec.clone(), vec![f; 3]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert!((v.duration_secs() - 3.0 / 29.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_geometry_panics() {
        let spec = vbench::by_name("cat").unwrap();
        let f = Frame::new(32, 32);
        let _ = Video::new(spec, vec![f]);
    }
}
