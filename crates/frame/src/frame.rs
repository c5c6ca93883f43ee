use crate::plane::sum_abs_diffs;
use crate::{FrameError, Plane};

/// A YUV 4:2:0 picture: full-resolution luma plus half-resolution chroma.
///
/// This is the raw-frame currency exchanged between the synthetic video
/// generator, the encoder, and the decoder.
///
/// # Example
///
/// ```
/// use vtx_frame::Frame;
///
/// let f = Frame::new(64, 32);
/// assert_eq!(f.y().width(), 64);
/// assert_eq!(f.u().width(), 32);
/// assert_eq!(f.v().height(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    y: Plane,
    u: Plane,
    v: Plane,
}

impl Frame {
    /// Creates a mid-gray frame.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero or odd (4:2:0 chroma requires
    /// even luma dimensions).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0 && width.is_multiple_of(2) && height.is_multiple_of(2),
            "4:2:0 frames need nonzero even dimensions, got {width}x{height}"
        );
        Frame {
            y: Plane::new(width, height),
            u: Plane::new(width / 2, height / 2),
            v: Plane::new(width / 2, height / 2),
        }
    }

    /// Builds a frame from three already-constructed planes.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::GeometryMismatch`] unless the chroma planes are
    /// exactly half the luma size in both dimensions.
    pub fn from_planes(y: Plane, u: Plane, v: Plane) -> Result<Self, FrameError> {
        let ok = u.width() == y.width() / 2
            && u.height() == y.height() / 2
            && v.width() == u.width()
            && v.height() == u.height();
        if !ok {
            return Err(FrameError::GeometryMismatch);
        }
        Ok(Frame { y, u, v })
    }

    /// Luma width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.y.width()
    }

    /// Luma height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.y.height()
    }

    /// Luma plane.
    #[inline]
    pub fn y(&self) -> &Plane {
        &self.y
    }

    /// Cb chroma plane.
    #[inline]
    pub fn u(&self) -> &Plane {
        &self.u
    }

    /// Cr chroma plane.
    #[inline]
    pub fn v(&self) -> &Plane {
        &self.v
    }

    /// Mutable luma plane.
    #[inline]
    pub fn y_mut(&mut self) -> &mut Plane {
        &mut self.y
    }

    /// Mutable Cb plane.
    #[inline]
    pub fn u_mut(&mut self) -> &mut Plane {
        &mut self.u
    }

    /// Mutable Cr plane.
    #[inline]
    pub fn v_mut(&mut self) -> &mut Plane {
        &mut self.v
    }

    /// Number of luma macroblock columns (16x16 blocks, rounding up).
    #[inline]
    pub fn mb_cols(&self) -> usize {
        self.width().div_ceil(16)
    }

    /// Number of luma macroblock rows (16x16 blocks, rounding up).
    #[inline]
    pub fn mb_rows(&self) -> usize {
        self.height().div_ceil(16)
    }

    /// Total number of pixels across all three planes.
    #[inline]
    pub fn total_samples(&self) -> usize {
        self.y.samples().len() + self.u.samples().len() + self.v.samples().len()
    }

    /// Mean absolute luma difference against another frame — a cheap
    /// inter-frame "activity" measure used by scene-cut detection.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::GeometryMismatch`] when geometries differ.
    pub fn mean_abs_luma_diff(&self, other: &Frame) -> Result<f64, FrameError> {
        if self.width() != other.width() || self.height() != other.height() {
            return Err(FrameError::GeometryMismatch);
        }
        let acc = sum_abs_diffs(self.y.samples(), other.y.samples());
        Ok(acc as f64 / self.y.samples().len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let f = Frame::new(32, 16);
        assert_eq!(f.mb_cols(), 2);
        assert_eq!(f.mb_rows(), 1);
        assert_eq!(f.total_samples(), 32 * 16 + 2 * 16 * 8);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_dims_panic() {
        let _ = Frame::new(33, 16);
    }

    #[test]
    fn from_planes_checks_subsampling() {
        let y = Plane::new(16, 16);
        let u = Plane::new(8, 8);
        let v = Plane::new(8, 8);
        assert!(Frame::from_planes(y.clone(), u.clone(), v.clone()).is_ok());
        let bad_v = Plane::new(4, 8);
        assert_eq!(
            Frame::from_planes(y, u, bad_v),
            Err(FrameError::GeometryMismatch)
        );
    }

    #[test]
    fn mb_counts_round_up() {
        let f = Frame::new(34, 18);
        assert_eq!(f.mb_cols(), 3);
        assert_eq!(f.mb_rows(), 2);
    }

    #[test]
    fn mean_abs_diff_zero_on_self() {
        let f = Frame::new(16, 16);
        assert_eq!(f.mean_abs_luma_diff(&f).unwrap(), 0.0);
        let mut g = f.clone();
        g.y_mut().fill(130);
        assert!((f.mean_abs_luma_diff(&g).unwrap() - 2.0).abs() < 1e-9);
    }
}
