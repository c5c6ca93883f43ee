//! Fundamental codec value types.

use std::fmt;
use std::sync::LazyLock;

/// A quantization parameter, 0..=51 (H.264 range; 0 = near-lossless).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Qp(u8);

impl Qp {
    /// Maximum legal QP.
    pub const MAX: u8 = 51;

    /// Creates a QP, clamping into `0..=51`.
    pub fn new(v: i32) -> Self {
        Qp(v.clamp(0, i32::from(Self::MAX)) as u8)
    }

    /// The raw value.
    #[inline]
    pub fn value(self) -> u8 {
        self.0
    }

    /// Quantizer step scale exponent (`qp / 6`).
    #[inline]
    pub fn shift(self) -> u8 {
        self.0 / 6
    }

    /// Table row within a step octave (`qp % 6`).
    #[inline]
    pub fn rem(self) -> usize {
        usize::from(self.0 % 6)
    }

    /// RD Lagrange multiplier for this QP (x264's `0.85 * 2^((qp-12)/3)`).
    #[inline]
    pub fn lambda(self) -> f64 {
        QP_SCALES[usize::from(self.0)].0
    }

    /// Quantizer step size (`0.625 * 2^(qp/6)`, the H.264 scale).
    #[inline]
    pub fn qstep(self) -> f64 {
        QP_SCALES[usize::from(self.0)].1
    }

    /// Chroma QP derived from the luma QP (simplified mapping).
    pub fn chroma(self) -> Qp {
        Qp(self.0.saturating_sub(3))
    }
}

/// `(lambda, qstep)` of every QP. Each is a libm `powf`, and the encoder
/// asks for them per macroblock and per 4x4 block: they are evaluated once
/// per process, by the same expressions, so the values are the same.
static QP_SCALES: LazyLock<[(f64, f64); Qp::MAX as usize + 1]> = LazyLock::new(|| {
    std::array::from_fn(|qp| {
        let qp = qp as f64;
        (
            0.85 * 2f64.powf((qp - 12.0) / 3.0),
            0.625 * 2f64.powf(qp / 6.0),
        )
    })
});

impl fmt::Display for Qp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// Picture type, §II-A of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Intra-coded: no reference to other frames.
    I,
    /// Predicted from past reference frames.
    P,
    /// Bidirectionally predicted from a past and a future reference.
    B,
}

impl fmt::Display for FrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameType::I => "I",
            FrameType::P => "P",
            FrameType::B => "B",
        };
        f.write_str(s)
    }
}

/// Integer-pixel motion estimation method (§II-B.2), in increasing order of
/// search effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MeMethod {
    /// Small diamond search.
    Dia,
    /// Hexagon search (x264's default).
    Hex,
    /// Uneven multi-hexagon search.
    Umh,
    /// Exhaustive search over the motion range.
    Esa,
    /// Exhaustive search with SATD cost (placebo's `tesa`).
    Tesa,
}

impl MeMethod {
    /// Parses the x264 option spelling.
    pub fn from_option(s: &str) -> Option<Self> {
        match s {
            "dia" => Some(MeMethod::Dia),
            "hex" => Some(MeMethod::Hex),
            "umh" => Some(MeMethod::Umh),
            "esa" => Some(MeMethod::Esa),
            "tesa" => Some(MeMethod::Tesa),
            _ => None,
        }
    }

    /// x264 option spelling.
    pub fn as_option(self) -> &'static str {
        match self {
            MeMethod::Dia => "dia",
            MeMethod::Hex => "hex",
            MeMethod::Umh => "umh",
            MeMethod::Esa => "esa",
            MeMethod::Tesa => "tesa",
        }
    }
}

/// A motion vector in half-pel units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MotionVector {
    /// Horizontal component, half-pel units.
    pub x: i16,
    /// Vertical component, half-pel units.
    pub y: i16,
}

impl MotionVector {
    /// Zero vector.
    pub const ZERO: MotionVector = MotionVector { x: 0, y: 0 };

    /// Creates a vector from half-pel components.
    pub fn new(x: i16, y: i16) -> Self {
        MotionVector { x, y }
    }

    /// Creates a vector from full-pel components.
    pub fn from_fullpel(x: i16, y: i16) -> Self {
        MotionVector { x: x * 2, y: y * 2 }
    }

    /// Full-pel part (floor division by 2).
    pub fn fullpel(self) -> (i16, i16) {
        (self.x >> 1, self.y >> 1)
    }

    /// Whether either component has a half-pel fraction.
    pub fn has_halfpel(self) -> bool {
        (self.x | self.y) & 1 != 0
    }

    /// Approximate coded size of this vector relative to a predictor, in
    /// bits (exp-Golomb length of both difference components).
    pub fn cost_bits(self, pred: MotionVector) -> u32 {
        se_len(i32::from(self.x) - i32::from(pred.x))
            + se_len(i32::from(self.y) - i32::from(pred.y))
    }

    /// Component-wise median of three vectors — the H.264 MV predictor.
    pub fn median(a: MotionVector, b: MotionVector, c: MotionVector) -> MotionVector {
        MotionVector {
            x: median3(a.x, b.x, c.x),
            y: median3(a.y, b.y, c.y),
        }
    }
}

fn median3(a: i16, b: i16, c: i16) -> i16 {
    a.max(b.min(c)).min(b.max(c))
}

/// Bit length of a signed exp-Golomb code for `v`.
pub fn se_len(v: i32) -> u32 {
    let mapped = if v <= 0 {
        (-2 * v) as u32
    } else {
        (2 * v - 1) as u32
    };
    ue_len(mapped)
}

/// Bit length of an unsigned exp-Golomb code for `v`.
pub fn ue_len(v: u32) -> u32 {
    2 * (32 - (v + 1).leading_zeros()) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qp_clamps() {
        assert_eq!(Qp::new(-5).value(), 0);
        assert_eq!(Qp::new(23).value(), 23);
        assert_eq!(Qp::new(99).value(), 51);
        assert_eq!(Qp::new(23).shift(), 3);
        assert_eq!(Qp::new(23).rem(), 5);
    }

    /// The table against the expressions it was built from, evaluated at
    /// the call as `lambda` and `qstep` did before it: bit for bit.
    #[test]
    fn qp_scales_equal_their_expressions() {
        for v in 0..=Qp::MAX {
            let qp = Qp::new(i32::from(v));
            let lambda = 0.85 * 2f64.powf((f64::from(v) - 12.0) / 3.0);
            let qstep = 0.625 * 2f64.powf(f64::from(v) / 6.0);
            assert_eq!(qp.lambda().to_bits(), lambda.to_bits(), "qp {v}");
            assert_eq!(qp.qstep().to_bits(), qstep.to_bits(), "qp {v}");
        }
    }

    #[test]
    fn lambda_grows_with_qp() {
        assert!(Qp::new(40).lambda() > Qp::new(20).lambda());
        // qp 12 -> exactly 0.85
        assert!((Qp::new(12).lambda() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn mv_median_predictor() {
        let m = MotionVector::median(
            MotionVector::new(2, 10),
            MotionVector::new(4, -2),
            MotionVector::new(8, 0),
        );
        assert_eq!(m, MotionVector::new(4, 0));
    }

    #[test]
    fn mv_fullpel_and_halfpel() {
        let v = MotionVector::new(5, -4);
        assert!(v.has_halfpel());
        assert_eq!(v.fullpel(), (2, -2));
        let w = MotionVector::from_fullpel(3, -1);
        assert_eq!(w, MotionVector::new(6, -2));
        assert!(!w.has_halfpel());
    }

    #[test]
    fn exp_golomb_lengths() {
        assert_eq!(ue_len(0), 1);
        assert_eq!(ue_len(1), 3);
        assert_eq!(ue_len(2), 3);
        assert_eq!(ue_len(3), 5);
        assert_eq!(se_len(0), 1);
        assert_eq!(se_len(1), 3);
        assert_eq!(se_len(-1), 3);
        assert_eq!(se_len(2), 5);
    }

    #[test]
    fn mv_cost_zero_for_predicted() {
        let v = MotionVector::new(6, -2);
        assert_eq!(v.cost_bits(v), 2);
        assert!(v.cost_bits(MotionVector::ZERO) > 2);
    }

    #[test]
    fn me_method_option_roundtrip() {
        for m in [
            MeMethod::Dia,
            MeMethod::Hex,
            MeMethod::Umh,
            MeMethod::Esa,
            MeMethod::Tesa,
        ] {
            assert_eq!(MeMethod::from_option(m.as_option()), Some(m));
        }
        assert_eq!(MeMethod::from_option("full"), None);
        assert!(MeMethod::Dia < MeMethod::Esa);
    }

    #[test]
    fn frame_type_display() {
        assert_eq!(FrameType::I.to_string(), "I");
        assert_eq!(FrameType::B.to_string(), "B");
    }
}
