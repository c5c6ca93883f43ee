//! Rate control (§II-B.1): the six modes and their QP decisions.
//!
//! All modes hand out a per-frame base QP; CBR additionally corrects the QP
//! *within* a frame at macroblock granularity (the paper highlights that CBR
//! is the only macroblock-granular mode).

use crate::config::RateControlMode;
use crate::types::{FrameType, Qp};

/// Frame-type QP offsets (I frames get finer quantization, B frames coarser),
/// matching x264's ip/pb factor defaults in spirit.
const I_OFFSET: i32 = -3;
const B_OFFSET: i32 = 2;

/// Stateful rate controller for one encode.
#[derive(Debug, Clone)]
pub(crate) struct RateControl {
    mode: RateControlMode,
    fps: f64,
    /// Average complexity observed so far (EMA of look-ahead cost).
    complexity_ema: f64,
    /// Total bits produced so far.
    bits_so_far: f64,
    /// Frames completed.
    frames_done: u32,
    /// ABR/CBR integral feedback term.
    feedback_qp: f64,
    /// Per-frame complexity table from a first pass (two-pass mode).
    pass1_complexity: Option<Vec<f64>>,
    /// Mean of `pass1_complexity`.
    pass1_mean: f64,
    /// VBV window accounting: bits in the trailing one-second window.
    window_bits: f64,
}

impl RateControl {
    /// Creates a controller for `mode` at the given frame rate.
    pub(crate) fn new(mode: RateControlMode, fps: f64) -> Self {
        RateControl {
            mode,
            fps: fps.max(1.0),
            complexity_ema: 0.0,
            bits_so_far: 0.0,
            frames_done: 0,
            feedback_qp: 0.0,
            pass1_complexity: None,
            pass1_mean: 1.0,
            window_bits: 0.0,
        }
    }

    /// Installs per-frame complexities measured by a first pass (two-pass
    /// ABR only). `complexities` is indexed by coding order.
    pub(crate) fn set_pass1(&mut self, complexities: Vec<f64>) {
        let mean = if complexities.is_empty() {
            1.0
        } else {
            complexities.iter().sum::<f64>() / complexities.len() as f64
        };
        self.pass1_mean = mean.max(1e-6);
        self.pass1_complexity = Some(complexities);
    }

    /// The mode being executed.
    pub(crate) fn mode(&self) -> RateControlMode {
        self.mode
    }

    /// Picks the base QP for the next frame.
    ///
    /// `complexity` is the look-ahead cost estimate for this frame;
    /// `coding_index` is the frame's position in coding order.
    pub(crate) fn frame_qp(
        &mut self,
        ftype: FrameType,
        complexity: f64,
        coding_index: usize,
    ) -> Qp {
        let type_offset = match ftype {
            FrameType::I => I_OFFSET,
            FrameType::P => 0,
            FrameType::B => B_OFFSET,
        };
        // Track complexity for CRF modulation.
        if self.complexity_ema == 0.0 {
            self.complexity_ema = complexity.max(1e-6);
        } else {
            self.complexity_ema = 0.9 * self.complexity_ema + 0.1 * complexity.max(1e-6);
        }

        let base = match self.mode {
            RateControlMode::Cqp(q) => {
                f64::from(q) - f64::from(type_offset != 0) * 0.0 + f64::from(type_offset)
            }
            RateControlMode::Crf(crf) | RateControlMode::Vbv { crf, .. } => {
                // Constant quality: busier frames may spend a little more
                // quantization (keeping perceptual quality roughly constant).
                let modulation = if self.complexity_ema > 0.0 && complexity > 0.0 {
                    (complexity / self.complexity_ema).log2().clamp(-1.0, 1.0)
                } else {
                    0.0
                };
                crf + f64::from(type_offset) + modulation
            }
            RateControlMode::Abr { bitrate_kbps } | RateControlMode::Cbr { bitrate_kbps } => {
                self.abr_qp(bitrate_kbps) + f64::from(type_offset)
            }
            RateControlMode::TwoPassAbr { bitrate_kbps } => {
                let alloc = match &self.pass1_complexity {
                    Some(cs) => {
                        let c = cs.get(coding_index).copied().unwrap_or(self.pass1_mean);
                        // Complex frames get more bits => lower qp.
                        -3.0 * (c / self.pass1_mean).max(1e-6).log2().clamp(-2.0, 2.0)
                    }
                    None => 0.0,
                };
                self.abr_qp(bitrate_kbps) + alloc + f64::from(type_offset)
            }
        };

        // VBV cap: if the trailing window exceeded the cap, coarsen.
        let vbv_adjust = if let RateControlMode::Vbv { max_kbps, .. } = self.mode {
            let window_kbps = self.window_bits / 1000.0 * self.fps / self.fps.max(1.0);
            let cap = f64::from(max_kbps);
            if window_kbps > cap {
                2.0 + 4.0 * ((window_kbps / cap) - 1.0).min(2.0)
            } else {
                0.0
            }
        } else {
            0.0
        };

        Qp::new((base + vbv_adjust).round() as i32)
    }

    fn abr_qp(&self, bitrate_kbps: u32) -> f64 {
        26.0 + self.feedback_qp - f64::from(bitrate_kbps).log2() * 0.0 // bitrate enters via feedback
    }

    /// Per-macroblock QP correction (CBR only): compares bits spent so far
    /// in this frame against the pro-rata budget and nudges the quantizer.
    pub(crate) fn mb_qp_adjust(
        &self,
        frame_qp: Qp,
        mbs_done: u32,
        mbs_total: u32,
        frame_bits_so_far: f64,
    ) -> Qp {
        let RateControlMode::Cbr { bitrate_kbps } = self.mode else {
            return frame_qp;
        };
        if mbs_done == 0 || mbs_total == 0 {
            return frame_qp;
        }
        let frame_budget = f64::from(bitrate_kbps) * 1000.0 / self.fps;
        let expected = frame_budget * f64::from(mbs_done) / f64::from(mbs_total);
        let ratio = (frame_bits_so_far / expected.max(1.0)).max(0.1);
        let delta = (ratio.log2() * 2.0).clamp(-4.0, 4.0);
        Qp::new(i32::from(frame_qp.value()) + delta.round() as i32)
    }

    /// Reports a finished frame's actual size, updating feedback state.
    pub(crate) fn end_frame(&mut self, bits: f64) {
        self.bits_so_far += bits;
        self.frames_done += 1;
        self.window_bits = self.window_bits * (1.0 - 1.0 / self.fps).max(0.0) + bits;

        if let RateControlMode::Abr { bitrate_kbps }
        | RateControlMode::Cbr { bitrate_kbps }
        | RateControlMode::TwoPassAbr { bitrate_kbps } = self.mode
        {
            let target = f64::from(bitrate_kbps) * 1000.0 / self.fps * f64::from(self.frames_done);
            let err = (self.bits_so_far - target) / (f64::from(bitrate_kbps) * 1000.0 / self.fps);
            // Integral controller: one full frame budget of error ~ 1 QP.
            self.feedback_qp = (err * 1.0).clamp(-22.0, 22.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqp_is_constant_per_type() {
        let mut rc = RateControl::new(RateControlMode::Cqp(30), 30.0);
        assert_eq!(rc.frame_qp(FrameType::I, 10.0, 0).value(), 27);
        assert_eq!(rc.frame_qp(FrameType::P, 10.0, 1).value(), 30);
        assert_eq!(rc.frame_qp(FrameType::B, 10.0, 2).value(), 32);
    }

    #[test]
    fn crf_tracks_crf_value() {
        let mut lo = RateControl::new(RateControlMode::Crf(18.0), 30.0);
        let mut hi = RateControl::new(RateControlMode::Crf(40.0), 30.0);
        let q_lo = lo.frame_qp(FrameType::P, 5.0, 0);
        let q_hi = hi.frame_qp(FrameType::P, 5.0, 0);
        assert!(q_hi > q_lo);
    }

    #[test]
    fn abr_feedback_raises_qp_when_overshooting() {
        let mut rc = RateControl::new(RateControlMode::Abr { bitrate_kbps: 100 }, 30.0);
        let q0 = rc.frame_qp(FrameType::P, 5.0, 0);
        // Spend 10x the per-frame budget for several frames.
        for _ in 0..5 {
            rc.end_frame(100.0 * 1000.0 / 30.0 * 10.0);
        }
        let q1 = rc.frame_qp(FrameType::P, 5.0, 5);
        assert!(q1 > q0, "{q1} should exceed {q0}");
    }

    #[test]
    fn abr_feedback_lowers_qp_when_undershooting() {
        let mut rc = RateControl::new(RateControlMode::Abr { bitrate_kbps: 100 }, 30.0);
        let q0 = rc.frame_qp(FrameType::P, 5.0, 0);
        for _ in 0..5 {
            rc.end_frame(10.0); // nearly nothing
        }
        let q1 = rc.frame_qp(FrameType::P, 5.0, 5);
        assert!(q1 < q0);
    }

    #[test]
    fn cbr_adjusts_within_frame() {
        let rc = RateControl::new(RateControlMode::Cbr { bitrate_kbps: 100 }, 30.0);
        let base = Qp::new(26);
        // Massive overshoot halfway through the frame -> coarser.
        let q = rc.mb_qp_adjust(base, 50, 100, 100_000.0);
        assert!(q > base);
        // Undershoot -> finer.
        let q = rc.mb_qp_adjust(base, 50, 100, 10.0);
        assert!(q < base);
        // Non-CBR modes never adjust.
        let rc2 = RateControl::new(RateControlMode::Crf(23.0), 30.0);
        assert_eq!(rc2.mb_qp_adjust(base, 50, 100, 1e9), base);
    }

    #[test]
    fn two_pass_allocates_by_complexity() {
        let mut rc = RateControl::new(RateControlMode::TwoPassAbr { bitrate_kbps: 500 }, 30.0);
        rc.set_pass1(vec![1.0, 100.0]);
        let q_simple = rc.frame_qp(FrameType::P, 1.0, 0);
        let q_complex = rc.frame_qp(FrameType::P, 100.0, 1);
        assert!(
            q_complex < q_simple,
            "complex frames get more bits: {q_complex} vs {q_simple}"
        );
    }

    #[test]
    fn vbv_caps_bitrate() {
        let mut rc = RateControl::new(
            RateControlMode::Vbv {
                crf: 23.0,
                max_kbps: 50,
            },
            30.0,
        );
        let q0 = rc.frame_qp(FrameType::P, 5.0, 0);
        // Blow through the cap.
        for _ in 0..10 {
            rc.end_frame(500_000.0);
        }
        let q1 = rc.frame_qp(FrameType::P, 5.0, 10);
        assert!(q1 > q0);
    }
}
