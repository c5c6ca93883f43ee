//! Encoder configuration: every option the paper varies.

use crate::types::MeMethod;
use crate::CodecError;

/// Which block partitions the mode decision may use (x264 `partitions`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSet {
    /// Allow 8x8 inter partitions in P macroblocks.
    pub p8x8: bool,
    /// Allow 4x4 inter partitions (x264 default disables: `-p4x4`).
    pub p4x4: bool,
    /// Allow 8x8 intra prediction.
    pub i8x8: bool,
    /// Allow 4x4 intra prediction.
    pub i4x4: bool,
    /// Allow 8x8 partitions in B macroblocks.
    pub b8x8: bool,
}

impl PartitionSet {
    /// `partitions=none` (ultrafast): 16x16 only.
    pub fn none() -> Self {
        PartitionSet {
            p8x8: false,
            p4x4: false,
            i8x8: false,
            i4x4: false,
            b8x8: false,
        }
    }

    /// The medium default: everything except `p4x4`.
    pub fn standard() -> Self {
        PartitionSet {
            p8x8: true,
            p4x4: false,
            i8x8: true,
            i4x4: true,
            b8x8: true,
        }
    }

    /// `partitions=all` (slower and up).
    pub fn all() -> Self {
        PartitionSet {
            p8x8: true,
            p4x4: true,
            i8x8: true,
            i4x4: true,
            b8x8: true,
        }
    }

    /// Superfast's `+i8x8,+i4x4`: intra splits only.
    pub fn intra_only() -> Self {
        PartitionSet {
            p8x8: false,
            p4x4: false,
            i8x8: true,
            i4x4: true,
            b8x8: false,
        }
    }
}

impl Default for PartitionSet {
    fn default() -> Self {
        Self::standard()
    }
}

/// Rate-control mode (§II-B.1 lists all six).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateControlMode {
    /// Constant quantizer.
    Cqp(u8),
    /// Constant rate factor — quality-targeted, the x264 default (23.0).
    Crf(f64),
    /// Average bitrate with closed-loop feedback, in kbit/s.
    Abr {
        /// Target average bitrate in kbit/s.
        bitrate_kbps: u32,
    },
    /// Constant bitrate: like ABR but corrected at *macroblock* granularity
    /// (the only mode the paper notes operates per-macroblock).
    Cbr {
        /// Target bitrate in kbit/s.
        bitrate_kbps: u32,
    },
    /// Two-pass average bitrate: a first pass measures per-frame complexity,
    /// the second allocates bits proportionally.
    TwoPassAbr {
        /// Target average bitrate in kbit/s.
        bitrate_kbps: u32,
    },
    /// CRF constrained by a VBV-style bitrate cap.
    Vbv {
        /// Base CRF quality target.
        crf: f64,
        /// Maximum bitrate in kbit/s over the buffer window.
        max_kbps: u32,
    },
}

impl RateControlMode {
    /// Short name as used in the paper's §II-B.1.
    pub fn name(&self) -> &'static str {
        match self {
            RateControlMode::Cqp(_) => "CQP",
            RateControlMode::Crf(_) => "CRF",
            RateControlMode::Abr { .. } => "ABR",
            RateControlMode::Cbr { .. } => "CBR",
            RateControlMode::TwoPassAbr { .. } => "2-Pass ABR",
            RateControlMode::Vbv { .. } => "VBV",
        }
    }
}

/// Complete encoder configuration.
///
/// `Default` is the `medium` preset with CRF 23 and `refs` 3, matching the
/// paper's profiling setup.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderConfig {
    /// Rate control mode.
    pub rc: RateControlMode,
    /// Number of reference frames for inter prediction (1..=16).
    pub refs: u8,
    /// Integer motion search method.
    pub me: MeMethod,
    /// Motion search range in full pixels.
    pub merange: u16,
    /// Sub-pel refinement / mode decision effort (0..=11).
    pub subme: u8,
    /// Maximum consecutive B frames (0 disables B frames).
    pub bframes: u8,
    /// Adaptive B-frame placement: 0 = fixed, 1 = fast, 2 = optimal.
    pub b_adapt: u8,
    /// Trellis quantization level (0..=2).
    pub trellis: u8,
    /// Adaptive quantization mode (0 = off, 1 = variance AQ).
    pub aq_mode: u8,
    /// In-loop deblocking: `None` = disabled, `Some((alpha, beta))` offsets.
    pub deblock: Option<(i8, i8)>,
    /// Scene-cut sensitivity (0 disables detection; x264 default 40).
    pub scenecut: u8,
    /// Enabled partition shapes.
    pub partitions: PartitionSet,
    /// Entropy backend: `true` = CABAC-style arithmetic coding, `false` =
    /// CAVLC-style bit codes.
    pub cabac: bool,
    /// Maximum GOP length (forced I-frame interval).
    pub keyint: u16,
    /// Worker threads for wavefront-parallel macroblock-row encoding.
    /// `1` = serial (the default), `0` = one worker per available core,
    /// `n` = at most `n` workers. The parallel path is bit-identical to
    /// the serial one — bitstream and profiler counts do not change.
    pub threads: u32,
    /// Display-frame indices at which an IDR keyframe is forced (segment
    /// boundaries for the CMAF-style segmenter). A forced cut is *closed-
    /// GOP*: the lookahead demotes any B-run that would straddle it and the
    /// encoder clears the reference anchors, so every record from the cut
    /// onward decodes without any state from before it. Empty (the default)
    /// leaves the bitstream byte-identical to pre-`force_kf` encoders.
    pub force_kf: Vec<u32>,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            rc: RateControlMode::Crf(23.0),
            refs: 3,
            me: MeMethod::Hex,
            merange: 16,
            subme: 7,
            bframes: 3,
            b_adapt: 1,
            trellis: 1,
            aq_mode: 1,
            deblock: Some((1, 0)),
            scenecut: 40,
            partitions: PartitionSet::standard(),
            cabac: true,
            keyint: 250,
            threads: 1,
            force_kf: Vec::new(),
        }
    }
}

impl EncoderConfig {
    /// Sets the CRF value (switches the rate mode to CRF). Builder-style.
    pub fn with_crf(mut self, crf: f64) -> Self {
        self.rc = RateControlMode::Crf(crf);
        self
    }

    /// Sets the reference frame count. Builder-style.
    pub fn with_refs(mut self, refs: u8) -> Self {
        self.refs = refs;
        self
    }

    /// Sets the wavefront worker-thread count (`0` = auto). Builder-style.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the forced-IDR display indices (GOP-aligned segment
    /// boundaries). Out-of-range indices are ignored at encode time; order
    /// and duplicates do not matter. Builder-style.
    pub fn with_force_kf(mut self, force_kf: Vec<u32>) -> Self {
        self.force_kf = force_kf;
        self
    }

    /// Resolves `threads` to a concrete worker count: `0` maps to the
    /// number of available cores, anything else is taken as-is.
    pub fn effective_threads(&self) -> u32 {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
        } else {
            self.threads
        }
    }

    /// Validates all parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), CodecError> {
        if !(1..=16).contains(&self.refs) {
            return Err(CodecError::InvalidConfig {
                what: "refs",
                detail: format!("{} not in 1..=16", self.refs),
            });
        }
        if self.subme > 11 {
            return Err(CodecError::InvalidConfig {
                what: "subme",
                detail: format!("{} not in 0..=11", self.subme),
            });
        }
        if self.trellis > 2 {
            return Err(CodecError::InvalidConfig {
                what: "trellis",
                detail: format!("{} not in 0..=2", self.trellis),
            });
        }
        if self.b_adapt > 2 {
            return Err(CodecError::InvalidConfig {
                what: "b_adapt",
                detail: format!("{} not in 0..=2", self.b_adapt),
            });
        }
        if self.bframes > 16 {
            return Err(CodecError::InvalidConfig {
                what: "bframes",
                detail: format!("{} not in 0..=16", self.bframes),
            });
        }
        if self.merange == 0 || self.merange > 64 {
            return Err(CodecError::InvalidConfig {
                what: "merange",
                detail: format!("{} not in 1..=64", self.merange),
            });
        }
        if self.aq_mode > 1 {
            return Err(CodecError::InvalidConfig {
                what: "aq_mode",
                detail: format!("{} not in 0..=1", self.aq_mode),
            });
        }
        if self.threads > 128 {
            return Err(CodecError::InvalidConfig {
                what: "threads",
                detail: format!("{} not in 0..=128", self.threads),
            });
        }
        match self.rc {
            RateControlMode::Cqp(q) if q > 51 => Err(CodecError::InvalidConfig {
                what: "qp",
                detail: format!("{q} not in 0..=51"),
            }),
            RateControlMode::Crf(c) | RateControlMode::Vbv { crf: c, .. }
                if !(0.0..=51.0).contains(&c) =>
            {
                Err(CodecError::InvalidConfig {
                    what: "crf",
                    detail: format!("{c} not in 0..=51"),
                })
            }
            RateControlMode::Abr { bitrate_kbps }
            | RateControlMode::Cbr { bitrate_kbps }
            | RateControlMode::TwoPassAbr { bitrate_kbps }
                if bitrate_kbps == 0 =>
            {
                Err(CodecError::InvalidConfig {
                    what: "bitrate",
                    detail: "zero bitrate".to_owned(),
                })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_profiling_setup() {
        let c = EncoderConfig::default();
        assert_eq!(c.rc, RateControlMode::Crf(23.0));
        assert_eq!(c.refs, 3);
        assert_eq!(c.me, MeMethod::Hex);
        assert_eq!(c.subme, 7);
        assert_eq!(c.trellis, 1);
        assert!(c.cabac);
        c.validate().unwrap();
    }

    #[test]
    fn builder_methods() {
        let c = EncoderConfig::default()
            .with_crf(35.0)
            .with_refs(8)
            .with_threads(4);
        assert_eq!(c.rc, RateControlMode::Crf(35.0));
        assert_eq!(c.refs, 8);
        assert_eq!(c.threads, 4);
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(EncoderConfig::default().threads, 1);
        assert_eq!(EncoderConfig::default().effective_threads(), 1);
        assert_eq!(
            EncoderConfig::default().with_threads(6).effective_threads(),
            6
        );
        // Auto mode resolves to at least one worker.
        assert!(EncoderConfig::default().with_threads(0).effective_threads() >= 1);
        assert!(EncoderConfig::default()
            .with_threads(129)
            .validate()
            .is_err());
        EncoderConfig::default().with_threads(0).validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(EncoderConfig::default().with_refs(0).validate().is_err());
        assert!(EncoderConfig::default().with_refs(17).validate().is_err());
        assert!(EncoderConfig::default().with_crf(99.0).validate().is_err());
        let c = EncoderConfig {
            subme: 12,
            ..EncoderConfig::default()
        };
        assert!(c.validate().is_err());
        let c = EncoderConfig {
            rc: RateControlMode::Abr { bitrate_kbps: 0 },
            ..EncoderConfig::default()
        };
        assert!(c.validate().is_err());
        let c = EncoderConfig {
            merange: 0,
            ..EncoderConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rc_mode_names_match_paper() {
        assert_eq!(RateControlMode::Cqp(20).name(), "CQP");
        assert_eq!(RateControlMode::Crf(23.0).name(), "CRF");
        assert_eq!(
            RateControlMode::TwoPassAbr { bitrate_kbps: 500 }.name(),
            "2-Pass ABR"
        );
        assert_eq!(
            RateControlMode::Vbv {
                crf: 23.0,
                max_kbps: 800
            }
            .name(),
            "VBV"
        );
    }

    #[test]
    fn partition_sets() {
        assert!(!PartitionSet::none().i4x4);
        assert!(PartitionSet::standard().p8x8);
        assert!(!PartitionSet::standard().p4x4);
        assert!(PartitionSet::all().p4x4);
        assert!(PartitionSet::intra_only().i4x4);
        assert!(!PartitionSet::intra_only().p8x8);
    }
}
