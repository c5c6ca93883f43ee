//! A from-scratch, x264-flavoured video transcoder — the workload under study.
//!
//! The paper profiles FFmpeg + x264. This crate reimplements the algorithmic
//! core of that stack in safe Rust, with every performance-relevant knob the
//! paper varies:
//!
//! * **Rate control** (§II-B.1): CQP, CRF, ABR, CBR (macroblock-granular),
//!   two-pass ABR and VBV-constrained — `ratecontrol`.
//! * **Motion estimation** (§II-B.2): `dia`, `hex`, `umh`, `esa`/`tesa`
//!   integer searches with configurable `merange`, sub-pel refinement
//!   (`subme`), and 1–16 reference frames (`refs`) — `me`.
//! * **Macroblock mode decision** (§II-B.3): I/P/B frames, intra 16x16 and
//!   4x4 prediction, P16x16/P8x8 partitions, skip detection — `intra`,
//!   `mbenc`.
//! * **Quantization** (§II-B.4): H.264 integer transform + quantization with
//!   three trellis levels — [`transform`], [`quant`], [`trellis`].
//! * **Entropy coding**: a decodable run/level bitstream with either plain
//!   exp-Golomb (CAVLC-style) or adaptive binary arithmetic (CABAC-style)
//!   backends — [`entropy`].
//! * **The ten x264 presets** of Table II — [`preset`].
//!
//! Every hot kernel is instrumented through [`vtx_trace::Profiler`], so
//! encoding a clip simultaneously simulates its cache, TLB, and
//! branch-predictor behaviour on a configurable microarchitecture.
//!
//! # Example
//!
//! ```
//! use vtx_codec::{decode_video, encode_video, EncoderConfig};
//! use vtx_frame::{synth, vbench, quality};
//! use vtx_trace::{layout::CodeLayout, Profiler};
//! use vtx_uarch::config::UarchConfig;
//!
//! let video = synth::generate(&vbench::by_name("cat").unwrap(), 1);
//! let cfg = EncoderConfig::default(); // medium preset, CRF 23, refs 3
//! let kernels = vtx_codec::instr::kernel_table();
//! let mut prof = Profiler::new(
//!     &UarchConfig::baseline(), kernels, CodeLayout::default_order(kernels))?;
//! let encoded = encode_video(&video, &cfg, &mut prof)?;
//! let decoded = decode_video(&encoded.bitstream, &mut prof)?;
//! let psnr = quality::sequence_psnr(&video.frames, &decoded.frames)?;
//! assert!(psnr > 28.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bufs;
mod error;
mod wavefront;

mod config;
mod deblock;
pub mod decoder;
pub mod encoder;
pub mod entropy;
pub mod instr;
mod intra;
mod lookahead;
mod mbenc;
mod mc;
mod me;
pub mod preset;
pub mod quant;
mod ratecontrol;
mod tables;
pub mod transform;
pub mod trellis;
pub mod types;

pub use config::{EncoderConfig, PartitionSet, RateControlMode};
pub use decoder::{decode_video, DecodedVideo};
pub use encoder::{encode_video, Bitstream, EncodeResult};
pub use error::{CodecError, DecodeError};
pub use preset::Preset;
pub use types::{MeMethod, Qp};
