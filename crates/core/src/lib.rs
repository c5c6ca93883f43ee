//! # vtx-core — CPU microarchitectural characterization of cloud video transcoding
//!
//! This crate is the reproduction's public face: it wires the from-scratch
//! transcoder (`vtx-codec`), the synthetic vbench corpus (`vtx-frame`), the
//! Sniper-style microarchitecture simulator (`vtx-uarch` + `vtx-trace`), the
//! compiler-optimization analogs (`vtx-opt`) and the scheduler (`vtx-sched`)
//! into the experiments of the paper.
//!
//! * [`Transcoder`] — the "FFmpeg + VTune" facade: construct one per video,
//!   then [`Transcoder::transcode`] with any [`vtx_codec::EncoderConfig`],
//!   microarchitecture configuration and compiled-binary variant. Each call
//!   performs a real transcode (decode the uploaded bitstream, re-encode
//!   with the target parameters) while simulating caches, TLBs, branch
//!   prediction and the interval core model online.
//! * [`experiments`] — one driver per paper table/figure: the crf×refs
//!   sweep (Figures 3–5), the preset study (Figure 6), the cross-video
//!   study (Figure 7), the AutoFDO/Graphite comparison (Figure 8) and the
//!   scheduler case study (Figure 9 with Tables III/IV).
//!
//! # Quickstart
//!
//! ```
//! use vtx_core::{Transcoder, TranscodeOptions};
//! use vtx_codec::EncoderConfig;
//!
//! let t = Transcoder::from_catalog("cat", 1)?;
//! let report = t.transcode(&EncoderConfig::default(), &TranscodeOptions::default())?;
//! assert!(report.psnr_db > 28.0);
//! assert!((report.summary.topdown.sum() - 1.0).abs() < 1e-9);
//! # Ok::<(), vtx_core::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod summary;
mod transcoder;

pub mod experiments;
mod export;
pub mod trace_export;

pub use error::CoreError;
pub use summary::RunSummary;
pub use transcoder::{TranscodeOptions, TranscodeReport, Transcoder};
