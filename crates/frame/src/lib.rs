//! Frame and video model for the vtx workspace.
//!
//! This crate provides the raw-video substrate used by the transcoder in
//! [`vtx-codec`](https://docs.rs/vtx-codec): 8-bit planar [`Plane`]s (and
//! [`PaddedPlane`]s, their border-extended reference form), YUV 4:2:0
//! [`Frame`]s, quality metrics ([`quality::psnr`]), and — because the vbench
//! corpus used by the paper is not redistributable — a deterministic
//! *synthetic* video generator ([`synth`]) whose content complexity is driven
//! by the same `entropy` metadata that vbench publishes ([`vbench`]).
//!
//! # Example
//!
//! ```
//! use vtx_frame::vbench;
//!
//! let spec = vbench::catalog().iter().find(|v| v.short_name == "bike").unwrap().clone();
//! let video = vtx_frame::synth::generate(&spec, 42);
//! assert_eq!(video.frames.len(), spec.sim_frames as usize);
//! assert_eq!(video.frames[0].width(), spec.sim_width as usize);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod frame;
mod padded;
mod plane;

pub mod quality;
pub mod synth;
pub mod vbench;
pub mod video;
pub mod y4m;

pub use error::FrameError;
pub use frame::Frame;
pub use padded::{Block, PaddedPlane};
pub use plane::Plane;
pub use vbench::VideoSpec;
pub use video::Video;
