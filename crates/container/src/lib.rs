//! Box-structured fMP4/CMAF container layer for vtx bitstreams.
//!
//! The paper's workload is not just encoding: cloud transcoding delivers
//! **segmented ABR renditions** — each source clip is split at GOP
//! boundaries into ~2-second segments, every segment is transcoded to
//! each rung of a bitrate ladder, and the results are packaged as CMAF
//! init + media segments behind HLS playlists. This crate is that
//! packaging plane, hand-rolled with zero external dependencies and
//! byte-deterministic end to end:
//!
//! * `boxes` — ISO-BMFF box primitives (u32 BE size + fourcc).
//! * [`mux`] / [`demux`] — init segments (`ftyp`+`moov`, the 17-byte vtx
//!   codec header carried in a `vtxC` box inside the sample description)
//!   and media segments (`styp`+`moof`+`mdat`), with an exact-inversion
//!   contract: re-muxing a parsed segment reproduces the original bytes.
//! * [`segment`] — the GOP-aligned segmenter: splits a closed-GOP vtx
//!   bitstream (forced IDRs at the cut points) into standalone
//!   sub-streams that decode independently.
//! * `ladder` — ABR rung definitions with a canonical text form.
//! * [`manifest`] — HLS-style master/media playlists, integer-millisecond
//!   durations, render/parse exact inverses.
//! * [`package`] — the glue: bitstream → segments, plan → playlists.
//!
//! Like the codec's decoder, every parser here returns structured
//! [`ContainerError`]s on truncated or corrupt input — never a panic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod boxes;
pub mod demux;
mod error;
mod ladder;
pub mod manifest;
pub mod mux;
pub mod package;
pub mod segment;

pub use error::ContainerError;
pub use ladder::{Ladder, Rung};
pub use package::Packaged;
