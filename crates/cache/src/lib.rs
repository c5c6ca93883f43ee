//! # vtx-cache — popularity-aware segment caching for the serving stack
//!
//! The paper characterizes cloud transcoding as a fleet-scale workload
//! where the same popular titles are transcoded over and over under
//! distinct live/VOD presets. Once `(segment, rung)` is the dispatch unit
//! (vtx-serve's segmented ABR path), a segment-granular cache converts
//! repeated transcodes into lookups. This crate provides the two pieces
//! that make that study reproducible:
//!
//! * [`zipf::ZipfSampler`] — a seedable Zipf(s) popularity distribution
//!   over a finite catalog, sampled by inverse CDF from a caller-supplied
//!   uniform draw so the workload generator's byte-determinism carries
//!   through unchanged.
//! * [`cache::SegmentCache`] — a byte-capacity-bounded cache keyed by
//!   [`cache::CacheKey`] `(video, preset, crf, refs, rung, segment)` with
//!   pluggable deterministic eviction ([`cache::EvictPolicy`]): LRU, LFU,
//!   and a cost-aware GDSF variant that weighs the recompute cost billed
//!   by the serving cost model against entry size. Both the discrete-event
//!   simulator and the real threaded executor consume the same structure —
//!   a hit skips the transcode and bills a lookup cost, a miss populates
//!   the cache from the muxed segment bytes.
//!
//! Everything in this crate is a pure function of its inputs: no clocks,
//! no thread-local state, and BTreeMap-ordered victim scans, so two runs
//! fed identical key streams produce identical hit/miss/evict sequences.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod zipf;

pub use cache::{CacheKey, CacheSpec, CacheStats, EvictPolicy, SegmentCache};
pub use zipf::ZipfSampler;
