//! Graphite analog: a polyhedral-style loop-nest optimizer.
//!
//! GCC's Graphite models loop nests in the polyhedral framework and applies
//! locality transformations — interchange, tiling/blocking, fusion and
//! distribution — when dependence analysis proves them legal. This module
//! rebuilds the essential machinery:
//!
//! * [`nest`] — an affine loop-nest IR with dependence-distance vectors,
//!   legality-checked interchange/tiling/fusion, and address-stream
//!   generation;
//! * [`cost`] — a cache-replay cost model that scores a candidate nest by
//!   simulating its address stream against a target cache;
//! * [`plan`] — models of the transcoder's data-traversal loops; running
//!   the optimizer over them derives the [`vtx_trace::plan::DataPlan`] the
//!   instrumented codec honours.

#[cfg(test)]
mod cost;
mod nest;
mod plan;

pub(crate) use plan::derive_plan;
