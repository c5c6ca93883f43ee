//! Graphite analog: a polyhedral-style loop-nest optimizer.
//!
//! GCC's Graphite models loop nests in the polyhedral framework and applies
//! locality transformations — interchange, tiling/blocking, fusion and
//! distribution — when dependence analysis proves them legal. This module
//! rebuilds the essential machinery:
//!
//! * [`nest`] — an affine loop-nest IR with dependence-distance vectors,
//!   legality-checked tiling and fusion, and address-stream generation;
//! * [`plan`] — models of the transcoder's data-traversal loops; each
//!   candidate transformation is scored by replaying its address stream
//!   against the target's L1D, and the accepted ones derive the
//!   [`vtx_trace::plan::DataPlan`] the instrumented codec honours.

mod nest;
mod plan;

pub(crate) use plan::derive_plan;
