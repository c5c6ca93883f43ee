//! Compiler-optimization analogs for the paper's §III-D.1 experiments.
//!
//! The paper applies two GCC-toolchain optimizations to FFmpeg:
//!
//! * **AutoFDO** (feedback-directed optimization): collects an execution
//!   profile with `perf` and recompiles so that hot code is laid out
//!   compactly and frequently-taken paths fall through — attacking
//!   instruction-cache misses and branch-prediction inefficiency
//!   (front-end and bad-speculation Top-down categories).
//! * **Graphite** (polyhedral loop optimization): interchanges, tiles and
//!   fuses loop nests to improve data-cache locality (back-end category).
//!
//! This crate rebuilds both against the workspace's synthetic binary model:
//!
//! * `autofdo` consumes the [`vtx_trace::kernel::KernelProfile`] a
//!   profiling run produces and performs Pettis–Hansen call-graph clustering
//!   plus hot/cold splitting, emitting an optimized
//!   [`vtx_trace::layout::CodeLayout`]. Re-running the workload under that
//!   layout changes its simulated i-cache/iTLB/branch behaviour — the
//!   speedup *emerges* from simulation.
//! * `graphite` implements a small polyhedral-style loop-nest IR with
//!   dependence-distance legality checks and cache-replay cost estimation;
//!   applied to models of the transcoder's data-traversal loops it derives
//!   a [`vtx_trace::plan::DataPlan`] that the instrumented codec honours
//!   when emitting its address stream.
//! * `pipeline` packages both as "compiled binary variants" (baseline /
//!   AutoFDO / Graphite), mirroring the three FFmpeg builds the paper
//!   benchmarks in Figure 8.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod autofdo;
mod graphite;
mod pipeline;

pub use pipeline::{compile, BinaryVariant, CompiledBinary, MissingProfile};
