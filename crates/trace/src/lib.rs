//! Instrumentation and profiling layer — the workspace's `perf` + VTune.
//!
//! The paper measures FFmpeg with hardware performance counters. This crate
//! provides the equivalent observation channel for the from-scratch
//! transcoder in `vtx-codec`: the codec's kernels are *instrumented* — they
//! announce themselves ([`Profiler::kernel`]), report the data cache lines
//! they touch ([`Profiler::load`], [`Profiler::store`]) and the
//! data-dependent branches they resolve ([`Profiler::branch`]) — and the
//! profiler drives the `vtx-uarch` cache/TLB/branch-predictor simulation
//! online, finally emitting a [`report::ProfileReport`] with Top-down
//! categories, MPKI counters and resource-stall figures.
//!
//! The simulation runs beside the program, not inside it: each profiler
//! keeps its exact accounting on the caller's thread and hands the models
//! their work, in program order, on a thread of their own (see
//! [`profiler`]). A report is the same, bit for bit, as if the models had
//! been driven inline; only the wall time changes.
//!
//! Two design points matter for reproducibility:
//!
//! * **Synthetic code addresses.** Each kernel occupies a region of a
//!   synthetic code address space managed by [`layout::CodeLayout`]. The
//!   default layout spreads hot kernels apart (cold code between them, as a
//!   normal linker would); the AutoFDO-style optimizer in `vtx-opt` produces
//!   a packed, affinity-clustered layout. Instruction-cache, iTLB and
//!   branch-aliasing effects of layout therefore *emerge* from simulation.
//! * **Synthetic data addresses.** Buffers are registered with
//!   [`Profiler::alloc`], which assigns stable virtual addresses, so cache
//!   behaviour is bit-identical across runs and platforms (real heap
//!   addresses would vary with ASLR).
//!
//! # Example
//!
//! ```
//! use vtx_trace::{kernel::KernelDesc, layout::CodeLayout, Profiler};
//! use vtx_uarch::config::UarchConfig;
//!
//! const KERNELS: &[KernelDesc] = &[
//!     KernelDesc::new("hot_loop", 2048),
//!     KernelDesc::new("helper", 1024),
//! ];
//!
//! let layout = CodeLayout::default_order(KERNELS);
//! let mut prof = Profiler::new(&UarchConfig::baseline(), KERNELS, layout)?;
//! let buf = prof.alloc("workbuf", 4096);
//! prof.kernel(0, 16, 12, 0);        // kernel 0: 16 iterations, 12 insns each
//! prof.load(buf + 64);              // touch a data line
//! prof.branch(0, true);             // a data-dependent branch
//! let report = prof.finish();
//! assert!(report.counts.instructions > 0);
//! # Ok::<(), vtx_uarch::ConfigError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod companion;
pub mod kernel;
pub mod layout;
pub mod plan;
pub mod profiler;
pub mod report;

pub use kernel::{KernelDesc, KernelId};
pub use plan::DataPlan;
pub use profiler::{ProfEvent, Profiler};
pub use report::ProfileReport;
