//! # vtx-port — issue-port execution model and port-mapping inference
//!
//! The interval model (`vtx-uarch`) treats the execution back end as a flat
//! dispatch width: any four uops issue per cycle regardless of what they
//! are. Real cores issue through *ports* — each accepting only some uop
//! classes — and codec kernels stress them very unevenly: SAD/SATD saturate
//! the SIMD ports while CABAC lives on the scalar ALUs and the branch unit.
//! This crate models that level:
//!
//! * `layout` — per-microarchitecture port layouts (ports × uop classes),
//!   keyed to the Table IV configurations of `vtx-uarch`: the
//!   core-widened `be_op2` column gets a seventh port, everything else
//!   shares the Gainestown-style six-port layout.
//! * `mix` — per-kernel uop-class mixes for every `vtx-codec` kernel,
//!   aggregated from profiled hotspot weights or blended per preset rank.
//! * `solver` — a saturating-flow steady-state solver: the exact
//!   max-flow subset bound `L* = max_S f(S)/|ports(S)|` over the seven uop
//!   classes gives sustainable uops/cycle and per-port utilization.
//! * [`infer`] — a uops.info-style inference harness: a hidden
//!   ground-truth layout is probed only through blocked-port throughput
//!   measurements (with deterministic noise), the experimenter recovers
//!   the mapping, compresses it into a PALMED-style conjunctive
//!   abstract-resource model, and validates predictions against fresh
//!   measurements. Byte-deterministic for a fixed seed.
//! * `integrate` — wiring into the rest of the pipeline: the solver's
//!   dispatch bound feeds `CoreModel::with_dispatch_bound`, so port
//!   contention shows up as backend-core Top-down share, and the returned
//!   `PortRefinement` carries the bound and per-port utilization.
//!
//! # Quickstart
//!
//! ```
//! use vtx_port::{solve, PortLayout, UopMix};
//!
//! let layout = PortLayout::gainestown();
//! let mix = UopMix::for_kernel("satd");
//! let s = solve(&layout, &mix, 4.0).expect("satd mix is well-formed");
//! assert!(s.uops_per_cycle <= 4.0);
//! assert!(s.utilization.iter().all(|u| (0.0..=1.0 + 1e-9).contains(u)));
//! ```
//!
//! Inference round-trip:
//!
//! ```
//! use vtx_port::{infer, BlockedPortBench, PortLayout};
//!
//! let bench = BlockedPortBench::new(PortLayout::gainestown(), 42);
//! let model = infer::infer(&bench).expect("probes are consistent");
//! assert_eq!(model.layout.render(), PortLayout::gainestown().render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
pub mod infer;
mod integrate;
mod layout;
mod mix;
mod solver;

pub use error::PortError;
pub use infer::{render_inference_report, validate, BlockedPortBench};
pub use integrate::{dispatch_bound, refine_report, PortRefinement};
pub use layout::{PortLayout, UopClass};
pub use mix::UopMix;
pub use solver::{solve, ThroughputSolve};
