//! # vtx-chaos — deterministic fault injection for the serving fleet
//!
//! The serving layer (`vtx-serve`) assumes every server stays up and runs at
//! its rated speed; real transcoding fleets lose machines mid-job and suffer
//! fail-slow stragglers. This crate makes failure a first-class,
//! seed-reproducible dimension of the serving experiments:
//!
//! * `plan` — a [`plan::FaultPlan`] scripts fail-stop crashes, fail-slow
//!   slowdown windows and transient stalls per server. Plans are either
//!   built explicitly or drawn from a seed ([`plan::FaultPlan::storm`])
//!   using the same SplitMix64 stream-derivation style as the vtx-serve
//!   cost model, so the same seed always yields the same failure script.
//!   [`plan::FaultPlan::inflate`] converts a nominal service duration into
//!   the wall-clock duration under the plan's slowdowns and stalls — the
//!   one primitive both the discrete-event engine and the real executor
//!   need to agree on.
//! * `detector` — a heartbeat-based failure detector: a server whose
//!   heartbeats stop is `Suspected` after a tunable number of missed beats
//!   and `Down` after a few more. Detection latency (the window in which
//!   jobs are dispatched into a dead server) is the price of distrust, and
//!   it is fully deterministic here.
//! * [`degrade`] — a graceful-degradation ladder that steps the x264 preset
//!   toward `ultrafast` (Table II order) when backlog outruns the detected
//!   live capacity, with hysteresis so the ladder does not thrash.
//!
//! Nothing in this crate tells time by itself: every API is a pure function
//! of (plan, timestamps), which is what lets the simulated engine and the
//! wall-clock executor consume the *same* failure script.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cause;
pub mod degrade;
mod detector;
mod error;
mod plan;

pub use cause::Cause;
pub use degrade::{DegradeConfig, DegradeLadder};
pub use detector::{DetectorConfig, FailureDetector, Health};
pub use error::ChaosError;
pub use plan::{FaultCounts, FaultKind, FaultPlan, ServerFaults, Slowdown, Stall};
