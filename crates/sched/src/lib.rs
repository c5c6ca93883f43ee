//! Characterization-driven task scheduling — §III-D.2 / Figure 9.
//!
//! Streaming providers run transcoding fleets with heterogeneous servers.
//! The paper simulates four modified microarchitecture configurations
//! (Table IV) and three assignment policies for the four transcoding tasks
//! of Table III:
//!
//! * the **random** scheduler's expected performance is the average over all
//!   configurations;
//! * the **smart** scheduler uses the characterization (which Top-down
//!   category dominates a task) to assign each task to the best-fit
//!   configuration under a one-to-one constraint — solved here with a real
//!   Hungarian (Kuhn–Munkres) algorithm;
//! * the **best** scheduler assigns each task to its measured best
//!   configuration with no constraint (an oracle upper bound).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod affinity;
pub mod auction;
mod error;
pub mod hungarian;
pub mod scheduler;
pub mod task;

pub use error::SchedError;
pub use task::{table_iii_tasks, TranscodeTask};
