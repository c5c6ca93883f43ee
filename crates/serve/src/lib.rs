//! # vtx-serve — an online transcoding service layer
//!
//! The paper characterizes transcoding as an *offline batch* problem:
//! Figure 9's schedulers assign a fixed task list to a fixed fleet and are
//! judged on makespan. Production transcoding is a *service*: jobs arrive
//! continuously, carry per-class latency expectations, and an overloaded
//! system must decide what to shed. This crate rebuilds the paper's
//! characterization-driven scheduling insight in that setting:
//!
//! * [`workload`] — a seeded open-loop load generator over the vbench
//!   catalog: Poisson arrivals, three service classes (interactive /
//!   standard / batch) with per-class SLO budgets and timeouts, plus a
//!   plain-text arrival-trace format ([`workload::render_trace`] /
//!   [`workload::parse_trace`]) for reproducible experiments.
//! * [`queue`] — bounded per-class admission queues with backpressure,
//!   priority load-shedding and deadline expiry.
//! * [`policy`] — one [`policy::DispatchPolicy`] trait with one `assign`
//!   method over the [`cells::IdleIndex`], at every fleet size: `random`
//!   and `round_robin` baselines, and `smart` / `port`, which price
//!   (job × idle-server) pairs with the affinity model of `vtx-sched` and
//!   solve the rectangular assignment exactly (Hungarian) — over the
//!   whole idle set below [`cells::XL_FLEET_THRESHOLD`] servers, within
//!   each routed cell (consistent-hash + power-of-two-choices across
//!   [`cells::CellPlan`] cells) from there up.
//! * [`fleet`] — heterogeneous fleets of Table IV microarchitectures with
//!   mixed speed grades.
//! * [`cost`] — the two-faced service-time model: a policy-visible
//!   prediction and an engine-billed truth that is a pure function of
//!   `(seed, job, server)`, so policies compete on identical ground.
//! * [`service`] — the [`service::ServiceCore`] (admission, dispatch,
//!   accounting, event log).
//! * `inflight` — the `inflight::InFlight` state machine: which server
//!   runs which copy of which job, the incrementally maintained idle index,
//!   hedge arming, server-lost drains and finish resolution.
//! * `engine` — the one loop over those two: an event [`calendar`] seeded
//!   from the fault plan and the arrival trace, popped until it is drained
//!   and nothing is in flight, generic over a transport (a clock and a way
//!   to run a copy). The two below are its transports and nothing more.
//! * [`sim`] — the deterministic discrete-event simulator: the loop on a
//!   virtual clock, pricing a run with the cost model's truth. Same seed
//!   in, byte-identical event log, assignment vector and report out.
//! * [`exec`] — the real executor: the loop on the wall clock, per-server
//!   worker threads running actual profiled [`vtx_core::Transcoder`] jobs.
//! * [`segment`] — segmented ABR serving: a catalog job decomposes into
//!   per-(segment, rung) dispatch units ([`segment::SegmentPlan`]) that
//!   flow through the same machinery; completed jobs package into CMAF
//!   segments and HLS manifests via `vtx-container`, byte-deterministic
//!   per seed in both drivers. Overload shedding is ladder-aware
//!   (unit-granular, highest-quality rung displaced first) and delivery
//!   is partial: [`segment::SegmentPlan::manifests_partial`] serves the
//!   finished rungs of an incomplete job under a degraded-flagged master.
//! * segment caching (`vtx-cache`) — [`service::ServeConfig::cache`] puts
//!   a byte-capacity-bounded deterministic segment cache keyed by
//!   (video, knobs, rung, segment) in front of dispatch, with pluggable
//!   LRU / LFU / GDSF eviction: a hit skips the transcode and bills only
//!   the lookup cost, a miss populates on completion, and both drivers
//!   consume it identically. Pair with
//!   [`workload::WorkloadSpec::with_popularity`] (seeded Zipf catalog
//!   skew + live/VOD split) to model repeat-heavy production traffic.
//! * [`report`] — exact p50/p90/p99 sojourn statistics, shed/violation
//!   rates, per-server utilization, deterministic text rendering.
//! * [`chaos`] — fault injection and recovery: a seeded [`chaos::FaultPlan`]
//!   (fail-stop crashes, fail-slow stragglers, transient stalls) consumed by
//!   both engines, a heartbeat failure detector, automatic requeue of
//!   in-flight jobs off dead servers, hedged re-dispatch for the interactive
//!   class, and a graceful-degradation ladder that steps the x264 preset
//!   toward `ultrafast` when detected capacity drops below offered load.
//! * surge control (vtx-surge) — non-stationary workload scenarios
//!   ([`workload::ArrivalShape`]: diurnal sinusoids, flash-crowd spikes,
//!   multi-tenant Zipf mixes with per-tenant quotas) met by an overload
//!   layer: per-tenant token-bucket admission with fair shedding
//!   ([`service::TenantAdmissionConfig`]), seeded capped-exponential
//!   backoff on requeue ([`chaos::BackoffConfig`]) that turns
//!   thundering-herd re-dispatch storms into staggered re-admission,
//!   per-server circuit breakers ([`chaos::BreakerConfig`]) composing with
//!   the failure detector, and a deterministic autoscaler
//!   ([`chaos::AutoscaleConfig`]) that grows and shrinks the active fleet
//!   against backlog per detected-up capacity with seeded warm-up on
//!   scale-out and drain-via-requeue on scale-in — byte-deterministic per
//!   seed and identical in both drivers.
//!
//! Every run also feeds an observability plane (`vtx-obs`) through the
//! shared service core: per-job lifecycle traces (exportable as Chrome
//! trace-event tracks), per-class sojourn quantile sketches, and a
//! multi-window SLO burn-rate monitor whose alert transitions appear in
//! the deterministic event stream and attribute degrade steps.
//!
//! # Quickstart
//!
//! ```
//! use vtx_serve::fleet::Fleet;
//! use vtx_serve::policy::policy_by_name;
//! use vtx_serve::service::ServeConfig;
//! use vtx_serve::sim::simulate;
//! use vtx_serve::workload::WorkloadSpec;
//!
//! let workload = WorkloadSpec::smoke(42);
//! let out = simulate(
//!     &workload,
//!     Fleet::table_iv(),
//!     policy_by_name("smart", 42).unwrap(),
//!     ServeConfig::default(),
//! )
//! .unwrap();
//! assert_eq!(out.report.offered, 60);
//! assert_eq!(out.report.completed + out.report.shed_total(), 60);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calendar;
pub mod cells;
pub mod chaos;
pub mod cost;
mod engine;
mod error;
pub mod exec;
pub mod fleet;
mod inflight;
pub mod policy;
pub mod queue;
pub mod report;
/// The serving layer's deterministic PRNG (`vtx-rng`).
pub use vtx_rng as rng;
pub mod segment;
pub mod service;
pub mod sim;
pub mod workload;

pub use error::ServeError;
pub use fleet::Fleet;
pub use policy::{policy_by_name, DispatchPolicy};
pub use segment::{SegmentOptions, SegmentPlan};
pub use service::{ServeConfig, ServiceCore, TenantAdmissionConfig, CLASS_NAMES};
pub use workload::{JobSpec, Priority, WorkloadSpec};
