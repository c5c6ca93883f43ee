//! The real executor: the engine loop on the wall clock, running actual
//! [`vtx_core::Transcoder`] jobs on per-server worker threads.
//!
//! This is the proof that the serving layer is not simulation-only: the
//! same `crate::engine` loop pops the same event calendar over the same
//! [`ServiceCore`] and in-flight machine the simulator uses — only the
//! `Transport` differs. Here an event due at `t` is handled when the wall
//! clock reaches `t`, a started copy goes to its server's worker thread
//! (a profiled transcode on the server's Table IV microarchitecture) and
//! comes back as a report on a channel, and a planned crash kills the
//! server's worker. Wall-clock runs are not byte-reproducible; the
//! determinism story belongs to [`crate::sim`].
//!
//! The same [`crate::chaos::ChaosConfig`] the simulator obeys applies here,
//! against the wall clock: a fail-stop crash makes the worker thread die
//! without reporting (its in-flight job is recovered when the calendar's
//! down verdict fires), a fail-slow window stretches the worker's observed
//! service time, and hedged duplicates race real transcodes with
//! first-completion-wins accounting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use vtx_core::{TranscodeOptions, Transcoder};
use vtx_frame::{synth, vbench, Video};
use vtx_telemetry::Span;

use crate::cost::CostModel;
use crate::engine::{self, Report, Transport};
use crate::error::ServeError;
use crate::fleet::Fleet;
use crate::inflight::{Outcome, Started};
use crate::policy::DispatchPolicy;
use crate::queue::PendingJob;
use crate::segment::SegmentPlan;
use crate::service::{ServeConfig, ServiceCore};
use crate::sim::SimOutcome;
use crate::workload::{JobSpec, WorkloadSpec};

/// Real-executor tuning.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Shared service-layer configuration (queues, retries, window).
    pub serve: ServeConfig,
    /// Divisor applied to trace arrival gaps so a long trace replays
    /// quickly; deadline and timeout *budgets* (relative to arrival) are
    /// preserved. 1 = real time.
    pub arrival_compression: u64,
    /// Shrink inputs to thumbnail size (64×48×6 frames) so a smoke run
    /// finishes in seconds. Production-shaped runs set this to `false`.
    pub tiny_videos: bool,
    /// Profiler sampling shift for the transcodes (higher = faster).
    pub sample_shift: u32,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            serve: ServeConfig::default(),
            arrival_compression: 1,
            tiny_videos: true,
            sample_shift: 4,
        }
    }
}

/// Rescales arrivals in place, keeping per-job deadline/timeout budgets.
fn compress_arrivals(jobs: &mut [JobSpec], divisor: u64) {
    if divisor <= 1 {
        return;
    }
    for j in jobs.iter_mut() {
        let budget = j.deadline_us.saturating_sub(j.arrival_us);
        j.arrival_us /= divisor;
        j.deadline_us = j.arrival_us.saturating_add(budget);
    }
}

/// Replays a workload with real transcodes on worker threads.
///
/// # Errors
///
/// Returns [`ServeError::EmptyWorkload`] for an empty trace,
/// [`ServeError::UnknownVideo`] for out-of-catalog names, and
/// [`ServeError::Core`] if building a transcoder fails.
pub fn run_real(
    workload: &WorkloadSpec,
    fleet: Fleet,
    policy: Box<dyn DispatchPolicy>,
    cfg: &ExecConfig,
) -> Result<SimOutcome, ServeError> {
    let mut jobs = workload.generate()?;
    compress_arrivals(&mut jobs, cfg.arrival_compression);
    run_real_trace(&jobs, workload.seed, fleet, policy, cfg)
}

/// Replays a pre-generated trace with real transcodes.
///
/// # Errors
///
/// Same conditions as [`run_real`].
fn run_real_trace(
    jobs: &[JobSpec],
    seed: u64,
    fleet: Fleet,
    policy: Box<dyn DispatchPolicy>,
    cfg: &ExecConfig,
) -> Result<SimOutcome, ServeError> {
    run_real_inner(jobs, seed, fleet, policy, cfg, None)
}

/// Runs a segment plan's units with real transcodes: each worker encodes
/// the unit's actual GOP-aligned slice of the source clip at the unit's
/// rung. The plan fills the four per-unit tables of the config
/// ([`SegmentPlan::fill_unit_tables`]): true service times scale to the
/// unit's frame share, and rung, segment and artifact size key the cache
/// and the per-rung accounting as in the simulator. Clip geometry follows
/// the plan's `tiny` flag (not [`ExecConfig::tiny_videos`]) so the slice
/// boundaries match the plan's cut points.
///
/// # Errors
///
/// Same conditions as [`run_real`].
pub fn run_real_segmented(
    plan: &SegmentPlan,
    seed: u64,
    fleet: Fleet,
    policy: Box<dyn DispatchPolicy>,
    cfg: &ExecConfig,
) -> Result<SimOutcome, ServeError> {
    let mut cfg = cfg.clone();
    plan.fill_unit_tables(&mut cfg.serve);
    let mut jobs = plan.units.clone();
    compress_arrivals(&mut jobs, cfg.arrival_compression);
    run_real_inner(&jobs, seed, fleet, policy, &cfg, Some(plan))
}

/// Builds the worker transcoder pool. Whole-clip runs get one mezzanine
/// per distinct video keyed by name; segmented runs get one per distinct
/// (video, segment) slice keyed `"{video}#{seg}"`, cut from the same
/// seeded synthesis the plan's packaging path uses.
fn build_pool(
    jobs: &[JobSpec],
    seed: u64,
    cfg: &ExecConfig,
    seg: Option<&SegmentPlan>,
) -> Result<BTreeMap<String, Transcoder>, ServeError> {
    let mut transcoders: BTreeMap<String, Transcoder> = BTreeMap::new();
    if let Some(plan) = seg {
        let mut fulls: BTreeMap<&str, Video> = BTreeMap::new();
        for p in &plan.parents {
            if !fulls.contains_key(&*p.video) {
                let mut spec =
                    vbench::by_name(&p.video).ok_or_else(|| ServeError::UnknownVideo {
                        name: p.video.to_string(),
                    })?;
                if plan.tiny {
                    spec.sim_width = 64;
                    spec.sim_height = 48;
                    spec.sim_frames = 6;
                }
                fulls.insert(&p.video, synth::generate(&spec, seed));
            }
            let full = &fulls[&*p.video];
            for (si, &start) in p.points.iter().enumerate() {
                let key = format!("{}#{si}", p.video);
                if transcoders.contains_key(&key) {
                    continue;
                }
                let end = p.points.get(si + 1).copied().unwrap_or(p.frames) as usize;
                let mut spec = full.spec.clone();
                spec.sim_frames = (end - start as usize) as u32;
                let slice = Video::new(spec, full.frames[start as usize..end].to_vec());
                transcoders.insert(key, Transcoder::from_video(slice)?);
            }
        }
        return Ok(transcoders);
    }
    for j in jobs {
        if transcoders.contains_key(&*j.task.video) {
            continue;
        }
        let mut spec = vbench::by_name(&j.task.video).ok_or_else(|| ServeError::UnknownVideo {
            name: j.task.video.to_string(),
        })?;
        if cfg.tiny_videos {
            spec.sim_width = 64;
            spec.sim_height = 48;
            spec.sim_frames = 6;
        }
        let t = Transcoder::from_video(synth::generate(&spec, seed))?;
        transcoders.insert(j.task.video.to_string(), t);
    }
    Ok(transcoders)
}

/// The wall-clock transport: one worker thread per server, each owning its
/// uarch and pulling `(job, instance)` work items; completions funnel into
/// one channel. Fail-stop crashes are coordinator-driven: when a planned
/// crash fires, [`Transport::crash`] raises the worker's crash flag and
/// closes its work channel, so the worker dies deterministically (a
/// blocked-idle worker wakes on the closed channel, a mid-transcode worker
/// sees the flag and loses its finished work) no matter how the wall clock
/// raced the workload.
struct Wall<'a> {
    start: Instant,
    /// Work channel per server; `None` once the server has crashed.
    work_txs: Vec<Option<mpsc::Sender<(PendingJob, u64)>>>,
    crash_flags: &'a [AtomicBool],
    reports: mpsc::Receiver<Report>,
}

impl Wall<'_> {
    fn clock(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Transport for Wall<'_> {
    /// Never earlier than `due_us`: once every worker is gone there is
    /// nothing to wait for, and what is left of the calendar (the down
    /// verdicts that recover stuck copies) replays at its due instants.
    fn now(&mut self, due_us: u64) -> u64 {
        self.clock().max(due_us)
    }

    /// Hands the copy to its server's worker, which never cuts a run at the
    /// job's timeout: a transcode ends when it ends.
    fn start(
        &mut self,
        _core: &ServiceCore,
        job: &PendingJob,
        copy: Started,
        _now_us: u64,
    ) -> Option<(u64, Outcome)> {
        let tx = self.work_txs[copy.server]
            .as_ref()
            .expect("the loop starts nothing on a dead server");
        // A worker is gone only after its crash, which closes this channel.
        let _ = tx.send((job.clone(), copy.instance));
        None
    }

    fn wait(&mut self, next_due: impl FnOnce() -> Option<u64>) -> Option<(u64, Report)> {
        let report = match next_due() {
            Some(due) => {
                let wait_us = due.saturating_sub(self.clock());
                self.reports
                    .recv_timeout(Duration::from_micros(wait_us))
                    .ok()
            }
            None => self.reports.recv().ok(),
        }?;
        Some((self.clock(), report))
    }

    fn crash(&mut self, server: usize) {
        self.crash_flags[server].store(true, Ordering::Release);
        self.work_txs[server] = None;
    }
}

fn run_real_inner(
    jobs: &[JobSpec],
    seed: u64,
    fleet: Fleet,
    policy: Box<dyn DispatchPolicy>,
    cfg: &ExecConfig,
    seg: Option<&SegmentPlan>,
) -> Result<SimOutcome, ServeError> {
    if jobs.is_empty() {
        return Err(ServeError::EmptyWorkload);
    }
    let _span = Span::enter_with("serve/run_real", |a| {
        a.u64("jobs", jobs.len() as u64);
        a.u64("seed", seed);
    });

    let pool = &build_pool(jobs, seed, cfg, seg)?;
    // Segment index per dense unit id; `None` = whole-clip pool keys.
    let seg_of: &Option<Vec<u32>> =
        &seg.map(|plan| plan.meta.iter().map(|m| m.seg as u32).collect());
    let plan = &cfg.serve.chaos.plan;
    let core = ServiceCore::new(cfg.serve.clone(), fleet, CostModel::new(seed), policy);
    let crash_flags: Vec<AtomicBool> = (0..core.fleet().len()).map(|_| false.into()).collect();
    let (report_tx, reports) = mpsc::channel::<Report>();
    let start = Instant::now();

    // The scope joins every worker once the transport, and with it the work
    // channels, is dropped at the end of the run.
    Ok(thread::scope(|scope| {
        let mut work_txs = Vec::with_capacity(crash_flags.len());
        for (idx, (server, dead)) in core.fleet().servers().iter().zip(&crash_flags).enumerate() {
            let (tx, rx) = mpsc::channel::<(PendingJob, u64)>();
            work_txs.push(Some(tx));
            let report_tx = report_tx.clone();
            let uarch = server.uarch.clone();
            scope.spawn(move || {
                while let Ok((job, instance)) = rx.recv() {
                    if dead.load(Ordering::Acquire) {
                        // Fail-stop: die without reporting; the detector's down
                        // verdict recovers the job.
                        break;
                    }
                    let opts =
                        TranscodeOptions::on(uarch.clone()).with_sample_shift(cfg.sample_shift);
                    let work_start = start.elapsed().as_micros() as u64;
                    let key = match seg_of {
                        Some(m) => format!("{}#{}", job.spec.task.video, m[job.spec.id as usize]),
                        None => job.spec.task.video.to_string(),
                    };
                    // A good run carries the encoded artifact size in bytes
                    // (from the report's bitrate × duration), which sizes the
                    // segment-cache insertion; a failed transcode is booked
                    // like a timeout.
                    let outcome = pool
                        .get(&key)
                        .expect("transcoder pre-built for every trace video")
                        .transcode(&job.spec.task.encoder_config(), &opts)
                        .map_or(Outcome::TimedOut, |r| Outcome::Finished {
                            bytes: Some(((r.bitrate_kbps * r.seconds * 125.0) as u64).max(1)),
                        });
                    let now = start.elapsed().as_micros() as u64;
                    if dead.load(Ordering::Acquire) {
                        // Died mid-transcode: the finished work is lost.
                        break;
                    }
                    // Fail-slow: stretch the observed service time to what the
                    // plan says this window costs.
                    let elapsed = now.saturating_sub(work_start);
                    let wall = plan.inflate(idx, work_start, elapsed);
                    if wall > elapsed {
                        thread::sleep(Duration::from_micros(wall - elapsed));
                    }
                    // Receiver gone = run aborted; nothing left to report.
                    let report = Report {
                        server: idx,
                        instance,
                        outcome,
                    };
                    if report_tx.send(report).is_err() {
                        break;
                    }
                }
            });
        }
        drop(report_tx);
        let mut wall = Wall {
            start,
            work_txs,
            crash_flags: &crash_flags,
            reports,
        };
        engine::run(jobs, seed, core, &mut wall)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_codec::Preset;
    use vtx_sched::TranscodeTask;

    use crate::workload::Priority;

    #[test]
    fn compress_preserves_budgets() {
        let mut jobs = vec![JobSpec {
            id: 0,
            arrival_us: 1_000_000,
            task: TranscodeTask::new("bike", 23, 3, Preset::Ultrafast),
            priority: Priority::Standard,
            deadline_us: 3_000_000,
            timeout_us: 5_000_000,
        }];
        compress_arrivals(&mut jobs, 10);
        assert_eq!(jobs[0].arrival_us, 100_000);
        assert_eq!(jobs[0].deadline_us, 2_100_000, "2 s budget preserved");
        compress_arrivals(&mut jobs, 1);
        assert_eq!(jobs[0].arrival_us, 100_000, "divisor 1 is identity");
    }

    // The end-to-end real-executor run lives in the workspace integration
    // tests (`vtx-tests/tests/serving.rs`): it needs several seconds of
    // real transcoding and a single-threaded test harness.
}
