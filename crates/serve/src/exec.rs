//! The real executor: the same service core, driven by wall-clock time and
//! actual [`vtx_core::Transcoder`] jobs on per-server worker threads.
//!
//! This is the proof that the serving layer is not simulation-only: admission,
//! shedding, dispatch and accounting all run through the identical
//! [`ServiceCore`] entry points, and every in-flight decision through the
//! identical [`InFlight`] handlers, that the discrete-event engine uses —
//! only the clock (wall time) and the transport (worker threads running a
//! profiled transcode on the server's Table IV microarchitecture) differ. Wall-clock runs are not
//! byte-reproducible; the determinism story belongs to [`crate::sim`].
//!
//! The same [`crate::chaos::ChaosConfig`] the simulator obeys applies here,
//! against the wall clock: a fail-stop crash makes the worker thread die
//! without reporting (its in-flight job is recovered when the failure
//! detector's down verdict fires), a fail-slow window stretches the
//! worker's observed service time, and hedged duplicates race real
//! transcodes with first-completion-wins accounting.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use vtx_chaos::{FailureDetector, FaultKind, Health};
use vtx_core::{TranscodeOptions, Transcoder};
use vtx_frame::{synth, vbench, Video};
use vtx_telemetry::Span;

use crate::cost::CostModel;
use crate::error::ServeError;
use crate::fleet::Fleet;
use crate::inflight::{InFlight, Outcome, Started};
use crate::policy::DispatchPolicy;
use crate::queue::PendingJob;
use crate::segment::SegmentPlan;
use crate::service::{ScaleAction, ServeConfig, ServiceCore};
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
pub fn compress_arrivals(jobs: &mut [JobSpec], divisor: u64) {
    if divisor <= 1 {
        return;
    }
    for j in jobs.iter_mut() {
        let budget = j.deadline_us.saturating_sub(j.arrival_us);
        j.arrival_us /= divisor;
        j.deadline_us = j.arrival_us.saturating_add(budget);
    }
}

struct Done {
    server: usize,
    /// Which copy this reports ([`Started::instance`]); the coordinator
    /// drops the report if the server no longer holds that copy.
    instance: u64,
    /// A good run carries the encoded artifact size in bytes (from the
    /// report's bitrate × duration), which sizes the segment-cache
    /// insertion; a failed transcode is booked like a timeout.
    outcome: Outcome,
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
pub fn run_real_trace(
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
/// rung. True service times are scaled to the unit's frame share via
/// [`ServeConfig::unit_frames`], and clip geometry follows the plan's
/// `tiny` flag (not [`ExecConfig::tiny_videos`]) so the slice boundaries
/// match the plan's cut points.
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
    cfg.serve.unit_frames = plan.unit_frames();
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
) -> Result<BTreeMap<String, Arc<Transcoder>>, ServeError> {
    let mut transcoders: BTreeMap<String, Arc<Transcoder>> = BTreeMap::new();
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
                transcoders.insert(key, Arc::new(Transcoder::from_video(slice)?));
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
        transcoders.insert(j.task.video.to_string(), Arc::new(t));
    }
    Ok(transcoders)
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

    let transcoders = build_pool(jobs, seed, cfg, seg)?;
    // Segment index per dense unit id; `None` = whole-clip pool keys.
    let seg_of: Option<Arc<Vec<u32>>> =
        seg.map(|plan| Arc::new(plan.meta.iter().map(|m| m.seg as u32).collect()));

    let model = CostModel::new(seed);
    let mut core = ServiceCore::new(cfg.serve.clone(), fleet, model, policy);
    let mut flight = InFlight::new(&core);
    let n_servers = core.fleet().len();
    let plan = cfg.serve.chaos.plan.clone();

    let start = Instant::now();

    // Per-server worker threads: each owns its uarch and pulls (job,
    // instance) work items; completions funnel into one channel. Fail-stop
    // crashes are coordinator-driven: when a planned crash fires, the
    // coordinator raises the worker's crash flag and closes its work
    // channel, so the worker dies deterministically (a blocked-idle worker
    // wakes on the closed channel, a mid-transcode worker sees the flag and
    // loses its finished work) no matter how the wall clock raced the
    // workload.
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let crash_flags: Vec<Arc<AtomicBool>> = (0..n_servers)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let mut work_txs: Vec<Option<mpsc::Sender<(PendingJob, u64)>>> = Vec::with_capacity(n_servers);
    let mut workers = Vec::with_capacity(n_servers);
    for (idx, server) in core.fleet().servers().iter().enumerate() {
        let (tx, rx) = mpsc::channel::<(PendingJob, u64)>();
        work_txs.push(Some(tx));
        let done = done_tx.clone();
        let uarch = server.uarch.clone();
        let sample_shift = cfg.sample_shift;
        let pool = transcoders.clone();
        let plan_w = plan.clone();
        let dead = crash_flags[idx].clone();
        let seg_map = seg_of.clone();
        workers.push(thread::spawn(move || {
            while let Ok((job, instance)) = rx.recv() {
                if dead.load(Ordering::Acquire) {
                    // Fail-stop: die without reporting; the detector's down
                    // verdict recovers the job.
                    break;
                }
                let opts = TranscodeOptions::on(uarch.clone()).with_sample_shift(sample_shift);
                let work_start = start.elapsed().as_micros() as u64;
                let key = match &seg_map {
                    Some(m) => format!("{}#{}", job.spec.task.video, m[job.spec.id as usize]),
                    None => job.spec.task.video.to_string(),
                };
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
                let wall = plan_w.inflate(idx, work_start, elapsed);
                if wall > elapsed {
                    thread::sleep(Duration::from_micros(wall - elapsed));
                }
                // Receiver gone = run aborted; nothing left to report.
                let report = Done {
                    server: idx,
                    instance,
                    outcome,
                };
                if done.send(report).is_err() {
                    break;
                }
            }
        }));
    }
    drop(done_tx);

    let now_us = || start.elapsed().as_micros() as u64;

    let mut arrivals: Vec<JobSpec> = jobs.to_vec();
    arrivals.sort_by_key(|j| (j.arrival_us, j.id));
    let mut next_arrival = 0usize;
    let mut makespan = 0u64;

    // Autoscaler cadence against the wall clock, mirroring the simulated
    // engine's AutoscaleTick / ServerReady events.
    let autoscale = cfg.serve.chaos.autoscale;
    let mut next_tick: Option<u64> = autoscale.enabled.then(|| autoscale.eval_every_us.max(1));
    let mut pending_ready: Vec<(u64, usize)> = Vec::new();

    // The clock's side of fault handling (all empty without a plan): a
    // pre-loaded detector (a crashed server's heartbeats stop at its crash
    // time), the plan's faults in firing order, and armed hedge triggers.
    let mut detector = FailureDetector::new(cfg.serve.chaos.detector, n_servers);
    let mut fault_due: Vec<(u64, usize, FaultKind)> = Vec::new();
    for s in 0..n_servers {
        let f = plan.server(s);
        if let Some(c) = f.crash_us {
            detector.stop_beats(s, c);
            fault_due.push((c, s, FaultKind::Crash));
        }
        for w in &f.slowdowns {
            fault_due.push((w.from_us, s, FaultKind::SlowDown));
        }
        for st in &f.stalls {
            fault_due.push((st.at_us, s, FaultKind::Stall));
        }
    }
    fault_due.sort_unstable_by_key(|&(t, s, _)| (t, s));
    let mut next_fault = 0usize;
    let mut hedges_due: Vec<(u64, u64)> = Vec::new(); // (due_us, job id)

    // A run may not end before every planned crash has fired AND matured
    // to a down verdict: exiting early is exactly the wall-clock race that
    // made fast runs miss their own fault script.
    let crash_victims: Vec<usize> = (0..n_servers)
        .filter(|&s| plan.server(s).crash_us.is_some())
        .collect();

    loop {
        let t = now_us();
        // Book plan faults as they fire; a crash also kills its worker via
        // the flag + channel-close handshake.
        while next_fault < fault_due.len() && fault_due[next_fault].0 <= t {
            let (_, s, kind) = fault_due[next_fault];
            core.record_fault(s, kind, t);
            if kind == FaultKind::Crash {
                crash_flags[s].store(true, Ordering::Release);
                work_txs[s] = None;
            }
            next_fault += 1;
        }
        // Heartbeat sweep: push detector verdicts into the core, and
        // requeue whatever a newly-down server still holds.
        for s in 0..n_servers {
            match detector.classify(s, t) {
                Health::Up => {}
                Health::Suspected => core.mark_suspected(s, t),
                Health::Down => {
                    core.mark_down(s, t);
                    flight.server_lost(&mut core, s, t);
                }
            }
        }
        // Autoscaler evaluation + warm-up completions + backoff releases,
        // all against the same wall clock the simulated engine models with
        // its AutoscaleTick / ServerReady / RequeueDue events.
        if next_tick.is_some_and(|due| due <= t) {
            for action in core.autoscale_tick(t) {
                match action {
                    ScaleAction::Out { server, ready_us } => pending_ready.push((ready_us, server)),
                    ScaleAction::In { server } => flight.server_lost(&mut core, server, t),
                }
            }
            next_tick = Some(t.saturating_add(autoscale.eval_every_us.max(1)));
        }
        for (_, server) in pending_ready.extract_if(.., |&mut (due, _)| due <= t) {
            flight.server_ready(&mut core, server, work_txs[server].is_some(), t);
        }
        core.release_parked(t);
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival_us <= t {
            core.offer(arrivals[next_arrival].clone(), t);
            next_arrival += 1;
        }
        // Hands a started copy to its worker. A dead worker's channel is
        // closed; the copy stays in flight until the down verdict above
        // recovers it.
        let send = |flight: &InFlight, copy: Started| {
            if let Some(tx) = &work_txs[copy.server] {
                let _ = tx.send((flight.job(copy.server).clone(), copy.instance));
            }
        };
        let t = now_us();
        for copy in flight.dispatch(&mut core, t) {
            // A cache hit never reaches a worker: the artifact already
            // exists, so the job completes on the spot for the lookup cost
            // (sub-millisecond against the wall clock — booked as zero).
            if copy.cached_us.is_some() {
                flight.finish(&mut core, copy.server, Outcome::Finished { bytes: None }, t);
                makespan = makespan.max(t);
                continue;
            }
            hedges_due.extend(copy.hedge_due_us.map(|due| (due, copy.id)));
            send(&flight, copy);
        }
        // Launch due hedges; first completion wins.
        let t = now_us();
        for (_, id) in hedges_due.extract_if(.., |&mut (due, _)| due <= t) {
            if let Some(copy) = flight.hedge(&mut core, id, t) {
                send(&flight, copy);
            }
        }
        makespan = makespan.max(now_us());
        let crashes_matured = next_fault == fault_due.len()
            && crash_victims
                .iter()
                .all(|&s| core.health()[s] == Health::Down);
        if next_arrival == arrivals.len() && flight.is_empty() {
            if core.queued() == 0 && core.parked_count() == 0 && crashes_matured {
                break;
            }
            // Whole fleet down with work still queued: nothing can ever be
            // served again; settle the books so every admitted job reaches
            // a terminal state.
            if core.health().iter().all(|&h| h == Health::Down) {
                core.shed_stranded(now_us());
                break;
            }
        }

        // Sleep until the next arrival is due or a completion lands.
        let wait_us = if next_arrival < arrivals.len() {
            arrivals[next_arrival].arrival_us.saturating_sub(now_us())
        } else {
            5_000
        }
        .clamp(100, 5_000);
        match done_rx.recv_timeout(Duration::from_micros(wait_us)) {
            // A report for a copy already drained off a lost server (it
            // raced the down verdict or the scale-in) is dropped.
            Ok(done) if flight.holds(done.server, done.instance) => {
                let t = now_us();
                flight.finish(&mut core, done.server, done.outcome, t);
                makespan = makespan.max(t);
            }
            Ok(_) | Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every worker is gone (all crashed). Keep sweeping so the
                // detector's down verdicts recover what they held, but
                // don't spin while waiting for them to mature.
                if flight.is_empty()
                    && core.queued() == 0
                    && core.parked_count() == 0
                    && next_arrival == arrivals.len()
                    && crashes_matured
                {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
        }
    }

    drop(work_txs);
    for w in workers {
        let _ = w.join();
    }

    let assignments = core.assignments().to_vec();
    let (report, event_log, obs) = core.finish(seed, makespan);
    Ok(SimOutcome {
        report,
        event_log,
        assignments,
        obs,
    })
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
