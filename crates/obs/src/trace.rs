//! Per-job lifecycle tracing.
//!
//! A [`JobTracker`] shadows the serving event stream — admit → enqueue →
//! dispatch → (fault / requeue / hedge)* → terminal — and keeps one
//! structured record per job. From that record alone the conservation and
//! exactly-once invariants are checkable ([`JobTracker::check_conservation`]):
//! every admitted job reaches exactly one terminal state, every dispatch
//! span is closed, and nothing completes twice.
//!
//! Two export formats, both byte-deterministic per seed:
//! * [`JobTracker::render_text`] — a plain-text job log, one block per job
//!   in job-id order.
//! * [`JobTracker::add_chrome_tracks`] — Chrome trace-event tracks (one
//!   `tid` per job under a dedicated `pid`), with queued/attempt spans and
//!   requeue/hedge/shed instants, loadable in Perfetto alongside the
//!   wall-clock trace.

use std::collections::BTreeMap;

use vtx_telemetry::chrome::ChromeTrace;
use vtx_telemetry::ArgValue;

/// The `pid` used for per-job lifecycle tracks in Chrome trace output
/// (the wall-clock trace uses `vtx_telemetry::chrome::WALL_PID` = 1).
pub const JOB_PID: u64 = 2;

/// Why a dispatch span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanEnd {
    /// The attempt finished the job.
    Completed,
    /// The server faulted mid-flight; the job was requeued or shed.
    Faulted,
    /// The attempt timed out.
    TimedOut,
    /// A hedge twin was discarded after the other copy won.
    Discarded,
    /// The run ended with the attempt still in flight.
    Stranded,
}

impl SpanEnd {
    fn name(self) -> &'static str {
        match self {
            SpanEnd::Completed => "completed",
            SpanEnd::Faulted => "faulted",
            SpanEnd::TimedOut => "timed_out",
            SpanEnd::Discarded => "discarded",
            SpanEnd::Stranded => "stranded",
        }
    }
}

/// One dispatch attempt (primary or hedge) of one job on one server.
#[derive(Debug, Clone)]
struct AttemptSpan {
    /// Server index the attempt ran on.
    pub(crate) server: usize,
    /// Attempt ordinal as reported by the dispatcher (0-based; hedges share
    /// the ordinal of the primary they shadow).
    pub(crate) attempt: u32,
    /// Dispatch time, microseconds.
    pub(crate) start_us: u64,
    /// End time; `None` while in flight.
    pub(crate) end_us: Option<u64>,
    /// How the span ended; `None` while in flight.
    pub(crate) end: Option<SpanEnd>,
    /// Whether this span is a hedge twin.
    pub(crate) hedge: bool,
}

/// Terminal state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Terminal {
    /// Completed on some server.
    Completed {
        /// Completion time, microseconds.
        t_us: u64,
        /// End-to-end sojourn, microseconds.
        sojourn_us: u64,
        /// Whether the deadline was missed.
        violation: bool,
    },
    /// Shed (at admission, on queue overflow, on expiry, or stranded).
    Shed {
        /// Shed time, microseconds.
        t_us: u64,
        /// Deterministic reason label.
        reason: String,
    },
}

/// Full lifecycle record of one job.
#[derive(Debug, Clone)]
struct JobRecord {
    /// Job id.
    pub(crate) id: u64,
    /// Service class index (set at admission).
    pub(crate) class: usize,
    /// Arrival time, microseconds.
    pub(crate) arrive_us: u64,
    /// Admission time; `None` if the job was shed at the door.
    pub(crate) admit_us: Option<u64>,
    /// Dispatch attempts in dispatch order.
    pub(crate) spans: Vec<AttemptSpan>,
    /// Terminal state; `None` only for a malformed stream.
    pub(crate) terminal: Option<Terminal>,
    /// Requeue count.
    pub(crate) requeues: u32,
}

impl JobRecord {
    fn new(id: u64, arrive_us: u64) -> Self {
        JobRecord {
            id,
            class: 0,
            arrive_us,
            admit_us: None,
            spans: Vec::new(),
            terminal: None,
            requeues: 0,
        }
    }

    fn close_span(&mut self, server: usize, t_us: u64, end: SpanEnd) -> bool {
        if let Some(span) = self
            .spans
            .iter_mut()
            .find(|s| s.server == server && s.end.is_none())
        {
            span.end_us = Some(t_us);
            span.end = Some(end);
            true
        } else {
            false
        }
    }
}

/// Aggregate invariants over the whole trace (see
/// [`JobTracker::check_conservation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationStats {
    /// Jobs that arrived.
    pub arrived: u64,
    /// Jobs admitted past the door.
    pub(crate) admitted: u64,
    /// Jobs with a `Completed` terminal.
    pub completed: u64,
    /// Jobs with a `Shed` terminal.
    pub shed: u64,
    /// Total dispatch attempts (including hedges).
    pub(crate) attempts: u64,
}

/// Tracks per-job lifecycles from the deterministic serving event stream.
#[derive(Debug, Clone, Default)]
pub struct JobTracker {
    jobs: BTreeMap<u64, JobRecord>,
    /// Invariant violations observed while ingesting (duplicate terminals,
    /// events for unknown jobs, ...). Deterministic order.
    anomalies: Vec<String>,
}

impl JobTracker {
    /// An empty tracker.
    pub(crate) fn new() -> Self {
        JobTracker::default()
    }

    /// Whether no jobs have been seen.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The record for `id`, if the job has been seen.
    #[cfg(test)]
    fn job(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    fn anomaly(&mut self, msg: String) {
        // Bounded so a malformed stream cannot balloon memory.
        if self.anomalies.len() < 64 {
            self.anomalies.push(msg);
        }
    }

    fn job_mut(&mut self, id: u64, t_us: u64) -> &mut JobRecord {
        self.jobs.entry(id).or_insert_with(|| {
            // Normally on_arrive creates the record; tolerate streams that
            // start mid-run by synthesizing an arrival at first sight.
            JobRecord::new(id, t_us)
        })
    }

    /// Job `id` arrived at `t_us`.
    pub(crate) fn on_arrive(&mut self, t_us: u64, id: u64) {
        if self.jobs.contains_key(&id) {
            self.anomaly(format!("job {id}: duplicate arrival at {t_us}"));
            return;
        }
        self.jobs.insert(id, JobRecord::new(id, t_us));
    }

    /// Job `id` was admitted into service class `class`.
    pub(crate) fn on_admit(&mut self, t_us: u64, id: u64, class: usize) {
        let job = self.job_mut(id, t_us);
        if job.admit_us.is_some() {
            self.anomaly(format!("job {id}: duplicate admit at {t_us}"));
            return;
        }
        job.admit_us = Some(t_us);
        job.class = class;
    }

    /// Job `id` was shed with a deterministic `reason` label.
    pub(crate) fn on_shed(&mut self, t_us: u64, id: u64, reason: &str) {
        let job = self.job_mut(id, t_us);
        if job.terminal.is_some() {
            self.anomaly(format!("job {id}: shed after terminal at {t_us}"));
            return;
        }
        // A shed mid-flight (stranded) may leave an open span; close it.
        job.close_span(usize::MAX, t_us, SpanEnd::Faulted);
        job.terminal = Some(Terminal::Shed {
            t_us,
            reason: reason.to_string(),
        });
    }

    /// Job `id` was dispatched to `server` (attempt `attempt`).
    pub(crate) fn on_dispatch(&mut self, t_us: u64, id: u64, server: usize, attempt: u32) {
        self.job_mut(id, t_us).spans.push(AttemptSpan {
            server,
            attempt,
            start_us: t_us,
            end_us: None,
            end: None,
            hedge: false,
        });
    }

    /// A hedge twin of job `id` was launched on `server`.
    pub(crate) fn on_hedge(&mut self, t_us: u64, id: u64, server: usize) {
        let job = self.job_mut(id, t_us);
        let attempt = job.spans.last().map_or(0, |s| s.attempt);
        job.spans.push(AttemptSpan {
            server,
            attempt,
            start_us: t_us,
            end_us: None,
            end: None,
            hedge: true,
        });
    }

    /// Job `id` completed on `server`.
    pub(crate) fn on_complete(
        &mut self,
        t_us: u64,
        id: u64,
        server: usize,
        sojourn_us: u64,
        violation: bool,
    ) {
        let job = self.job_mut(id, t_us);
        if job.terminal.is_some() {
            self.anomaly(format!("job {id}: completed twice (second at {t_us})"));
            return;
        }
        let closed = job.close_span(server, t_us, SpanEnd::Completed);
        job.terminal = Some(Terminal::Completed {
            t_us,
            sojourn_us,
            violation,
        });
        if !closed {
            self.anomaly(format!(
                "job {id}: completion on server {server} without open span"
            ));
        }
    }

    /// Job `id` timed out on `server` (it will be requeued or shed next).
    pub(crate) fn on_timeout(&mut self, t_us: u64, id: u64, server: usize) {
        let closed = self
            .job_mut(id, t_us)
            .close_span(server, t_us, SpanEnd::TimedOut);
        if !closed {
            self.anomaly(format!(
                "job {id}: timeout on server {server} without open span"
            ));
        }
    }

    /// Job `id` was requeued off faulted `server`.
    pub(crate) fn on_requeue(&mut self, t_us: u64, id: u64, server: usize) {
        let job = self.job_mut(id, t_us);
        job.requeues += 1;
        // The span may already be closed if a timeout preceded the requeue.
        job.close_span(server, t_us, SpanEnd::Faulted);
    }

    /// The losing hedge twin of job `id` on `server` was discarded.
    pub(crate) fn on_hedge_discard(&mut self, t_us: u64, id: u64, server: usize) {
        let job = self.job_mut(id, t_us);
        job.close_span(server, t_us, SpanEnd::Discarded);
    }

    /// The run ended at `makespan_us`: close any still-open spans as
    /// stranded so exported traces never contain dangling intervals.
    pub(crate) fn on_finish(&mut self, makespan_us: u64) {
        for job in self.jobs.values_mut() {
            for span in &mut job.spans {
                if span.end.is_none() {
                    span.end_us = Some(makespan_us.max(span.start_us));
                    span.end = Some(SpanEnd::Stranded);
                }
            }
        }
    }

    /// Checks conservation and exactly-once invariants from the trace alone.
    ///
    /// Returns aggregate counts on success; on failure, a deterministic
    /// description of the first problems found. Invariants:
    /// * every arrived job is either admitted or shed (no lost jobs);
    /// * every admitted job has exactly one terminal state;
    /// * no duplicate completions/sheds were ingested (anomaly log empty);
    /// * every dispatch span is closed (call `JobTracker::on_finish` first).
    pub fn check_conservation(&self) -> Result<ConservationStats, String> {
        if !self.anomalies.is_empty() {
            return Err(format!(
                "{} stream anomalies; first: {}",
                self.anomalies.len(),
                self.anomalies[0]
            ));
        }
        let mut stats = ConservationStats {
            arrived: 0,
            admitted: 0,
            completed: 0,
            shed: 0,
            attempts: 0,
        };
        for job in self.jobs.values() {
            stats.arrived += 1;
            if job.admit_us.is_some() {
                stats.admitted += 1;
            }
            stats.attempts += job.spans.len() as u64;
            match &job.terminal {
                Some(Terminal::Completed { .. }) => stats.completed += 1,
                Some(Terminal::Shed { .. }) => stats.shed += 1,
                None => {
                    return Err(format!("job {}: no terminal state", job.id));
                }
            }
            if let Some(span) = job.spans.iter().find(|s| s.end.is_none()) {
                return Err(format!(
                    "job {}: open span on server {} (call on_finish first)",
                    job.id, span.server
                ));
            }
        }
        if stats.completed + stats.shed != stats.arrived {
            return Err(format!(
                "conservation broken: {} arrived != {} completed + {} shed",
                stats.arrived, stats.completed, stats.shed
            ));
        }
        Ok(stats)
    }

    /// Plain-text job log: one block per job in id order, deterministic.
    pub fn render_text(&self, class_names: &[&str]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for job in self.jobs.values() {
            let class = class_names.get(job.class).copied().unwrap_or("?");
            let _ = write!(
                out,
                "job {:>6} class={class} arrive={}",
                job.id, job.arrive_us
            );
            match job.admit_us {
                Some(t) => {
                    let _ = write!(out, " admit={t}");
                }
                None => out.push_str(" admit=-"),
            }
            let _ = writeln!(out);
            for span in &job.spans {
                let kind = if span.hedge { "hedge   " } else { "dispatch" };
                let end_us = span.end_us.unwrap_or(0);
                let end = span.end.map_or("open", SpanEnd::name);
                let _ = writeln!(
                    out,
                    "  {kind} attempt={} server={} start={} end={end_us} outcome={end}",
                    span.attempt, span.server, span.start_us
                );
            }
            match &job.terminal {
                Some(Terminal::Completed {
                    t_us,
                    sojourn_us,
                    violation,
                }) => {
                    let _ = writeln!(
                        out,
                        "  complete t={t_us} sojourn={sojourn_us} violation={violation}"
                    );
                }
                Some(Terminal::Shed { t_us, reason }) => {
                    let _ = writeln!(out, "  shed t={t_us} reason={reason}");
                }
                None => {
                    let _ = writeln!(out, "  (no terminal)");
                }
            }
        }
        out
    }

    /// Appends per-job tracks to a Chrome trace: one thread per job under
    /// [`JOB_PID`], a `queued` span from admission to first dispatch, an
    /// `attempt` span per dispatch, and instants for requeues and sheds.
    pub fn add_chrome_tracks(&self, trace: &mut ChromeTrace, class_names: &[&str]) {
        trace.add_process_name(JOB_PID, "vtx jobs");
        for job in self.jobs.values() {
            let class = class_names.get(job.class).copied().unwrap_or("?");
            let tid = job.id;
            let name = format!("job {} ({class})", job.id);
            trace.add_thread_name(JOB_PID, tid, &name);
            if let Some(admit) = job.admit_us {
                let first_dispatch = job
                    .spans
                    .first()
                    .map(|s| s.start_us)
                    .or(match &job.terminal {
                        Some(Terminal::Shed { t_us, .. }) => Some(*t_us),
                        _ => None,
                    })
                    .unwrap_or(admit);
                trace.add_complete(
                    "queued",
                    "job",
                    admit,
                    first_dispatch.saturating_sub(admit),
                    (JOB_PID, tid),
                    &[("class", ArgValue::Str(class.to_string()))],
                );
            }
            for span in &job.spans {
                let name = if span.hedge { "hedge" } else { "attempt" };
                let end_us = span.end_us.unwrap_or(span.start_us);
                trace.add_complete(
                    name,
                    "job",
                    span.start_us,
                    end_us.saturating_sub(span.start_us),
                    (JOB_PID, tid),
                    &[
                        ("server", ArgValue::U64(span.server as u64)),
                        ("attempt", ArgValue::U64(u64::from(span.attempt))),
                        (
                            "outcome",
                            ArgValue::Str(span.end.map_or("open", SpanEnd::name).to_string()),
                        ),
                    ],
                );
            }
            if job.requeues > 0 {
                for span in job.spans.iter().filter(|s| s.end == Some(SpanEnd::Faulted)) {
                    trace.add_instant(
                        "requeue",
                        "job",
                        span.end_us.unwrap_or(span.start_us),
                        JOB_PID,
                        tid,
                        &[("server", ArgValue::U64(span.server as u64))],
                    );
                }
            }
            match &job.terminal {
                Some(Terminal::Shed { t_us, reason }) => {
                    trace.add_instant(
                        "shed",
                        "job",
                        *t_us,
                        JOB_PID,
                        tid,
                        &[("reason", ArgValue::Str(reason.clone()))],
                    );
                }
                Some(Terminal::Completed {
                    t_us, violation, ..
                }) if *violation => {
                    trace.add_instant("slo_violation", "job", *t_us, JOB_PID, tid, &[]);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn happy_job(tr: &mut JobTracker, id: u64, t0: u64) {
        tr.on_arrive(t0, id);
        tr.on_admit(t0, id, 1);
        tr.on_dispatch(t0 + 10, id, 3, 0);
        tr.on_complete(t0 + 500, id, 3, 500, false);
    }

    #[test]
    fn happy_path_conserves() {
        let mut tr = JobTracker::new();
        happy_job(&mut tr, 1, 0);
        happy_job(&mut tr, 2, 100);
        tr.on_finish(1000);
        let stats = tr.check_conservation().expect("conserves");
        assert_eq!(stats.arrived, 2);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.attempts, 2);
    }

    #[test]
    fn fault_requeue_then_complete_is_one_terminal() {
        let mut tr = JobTracker::new();
        tr.on_arrive(0, 9);
        tr.on_admit(0, 9, 0);
        tr.on_dispatch(5, 9, 1, 0);
        tr.on_requeue(200, 9, 1);
        tr.on_dispatch(220, 9, 2, 1);
        tr.on_complete(700, 9, 2, 700, true);
        tr.on_finish(1000);
        let stats = tr.check_conservation().unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.attempts, 2);
        let job = tr.job(9).unwrap();
        assert_eq!(job.requeues, 1);
        assert_eq!(job.spans[0].end, Some(SpanEnd::Faulted));
        assert_eq!(job.spans[1].end, Some(SpanEnd::Completed));
    }

    #[test]
    fn hedge_twin_discard_is_tracked() {
        let mut tr = JobTracker::new();
        tr.on_arrive(0, 4);
        tr.on_admit(0, 4, 2);
        tr.on_dispatch(10, 4, 0, 0);
        tr.on_hedge(300, 4, 5);
        tr.on_complete(400, 4, 5, 400, false);
        tr.on_hedge_discard(400, 4, 0);
        tr.on_finish(500);
        let stats = tr.check_conservation().unwrap();
        assert_eq!(stats.attempts, 2);
        let job = tr.job(4).unwrap();
        assert!(job.spans[1].hedge);
        assert_eq!(job.spans[0].end, Some(SpanEnd::Discarded));
        assert_eq!(job.spans[1].end, Some(SpanEnd::Completed));
    }

    #[test]
    fn double_completion_is_an_anomaly() {
        let mut tr = JobTracker::new();
        happy_job(&mut tr, 1, 0);
        tr.on_complete(900, 1, 3, 900, false);
        tr.on_finish(1000);
        let err = tr.check_conservation().unwrap_err();
        assert!(err.contains("completed twice"), "{err}");
    }

    #[test]
    fn missing_terminal_is_caught() {
        let mut tr = JobTracker::new();
        tr.on_arrive(0, 1);
        tr.on_admit(0, 1, 0);
        tr.on_dispatch(5, 1, 0, 0);
        tr.on_finish(100);
        let err = tr.check_conservation().unwrap_err();
        assert!(err.contains("no terminal"), "{err}");
    }

    #[test]
    fn shed_at_door_conserves() {
        let mut tr = JobTracker::new();
        tr.on_arrive(0, 1);
        tr.on_shed(0, 1, "queue_full");
        tr.on_finish(10);
        let stats = tr.check_conservation().unwrap();
        assert_eq!(stats.arrived, 1);
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.shed, 1);
    }

    #[test]
    fn render_text_is_deterministic_and_ordered() {
        let build = || {
            let mut tr = JobTracker::new();
            happy_job(&mut tr, 7, 50);
            happy_job(&mut tr, 2, 0);
            tr.on_finish(1000);
            tr.render_text(&["interactive", "standard", "batch"])
        };
        let a = build();
        assert_eq!(a, build());
        // Job-id order regardless of insertion order.
        let p2 = a.find("job      2").unwrap();
        let p7 = a.find("job      7").unwrap();
        assert!(p2 < p7, "{a}");
        assert!(a.contains("class=standard"));
        assert!(a.contains("outcome=completed"));
    }

    #[test]
    fn chrome_tracks_cover_all_jobs() {
        let mut tr = JobTracker::new();
        happy_job(&mut tr, 1, 0);
        tr.on_arrive(10, 2);
        tr.on_shed(10, 2, "deadline_expired");
        tr.on_finish(1000);
        let mut chrome = ChromeTrace::new();
        tr.add_chrome_tracks(&mut chrome, &["interactive", "standard", "batch"]);
        let json = chrome.to_json();
        assert!(json.contains("\"vtx jobs\""));
        assert!(json.contains("\"queued\""));
        assert!(json.contains("\"attempt\""));
        assert!(json.contains("\"shed\""));
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("deadline_expired"));
    }
}
