//! Bounded per-priority admission queues with backpressure and shedding.
//!
//! Admission control is the first line of defense of an overloaded serving
//! system: unbounded queues turn overload into unbounded latency for
//! *everyone*. Each service class gets its own bounded FIFO; when a class
//! queue is full the queue exerts backpressure by refusing the job —
//! except that an arriving higher-priority job may shed the *newest* job of
//! the lowest-priority backlogged class instead (load shedding), so
//! interactive traffic survives batch floods. Jobs whose deadline passes
//! while still queued are dropped at dispatch time (they could only waste a
//! server).
//!
//! Internally each class is an *indexed* FIFO rather than a plain
//! `VecDeque`: jobs live in a `BTreeMap` keyed by a monotonically assigned
//! sequence key (FIFO = ascending key, front-insertion = descending keys
//! below the start), with an earliest-deadline index per class and a global
//! id index. That keeps every hot-path operation — `AdmissionQueue::take`
//! by id, `AdmissionQueue::candidates`, and the
//! `AdmissionQueue::drop_expired` sweep — logarithmic in the backlog,
//! which is what lets the XL discrete-event engine dispatch against
//! thousand-deep queues without per-event O(queue) scans. The observable
//! ordering contract is unchanged from the `VecDeque` version.

use std::collections::{BTreeMap, BTreeSet};

use crate::workload::{JobSpec, Priority};

/// First sequence key handed out; front-insertions count down from here.
const SEQ_MID: u64 = u64::MAX / 2;

/// One service class: an indexed FIFO with an earliest-deadline view.
#[derive(Debug, Clone)]
struct ClassQueue {
    /// Sequence key → job. FIFO order is ascending key order.
    jobs: BTreeMap<u64, PendingJob>,
    /// `(deadline_us, id, seqkey)` — EDF order with a total tie-break.
    by_deadline: BTreeSet<(u64, u64, u64)>,
    /// Next key for a front insertion (pre-decremented).
    front: u64,
    /// Next key for a back insertion (post-incremented).
    back: u64,
}

impl ClassQueue {
    fn new() -> Self {
        ClassQueue {
            jobs: BTreeMap::new(),
            by_deadline: BTreeSet::new(),
            front: SEQ_MID,
            back: SEQ_MID,
        }
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn insert_back(&mut self, job: PendingJob) -> u64 {
        let k = self.back;
        self.back += 1;
        self.by_deadline
            .insert((job.spec.deadline_us, job.spec.id, k));
        self.jobs.insert(k, job);
        k
    }

    fn insert_front(&mut self, job: PendingJob) -> u64 {
        self.front -= 1;
        let k = self.front;
        self.by_deadline
            .insert((job.spec.deadline_us, job.spec.id, k));
        self.jobs.insert(k, job);
        k
    }

    fn remove_key(&mut self, k: u64) -> Option<PendingJob> {
        let job = self.jobs.remove(&k)?;
        self.by_deadline
            .remove(&(job.spec.deadline_us, job.spec.id, k));
        Some(job)
    }

    /// Removes the newest back-of-line job (the displacement victim).
    fn pop_back(&mut self) -> Option<PendingJob> {
        let (&k, _) = self.jobs.last_key_value()?;
        self.remove_key(k)
    }

    /// Removes the displacement victim under a rung table: the queued unit
    /// on the *highest-quality* rung (lowest rung index, `hi` = 0) goes
    /// first, newest within a rung — shedding a `hi` rendition of one job
    /// beats shedding a whole competing job. Falls back to [`pop_back`]
    /// when no table is set (whole-clip runs).
    ///
    /// [`pop_back`]: ClassQueue::pop_back
    fn pop_victim(&mut self, rungs: &[u8]) -> Option<PendingJob> {
        if rungs.is_empty() {
            return self.pop_back();
        }
        let k = self
            .jobs
            .iter()
            .map(|(&k, j)| {
                let r = rungs.get(j.spec.id as usize).copied().unwrap_or(0);
                (r, std::cmp::Reverse(k))
            })
            .min()
            .map(|(_, std::cmp::Reverse(k))| k)?;
        self.remove_key(k)
    }

    fn min_deadline(&self) -> Option<u64> {
        self.by_deadline.first().map(|&(d, _, _)| d)
    }
}

/// Why a job was shed rather than served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Its class queue (and anything lower-priority it could displace) was
    /// full at arrival.
    QueueFull,
    /// A higher-priority arrival displaced it.
    Displaced,
    /// Its deadline passed while it was still queued.
    Expired,
    /// It timed out on a server more times than the retry budget allows.
    RetriesExhausted,
    /// Its tenant's token bucket was empty at arrival (per-tenant
    /// admission quota exceeded; see
    /// [`crate::service::TenantAdmissionConfig`]).
    Throttled,
}

impl ShedReason {
    /// Short name used in event logs and reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Displaced => "displaced",
            ShedReason::Expired => "expired",
            ShedReason::RetriesExhausted => "retries_exhausted",
            ShedReason::Throttled => "throttled",
        }
    }
}

/// Queue sizing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueConfig {
    /// Per-class capacity, [`Priority::ALL`] order.
    pub per_class_cap: [usize; 3],
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            per_class_cap: [16, 32, 64],
        }
    }
}

/// A job waiting in (or flowing through) the service: the immutable spec
/// plus its service history so far.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// The trace entry.
    pub spec: JobSpec,
    /// When the service admitted it (µs).
    pub admitted_us: u64,
    /// Dispatch attempts so far (0 = never dispatched).
    pub attempts: u32,
}

/// Outcome of offering a job to the queue.
#[derive(Debug, PartialEq)]
pub(crate) enum Admission {
    /// Job queued.
    Admitted,
    /// Job queued after displacing a lower-priority job (returned).
    AdmittedDisplacing(PendingJob),
    /// Job refused: everything it could use or displace is full.
    Refused(PendingJob),
}

/// Bounded, priority-segregated admission queue.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionQueue {
    classes: [ClassQueue; 3],
    /// Job id → (class index, sequence key). Queued ids are unique: a job
    /// is either queued or in flight, never both.
    index: BTreeMap<u64, (usize, u64)>,
    cfg: QueueConfig,
    /// Ladder rung per job id (0 = `hi`) on segmented runs; empty on
    /// whole-clip runs. Switches displacement from job-granular newest-
    /// first to unit-granular rung-ordered (see [`ClassQueue::pop_victim`]).
    rungs: Vec<u8>,
}

impl AdmissionQueue {
    /// Creates an empty queue with the given sizing.
    pub(crate) fn new(cfg: QueueConfig) -> Self {
        AdmissionQueue {
            classes: [ClassQueue::new(), ClassQueue::new(), ClassQueue::new()],
            index: BTreeMap::new(),
            cfg,
            rungs: Vec::new(),
        }
    }

    /// Installs the per-unit rung table (indexed by job id, 0 = `hi`) that
    /// makes displacement unit-granular and rung-ordered. An empty table
    /// restores the legacy job-granular newest-first victim choice.
    pub(crate) fn set_rung_table(&mut self, rungs: Vec<u8>) {
        self.rungs = rungs;
    }

    /// Total queued jobs.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Queued jobs in one class.
    #[cfg(test)]
    fn depth(&self, p: Priority) -> usize {
        self.classes[p.index()].len()
    }

    /// Displaces from the lowest-priority backlogged class strictly below
    /// `k`, if any: the newest job (whole-clip runs), or the newest unit
    /// on the highest-quality rung when a rung table is installed — so the
    /// `hi` rendition is shed before anything that would cost a whole job.
    fn displace_below(&mut self, k: usize) -> Option<PendingJob> {
        for lower in (k + 1..Priority::ALL.len()).rev() {
            if let Some(victim) = self.classes[lower].pop_victim(&self.rungs) {
                self.index.remove(&victim.spec.id);
                return Some(victim);
            }
        }
        None
    }

    /// Offers a job. The job lands at the back of its class queue; if that
    /// queue is full, the *newest* job of the lowest-priority class with a
    /// strictly lower priority is displaced to make room. Equal-or-higher
    /// priority jobs are never displaced, and a full Batch queue refuses
    /// batch arrivals outright (pure backpressure).
    pub(crate) fn offer(&mut self, job: PendingJob) -> Admission {
        let k = job.spec.priority.index();
        let id = job.spec.id;
        if self.classes[k].len() < self.cfg.per_class_cap[k] {
            let key = self.classes[k].insert_back(job);
            self.index.insert(id, (k, key));
            return Admission::Admitted;
        }
        // Class full: try to displace from the lowest-priority backlogged
        // class below this job's priority.
        if let Some(victim) = self.displace_below(k) {
            let key = self.classes[k].insert_back(job);
            self.index.insert(id, (k, key));
            return Admission::AdmittedDisplacing(victim);
        }
        Admission::Refused(job)
    }

    /// Offers a job at the *front* of its class queue. Used when recovery
    /// requeues an in-flight job off a failed server: the job already
    /// waited its turn once, so it should not go to the back of the line.
    /// Capacity and displacement rules are identical to [`Self::offer`].
    pub(crate) fn offer_front(&mut self, job: PendingJob) -> Admission {
        let k = job.spec.priority.index();
        let id = job.spec.id;
        if self.classes[k].len() < self.cfg.per_class_cap[k] {
            let key = self.classes[k].insert_front(job);
            self.index.insert(id, (k, key));
            return Admission::Admitted;
        }
        if let Some(victim) = self.displace_below(k) {
            let key = self.classes[k].insert_front(job);
            self.index.insert(id, (k, key));
            return Admission::AdmittedDisplacing(victim);
        }
        Admission::Refused(job)
    }

    /// Removes and returns everything queued, class order. Used to settle
    /// accounting when the whole fleet has failed and nothing can ever be
    /// served again.
    pub(crate) fn drain_all(&mut self) -> Vec<PendingJob> {
        let mut out = Vec::with_capacity(self.len());
        for q in &mut self.classes {
            // FIFO order = ascending sequence key.
            while let Some((&k, _)) = q.jobs.first_key_value() {
                let job = q.remove_key(k).expect("key just observed");
                self.index.remove(&job.spec.id);
                out.push(job);
            }
        }
        out
    }

    /// Removes and returns every queued job whose deadline has passed,
    /// FIFO order within each class (matching the historical scan order).
    pub(crate) fn drop_expired(&mut self, now_us: u64) -> Vec<PendingJob> {
        let mut dropped = Vec::new();
        for q in &mut self.classes {
            if q.min_deadline().is_none_or(|d| d > now_us) {
                continue;
            }
            let mut keys: Vec<u64> = q
                .by_deadline
                .iter()
                .take_while(|&&(d, _, _)| d <= now_us)
                .map(|&(_, _, k)| k)
                .collect();
            keys.sort_unstable();
            for k in keys {
                let job = q.remove_key(k).expect("indexed key");
                self.index.remove(&job.spec.id);
                dropped.push(job);
            }
        }
        dropped
    }

    /// The first `limit` dispatch candidates: strict priority order, and
    /// earliest-deadline-first within a class (FIFO ties broken by id, so
    /// the order is total and deterministic). Reads the per-class deadline
    /// index directly — no sort, O(limit · log backlog).
    pub(crate) fn candidates(&self, limit: usize) -> Vec<&PendingJob> {
        let mut out: Vec<&PendingJob> = Vec::new();
        for q in &self.classes {
            for &(_, _, k) in &q.by_deadline {
                if out.len() == limit {
                    return out;
                }
                out.push(&q.jobs[&k]);
            }
        }
        out
    }

    /// Removes a specific job by id (after the policy chose it).
    pub(crate) fn take(&mut self, id: u64) -> Option<PendingJob> {
        let (class, key) = self.index.remove(&id)?;
        self.classes[class].remove_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_codec::Preset;
    use vtx_sched::TranscodeTask;

    fn job(id: u64, priority: Priority, deadline_us: u64) -> PendingJob {
        PendingJob {
            spec: JobSpec {
                id,
                arrival_us: 0,
                task: TranscodeTask::new("bike", 23, 3, Preset::Medium),
                priority,
                deadline_us,
                timeout_us: 1_000_000,
            },
            admitted_us: 0,
            attempts: 0,
        }
    }

    fn tiny() -> AdmissionQueue {
        AdmissionQueue::new(QueueConfig {
            per_class_cap: [1, 1, 1],
        })
    }

    #[test]
    fn admits_until_full_then_refuses() {
        let mut q = tiny();
        assert_eq!(q.offer(job(0, Priority::Batch, 100)), Admission::Admitted);
        match q.offer(job(1, Priority::Batch, 100)) {
            Admission::Refused(j) => assert_eq!(j.spec.id, 1),
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn higher_priority_displaces_newest_lowest() {
        let mut q = tiny();
        q.offer(job(0, Priority::Interactive, 100));
        q.offer(job(1, Priority::Batch, 100));
        // Interactive queue full; batch job 1 is the victim.
        match q.offer(job(2, Priority::Interactive, 100)) {
            Admission::AdmittedDisplacing(v) => assert_eq!(v.spec.id, 1),
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(q.depth(Priority::Interactive), 2);
        assert_eq!(q.depth(Priority::Batch), 0);
    }

    #[test]
    fn rung_table_makes_displacement_rung_ordered() {
        let mut q = AdmissionQueue::new(QueueConfig {
            per_class_cap: [1, 1, 4],
        });
        // Unit rungs by job id: 0→mid, 1→hi, 2→lo, 3→hi.
        q.set_rung_table(vec![1, 0, 2, 0]);
        for id in 0..4 {
            assert_eq!(q.offer(job(id, Priority::Batch, 100)), Admission::Admitted);
        }
        q.offer(job(10, Priority::Interactive, 100));
        let displace =
            |q: &mut AdmissionQueue, id: u64| match q.offer(job(id, Priority::Interactive, 100)) {
                Admission::AdmittedDisplacing(v) => v.spec.id,
                other => panic!("expected displacement, got {other:?}"),
            };
        // hi-rung units go first (newest hi first), then mid, then lo —
        // NOT the plain newest-first order (which would start with 3, 2).
        assert_eq!(displace(&mut q, 11), 3, "newest hi unit first");
        assert_eq!(displace(&mut q, 12), 1, "older hi unit next");
        assert_eq!(displace(&mut q, 13), 0, "mid before lo");
        assert_eq!(displace(&mut q, 14), 2, "lo last");
    }

    #[test]
    fn equal_priority_is_never_displaced() {
        let mut q = tiny();
        q.offer(job(0, Priority::Standard, 100));
        match q.offer(job(1, Priority::Standard, 100)) {
            Admission::Refused(j) => assert_eq!(j.spec.id, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn drop_expired_removes_only_past_deadline() {
        let mut q = AdmissionQueue::new(QueueConfig::default());
        q.offer(job(0, Priority::Standard, 50));
        q.offer(job(1, Priority::Standard, 150));
        let dropped = q.drop_expired(100);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].spec.id, 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn candidates_are_priority_then_edf_ordered() {
        let mut q = AdmissionQueue::new(QueueConfig::default());
        q.offer(job(0, Priority::Batch, 10));
        q.offer(job(1, Priority::Interactive, 500));
        q.offer(job(2, Priority::Standard, 50));
        q.offer(job(3, Priority::Standard, 20));
        let ids: Vec<u64> = q.candidates(10).iter().map(|j| j.spec.id).collect();
        assert_eq!(ids, vec![1, 3, 2, 0]);
        let ids: Vec<u64> = q.candidates(2).iter().map(|j| j.spec.id).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn offer_front_jumps_the_class_line() {
        let mut q = AdmissionQueue::new(QueueConfig::default());
        q.offer(job(0, Priority::Standard, 100));
        q.offer_front(job(1, Priority::Standard, 100));
        // Same deadline: candidates tie-break by id, so check raw order via
        // displacement instead — the *newest* of the class is popped last.
        let ids: Vec<u64> = q.drain_all().iter().map(|j| j.spec.id).collect();
        assert_eq!(ids, vec![1, 0], "front-offered job sits at the head");
    }

    #[test]
    fn offer_front_respects_capacity_and_displacement() {
        let mut q = tiny();
        q.offer(job(0, Priority::Interactive, 100));
        q.offer(job(1, Priority::Batch, 100));
        match q.offer_front(job(2, Priority::Interactive, 100)) {
            Admission::AdmittedDisplacing(v) => assert_eq!(v.spec.id, 1),
            other => panic!("expected displacement, got {other:?}"),
        }
        // Batch is the lowest class: once its slot refills, a further
        // batch offer_front has nothing to displace and is refused.
        assert_eq!(
            q.offer_front(job(3, Priority::Batch, 100)),
            Admission::Admitted
        );
        match q.offer_front(job(4, Priority::Batch, 100)) {
            Admission::Refused(j) => assert_eq!(j.spec.id, 4),
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn drain_all_empties_every_class() {
        let mut q = AdmissionQueue::new(QueueConfig::default());
        q.offer(job(0, Priority::Batch, 100));
        q.offer(job(1, Priority::Interactive, 100));
        q.offer(job(2, Priority::Standard, 100));
        let drained = q.drain_all();
        assert_eq!(drained.len(), 3);
        assert!(q.is_empty());
        // Class order: interactive first.
        assert_eq!(drained[0].spec.id, 1);
    }

    #[test]
    fn take_removes_by_id() {
        let mut q = AdmissionQueue::new(QueueConfig::default());
        q.offer(job(7, Priority::Batch, 100));
        assert!(q.take(8).is_none());
        assert_eq!(q.take(7).unwrap().spec.id, 7);
        assert!(q.is_empty());
    }
}
