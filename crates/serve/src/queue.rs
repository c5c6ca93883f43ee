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
//! Each class is one flat ring buffer kept in `(deadline, id)` order, every
//! entry stamped with a sequence number that gives its FIFO place (front
//! insertions count down below the first back insertion). Capacities are
//! small (16/32/64 by default), so a binary-search insert and a linear
//! scan cost less than a tree walk and allocate nothing once a class has
//! grown to its high-water mark. The dispatch round reads the front of that
//! order (`AdmissionQueue::candidates`), its picks are found near the front
//! (`AdmissionQueue::take`), and the expired jobs are always a prefix
//! (`AdmissionQueue::drop_expired`); only displacement and the final drain
//! scan a whole class. Displacement admits past a class's cap (the victim
//! leaves a lower class), so a cap bounds what a class accepts on its own
//! account, not its length.

use std::collections::VecDeque;

use crate::workload::{JobSpec, Priority};

/// First sequence number handed out; front-insertions count down from here.
const SEQ_MID: u64 = u64::MAX / 2;

/// A queued job and its FIFO place.
#[derive(Debug, Clone)]
struct Queued {
    /// FIFO order is ascending `seq`.
    seq: u64,
    job: PendingJob,
}

impl Queued {
    /// The candidate order within a class: earliest deadline first, ties
    /// broken by id so the order is total.
    fn edf_key(&self) -> (u64, u64) {
        (self.job.spec.deadline_us, self.job.spec.id)
    }
}

/// One service class, in earliest-deadline order.
#[derive(Debug, Clone)]
struct ClassQueue {
    /// Sorted by [`Queued::edf_key`]. A ring, so the removals at the front
    /// (picks, expiries) shift only what lies before them.
    jobs: VecDeque<Queued>,
    /// Next sequence number for a front insertion (pre-decremented).
    front: u64,
    /// Next sequence number for a back insertion (post-incremented).
    back: u64,
}

impl ClassQueue {
    fn new(cap: usize) -> Self {
        ClassQueue {
            jobs: VecDeque::with_capacity(cap),
            front: SEQ_MID,
            back: SEQ_MID,
        }
    }

    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn insert(&mut self, seq: u64, job: PendingJob) {
        let q = Queued { seq, job };
        let at = self.jobs.partition_point(|e| e.edf_key() < q.edf_key());
        self.jobs.insert(at, q);
    }

    fn insert_back(&mut self, job: PendingJob) {
        let seq = self.back;
        self.back += 1;
        self.insert(seq, job);
    }

    fn insert_front(&mut self, job: PendingJob) {
        self.front -= 1;
        self.insert(self.front, job);
    }

    /// Removes the displacement victim: the newest job (largest `seq`) on
    /// whole-clip runs. Under a rung table the queued unit on the
    /// *highest-quality* rung (lowest rung index, `hi` = 0) goes first,
    /// newest within a rung — shedding a `hi` rendition of one job beats
    /// shedding a whole competing job.
    fn pop_victim(&mut self, rungs: &[u8]) -> Option<PendingJob> {
        let rung = |q: &Queued| rungs.get(q.job.spec.id as usize).copied().unwrap_or(0);
        let (at, _) = self
            .jobs
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (rung(q), std::cmp::Reverse(q.seq)))?;
        self.jobs.remove(at).map(|q| q.job)
    }

    /// Removes every job with a deadline at or before `now_us` into `out`,
    /// FIFO order. They are a prefix of the class's order.
    fn drain_expired(&mut self, now_us: u64, out: &mut Vec<PendingJob>) {
        if self
            .jobs
            .front()
            .is_none_or(|q| q.job.spec.deadline_us > now_us)
        {
            return;
        }
        let n = self
            .jobs
            .partition_point(|q| q.job.spec.deadline_us <= now_us);
        if n > 1 {
            self.jobs.make_contiguous()[..n].sort_unstable_by_key(|q| q.seq);
        }
        out.extend(self.jobs.drain(..n).map(|q| q.job));
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

/// Per-class queue capacity, [`Priority::ALL`] order.
pub(crate) const PER_CLASS_CAP: [usize; 3] = [16, 32, 64];

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

/// An emptied candidate list with `buf`'s allocation, under any lifetime.
/// Collecting an emptied `vec::IntoIter` into a `Vec` of a same-sized
/// element reuses its buffer, so a list the core keeps across rounds (as
/// `Vec<&'static PendingJob>`, empty between rounds) costs no allocation
/// once the first round has sized it.
pub(crate) fn recycle<'b>(mut buf: Vec<&PendingJob>) -> Vec<&'b PendingJob> {
    buf.clear();
    buf.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// Bounded, priority-segregated admission queue. Queued ids are unique: a
/// job is either queued or in flight, never both.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionQueue {
    classes: [ClassQueue; 3],
    /// Per-class capacity, [`Priority::ALL`] order.
    caps: [usize; 3],
    /// Ladder rung per job id (0 = `hi`) on segmented runs; empty on
    /// whole-clip runs. Switches displacement from job-granular newest-
    /// first to unit-granular rung-ordered (see [`ClassQueue::pop_victim`]).
    rungs: Vec<u8>,
}

impl AdmissionQueue {
    /// Creates an empty queue of [`PER_CLASS_CAP`] capacity.
    pub(crate) fn new() -> Self {
        Self::with_caps(PER_CLASS_CAP)
    }

    /// Creates an empty queue with per-class capacity `caps`.
    pub(crate) fn with_caps(caps: [usize; 3]) -> Self {
        AdmissionQueue {
            classes: caps.map(ClassQueue::new),
            caps,
            rungs: Vec::new(),
        }
    }

    /// Installs the per-unit rung table (indexed by job id, 0 = `hi`) that
    /// makes displacement unit-granular and rung-ordered. An empty table
    /// restores the job-granular newest-first victim choice.
    pub(crate) fn set_rung_table(&mut self, rungs: Vec<u8>) {
        self.rungs = rungs;
    }

    /// Total queued jobs.
    pub(crate) fn len(&self) -> usize {
        self.classes.iter().map(ClassQueue::len).sum()
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.classes.iter().all(|q| q.jobs.is_empty())
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
        if self.classes[k].len() < self.caps[k] {
            self.classes[k].insert_back(job);
            return Admission::Admitted;
        }
        // Class full: try to displace from the lowest-priority backlogged
        // class below this job's priority.
        if let Some(victim) = self.displace_below(k) {
            self.classes[k].insert_back(job);
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
        if self.classes[k].len() < self.caps[k] {
            self.classes[k].insert_front(job);
            return Admission::Admitted;
        }
        if let Some(victim) = self.displace_below(k) {
            self.classes[k].insert_front(job);
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
            q.drain_expired(u64::MAX, &mut out);
        }
        out
    }

    /// Removes and returns every queued job whose deadline has passed,
    /// FIFO order within each class (matching the historical scan order).
    pub(crate) fn drop_expired(&mut self, now_us: u64) -> Vec<PendingJob> {
        let mut dropped = Vec::new();
        for q in &mut self.classes {
            q.drain_expired(now_us, &mut dropped);
        }
        dropped
    }

    /// Replaces `out`'s contents with the first `limit` dispatch
    /// candidates: strict priority order, and earliest-deadline-first
    /// within a class (ties broken by id, so the order is total and
    /// deterministic). O(limit): each class is kept in that order.
    pub(crate) fn candidates<'a>(&'a self, limit: usize, out: &mut Vec<&'a PendingJob>) {
        out.clear();
        for q in &self.classes {
            let room = limit - out.len();
            out.extend(q.jobs.iter().take(room).map(|q| &q.job));
        }
    }

    /// Removes a specific job by id (after the policy chose it). Picks come
    /// from the front of the candidate order, so the scan is short.
    pub(crate) fn take(&mut self, id: u64) -> Option<PendingJob> {
        self.classes.iter_mut().find_map(|q| {
            let at = q.jobs.iter().position(|e| e.job.spec.id == id)?;
            q.jobs.remove(at).map(|q| q.job)
        })
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

    fn candidate_ids(q: &AdmissionQueue, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        q.candidates(limit, &mut out);
        out.iter().map(|j| j.spec.id).collect()
    }

    fn tiny() -> AdmissionQueue {
        AdmissionQueue::with_caps([1, 1, 1])
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
        let mut q = AdmissionQueue::with_caps([1, 1, 4]);
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
        let mut q = AdmissionQueue::new();
        q.offer(job(0, Priority::Standard, 50));
        q.offer(job(1, Priority::Standard, 150));
        let dropped = q.drop_expired(100);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].spec.id, 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn candidates_are_priority_then_edf_ordered() {
        let mut q = AdmissionQueue::new();
        q.offer(job(0, Priority::Batch, 10));
        q.offer(job(1, Priority::Interactive, 500));
        q.offer(job(2, Priority::Standard, 50));
        q.offer(job(3, Priority::Standard, 20));
        assert_eq!(candidate_ids(&q, 10), vec![1, 3, 2, 0]);
        assert_eq!(candidate_ids(&q, 2), vec![1, 3]);
    }

    #[test]
    fn offer_front_jumps_the_class_line() {
        let mut q = AdmissionQueue::new();
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
        let mut q = AdmissionQueue::new();
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
        let mut q = AdmissionQueue::new();
        q.offer(job(7, Priority::Batch, 100));
        assert!(q.take(8).is_none());
        assert_eq!(q.take(7).unwrap().spec.id, 7);
        assert!(q.is_empty());
    }

    /// The queue's contract written the plain way: one FIFO `VecDeque` per
    /// class, the victim found by position, candidates by sorting a copy.
    struct Reference {
        classes: [VecDeque<PendingJob>; 3],
        caps: [usize; 3],
        rungs: Vec<u8>,
    }

    impl Reference {
        fn admit(&mut self, job: PendingJob, front: bool) -> Admission {
            let k = job.spec.priority.index();
            let mut victim = None;
            if self.classes[k].len() >= self.caps[k] {
                victim = (k + 1..3).rev().find_map(|lower| {
                    let q = &mut self.classes[lower];
                    // Newest first within the lowest rung; plain newest
                    // (the back) without a rung table.
                    let rung = |j: &PendingJob| self.rungs.get(j.spec.id as usize).copied();
                    let at = (0..q.len())
                        .rev()
                        .min_by_key(|&i| rung(&q[i]).unwrap_or(0))?;
                    q.remove(at)
                });
                if victim.is_none() {
                    return Admission::Refused(job);
                }
            }
            if front {
                self.classes[k].push_front(job);
            } else {
                self.classes[k].push_back(job);
            }
            victim.map_or(Admission::Admitted, Admission::AdmittedDisplacing)
        }

        fn take(&mut self, id: u64) -> Option<PendingJob> {
            self.classes.iter_mut().find_map(|q| {
                let at = q.iter().position(|j| j.spec.id == id)?;
                q.remove(at)
            })
        }

        fn drop_expired(&mut self, now_us: u64) -> Vec<PendingJob> {
            let mut out = Vec::new();
            for q in &mut self.classes {
                out.extend(q.iter().filter(|j| j.spec.deadline_us <= now_us).cloned());
                q.retain(|j| j.spec.deadline_us > now_us);
            }
            out
        }

        fn candidates(&self, limit: usize) -> Vec<u64> {
            let mut out = Vec::new();
            for q in &self.classes {
                let mut class: Vec<&PendingJob> = q.iter().collect();
                class.sort_by_key(|j| (j.spec.deadline_us, j.spec.id));
                out.extend(class.iter().map(|j| j.spec.id));
            }
            out.truncate(limit);
            out
        }
    }

    #[test]
    fn the_flat_queue_equals_the_reference_on_random_sequences() {
        for caps in [[1, 1, 1], [2, 2, 2], PER_CLASS_CAP] {
            for with_rungs in [false, true] {
                for seed in 0..20u64 {
                    let mut rng = vtx_rng::SplitMix64::new(seed);
                    // Some ids fall past the table (rung 0 by default).
                    let rungs: Vec<u8> = if with_rungs {
                        (0..150).map(|_| rng.next_range(3) as u8).collect()
                    } else {
                        Vec::new()
                    };
                    let mut q = AdmissionQueue::with_caps(caps);
                    q.set_rung_table(rungs.clone());
                    let mut r = Reference {
                        classes: Default::default(),
                        caps,
                        rungs,
                    };
                    // Jobs out of the queue, which an `offer_front` may
                    // bring back (a requeue).
                    let mut out: Vec<PendingJob> = Vec::new();
                    let mut next_id = 0u64;
                    let mut now = 0u64;
                    for step in 0..400 {
                        now += rng.next_range(4);
                        let ctx =
                            format!("caps {caps:?} rungs {with_rungs} seed {seed} step {step}");
                        match rng.next_range(20) {
                            0..=7 => {
                                let p = Priority::ALL[rng.next_range(3) as usize];
                                let deadline = now + rng.next_range(40);
                                let j = job(next_id, p, deadline);
                                next_id += 1;
                                assert_eq!(q.offer(j.clone()), r.admit(j, false), "{ctx}");
                            }
                            8..=9 if !out.is_empty() => {
                                let j = out.swap_remove(rng.next_range(out.len() as u64) as usize);
                                assert_eq!(q.offer_front(j.clone()), r.admit(j, true), "{ctx}");
                            }
                            10..=13 => {
                                let limit = rng.next_range(10) as usize;
                                assert_eq!(candidate_ids(&q, limit), r.candidates(limit), "{ctx}");
                                // Take a candidate, or an id that may not be queued.
                                let ids = r.candidates(limit);
                                let id = match ids.len() {
                                    0 => rng.next_range(next_id + 1),
                                    n => ids[rng.next_range(n as u64) as usize],
                                };
                                let got = q.take(id);
                                assert_eq!(got, r.take(id), "{ctx}");
                                out.extend(got);
                            }
                            14..=17 => {
                                let got = q.drop_expired(now);
                                assert_eq!(got, r.drop_expired(now), "{ctx}");
                            }
                            18 if step % 50 == 0 => {
                                assert_eq!(q.drain_all(), r.drop_expired(u64::MAX), "{ctx}");
                            }
                            _ => {}
                        }
                        assert_eq!(q.len(), r.classes.iter().map(VecDeque::len).sum(), "{ctx}");
                        assert_eq!(
                            q.is_empty(),
                            r.classes.iter().all(VecDeque::is_empty),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }
}
