//! An indexed calendar queue for the discrete-event engine.
//!
//! A binary heap costs O(log pending) per operation and, more importantly
//! for determinism audits, hides the event order inside `Ord` impls. The
//! calendar queue (Brown 1988) hashes each event into a bucket by
//! `time / width mod n_buckets` and walks buckets in time order; with the
//! width matched to the mean event spacing, push and pop are amortized
//! O(1). Ordering here is explicit: events pop in ascending `(time, seq)`,
//! exactly the total order the historical heap produced, so swapping the
//! container cannot perturb a byte of output.
//!
//! Far-future outliers (a finish long after the arrival horizon) would make
//! the bucket walk spin over empty days, so a walk that crosses a whole
//! year without finding anything falls back to a direct global-minimum
//! scan and jumps the cursor there.

/// Amortized-O(1) time-ordered event queue.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<(u64, u64, T)>>,
    /// Bucket width in µs of simulated time.
    width: u64,
    /// Absolute day index (`t / width`) the cursor is parked on.
    day: u64,
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// Builds a queue sized for roughly `expected_events` spread over
    /// `horizon_us` of simulated time.
    pub fn new(horizon_us: u64, expected_events: usize) -> CalendarQueue<T> {
        let n = expected_events.clamp(16, 1 << 21).next_power_of_two();
        let width = (horizon_us / n as u64).max(1);
        CalendarQueue {
            buckets: (0..n).map(|_| Vec::new()).collect(),
            width,
            day: 0,
            len: 0,
        }
    }

    /// Whether no events are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(&self, t: u64) -> usize {
        ((t / self.width) % self.buckets.len() as u64) as usize
    }

    /// Schedules an event. `seq` must make `(t, seq)` unique; events pop in
    /// ascending `(t, seq)`.
    pub fn push(&mut self, t: u64, seq: u64, ev: T) {
        let b = self.bucket_of(t);
        self.buckets[b].push((t, seq, ev));
        self.len += 1;
        // Never park the cursor past a newly scheduled event.
        let day = t / self.width;
        if day < self.day {
            self.day = day;
        }
    }

    /// The smallest `(t, seq)` pending, without removing it.
    pub(crate) fn peek_key(&mut self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let (b, i) = self.locate_min();
        let e = &self.buckets[b][i];
        Some((e.0, e.1))
    }

    /// Removes and returns the smallest `(t, seq)` event.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        let (b, i) = self.locate_min();
        self.len -= 1;
        Some(self.buckets[b].swap_remove(i))
    }

    /// Finds the bucket and offset of the minimum event, advancing the day
    /// cursor. Amortized O(1); falls back to a global scan after walking a
    /// full empty year.
    fn locate_min(&mut self) -> (usize, usize) {
        debug_assert!(self.len > 0);
        let n = self.buckets.len() as u64;
        for _ in 0..n {
            let b = (self.day % n) as usize;
            let mut best: Option<(u64, u64, usize)> = None;
            for (i, e) in self.buckets[b].iter().enumerate() {
                if e.0 / self.width == self.day {
                    let key = (e.0, e.1, i);
                    if best.is_none_or(|cur| (key.0, key.1) < (cur.0, cur.1)) {
                        best = Some(key);
                    }
                }
            }
            if let Some((_, _, i)) = best {
                return (b, i);
            }
            self.day += 1;
        }
        // A whole year was empty: jump straight to the global minimum.
        let mut best: Option<(u64, u64, usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, e) in bucket.iter().enumerate() {
                if best.is_none_or(|cur| (e.0, e.1) < (cur.0, cur.1)) {
                    best = Some((e.0, e.1, b, i));
                }
            }
        }
        let (t, _, b, i) = best.expect("len > 0");
        self.day = t / self.width;
        (b, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new(1000, 16);
        q.push(50, 3, "c");
        q.push(10, 1, "a");
        q.push(50, 2, "b");
        q.push(999, 4, "d");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, v)| v)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
        assert!(q.is_empty());
    }

    #[test]
    fn matches_a_heap_on_random_workload() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut state = 0xCA1E_4D42u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        let mut cal = CalendarQueue::new(100_000, 64);
        let mut heap = BinaryHeap::new();
        let mut now = 0u64;
        for (seq, round) in (0..5_000u64).enumerate() {
            // Interleave pushes (at or after `now`) and pops.
            let t = now + next() % 1_000;
            cal.push(t, seq as u64, round);
            heap.push(Reverse((t, seq as u64, round)));
            if round % 3 == 0 {
                let got = cal.pop();
                let want = heap.pop().map(|Reverse(x)| x);
                assert_eq!(got, want, "round {round}");
                if let Some((t, _, _)) = got {
                    now = t;
                }
            }
        }
        while let Some(want) = heap.pop() {
            let Reverse((t, s, v)) = want;
            assert_eq!(cal.pop(), Some((t, s, v)));
        }
        assert!(cal.pop().is_none());
    }

    #[test]
    fn far_future_outlier_does_not_wedge_the_walk() {
        let mut q = CalendarQueue::new(1_000, 16);
        q.push(5, 0, 'x');
        q.push(10_000_000, 1, 'y'); // ~10k years past the horizon hint
        assert_eq!(q.pop(), Some((5, 0, 'x')));
        assert_eq!(q.pop(), Some((10_000_000, 1, 'y')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_below_cursor_is_still_found_first() {
        let mut q = CalendarQueue::new(1_000, 16);
        q.push(900, 0, "late");
        assert_eq!(q.peek_key(), Some((900, 0)));
        // Cursor has advanced to day(900); a new earlier event must rewind it.
        q.push(100, 1, "early");
        assert_eq!(q.pop().map(|e| e.2), Some("early"));
        assert_eq!(q.pop().map(|e| e.2), Some("late"));
    }
}
