//! Bounded per-thread event buffers.
//!
//! Each thread that records telemetry owns one [`EventRing`]; pushes touch
//! only that ring (an uncontended mutex — "lock-free-ish": no cross-thread
//! contention on the hot path), and the global collector drains all rings
//! when a trace is exported. Capacity is bounded: once full, new events are
//! counted as dropped rather than growing without limit.

use crate::span::ArgValue;

/// Default per-thread capacity (events). At ~100 bytes/event this bounds a
/// thread's buffer to a few MiB.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts_us`..`ts_us + dur_us` covers the region.
    Span {
        /// Span duration in microseconds.
        dur_us: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value (`value` in args, name = counter track).
    Counter,
}

/// One telemetry record.
#[derive(Debug, Clone)]
pub struct Event {
    /// Static event name (span or marker name).
    pub(crate) name: &'static str,
    /// Category (groups related events in trace viewers).
    pub(crate) cat: &'static str,
    /// Record kind.
    pub(crate) kind: EventKind,
    /// Microseconds since the process epoch.
    pub(crate) ts_us: u64,
    /// Small stable id of the recording thread (assigned at registration).
    pub(crate) tid: u64,
    /// Structured arguments (empty for most events).
    pub(crate) args: Vec<(&'static str, ArgValue)>,
}

/// A bounded buffer of events belonging to one thread.
#[derive(Debug)]
pub(crate) struct EventRing {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring with the given capacity (events).
    fn with_capacity(capacity: usize) -> Self {
        EventRing {
            events: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, or counts it as dropped when the ring is full.
    pub(crate) fn push(&mut self, event: Event) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Takes all buffered events, leaving the ring empty; returns the events
    /// and the drop count accumulated since the last take.
    pub(crate) fn take(&mut self) -> (Vec<Event>, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        (std::mem::take(&mut self.events), dropped)
    }
}

impl Default for EventRing {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str) -> Event {
        Event {
            name,
            cat: "test",
            kind: EventKind::Instant,
            ts_us: 0,
            tid: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn bounded_with_drop_counting() {
        let mut r = EventRing::with_capacity(2);
        r.push(ev("a"));
        r.push(ev("b"));
        r.push(ev("c"));
        r.push(ev("d"));
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.dropped, 2);
        let (events, dropped) = r.take();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(dropped, 2);
        assert!(r.events.is_empty());
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = EventRing::with_capacity(0);
        r.push(ev("a"));
        r.push(ev("b"));
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.dropped, 1);
    }
}
