//! The global collector: runtime on/off switch plus the registry of
//! per-thread event rings.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::ring::{Event, EventRing};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// One registered thread: its stable id, human name, and event ring.
type ThreadEntry = (u64, String, Arc<Mutex<EventRing>>);

fn registry() -> &'static Mutex<Vec<ThreadEntry>> {
    static REGISTRY: OnceLock<Mutex<Vec<ThreadEntry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: std::cell::OnceCell<(u64, Arc<Mutex<EventRing>>)> =
        const { std::cell::OnceCell::new() };
}

/// Everything drained from the collector: the merged event stream plus
/// per-thread metadata.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All events, sorted by timestamp.
    pub events: Vec<Event>,
    /// `(tid, name)` for every thread that recorded at least one event
    /// since the process started.
    pub(crate) threads: Vec<(u64, String)>,
    /// Events lost to ring-capacity limits since the last drain.
    pub(crate) dropped: u64,
}

impl Trace {
    /// Events with the given name, in timestamp order.
    pub fn events_named(&self, name: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.name == name).collect()
    }
}

/// The process-wide telemetry switchboard.
///
/// Disabled by default; [`Collector::enable`] turns recording on at runtime.
/// All methods are safe to call from any thread at any time.
#[derive(Debug)]
pub struct Collector;

impl Collector {
    /// Turns recording on.
    pub fn enable() {
        ENABLED.store(true, Ordering::Relaxed);
    }

    /// Turns recording off. Buffered events stay available to
    /// [`Collector::drain`].
    pub fn disable() {
        ENABLED.store(false, Ordering::Relaxed);
    }

    /// Whether recording is on. This is the entire cost of a disabled span:
    /// one relaxed atomic load and a branch.
    #[inline]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Drains every thread's ring into one timestamp-sorted [`Trace`].
    pub fn drain() -> Trace {
        let registry = registry().lock().expect("telemetry registry poisoned");
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut threads = Vec::new();
        for (tid, name, ring) in registry.iter() {
            let (mut taken, lost) = ring.lock().expect("telemetry ring poisoned").take();
            events.append(&mut taken);
            dropped += lost;
            threads.push((*tid, name.clone()));
        }
        events.sort_by_key(|e| e.ts_us);
        Trace {
            events,
            threads,
            dropped,
        }
    }
}

/// Records an event into the current thread's ring. The closure receives the
/// thread's stable id; it is only called when recording is enabled (callers
/// check [`Collector::is_enabled`] first, so this just does the push).
pub(crate) fn push_event(make: impl FnOnce(u64) -> Event) {
    LOCAL_RING.with(|cell| {
        let (tid, ring) = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_owned);
            let ring = Arc::new(Mutex::new(EventRing::default()));
            registry()
                .lock()
                .expect("telemetry registry poisoned")
                .push((tid, name, Arc::clone(&ring)));
            (tid, ring)
        });
        ring.lock()
            .expect("telemetry ring poisoned")
            .push(make(*tid));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventKind;

    #[test]
    fn drain_collects_across_threads() {
        let _guard = crate::test_lock();
        Collector::enable();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    push_event(|tid| Event {
                        name: "worker",
                        cat: "test",
                        kind: EventKind::Instant,
                        ts_us: i,
                        tid,
                        args: Vec::new(),
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = Collector::drain();
        Collector::disable();
        let workers = trace.events_named("worker");
        assert!(workers.len() >= 4);
        // Sorted by timestamp.
        for pair in trace.events.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
        // Every worker event's tid appears in the thread table.
        for e in workers {
            assert!(trace.threads.iter().any(|(tid, _)| *tid == e.tid));
        }
    }
}
