//! The model side of a [`Profiler`](crate::Profiler): a thread that owns the
//! cache/TLB hierarchy and the branch predictor, and applies the work the
//! profiler sends it in the order the program issued it.
//!
//! The profiler's front resolves every address and keeps every exact count;
//! what crosses is only what needs the models, in batches of [`BATCH`]
//! items through a channel that holds at most [`IN_FLIGHT`] of them, with
//! the buffers handed back for reuse. Order is all the models need to give
//! the answers an inline drive would, and a FIFO keeps it.

use std::num::NonZeroU64;
use std::panic::resume_unwind;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{self, JoinHandle};

use vtx_uarch::branch::{BranchPredictor, Predictor};
use vtx_uarch::config::UarchConfig;
use vtx_uarch::hierarchy::MemoryHierarchy;

/// Work items per batch: large enough that a hand-over is rare next to the
/// work in it.
pub(crate) const BATCH: usize = 4096;
/// Batches on the model side (queued or being applied) at any time. With
/// the one the front is filling, a profiler holds at most three buffers of
/// [`BATCH`] 24-byte items; more would buy no overlap and cost resident
/// memory in every profiler alive at once.
pub(crate) const IN_FLIGHT: usize = 2;
/// The model thread's stack. Its loop is shallow and every table lives on
/// the heap; the default 2 MiB would be mapped once per profiler.
const STACK_BYTES: usize = 64 << 10;

/// One unit of model work, every address already resolved.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    /// A kernel entry: fetch `lines` code lines from `first`, then, for a
    /// kernel that looped, its back-edge at `loop_pc` once taken and once
    /// not.
    Kernel {
        first: u64,
        lines: u32,
        loop_pc: Option<NonZeroU64>,
    },
    /// A data-dependent branch and its outcome.
    Branch { pc: u64, taken: bool },
    /// Loads of the lines `first..end`.
    Load(u64, u64),
    /// Stores to the lines `first..end`.
    Store(u64, u64),
    /// Panics on the model thread with this message.
    #[cfg(test)]
    Panic(&'static str),
}

/// The models, and the one count only they can take.
#[derive(Debug)]
pub(crate) struct Models {
    pub(crate) hierarchy: MemoryHierarchy,
    pub(crate) predictor: Predictor,
    pub(crate) mispredicts: u64,
}

impl Models {
    /// Builds the models `cfg` describes: allocates and clears every table.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails what `Profiler::new` checks before it spawns
    /// the thread that calls this.
    fn new(cfg: &UarchConfig) -> Self {
        Models {
            hierarchy: MemoryHierarchy::new(cfg).expect("configuration validated by Profiler::new"),
            predictor: cfg.predictor.build(),
            mispredicts: 0,
        }
    }

    #[inline]
    fn apply(&mut self, work: Work) {
        match work {
            Work::Kernel {
                first,
                lines,
                loop_pc,
            } => {
                self.hierarchy.fetch_lines(first..first + u64::from(lines));
                if let Some(pc) = loop_pc {
                    self.observe(pc.get(), true);
                    self.observe(pc.get(), false);
                }
            }
            Work::Branch { pc, taken } => self.observe(pc, taken),
            Work::Load(first, end) => {
                for line in first..end {
                    self.hierarchy.load_line(line);
                }
            }
            Work::Store(first, end) => {
                for line in first..end {
                    self.hierarchy.store_line(line);
                }
            }
            #[cfg(test)]
            Work::Panic(message) => panic!("{message}"),
        }
    }

    #[inline]
    fn observe(&mut self, pc: u64, taken: bool) {
        self.mispredicts += u64::from(!self.predictor.observe(pc, taken));
    }
}

/// The front's end of the model thread.
///
/// Dropping it without [`Companion::finish`] still joins the thread, and a
/// panic there resurfaces here with its own payload, at the next hand-over,
/// at `finish`, or at the drop.
#[derive(Debug)]
pub(crate) struct Companion {
    /// The batch being filled.
    batch: Vec<Work>,
    /// Batches sent and not yet handed back.
    in_flight: usize,
    /// `None` once closed: the thread then drains what it has and returns.
    full: Option<SyncSender<Vec<Work>>>,
    empty: Receiver<Vec<Work>>,
    thread: Option<JoinHandle<Models>>,
}

impl Companion {
    /// Starts a thread that builds the models of `cfg` — their tables are
    /// allocated and cleared there, not on the caller's thread — and
    /// applies the work sent to it.
    pub(crate) fn spawn(cfg: UarchConfig) -> Self {
        let (full, full_rx) = mpsc::sync_channel::<Vec<Work>>(IN_FLIGHT);
        let (empty_tx, empty) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("vtx-model".into())
            .stack_size(STACK_BYTES)
            .spawn(move || {
                let mut models = Models::new(&cfg);
                for mut batch in full_rx {
                    for &work in &batch {
                        models.apply(work);
                    }
                    batch.clear();
                    // Only fails once the front is gone; the buffer goes too.
                    let _ = empty_tx.send(batch);
                }
                models
            })
            .expect("spawn the model thread");
        Companion {
            batch: Vec::with_capacity(BATCH),
            in_flight: 0,
            full: Some(full),
            empty,
            thread: Some(thread),
        }
    }

    /// Queues one item; a full batch goes to the thread.
    #[inline]
    pub(crate) fn push(&mut self, work: Work) {
        self.batch.push(work);
        if self.batch.len() == BATCH {
            self.hand_over();
        }
    }

    /// Sends the full batch and continues in a recycled buffer, waiting
    /// for one only when [`IN_FLIGHT`] batches are out.
    #[cold]
    fn hand_over(&mut self) {
        let recycled = match self.empty.try_recv() {
            Ok(buffer) => Some(buffer),
            Err(_) if self.in_flight < IN_FLIGHT => None,
            Err(_) => Some(self.empty.recv().unwrap_or_else(|_| self.resurface())),
        };
        self.in_flight -= usize::from(recycled.is_some());
        let next = recycled.unwrap_or_else(|| Vec::with_capacity(BATCH));
        let full = std::mem::replace(&mut self.batch, next);
        self.send(full);
    }

    fn send(&mut self, batch: Vec<Work>) {
        let sent = self.full.as_ref().map(|full| full.send(batch));
        if !matches!(sent, Some(Ok(()))) {
            self.resurface();
        }
        self.in_flight += 1;
    }

    /// Sends what is left, waits for the thread to apply everything, and
    /// takes the models back.
    pub(crate) fn finish(mut self) -> Models {
        if !self.batch.is_empty() {
            let last = std::mem::take(&mut self.batch);
            self.send(last);
        }
        self.join()
    }

    /// The thread hung up: it can only have panicked. Re-raises its panic.
    #[cold]
    fn resurface(&mut self) -> ! {
        self.join();
        unreachable!("the model thread returns only once the front closes")
    }

    /// Closes the channel and waits for the thread: its models back, or its
    /// panic re-raised here.
    fn join(&mut self) -> Models {
        self.full = None;
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(models)) => models,
            Some(Err(payload)) => resume_unwind(payload),
            None => panic!("the model thread panicked earlier"),
        }
    }
}

impl Drop for Companion {
    fn drop(&mut self) {
        self.full = None;
        if let Some(Err(payload)) = self.thread.take().map(JoinHandle::join) {
            if !thread::panicking() {
                resume_unwind(payload);
            }
        }
    }
}
