//! Macroblock-row wavefront parallelism.
//!
//! The encoder's 2D dependency is the classic wavefront: macroblock
//! `(x, y)` needs its left neighbour (same row) and the top/top-right
//! neighbours of row `y - 1`, so row `y` may process column `x` as soon as
//! row `y - 1` has finished column `x + 1`:
//!
//! ```text
//! row 0:  [0][1][2][3][4][5] ...
//! row 1:     [0][1][2][3]    ...   (two columns behind row 0)
//! row 2:        [0][1]       ...
//! ```
//!
//! Workers claim whole rows and encode against shared reconstruction
//! state; everything that must be *serial* to stay bit-identical — the
//! entropy writer's adaptive contexts, the raster-order `prev_qp` chain,
//! the profiler's cache/TLB/branch simulation — is captured per macroblock
//! as a replayable record ([`MbRecord`]): syntax as one command per symbol
//! ([`SynCmd`]) and profiler traffic as [`ProfEvent`]s from a recording
//! shard. The main thread stitches records in raster order into the real
//! entropy writer and profiler, so the bitstream and every simulated
//! counter are identical to the serial encoder's, event for event.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

use vtx_frame::Frame;
use vtx_trace::ProfEvent;

use crate::config::EncoderConfig;
use crate::entropy::{ctx, se_to_ue, ue_len, EntropyWriter};
use crate::types::{MotionVector, Qp};

/// One recorded syntax command: a call on the [`EntropyWriter`], context id
/// included, so replaying it through the real (stateful CABAC / CAVLC)
/// writer is exact;
/// QP deltas are recorded as the *absolute* per-MB QP because the delta
/// depends on the raster-order predecessor, which a worker cannot know —
/// the stitching [`DirectSink`] resolves it against its running `prev_qp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SynCmd {
    /// `put_bit(ctx, bit)`.
    Bit(u32, bool),
    /// `put_ue(ctx, v)`.
    Ue(u32, u32),
    /// `put_se(ctx, v)`.
    Se(u32, i32),
    /// Absolute macroblock QP; encoded as a delta at stitch time.
    QpDelta(Qp),
}

/// How a macroblock was coded — the per-MB slice of [`EncodeStats`]
/// (`crate::encoder::EncodeStats`), returned instead of mutated so the
/// macroblock body has no side channel besides its outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MbClass {
    /// Skip-coded (prediction only).
    Skip,
    /// Intra-coded (I16x16 or I4x4).
    Intra,
    /// Inter-coded (P16, P8x8 or B16).
    Inter,
}

/// Accumulated macroblock classes for one frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MbCounts {
    pub(crate) skip: u64,
    pub(crate) intra: u64,
    pub(crate) inter: u64,
}

impl MbCounts {
    pub(crate) fn add(&mut self, class: MbClass) {
        match class {
            MbClass::Skip => self.skip += 1,
            MbClass::Intra => self.intra += 1,
            MbClass::Inter => self.inter += 1,
        }
    }
}

/// The entropy sink the macroblock body writes to: a normal
/// [`EntropyWriter`] plus the QP-delta element, which is the one syntax
/// element whose value depends on raster order rather than on the
/// macroblock itself.
pub(crate) trait MbSink: EntropyWriter {
    /// Codes the per-MB QP (as a delta against the raster predecessor).
    fn qp_delta(&mut self, qp: Qp);
}

/// Forwards syntax to the real entropy writer, resolving QP deltas against
/// the raster-order `prev_qp` chain. Used directly by the serial path and
/// by the wavefront stitcher.
#[derive(Debug)]
pub(crate) struct DirectSink<'a, W: EntropyWriter> {
    w: &'a mut W,
    prev_qp: Qp,
}

impl<'a, W: EntropyWriter> DirectSink<'a, W> {
    pub(crate) fn new(w: &'a mut W, frame_qp: Qp) -> Self {
        DirectSink {
            w,
            prev_qp: frame_qp,
        }
    }
}

impl<W: EntropyWriter> EntropyWriter for DirectSink<'_, W> {
    #[inline]
    fn put_bit(&mut self, ctx: u32, bit: bool) {
        self.w.put_bit(ctx, bit);
    }

    #[inline]
    fn put_ue(&mut self, ctx: u32, v: u32) {
        self.w.put_ue(ctx, v);
    }

    #[inline]
    fn put_se(&mut self, ctx: u32, v: i32) {
        self.w.put_se(ctx, v);
    }

    fn bits_estimate(&self) -> f64 {
        self.w.bits_estimate()
    }

    fn finish(self) -> Vec<u8> {
        // The borrowed writer is finalized by the frame encoder, not
        // through the sink.
        Vec::new()
    }
}

impl<W: EntropyWriter> MbSink for DirectSink<'_, W> {
    fn qp_delta(&mut self, qp: Qp) {
        self.w.put_se(
            ctx::QP_DELTA,
            i32::from(qp.value()) - i32::from(self.prev_qp.value()),
        );
        self.prev_qp = qp;
    }
}

/// Captures the macroblock's syntax as replayable commands, one per
/// [`EntropyWriter`] call: a symbol stays a symbol, so the real writer codes
/// it at replay the way it would have coded it directly.
#[derive(Debug, Default)]
pub(crate) struct RecordSink {
    cmds: Vec<SynCmd>,
    bits: u32,
}

impl RecordSink {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_cmds(self) -> Vec<SynCmd> {
        self.cmds
    }
}

impl EntropyWriter for RecordSink {
    fn put_bit(&mut self, ctx: u32, bit: bool) {
        self.cmds.push(SynCmd::Bit(ctx, bit));
        self.bits += 1;
    }

    fn put_ue(&mut self, ctx: u32, v: u32) {
        self.cmds.push(SynCmd::Ue(ctx, v));
        self.bits += 2 * ue_len(v) - 1;
    }

    fn put_se(&mut self, ctx: u32, v: i32) {
        self.cmds.push(SynCmd::Se(ctx, v));
        self.bits += 2 * ue_len(se_to_ue(v)) - 1;
    }

    fn bits_estimate(&self) -> f64 {
        // Plain bit count. Only consumed by per-MB rate feedback, and the
        // wavefront path is gated to rate modes that ignore it (CBR falls
        // back to serial).
        f64::from(self.bits)
    }

    fn finish(self) -> Vec<u8> {
        Vec::new()
    }
}

impl MbSink for RecordSink {
    fn qp_delta(&mut self, qp: Qp) {
        self.cmds.push(SynCmd::QpDelta(qp));
    }
}

/// Everything one macroblock produced, ready for in-order stitching.
#[derive(Debug)]
pub(crate) struct MbRecord {
    pub(crate) class: MbClass,
    pub(crate) syn: Vec<SynCmd>,
    pub(crate) events: Vec<ProfEvent>,
}

impl MbRecord {
    /// Replays the recorded syntax into a real sink.
    pub(crate) fn replay_syntax<S: MbSink>(&self, sink: &mut S) {
        for cmd in &self.syn {
            match *cmd {
                SynCmd::Bit(c, b) => sink.put_bit(c, b),
                SynCmd::Ue(c, v) => sink.put_ue(c, v),
                SynCmd::Se(c, v) => sink.put_se(c, v),
                SynCmd::QpDelta(qp) => sink.qp_delta(qp),
            }
        }
    }
}

/// Per-frame state shared between wavefront workers: the reconstruction
/// frame plus the MV / intra maps the MV predictor reads from neighbours.
#[derive(Debug)]
pub(crate) struct FrameShared {
    pub(crate) recon: Frame,
    pub(crate) mvs: Vec<MotionVector>,
    pub(crate) intra_map: Vec<bool>,
}

/// Shared wavefront coordination state.
///
/// # Safety invariant
///
/// `frame` is handed out as `&mut FrameShared` concurrently to workers via
/// [`WfShared::frame_mut`]. This is sound only under the wavefront
/// discipline, which every caller must uphold:
///
/// * a worker owns exactly one row at a time (rows are claimed via
///   [`WfShared::claim_row`]) and is the only writer of that row's
///   macroblocks in `recon` / `mvs` / `intra_map`;
/// * before encoding column `x` of row `r > 0` it calls
///   [`WfShared::wait_row`]`(r - 1, min(x + 2, mb_w))`, so every
///   neighbour it reads (left: own row; top / top-left / top-right:
///   row `r - 1`) was published before the read — the Release store in
///   [`WfShared::publish`] paired with the Acquire load in `wait_row`
///   makes those writes visible;
/// * nothing reads a macroblock region that has not been published.
///
/// Under that protocol all concurrent accesses are to disjoint memory, so
/// there are no data races.
pub(crate) struct WfShared {
    frame: UnsafeCell<FrameShared>,
    /// One slot per macroblock, written once by its row's worker, consumed
    /// once by the stitcher.
    slots: Vec<UnsafeCell<Option<MbRecord>>>,
    /// `progress[r]` = number of macroblocks of row `r` published.
    progress: Vec<AtomicU32>,
    next_row: AtomicUsize,
    pub(crate) mb_w: usize,
    pub(crate) mb_h: usize,
    /// Set when a worker panics so the spin loops abort instead of
    /// deadlocking on progress that will never come.
    pub(crate) poisoned: AtomicBool,
}

// SAFETY: see the struct-level invariant — the wavefront protocol makes
// all concurrent accesses disjoint and orders cross-row reads after the
// corresponding publishes.
unsafe impl Sync for WfShared {}

impl WfShared {
    pub(crate) fn new(recon: Frame, mb_w: usize, mb_h: usize) -> Self {
        WfShared {
            frame: UnsafeCell::new(FrameShared {
                recon,
                mvs: vec![MotionVector::ZERO; mb_w * mb_h],
                intra_map: vec![false; mb_w * mb_h],
            }),
            slots: (0..mb_w * mb_h).map(|_| UnsafeCell::new(None)).collect(),
            progress: (0..mb_h).map(|_| AtomicU32::new(0)).collect(),
            next_row: AtomicUsize::new(0),
            mb_w,
            mb_h,
            poisoned: AtomicBool::new(false),
        }
    }

    /// Claims the next unprocessed row (may be `>= mb_h`: no rows left).
    pub(crate) fn claim_row(&self) -> usize {
        self.next_row.fetch_add(1, Ordering::Relaxed)
    }

    /// Spins until row `row` has published at least `target` macroblocks.
    ///
    /// # Panics
    ///
    /// Panics if a worker poisoned the wavefront (a panic elsewhere would
    /// otherwise leave this spinning forever).
    pub(crate) fn wait_row(&self, row: usize, target: u32) {
        let mut spins = 0u32;
        while self.progress[row].load(Ordering::Acquire) < target {
            if self.poisoned.load(Ordering::Relaxed) {
                panic!("wavefront poisoned: a worker thread panicked");
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1024) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Grants mutable access to the shared frame state.
    ///
    /// # Safety
    ///
    /// Caller must uphold the wavefront discipline documented on
    /// [`WfShared`]: only touch macroblock regions it owns or that were
    /// published by `wait_row`, and release the reference before
    /// publishing.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn frame_mut(&self) -> &mut FrameShared {
        &mut *self.frame.get()
    }

    /// Publishes macroblock `(mb_x, row)`: stores its record and makes the
    /// reconstruction writes visible to waiters.
    pub(crate) fn publish(&self, row: usize, mb_x: usize, rec: MbRecord) {
        // SAFETY: each slot is written exactly once, by the worker owning
        // `row`, before the Release store announces it.
        unsafe {
            *self.slots[row * self.mb_w + mb_x].get() = Some(rec);
        }
        self.progress[row].store(mb_x as u32 + 1, Ordering::Release);
    }

    /// Takes the record for `(mb_x, row)`. Only the stitcher calls this,
    /// after `wait_row(row, mb_x + 1)` observed the publish.
    pub(crate) fn take_record(&self, row: usize, mb_x: usize) -> MbRecord {
        // SAFETY: the Acquire in `wait_row` ordered this read after the
        // slot write, and the publishing worker never touches it again.
        unsafe { (*self.slots[row * self.mb_w + mb_x].get()).take() }
            .expect("record taken once, after publish")
    }

    /// Recovers the frame state once all workers have finished.
    pub(crate) fn into_inner(self) -> FrameShared {
        self.frame.into_inner()
    }
}

impl std::fmt::Debug for WfShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfShared")
            .field("mb_w", &self.mb_w)
            .field("mb_h", &self.mb_h)
            .finish_non_exhaustive()
    }
}

/// Poisons the wavefront unless disarmed — a worker that panics (unwinds
/// without reaching `disarm`) trips every spin loop instead of deadlocking
/// them.
#[derive(Debug)]
pub(crate) struct PoisonGuard<'a> {
    flag: &'a AtomicBool,
    armed: bool,
}

impl<'a> PoisonGuard<'a> {
    pub(crate) fn new(flag: &'a AtomicBool) -> Self {
        PoisonGuard { flag, armed: true }
    }

    pub(crate) fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.flag.store(true, Ordering::Relaxed);
        }
    }
}

/// Resolves the worker count for one frame. Returns 1 (serial) when the
/// config asks for it, when the frame is too small to overlap rows, or
/// when rate control needs per-MB bitstream feedback (CBR corrects the
/// quantizer against bits *actually written so far*, an inherently serial
/// dependency — threading it would change QP decisions, and the whole
/// point is bit-identical output).
pub(crate) fn wavefront_workers(
    cfg: &EncoderConfig,
    mb_w: usize,
    mb_h: usize,
    per_mb_feedback: bool,
) -> usize {
    let requested = cfg.effective_threads() as usize;
    if requested <= 1 || per_mb_feedback || mb_h < 2 || mb_w < 2 {
        1
    } else {
        requested.min(mb_h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::cavlc::CavlcWriter;

    #[test]
    fn direct_sink_resolves_qp_chain() {
        // Recording absolute QPs and replaying must give the same bits as
        // writing deltas directly.
        let mut direct = CavlcWriter::new();
        let mut prev = Qp::new(30);
        for qp in [32, 32, 28, 30] {
            direct.put_se(ctx::QP_DELTA, qp - i32::from(prev.value()));
            prev = Qp::new(qp);
        }

        let mut rec = RecordSink::new();
        for qp in [32, 32, 28, 30] {
            rec.qp_delta(Qp::new(qp));
        }
        let record = MbRecord {
            class: MbClass::Inter,
            syn: rec.into_cmds(),
            events: Vec::new(),
        };
        let mut w = CavlcWriter::new();
        let mut sink = DirectSink::new(&mut w, Qp::new(30));
        record.replay_syntax(&mut sink);

        assert_eq!(direct.finish(), w.finish());
    }

    /// Writes a macroblock's worth of mixed syntax, edge values included.
    fn write_syntax<S: EntropyWriter>(w: &mut S) {
        w.put_bit(ctx::SKIP, false);
        w.put_ue(ctx::MB_MODE, 3);
        w.put_se(ctx::MVD_X, -7);
        w.put_se(ctx::MVD_Y, 0);
        w.put_bit(ctx::CBF, true);
        for v in [0, 1, 2, 14, 15, 1 << 25, u32::MAX] {
            w.put_ue(ctx::RUN, v);
            w.put_se(ctx::LEVEL, v as i32);
        }
    }

    fn replay_equals_direct<W: EntropyWriter + Default>() {
        let mut direct = W::default();
        write_syntax(&mut direct);

        let mut rec = RecordSink::new();
        write_syntax(&mut rec);
        let bits = rec.bits_estimate();
        let record = MbRecord {
            class: MbClass::Inter,
            syn: rec.into_cmds(),
            events: Vec::new(),
        };
        // One command per symbol, flags included.
        assert_eq!(record.syn.len(), 19);
        assert_eq!(record.syn[1], SynCmd::Ue(ctx::MB_MODE, 3));
        assert_eq!(record.syn[2], SynCmd::Se(ctx::MVD_X, -7));

        let mut w = W::default();
        let mut sink = DirectSink::new(&mut w, Qp::new(26));
        record.replay_syntax(&mut sink);
        // The recorded count is in bins: the exact size of the raw-bit form.
        let raw_bits = {
            let mut raw = CavlcWriter::new();
            write_syntax(&mut raw);
            raw.bits_estimate()
        };
        assert_eq!(bits, raw_bits);
        assert_eq!(direct.bits_estimate(), w.bits_estimate());
        assert_eq!(direct.finish(), w.finish());
    }

    #[test]
    fn recorded_bits_replay_exactly() {
        replay_equals_direct::<CavlcWriter>();
        replay_equals_direct::<crate::entropy::cabac::CabacWriter>();
    }

    #[test]
    fn publish_take_roundtrip() {
        let wf = WfShared::new(Frame::new(32, 32), 2, 2);
        assert_eq!(wf.claim_row(), 0);
        wf.publish(
            0,
            0,
            MbRecord {
                class: MbClass::Skip,
                syn: Vec::new(),
                events: Vec::new(),
            },
        );
        wf.wait_row(0, 1);
        let rec = wf.take_record(0, 0);
        assert_eq!(rec.class, MbClass::Skip);
        let fs = wf.into_inner();
        assert_eq!(fs.mvs.len(), 4);
    }

    #[test]
    fn poison_guard_arms_on_drop() {
        let flag = AtomicBool::new(false);
        {
            let _g = PoisonGuard::new(&flag);
        }
        assert!(flag.load(Ordering::Relaxed), "undisarmed drop must poison");

        let flag2 = AtomicBool::new(false);
        PoisonGuard::new(&flag2).disarm();
        assert!(!flag2.load(Ordering::Relaxed));
    }

    #[test]
    fn worker_gating() {
        let cfg = EncoderConfig::default();
        assert_eq!(wavefront_workers(&cfg, 8, 8, false), 1); // threads = 1
        let cfg4 = cfg.clone().with_threads(4);
        assert_eq!(wavefront_workers(&cfg4, 8, 8, false), 4);
        assert_eq!(wavefront_workers(&cfg4, 8, 2, false), 2); // capped by rows
        assert_eq!(wavefront_workers(&cfg4, 8, 1, false), 1); // too short
        assert_eq!(wavefront_workers(&cfg4, 1, 8, false), 1); // too narrow
        assert_eq!(wavefront_workers(&cfg4, 8, 8, true), 1); // CBR feedback
    }

    #[test]
    fn counts_accumulate() {
        let mut c = MbCounts::default();
        c.add(MbClass::Skip);
        c.add(MbClass::Intra);
        c.add(MbClass::Inter);
        c.add(MbClass::Inter);
        assert_eq!(
            c,
            MbCounts {
                skip: 1,
                intra: 1,
                inter: 2
            }
        );
    }
}
