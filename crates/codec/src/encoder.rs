//! The video encoder: frame-type decision, rate control, mode decision,
//! motion search, residual coding, reconstruction and in-loop filtering.
//!
//! The entry point is [`encode_video`]; see the [crate documentation](crate)
//! for an end-to-end example. Everything the encoder does is mirrored
//! bit-exactly by [`crate::decoder::decode_video`].

use vtx_frame::{Frame, Video};
use vtx_trace::Profiler;

use crate::bufs::CodecBufs;
use crate::config::{EncoderConfig, RateControlMode};
use crate::deblock::deblock_frame;
use crate::entropy::cabac::CabacWriter;
use crate::entropy::cavlc::CavlcWriter;
use crate::entropy::{ctx, EntropyWriter};
use crate::instr::{
    K_CABAC, K_CAVLC, K_DEBLOCK, K_HEADER, K_IDECIDE, K_IPRED16, K_IPRED4, K_MBENC, K_MC, K_RC,
    K_SAD, K_SATD,
};
use crate::intra::{decide16, predict4, predict_chroma_dc, Intra4Mode};
use crate::lookahead::{analyze, LookaheadResult};
use crate::mbenc::{encode_chroma_residual, encode_luma_residual, write_coef_block};
use crate::mc::{average, mc_luma, RefFrame};
use crate::me::{sad_row, search_ref, MeParams, MeResult, RefView};
use crate::quant::{aq_offset, dequant4x4, quant4x4};
use crate::ratecontrol::RateControl;
use crate::transform::{dct4x4, idct4x4, sad, Block4x4};
use crate::trellis::trellis_quant;
use crate::types::{ue_len, FrameType, MotionVector, Qp};
use crate::wavefront::{
    wavefront_workers, DirectSink, FrameShared, MbClass, MbCounts, MbRecord, MbSink, PoisonGuard,
    RecordSink, WfShared,
};
use crate::CodecError;

/// Magic bytes opening every vtx bitstream.
pub const MAGIC: &[u8; 4] = b"VTXB";
/// Bitstream format version.
pub const VERSION: u8 = 1;

/// A serialized encoded video.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    /// The raw container bytes (header + per-frame payloads).
    pub data: Vec<u8>,
}

impl Bitstream {
    /// Total size in bits.
    fn total_bits(&self) -> u64 {
        self.data.len() as u64 * 8
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bitrate in kbit/s for a clip of the given duration.
    pub fn bitrate_kbps(&self, duration_secs: f64) -> f64 {
        if duration_secs <= 0.0 {
            return 0.0;
        }
        self.total_bits() as f64 / duration_secs / 1000.0
    }
}

/// Per-frame encoding statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameStat {
    /// Display-order index.
    pub(crate) display: u32,
    /// Frame type.
    pub(crate) ftype: FrameType,
    /// Base QP used.
    pub(crate) qp: u8,
    /// Coded bits for this frame.
    pub(crate) bits: u64,
}

/// Aggregate encoding statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncodeStats {
    /// Per-frame records in coding order.
    pub(crate) frames: Vec<FrameStat>,
    /// Macroblocks coded as skip.
    pub(crate) skip_mbs: u64,
    /// Macroblocks coded intra.
    pub(crate) intra_mbs: u64,
    /// Macroblocks coded inter.
    pub(crate) inter_mbs: u64,
}

impl EncodeStats {}

/// Everything an encode produces.
#[derive(Debug, Clone)]
pub struct EncodeResult {
    /// The serialized bitstream.
    pub bitstream: Bitstream,
    /// Reconstructed frames in display order (identical to decoder output).
    pub recon: Vec<Frame>,
    /// Statistics.
    pub stats: EncodeStats,
}

/// Encodes a raw video clip.
///
/// For [`RateControlMode::TwoPassAbr`] this runs a quick first pass to
/// measure per-frame complexity — doubling the work, exactly as the paper
/// describes for 2-pass ABR — and then the real encode.
///
/// # Errors
///
/// Returns [`CodecError::InvalidConfig`] for bad parameters,
/// [`CodecError::EmptyVideo`] for an empty clip, and
/// [`CodecError::InvalidConfig`] if frame dimensions are not multiples of 16.
pub fn encode_video(
    video: &Video,
    cfg: &EncoderConfig,
    prof: &mut Profiler,
) -> Result<EncodeResult, CodecError> {
    cfg.validate()?;
    if video.frames.is_empty() {
        return Err(CodecError::EmptyVideo);
    }
    let w = video.frames[0].width();
    let h = video.frames[0].height();
    if !w.is_multiple_of(16) || !h.is_multiple_of(16) {
        return Err(CodecError::InvalidConfig {
            what: "dimensions",
            detail: format!("{w}x{h} not macroblock aligned"),
        });
    }

    if let RateControlMode::TwoPassAbr { .. } = cfg.rc {
        // First pass: fast settings, constant QP, no B adaptation cost.
        let mut p1 = cfg.clone();
        p1.rc = RateControlMode::Cqp(30);
        p1.subme = p1.subme.min(1);
        p1.me = crate::types::MeMethod::Dia;
        p1.refs = 1;
        p1.trellis = 0;
        p1.aq_mode = 0;
        let first = encode_inner(video, &p1, prof, None)?;
        let complexity: Vec<f64> = first.stats.frames.iter().map(|f| f.bits as f64).collect();
        encode_inner(video, cfg, prof, Some(complexity))
    } else {
        encode_inner(video, cfg, prof, None)
    }
}

/// A reconstructed frame kept as a reference: its planes border-extended
/// once (the reconstruction itself goes to the output), its display index,
/// and the reference-pool slot its simulated addresses live in.
pub(crate) struct Anchor {
    pub(crate) display: usize,
    pub(crate) frame: RefFrame,
    pub(crate) slot: usize,
}

struct EncoderState<'a> {
    cfg: &'a EncoderConfig,
    bufs: CodecBufs,
    mb_w: usize,
    mb_h: usize,
    anchors: Vec<Anchor>,
    next_slot: usize,
    global_mb: u64,
    stats: EncodeStats,
}

fn encode_inner(
    video: &Video,
    cfg: &EncoderConfig,
    prof: &mut Profiler,
    pass1: Option<Vec<f64>>,
) -> Result<EncodeResult, CodecError> {
    let w = video.frames[0].width();
    let h = video.frames[0].height();
    let la = analyze(video, cfg, prof);
    let mut rc = RateControl::new(cfg.rc, f64::from(video.spec.fps));
    if let Some(c) = pass1 {
        rc.set_pass1(c);
    }

    let pool = usize::from(cfg.refs) + 2;
    let addr_scale = (u64::from(video.spec.nominal_width) / w as u64).max(1) as u32;
    let bufs = CodecBufs::new(prof, w, h, video.frames.len(), pool, addr_scale);
    let mut st = EncoderState {
        cfg,
        bufs,
        mb_w: w / 16,
        mb_h: h / 16,
        anchors: Vec::new(),
        next_slot: 0,
        global_mb: 0,
        stats: EncodeStats::default(),
    };

    let mut data = Vec::new();
    data.extend_from_slice(MAGIC);
    data.push(VERSION);
    data.extend_from_slice(&(w as u16).to_le_bytes());
    data.extend_from_slice(&(h as u16).to_le_bytes());
    data.push(video.spec.fps.min(255) as u8);
    data.extend_from_slice(&(video.frames.len() as u16).to_le_bytes());
    let mut flags = 0u8;
    if cfg.cabac {
        flags |= 1;
    }
    if cfg.deblock.is_some() {
        flags |= 2;
    }
    data.push(flags);
    data.push(cfg.refs);
    let (da, db) = cfg.deblock.unwrap_or((0, 0));
    data.push(da as u8);
    data.push(db as u8);
    let scale = (u64::from(video.spec.nominal_width) / w as u64).max(1) as u8;
    data.push(scale);
    prof.kernel(K_HEADER, 1, 60, 0);

    let mut recon_frames: Vec<Option<Frame>> = vec![None; video.frames.len()];

    for (ci, &display) in la.coding_order.iter().enumerate() {
        let ftype = la.types[display];
        // Per-frame-type span: static name per arm so trace viewers group
        // I/P/B frames into separate rows.
        let _frame_span = vtx_telemetry::Span::enter_with(
            match ftype {
                FrameType::I => "frame/I",
                FrameType::P => "frame/P",
                FrameType::B => "frame/B",
            },
            |a| {
                a.u64("display", display as u64)
                    .u64("coding_index", ci as u64);
            },
        );
        let qp = rc.frame_qp(ftype, la.complexity[display], ci);
        prof.kernel(K_RC, 1, 140, 10);

        // A forced segment-boundary I frame is an IDR: drop every reference
        // anchor *before* encoding so nothing after the cut predicts across
        // it. The decoder mirrors this on frame-type byte 3.
        let forced_idr = ftype == FrameType::I && cfg.force_kf.contains(&(display as u32));
        if forced_idr {
            st.anchors.clear();
        }

        let (payload, recon, frame_qp) = if cfg.cabac {
            encode_frame(
                &mut st,
                video,
                display,
                ftype,
                qp,
                &la,
                &mut rc,
                prof,
                CabacWriter::new(),
            )?
        } else {
            encode_frame(
                &mut st,
                video,
                display,
                ftype,
                qp,
                &la,
                &mut rc,
                prof,
                CavlcWriter::new(),
            )?
        };

        let bits = payload.len() as u64 * 8;
        rc.end_frame(bits as f64);
        st.stats.frames.push(FrameStat {
            display: display as u32,
            ftype,
            qp: frame_qp.value(),
            bits,
        });

        data.push(match ftype {
            FrameType::I if forced_idr => 3u8,
            FrameType::I => 0u8,
            FrameType::P => 1,
            FrameType::B => 2,
        });
        data.extend_from_slice(&(display as u16).to_le_bytes());
        data.push(frame_qp.value());
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        prof.store_range(st.bufs.bitstream + data.len() as u64, payload.len() as u64);
        data.extend_from_slice(&payload);

        if ftype != FrameType::B {
            let slot = st.next_slot;
            st.next_slot = (st.next_slot + 1) % pool;
            st.anchors.push(Anchor {
                display,
                frame: RefFrame::new(&recon),
                slot,
            });
            let keep = usize::from(cfg.refs) + 1;
            if st.anchors.len() > keep {
                st.anchors.drain(..st.anchors.len() - keep);
            }
        }
        recon_frames[display] = Some(recon);
    }

    let recon: Vec<Frame> = recon_frames
        .into_iter()
        .map(|f| f.expect("every frame encoded"))
        .collect();

    Ok(EncodeResult {
        bitstream: Bitstream { data },
        recon,
        stats: st.stats,
    })
}

/// Builds (list0, list1) as indices into `anchors` for a frame at `display`.
pub(crate) fn ref_lists(anchors: &[Anchor], display: usize, refs: u8) -> (Vec<usize>, Vec<usize>) {
    let mut list0: Vec<usize> = (0..anchors.len())
        .filter(|&i| anchors[i].display < display)
        .collect();
    list0.sort_by(|&a, &b| anchors[b].display.cmp(&anchors[a].display));
    list0.truncate(usize::from(refs));
    let mut list1: Vec<usize> = (0..anchors.len())
        .filter(|&i| anchors[i].display > display)
        .collect();
    list1.sort_by(|&a, &b| anchors[a].display.cmp(&anchors[b].display));
    list1.truncate(1);
    (list0, list1)
}

/// Median MV predictor from already-coded neighbours.
pub(crate) fn mv_predictor(
    mvs: &[MotionVector],
    intra: &[bool],
    mb_w: usize,
    mb_x: usize,
    mb_y: usize,
) -> MotionVector {
    let get = |x: isize, y: isize| -> MotionVector {
        if x < 0 || y < 0 || x >= mb_w as isize {
            return MotionVector::ZERO;
        }
        let i = y as usize * mb_w + x as usize;
        if i >= mvs.len() || intra[i] {
            MotionVector::ZERO
        } else {
            mvs[i]
        }
    };
    let left = get(mb_x as isize - 1, mb_y as isize);
    let top = get(mb_x as isize, mb_y as isize - 1);
    let topright = get(mb_x as isize + 1, mb_y as isize - 1);
    MotionVector::median(left, top, topright)
}

fn extract_luma(frame: &Frame, mb_x: usize, mb_y: usize) -> [u8; 256] {
    let mut out = [0u8; 256];
    frame
        .y()
        .copy_block_clamped((mb_x * 16) as isize, (mb_y * 16) as isize, 16, 16, &mut out);
    out
}

fn extract_chroma(frame: &Frame, plane: usize, mb_x: usize, mb_y: usize) -> [u8; 64] {
    let mut out = [0u8; 64];
    let p = if plane == 0 { frame.u() } else { frame.v() };
    p.copy_block_clamped((mb_x * 8) as isize, (mb_y * 8) as isize, 8, 8, &mut out);
    out
}

/// P-skip / B-skip SAD threshold. The skip test compares the source block
/// against a *quantized* reconstruction, so the tolerable residual scales
/// with the quantizer step (its dead zone), not with the RD lambda: per
/// pixel, anything below ~0.35 qstep quantizes away.
fn skip_threshold(qp: Qp) -> u32 {
    (256.0 * 0.35 * qp.qstep()) as u32
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MbMode {
    P16 {
        ref_idx: u8,
        mv: MotionVector,
    },
    P8 {
        ref_idx: u8,
        mvs: [MotionVector; 4],
    },
    B16 {
        dir: u8, // 0 = fwd, 1 = bwd, 2 = bi
        fwd: MotionVector,
        bwd: MotionVector,
    },
    I16,
    I4,
}

/// Immutable per-frame context shared by every macroblock encode — and, in
/// the wavefront path, by every worker thread.
struct FrameCtx<'a> {
    cfg: &'a EncoderConfig,
    bufs: &'a CodecBufs,
    anchors: &'a [Anchor],
    src: &'a Frame,
    list0: Vec<usize>,
    list1: Vec<usize>,
    mb_w: usize,
    display: usize,
    ftype: FrameType,
    base_qp: Qp,
    /// Luma variance of each macroblock of `src` in raster order, computed
    /// once per frame; empty unless `aq_mode == 1`.
    mb_var: Vec<u32>,
    avg_var: f64,
    lambda: f64,
    me_params: MeParams,
    mbs_total: u32,
    cur_slot: usize,
    /// First profiler sampling-unit index of this frame; units advance one
    /// per macroblock in raster order, exactly as in the serial encoder.
    unit_base: u64,
}

#[allow(clippy::too_many_arguments)]
fn encode_frame<W: EntropyWriter>(
    st: &mut EncoderState<'_>,
    video: &Video,
    display: usize,
    ftype: FrameType,
    base_qp: Qp,
    _la: &LookaheadResult,
    rc: &mut RateControl,
    prof: &mut Profiler,
    mut w: W,
) -> Result<(Vec<u8>, Frame, Qp), CodecError> {
    let cfg = st.cfg;
    let src = &video.frames[display];
    let width = src.width();
    let height = src.height();
    let (list0, list1) = ref_lists(&st.anchors, display, cfg.refs);
    let mbs_total = (st.mb_w * st.mb_h) as u32;

    // Per-macroblock luma variance for AQ, and its frame average.
    let mb_var: Vec<u32> = if cfg.aq_mode == 1 {
        (0..st.mb_w * st.mb_h)
            .map(|mb_i| {
                let (mb_x, mb_y) = (mb_i % st.mb_w, mb_i / st.mb_w);
                src.y()
                    .block_variance((mb_x * 16) as isize, (mb_y * 16) as isize, 16, 16)
            })
            .collect()
    } else {
        Vec::new()
    };
    let avg_var = if mb_var.is_empty() {
        1.0
    } else {
        let acc: f64 = mb_var.iter().map(|&v| f64::from(v)).sum();
        (acc / f64::from(mbs_total)).max(1.0)
    };

    let lambda = base_qp.lambda();
    let fc = FrameCtx {
        cfg,
        bufs: &st.bufs,
        anchors: &st.anchors,
        src,
        list0,
        list1,
        mb_w: st.mb_w,
        display,
        ftype,
        base_qp,
        mb_var,
        avg_var,
        lambda,
        me_params: MeParams {
            method: cfg.me,
            merange: i32::from(cfg.merange),
            subme: cfg.subme,
            lambda,
        },
        mbs_total,
        cur_slot: st.next_slot % st.bufs.ref_pool.len(),
        unit_base: st.global_mb,
    };

    // CBR corrects the quantizer per MB against bits actually written so
    // far — an inherently serial feedback loop — so it stays on the serial
    // path; every other mode can go wavefront without changing a bit.
    let per_mb_feedback = matches!(rc.mode(), RateControlMode::Cbr { .. });
    let workers = wavefront_workers(cfg, st.mb_w, st.mb_h, per_mb_feedback);

    let (counts, mut recon) = if workers <= 1 {
        let mut fs = FrameShared {
            recon: Frame::new(width, height),
            mvs: vec![MotionVector::ZERO; st.mb_w * st.mb_h],
            intra_map: vec![false; st.mb_w * st.mb_h],
        };
        let mut counts = MbCounts::default();
        let mut sink = DirectSink::new(&mut w, base_qp);
        for mb_y in 0..st.mb_h {
            for mb_x in 0..st.mb_w {
                let class = encode_mb(
                    &fc,
                    &mut fs.recon,
                    &mut fs.mvs,
                    &mut fs.intra_map,
                    rc,
                    mb_x,
                    mb_y,
                    &mut sink,
                    prof,
                );
                counts.add(class);
                // Output-stream store pressure: one line per ~64 coded bits.
                prof.store(fc.bufs.bitstream + (sink.bits_estimate() as u64) / 8);
            }
        }
        (counts, fs.recon)
    } else {
        let (counts, fs) =
            encode_frame_wavefront(&fc, st.mb_h, workers, rc, &mut w, prof, width, height);
        (counts, fs.recon)
    };

    st.global_mb += u64::from(mbs_total);
    st.stats.skip_mbs += counts.skip;
    st.stats.intra_mbs += counts.intra;
    st.stats.inter_mbs += counts.inter;

    if let Some(offsets) = cfg.deblock {
        // Deblocking is per frame, not per macroblock: gate it on its own
        // sampling unit so sampled runs scale it correctly on average.
        prof.begin_unit(st.global_mb);
        st.global_mb += 1;
        deblock_frame(
            &mut recon,
            base_qp,
            offsets,
            prof,
            K_DEBLOCK,
            st.bufs.ref_pool[fc.cur_slot],
            st.bufs.scale(),
        );
    }

    Ok((w.finish(), recon, base_qp))
}

/// Wavefront-parallel frame encode. Workers claim macroblock rows under
/// the 2D dependency (row `r` may start column `x` once row `r - 1` has
/// published column `x + 1`) and record each macroblock's syntax and
/// profiler traffic; the main thread stitches the records in raster order
/// into the real entropy writer and profiler *while the wavefront is still
/// running*, so frame latency is the slower of the two, not their sum.
/// Output — bitstream, reconstruction and every simulated counter — is
/// bit-identical to the serial path.
#[allow(clippy::too_many_arguments)]
fn encode_frame_wavefront<W: EntropyWriter>(
    fc: &FrameCtx<'_>,
    mb_h: usize,
    workers: usize,
    rc: &RateControl,
    w: &mut W,
    prof: &mut Profiler,
    width: usize,
    height: usize,
) -> (MbCounts, FrameShared) {
    let wf = WfShared::new(Frame::new(width, height), fc.mb_w, mb_h);
    let shards: Vec<Profiler> = (0..workers).map(|_| prof.recording_shard()).collect();
    let mut counts = MbCounts::default();

    std::thread::scope(|s| {
        for (wi, mut shard) in shards.into_iter().enumerate() {
            let wf = &wf;
            s.spawn(move || {
                let _span = vtx_telemetry::Span::enter_with("wavefront/worker", |a| {
                    a.u64("worker", wi as u64);
                });
                let guard = PoisonGuard::new(&wf.poisoned);
                loop {
                    let row = wf.claim_row();
                    if row >= wf.mb_h {
                        break;
                    }
                    for mb_x in 0..wf.mb_w {
                        if row > 0 {
                            wf.wait_row(row - 1, (mb_x + 2).min(wf.mb_w) as u32);
                        }
                        let mut sink = RecordSink::new();
                        // SAFETY: wavefront discipline — this worker owns
                        // `row`, and the wait above ordered it after the
                        // publishes of every neighbour it reads.
                        let fs = unsafe { wf.frame_mut() };
                        let class = encode_mb(
                            fc,
                            &mut fs.recon,
                            &mut fs.mvs,
                            &mut fs.intra_map,
                            rc,
                            mb_x,
                            row,
                            &mut sink,
                            &mut shard,
                        );
                        wf.publish(
                            row,
                            mb_x,
                            MbRecord {
                                class,
                                syn: sink.into_cmds(),
                                events: shard.take_events(),
                            },
                        );
                    }
                }
                guard.disarm();
            });
        }

        // Stitch concurrently, in raster order: replay profiler events into
        // the real simulation and syntax into the real entropy writer.
        let mut sink = DirectSink::new(w, fc.base_qp);
        for mb_y in 0..mb_h {
            for mb_x in 0..fc.mb_w {
                wf.wait_row(mb_y, mb_x as u32 + 1);
                let rec = wf.take_record(mb_y, mb_x);
                prof.replay(&rec.events);
                rec.replay_syntax(&mut sink);
                counts.add(rec.class);
                // Output-stream store pressure, as in the serial path.
                prof.store(fc.bufs.bitstream + (sink.bits_estimate() as u64) / 8);
            }
        }
    });

    (counts, wf.into_inner())
}

/// Encodes one macroblock: mode decision, syntax (into the sink) and
/// reconstruction. Returns the macroblock's classification. The caller
/// charges the trailing output-stream store — it depends on the total bits
/// written so far, which in the wavefront path only the stitcher knows.
#[allow(clippy::too_many_arguments)]
fn encode_mb<S: MbSink>(
    fc: &FrameCtx<'_>,
    recon: &mut Frame,
    mvs: &mut [MotionVector],
    intra_map: &mut [bool],
    rc: &RateControl,
    mb_x: usize,
    mb_y: usize,
    w: &mut S,
    prof: &mut Profiler,
) -> MbClass {
    let cfg = fc.cfg;
    let src = fc.src;
    let ftype = fc.ftype;
    let list0 = &fc.list0;
    let list1 = &fc.list1;
    let lambda = fc.lambda;
    let cur_slot = fc.cur_slot;
    let mb_i = mb_y * fc.mb_w + mb_x;
    prof.begin_unit(fc.unit_base + mb_i as u64);
    prof.kernel(K_MBENC, 1, 180, 6);

    let src_y = extract_luma(src, mb_x, mb_y);
    let src_u = extract_chroma(src, 0, mb_x, mb_y);
    let src_v = extract_chroma(src, 1, mb_x, mb_y);
    for row in 0..16 {
        prof.load(fc.bufs.src_luma_row(fc.display, mb_y * 16 + row) + (mb_x * 16) as u64);
    }

    // Per-MB QP: adaptive quantization + CBR feedback.
    let mut qp = fc.base_qp;
    if cfg.aq_mode == 1 {
        qp = Qp::new(i32::from(qp.value()) + aq_offset(fc.mb_var[mb_i], fc.avg_var));
    }
    qp = rc.mb_qp_adjust(qp, mb_i as u32, fc.mbs_total, w.bits_estimate());

    let pred_mv = mv_predictor(mvs, intra_map, fc.mb_w, mb_x, mb_y);
    let x = mb_x * 16;
    let y = mb_y * 16;
    // Quantization tables and entropy-coder contexts are resident data.
    prof.load(fc.bufs.tables + u64::from(qp.value()) * 64);
    prof.load(fc.bufs.tables + 8192);

    // --- Early skip check (before any motion search, like x264) ---
    if ftype != FrameType::I && !list0.is_empty() {
        let anchor = &fc.anchors[list0[0]];
        let mut pb = [0u8; 256];
        mc_luma(anchor.frame.y(), pred_mv, x, y, 16, 16, &mut pb);
        let m = sad(&src_y, &pb);
        prof.kernel(K_SAD, 1, 64, 0);
        let early = m < skip_threshold(qp);
        prof.branch(7, early);
        if early {
            w.put_bit(ctx::SKIP, true);
            let anchor = &fc.anchors[list0[0]];
            write_inter_recon(
                fc,
                recon,
                anchor,
                None,
                pred_mv,
                MotionVector::ZERO,
                0,
                mb_x,
                mb_y,
                cur_slot,
                prof,
            );
            mvs[mb_i] = pred_mv;
            intra_map[mb_i] = false;
            return MbClass::Skip;
        }
    }

    // --- Inter candidates ---
    let mut inter: Option<(MbMode, u32, u32)> = None; // (mode, cost, metric_at_pred)
    if ftype == FrameType::P && !list0.is_empty() {
        let mut best: Option<(u8, MeResult)> = None;
        for (ri, &ai) in list0.iter().enumerate() {
            let anchor = &fc.anchors[ai];
            let rv = RefView {
                plane: anchor.frame.y(),
                vaddr: fc.bufs.ref_pool[anchor.slot],
                scale: fc.bufs.scale(),
            };
            let mut r = search_ref(&src_y, &rv, x, y, pred_mv, &fc.me_params, prof);
            r.cost = r
                .cost
                .saturating_add((lambda * f64::from(ue_len(ri as u32))) as u32);
            let better = best.is_none_or(|(_, b)| r.cost < b.cost);
            prof.branch(9, better);
            if better {
                best = Some((ri as u8, r));
            }
            // Early ref termination, like x264.
            if best.is_some_and(|(_, b)| b.metric < 128) {
                break;
            }
        }
        if let Some((ref_idx, r)) = best {
            let mut mode = MbMode::P16 { ref_idx, mv: r.mv };
            let mut cost = r.cost;
            // P8x8 refinement.
            if cfg.partitions.p8x8 && r.metric > 500 {
                if let Some((m8, c8)) = try_p8x8(
                    fc,
                    &src_y,
                    &fc.anchors[list0[ref_idx as usize]],
                    x,
                    y,
                    r.mv,
                    ref_idx,
                    lambda,
                    cfg,
                    prof,
                ) {
                    prof.branch(10, c8 < cost);
                    if c8 < cost {
                        mode = m8;
                        cost = c8;
                    }
                }
            }
            inter = Some((mode, cost, r.metric));
        }
    } else if ftype == FrameType::B && !list0.is_empty() && !list1.is_empty() {
        let fa = &fc.anchors[list0[0]];
        let ba = &fc.anchors[list1[0]];
        let fv = RefView {
            plane: fa.frame.y(),
            vaddr: fc.bufs.ref_pool[fa.slot],
            scale: fc.bufs.scale(),
        };
        let bv = RefView {
            plane: ba.frame.y(),
            vaddr: fc.bufs.ref_pool[ba.slot],
            scale: fc.bufs.scale(),
        };
        let rf = search_ref(&src_y, &fv, x, y, pred_mv, &fc.me_params, prof);
        let rb = search_ref(&src_y, &bv, x, y, MotionVector::ZERO, &fc.me_params, prof);
        // Bi-prediction: average both.
        let mut pf = [0u8; 256];
        let mut pb = [0u8; 256];
        mc_luma(fa.frame.y(), rf.mv, x, y, 16, 16, &mut pf);
        mc_luma(ba.frame.y(), rb.mv, x, y, 16, 16, &mut pb);
        let mut bi = [0u8; 256];
        average(&pf, &pb, &mut bi);
        let bi_metric = sad(&src_y, &bi);
        prof.kernel(K_SAD, 1, 64, 0);
        let bi_bits = rf.mv.cost_bits(pred_mv) + rb.mv.cost_bits(MotionVector::ZERO);
        let bi_cost = bi_metric.saturating_add((lambda * f64::from(bi_bits)) as u32);
        let (dir, cost, metric) = if rf.cost <= rb.cost && rf.cost <= bi_cost {
            (0u8, rf.cost, rf.metric)
        } else if rb.cost <= bi_cost {
            (1u8, rb.cost, rb.metric)
        } else {
            (2u8, bi_cost, bi_metric)
        };
        prof.branch(11, dir == 2);
        inter = Some((
            MbMode::B16 {
                dir,
                fwd: rf.mv,
                bwd: rb.mv,
            },
            cost,
            metric,
        ));
    }

    // --- Intra candidates ---
    let (i16_mode, i16_pred, i16_cost) = decide16(&src_y, recon.y(), x, y);
    prof.kernel(K_IPRED16, 4, 300, 8);
    prof.kernel(K_SATD, 64, 40, 0);
    prof.kernel(K_IDECIDE, 1, 120, 4);
    let i16_total = i16_cost + (lambda * 4.0) as u32;
    let i4_enabled = cfg.partitions.i4x4 || cfg.partitions.i8x8;
    let i4_cost_approx = if i4_enabled {
        approx_i4_cost(&src_y, prof) + (lambda * 40.0) as u32
    } else {
        u32::MAX
    };

    // --- Mode choice ---
    let intra_cost = i16_total.min(i4_cost_approx);
    let mode = match inter {
        Some((m, cost, _metric)) => {
            if intra_cost < cost {
                prof.branch(8, true);
                if i4_cost_approx < i16_total {
                    MbMode::I4
                } else {
                    MbMode::I16
                }
            } else {
                prof.branch(8, false);
                m
            }
        }
        None => {
            if i4_enabled && i4_cost_approx < i16_total {
                MbMode::I4
            } else {
                MbMode::I16
            }
        }
    };

    // --- Syntax + reconstruction ---
    if ftype != FrameType::I {
        w.put_bit(ctx::SKIP, false);
    }

    match mode {
        MbMode::P16 { ref_idx, mv } => {
            w.put_ue(ctx::MB_MODE, 0);
            if cfg.refs > 1 {
                w.put_ue(ctx::REF_IDX, u32::from(ref_idx));
            }
            w.put_se(ctx::MVD_X, i32::from(mv.x) - i32::from(pred_mv.x));
            w.put_se(ctx::MVD_Y, i32::from(mv.y) - i32::from(pred_mv.y));
            w.qp_delta(qp);
            let anchor = &fc.anchors[list0[usize::from(ref_idx)]];
            inter_residual(
                fc,
                w,
                recon,
                anchor,
                None,
                mv,
                MotionVector::ZERO,
                0,
                &src_y,
                &src_u,
                &src_v,
                qp,
                mb_x,
                mb_y,
                cur_slot,
                prof,
            );
            mvs[mb_i] = mv;
            intra_map[mb_i] = false;
            MbClass::Inter
        }
        MbMode::P8 { ref_idx, mvs: sub } => {
            w.put_ue(ctx::MB_MODE, 1);
            if cfg.refs > 1 {
                w.put_ue(ctx::REF_IDX, u32::from(ref_idx));
            }
            for mv in &sub {
                w.put_se(ctx::MVD_X, i32::from(mv.x) - i32::from(pred_mv.x));
                w.put_se(ctx::MVD_Y, i32::from(mv.y) - i32::from(pred_mv.y));
            }
            w.qp_delta(qp);
            let anchor = &fc.anchors[list0[usize::from(ref_idx)]];
            p8_residual(
                fc, w, recon, anchor, sub, &src_y, &src_u, &src_v, qp, mb_x, mb_y, cur_slot, prof,
            );
            mvs[mb_i] = sub[3];
            intra_map[mb_i] = false;
            MbClass::Inter
        }
        MbMode::B16 { dir, fwd, bwd } => {
            w.put_ue(ctx::MB_MODE, 0);
            w.put_ue(ctx::MB_MODE + 4, u32::from(dir));
            if dir != 1 {
                w.put_se(ctx::MVD_X, i32::from(fwd.x) - i32::from(pred_mv.x));
                w.put_se(ctx::MVD_Y, i32::from(fwd.y) - i32::from(pred_mv.y));
            }
            if dir != 0 {
                w.put_se(ctx::MVD_X, i32::from(bwd.x));
                w.put_se(ctx::MVD_Y, i32::from(bwd.y));
            }
            w.qp_delta(qp);
            let fa = &fc.anchors[list0[0]];
            let ba = &fc.anchors[list1[0]];
            inter_residual(
                fc,
                w,
                recon,
                fa,
                Some(ba),
                fwd,
                bwd,
                dir,
                &src_y,
                &src_u,
                &src_v,
                qp,
                mb_x,
                mb_y,
                cur_slot,
                prof,
            );
            mvs[mb_i] = if dir == 1 { MotionVector::ZERO } else { fwd };
            intra_map[mb_i] = false;
            MbClass::Inter
        }
        MbMode::I16 => {
            let mode_idx = if ftype == FrameType::I {
                0
            } else if ftype == FrameType::P {
                2
            } else {
                1
            };
            w.put_ue(ctx::MB_MODE, mode_idx);
            w.put_ue(ctx::IPRED, i16_mode.index());
            w.qp_delta(qp);
            intra16_residual(
                fc, w, recon, &i16_pred, &src_y, &src_u, &src_v, qp, mb_x, mb_y, cur_slot, prof,
            );
            mvs[mb_i] = MotionVector::ZERO;
            intra_map[mb_i] = true;
            MbClass::Intra
        }
        MbMode::I4 => {
            let mode_idx = if ftype == FrameType::I {
                1
            } else if ftype == FrameType::P {
                3
            } else {
                2
            };
            w.put_ue(ctx::MB_MODE, mode_idx);
            w.qp_delta(qp);
            intra4_encode(
                fc, w, recon, &src_y, &src_u, &src_v, qp, mb_x, mb_y, cur_slot, prof,
            );
            mvs[mb_i] = MotionVector::ZERO;
            intra_map[mb_i] = true;
            MbClass::Intra
        }
    }
}

/// Cheap I4x4 cost approximation for mode decision: per 4x4 block, the best
/// of DC/V/H prediction built from *source* neighbours.
fn approx_i4_cost(src: &[u8; 256], prof: &mut Profiler) -> u32 {
    let mut total = 0u32;
    for by in 0..4 {
        for bx in 0..4 {
            let mut blk = [0u8; 16];
            for r in 0..4 {
                for c in 0..4 {
                    blk[r * 4 + c] = src[(by * 4 + r) * 16 + bx * 4 + c];
                }
            }
            // DC from the block itself (proxy), V/H from neighbouring rows.
            let mean = (blk.iter().map(|&v| u32::from(v)).sum::<u32>() / 16) as i32;
            let dc_cost: u32 = blk
                .iter()
                .map(|&v| (i32::from(v) - mean).unsigned_abs())
                .sum();
            let mut v_cost = 0u32;
            let mut h_cost = 0u32;
            for r in 0..4 {
                for c in 0..4 {
                    let top = if by * 4 + r > 0 {
                        src[(by * 4 + r - 1) * 16 + bx * 4 + c]
                    } else {
                        128
                    };
                    let left = if bx * 4 + c > 0 {
                        src[(by * 4 + r) * 16 + bx * 4 + c - 1]
                    } else {
                        128
                    };
                    let cur = blk[r * 4 + c];
                    v_cost += u32::from(cur.abs_diff(top));
                    h_cost += u32::from(cur.abs_diff(left));
                }
            }
            total += dc_cost.min(v_cost).min(h_cost);
        }
    }
    prof.kernel(K_IPRED4, 16, 90, 2);
    total
}

#[allow(clippy::too_many_arguments)]
fn try_p8x8(
    fc: &FrameCtx<'_>,
    src_y: &[u8; 256],
    anchor: &Anchor,
    x: usize,
    y: usize,
    base_mv: MotionVector,
    ref_idx: u8,
    lambda: f64,
    cfg: &EncoderConfig,
    prof: &mut Profiler,
) -> Option<(MbMode, u32)> {
    let reference = anchor.frame.y();
    let mut total = 0u32;
    let mut sub_mvs = [MotionVector::ZERO; 4];
    // Extra refinement radius when p4x4 partitions are enabled (deeper
    // splits approximated as a wider sub-search).
    let radius = if cfg.partitions.p4x4 { 2i32 } else { 1 };
    let mut cands = 0u32;

    for q in 0..4 {
        let qx = x + (q % 2) * 8;
        let qy = y + (q / 2) * 8;
        let mut blk = [0u8; 64];
        for r in 0..8 {
            for c in 0..8 {
                blk[r * 8 + c] = src_y[((q / 2) * 8 + r) * 16 + (q % 2) * 8 + c];
            }
        }
        let (bx0, by0) = base_mv.fullpel();
        let mut best = (u32::MAX, MotionVector::ZERO);
        for dy in -radius..=radius {
            for dx in -radius..=radius {
                let mx = i32::from(bx0) + dx;
                let my = i32::from(by0) + dy;
                let pred =
                    reference.block(qx as isize + mx as isize, qy as isize + my as isize, 8, 8);
                prof.load(fc.bufs.ref_luma(anchor.slot, qx, qy));
                cands += 1;
                let mv = MotionVector::from_fullpel(mx as i16, my as i16);
                let metric: u32 = blk
                    .as_chunks::<8>()
                    .0
                    .iter()
                    .enumerate()
                    .map(|(r, row)| sad_row(row, pred.row(r).first_chunk().expect("8-sample rows")))
                    .sum();
                let cost =
                    metric.saturating_add((lambda * f64::from(mv.cost_bits(base_mv))) as u32);
                if cost < best.0 {
                    best = (cost, mv);
                }
            }
        }
        total = total.saturating_add(best.0);
        sub_mvs[q] = best.1;
    }
    prof.kernel(crate::instr::K_ME_DIA, cands, 48, 0);
    // Partition overhead: three extra MVs plus mode bits.
    total = total.saturating_add((lambda * 24.0) as u32);
    Some((
        MbMode::P8 {
            ref_idx,
            mvs: sub_mvs,
        },
        total,
    ))
}

/// Builds the inter prediction for a whole MB (luma + chroma) and charges MC
/// events. `dir`: 0 = fwd only, 1 = bwd only, 2 = bi.
#[allow(clippy::too_many_arguments)]
fn build_inter_pred(
    fc: &FrameCtx<'_>,
    fwd_anchor: &Anchor,
    bwd_anchor: Option<&Anchor>,
    fwd: MotionVector,
    bwd: MotionVector,
    dir: u8,
    mb_x: usize,
    mb_y: usize,
    prof: &mut Profiler,
) -> ([u8; 256], [u8; 64], [u8; 64]) {
    let out = crate::mc::build_inter_pred_frames(
        &fwd_anchor.frame,
        bwd_anchor.map(|a| &a.frame),
        fwd,
        bwd,
        dir,
        mb_x,
        mb_y,
    );
    // Charge reference reads for each direction actually used.
    let charge = |anchor: &Anchor, mv: MotionVector, prof: &mut Profiler| {
        let (fx, fy) = mv.fullpel();
        for row in 0..16i64 {
            let ry = (mb_y as i64 * 16 + i64::from(fy) + row).clamp(0, fc.bufs.height() as i64 - 1)
                as usize;
            let rx =
                (mb_x as i64 * 16 + i64::from(fx)).clamp(0, fc.bufs.width() as i64 - 1) as usize;
            prof.load(fc.bufs.ref_luma(anchor.slot, rx, ry));
        }
        // Chroma planes are motion-compensated too (half the vector).
        for row in 0..8i64 {
            let ry = (mb_y as i64 * 8 + i64::from(fy / 2) + row)
                .clamp(0, fc.bufs.height() as i64 / 2 - 1) as usize;
            let rx = (mb_x as i64 * 8 + i64::from(fx / 2)).clamp(0, fc.bufs.width() as i64 / 2 - 1)
                as usize;
            prof.load(fc.bufs.ref_chroma(anchor.slot, 0, rx, ry));
            prof.load(fc.bufs.ref_chroma(anchor.slot, 1, rx, ry));
        }
    };
    if dir != 1 {
        charge(fwd_anchor, fwd, prof);
    }
    if dir != 0 {
        charge(bwd_anchor.unwrap_or(fwd_anchor), bwd, prof);
    }
    prof.kernel(K_MC, if dir == 2 { 2 } else { 1 }, 420, 24);
    out
}

/// Skip-mode reconstruction: prediction only, no residual.
#[allow(clippy::too_many_arguments)]
fn write_inter_recon(
    fc: &FrameCtx<'_>,
    recon: &mut Frame,
    fwd_anchor: &Anchor,
    bwd_anchor: Option<&Anchor>,
    fwd: MotionVector,
    bwd: MotionVector,
    dir: u8,
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) {
    let (py, pu, pv) =
        build_inter_pred(fc, fwd_anchor, bwd_anchor, fwd, bwd, dir, mb_x, mb_y, prof);
    commit_mb(fc, recon, &py, &pu, &pv, mb_x, mb_y, prof, cur_slot);
}

#[allow(clippy::too_many_arguments)]
fn inter_residual<W: EntropyWriter>(
    fc: &FrameCtx<'_>,
    w: &mut W,
    recon: &mut Frame,
    fwd_anchor: &Anchor,
    bwd_anchor: Option<&Anchor>,
    fwd: MotionVector,
    bwd: MotionVector,
    dir: u8,
    src_y: &[u8; 256],
    src_u: &[u8; 64],
    src_v: &[u8; 64],
    qp: Qp,
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) {
    let (py, pu, pv) =
        build_inter_pred(fc, fwd_anchor, bwd_anchor, fwd, bwd, dir, mb_x, mb_y, prof);
    let ek = if fc.cfg.cabac { K_CABAC } else { K_CAVLC };
    let (ry, _nz) = encode_luma_residual(
        src_y,
        &py,
        qp,
        false,
        fc.cfg.trellis,
        w,
        prof,
        fc.bufs.scratch,
        ek,
    );
    let (ru, _) = encode_chroma_residual(src_u, &pu, qp, false, fc.cfg.trellis, w, prof, ek);
    let (rv, _) = encode_chroma_residual(src_v, &pv, qp, false, fc.cfg.trellis, w, prof, ek);
    commit_mb(fc, recon, &ry, &ru, &rv, mb_x, mb_y, prof, cur_slot);
}

#[allow(clippy::too_many_arguments)]
fn p8_residual<W: EntropyWriter>(
    fc: &FrameCtx<'_>,
    w: &mut W,
    recon: &mut Frame,
    anchor: &Anchor,
    sub: [MotionVector; 4],
    src_y: &[u8; 256],
    src_u: &[u8; 64],
    src_v: &[u8; 64],
    qp: Qp,
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) {
    // Shared P8x8 prediction assembly (see mc::build_p8_pred).
    let (py, pu, pv) = crate::mc::build_p8_pred(&anchor.frame, &sub, mb_x, mb_y);
    for row in 0..16usize {
        prof.load(fc.bufs.ref_luma(anchor.slot, mb_x * 16, mb_y * 16 + row));
    }
    prof.kernel(K_MC, 4, 180, 12);

    let ek = if fc.cfg.cabac { K_CABAC } else { K_CAVLC };
    let (ry, _) = encode_luma_residual(
        src_y,
        &py,
        qp,
        false,
        fc.cfg.trellis,
        w,
        prof,
        fc.bufs.scratch,
        ek,
    );
    let (ru, _) = encode_chroma_residual(src_u, &pu, qp, false, fc.cfg.trellis, w, prof, ek);
    let (rv, _) = encode_chroma_residual(src_v, &pv, qp, false, fc.cfg.trellis, w, prof, ek);
    commit_mb(fc, recon, &ry, &ru, &rv, mb_x, mb_y, prof, cur_slot);
}

#[allow(clippy::too_many_arguments)]
fn intra16_residual<W: EntropyWriter>(
    fc: &FrameCtx<'_>,
    w: &mut W,
    recon: &mut Frame,
    pred_y: &[u8; 256],
    src_y: &[u8; 256],
    src_u: &[u8; 64],
    src_v: &[u8; 64],
    qp: Qp,
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) {
    let pu = predict_chroma_dc(recon.u(), mb_x * 8, mb_y * 8);
    let pv = predict_chroma_dc(recon.v(), mb_x * 8, mb_y * 8);
    let ek = if fc.cfg.cabac { K_CABAC } else { K_CAVLC };
    let (ry, _) = encode_luma_residual(
        src_y,
        pred_y,
        qp,
        true,
        fc.cfg.trellis,
        w,
        prof,
        fc.bufs.scratch,
        ek,
    );
    let (ru, _) = encode_chroma_residual(src_u, &pu, qp, true, fc.cfg.trellis, w, prof, ek);
    let (rv, _) = encode_chroma_residual(src_v, &pv, qp, true, fc.cfg.trellis, w, prof, ek);
    commit_mb(fc, recon, &ry, &ru, &rv, mb_x, mb_y, prof, cur_slot);
}

/// Encodes an I4x4 macroblock: per 4x4 block, choose a mode against the
/// *reconstructed* neighbours, code the residual, and commit immediately so
/// the next block predicts from real reconstruction. The decoder replays
/// this exactly.
#[allow(clippy::too_many_arguments)]
fn intra4_encode<W: EntropyWriter>(
    fc: &FrameCtx<'_>,
    w: &mut W,
    recon: &mut Frame,
    src_y: &[u8; 256],
    src_u: &[u8; 64],
    src_v: &[u8; 64],
    qp: Qp,
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) {
    let x0 = mb_x * 16;
    let y0 = mb_y * 16;
    let mut cands = 0u32;
    for by in 0..4 {
        for bx in 0..4 {
            let x = x0 + bx * 4;
            let y = y0 + by * 4;
            let mut blk_src = [0u8; 16];
            for r in 0..4 {
                for c in 0..4 {
                    blk_src[r * 4 + c] = src_y[(by * 4 + r) * 16 + bx * 4 + c];
                }
            }
            // Mode decision on real reconstructed neighbours. x264 computes
            // all candidate SATDs and min-reduces, so the decision costs one
            // data-dependent branch per block, not one per candidate.
            let mut best = (Intra4Mode::Dc, [0u8; 16], u32::MAX);
            for mode in Intra4Mode::ALL {
                let pred = predict4(recon.y(), x, y, mode);
                let cost = crate::transform::satd4x4(&blk_src, &pred);
                cands += 1;
                if cost < best.2 {
                    best = (mode, pred, cost);
                }
            }
            prof.branch(12, best.0 != Intra4Mode::Dc);
            w.put_ue(ctx::IPRED + 1, best.0.index());

            // Residual for this 4x4.
            let mut res: Block4x4 = [0; 16];
            for i in 0..16 {
                res[i] = i32::from(blk_src[i]) - i32::from(best.1[i]);
            }
            dct4x4(&mut res);
            let nz = if fc.cfg.trellis > 0 {
                let out = trellis_quant(&mut res, qp, true, qp.lambda(), fc.cfg.trellis);
                crate::mbenc::emit_trellis_branches(prof, &out);
                out.nonzero
            } else {
                quant4x4(&mut res, qp, true)
            };
            let ek = if fc.cfg.cabac { K_CABAC } else { K_CAVLC };
            write_coef_block(w, &res, false, prof, ek);
            let mut out = best.1;
            if nz > 0 {
                dequant4x4(&mut res, qp);
                idct4x4(&mut res);
                for i in 0..16 {
                    out[i] = (i32::from(best.1[i]) + res[i]).clamp(0, 255) as u8;
                }
            }
            recon.y_mut().write_block(x, y, 4, 4, &out);
        }
    }
    prof.kernel(K_IPRED4, cands, 110, 2);
    prof.kernel(crate::instr::K_DCT, 16, 90, 2);
    prof.kernel(crate::instr::K_QUANT, 16, 70, 16);

    // Chroma: DC prediction as with I16x16.
    let pu = predict_chroma_dc(recon.u(), mb_x * 8, mb_y * 8);
    let pv = predict_chroma_dc(recon.v(), mb_x * 8, mb_y * 8);
    let ek = if fc.cfg.cabac { K_CABAC } else { K_CAVLC };
    let (ru, _) = encode_chroma_residual(src_u, &pu, qp, true, fc.cfg.trellis, w, prof, ek);
    let (rv, _) = encode_chroma_residual(src_v, &pv, qp, true, fc.cfg.trellis, w, prof, ek);
    recon.u_mut().write_block(mb_x * 8, mb_y * 8, 8, 8, &ru);
    recon.v_mut().write_block(mb_x * 8, mb_y * 8, 8, 8, &rv);
    // Luma was already committed block by block; charge the stores.
    charge_mb_stores(fc, mb_x, mb_y, prof, cur_slot);
}

/// Writes a completed MB into the reconstruction frame and charges the
/// store traffic.
#[allow(clippy::too_many_arguments)]
fn commit_mb(
    fc: &FrameCtx<'_>,
    recon: &mut Frame,
    ry: &[u8; 256],
    ru: &[u8; 64],
    rv: &[u8; 64],
    mb_x: usize,
    mb_y: usize,
    prof: &mut Profiler,
    cur_slot: usize,
) {
    recon.y_mut().write_block(mb_x * 16, mb_y * 16, 16, 16, ry);
    recon.u_mut().write_block(mb_x * 8, mb_y * 8, 8, 8, ru);
    recon.v_mut().write_block(mb_x * 8, mb_y * 8, 8, 8, rv);
    charge_mb_stores(fc, mb_x, mb_y, prof, cur_slot);
}

fn charge_mb_stores(
    fc: &FrameCtx<'_>,
    mb_x: usize,
    mb_y: usize,
    prof: &mut Profiler,
    cur_slot: usize,
) {
    for row in 0..16usize {
        prof.store(fc.bufs.ref_luma(cur_slot, mb_x * 16, mb_y * 16 + row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_frame::{quality, synth, vbench};
    use vtx_trace::layout::CodeLayout;
    use vtx_uarch::config::UarchConfig;

    fn prof() -> Profiler {
        let kernels = crate::instr::kernel_table();
        Profiler::new(
            &UarchConfig::baseline(),
            kernels,
            CodeLayout::default_order(kernels),
        )
        .unwrap()
    }

    fn tiny_video(name: &str) -> Video {
        // Shrink the catalog entry so encoder tests stay fast in debug builds.
        let mut spec = vbench::by_name(name).unwrap();
        spec.sim_width = 64;
        spec.sim_height = 48;
        spec.sim_frames = 6;
        synth::generate(&spec, 7)
    }

    #[test]
    fn encode_produces_bits_and_recon() {
        let v = tiny_video("cricket");
        let mut p = prof();
        let r = encode_video(&v, &EncoderConfig::default(), &mut p).unwrap();
        assert_eq!(r.recon.len(), v.frames.len());
        assert!(r.bitstream.size_bytes() > 16);
        assert_eq!(r.stats.frames.len(), v.frames.len());
    }

    #[test]
    fn recon_quality_reasonable_at_crf23() {
        let v = tiny_video("bike");
        let mut p = prof();
        let r = encode_video(&v, &EncoderConfig::default(), &mut p).unwrap();
        let psnr = quality::sequence_psnr(&v.frames, &r.recon).unwrap();
        assert!(psnr > 27.0, "psnr {psnr}");
    }

    #[test]
    fn higher_crf_means_smaller_and_worse() {
        let v = tiny_video("cricket");
        let enc = |crf: f64| {
            let mut p = prof();
            let cfg = EncoderConfig::default().with_crf(crf);
            let r = encode_video(&v, &cfg, &mut p).unwrap();
            let psnr = quality::sequence_psnr(&v.frames, &r.recon).unwrap();
            (r.bitstream.size_bytes(), psnr)
        };
        let (big, good) = enc(15.0);
        let (small, bad) = enc(40.0);
        assert!(small < big, "bytes {small} < {big}");
        assert!(bad < good, "psnr {bad} < {good}");
    }

    #[test]
    fn empty_video_rejected() {
        let spec = vbench::by_name("cat").unwrap();
        let v = Video::new(spec, vec![]);
        let mut p = prof();
        assert_eq!(
            encode_video(&v, &EncoderConfig::default(), &mut p).unwrap_err(),
            CodecError::EmptyVideo
        );
    }

    #[test]
    fn calm_content_uses_skip_mbs() {
        let v = tiny_video("desktop");
        let mut p = prof();
        let r = encode_video(&v, &EncoderConfig::default(), &mut p).unwrap();
        assert!(
            r.stats.skip_mbs > 0,
            "static content should produce skips: {:?}",
            r.stats
        );
    }

    #[test]
    fn first_frame_all_intra() {
        let v = tiny_video("cricket");
        let mut p = prof();
        let r = encode_video(&v, &EncoderConfig::default(), &mut p).unwrap();
        assert_eq!(r.stats.frames[0].ftype, FrameType::I);
        assert!(r.stats.intra_mbs >= 12, "I frame must code intra MBs");
    }

    #[test]
    fn two_pass_runs_two_encodes() {
        // A busy clip: on calm ones the complexity-driven second pass picks
        // QPs that make it much cheaper than the one-pass ABR encode it is
        // compared with (1.1-1.5x across seeds on `cricket`, 1.6x on `girl`).
        let v = tiny_video("girl");
        let cfg = EncoderConfig {
            rc: RateControlMode::TwoPassAbr { bitrate_kbps: 300 },
            ..EncoderConfig::default()
        };
        let mut p_two = prof();
        let two = encode_video(&v, &cfg, &mut p_two).unwrap();
        let rep_two = p_two.finish();

        let cfg1 = EncoderConfig {
            rc: RateControlMode::Abr { bitrate_kbps: 300 },
            ..EncoderConfig::default()
        };
        let mut p_one = prof();
        let _ = encode_video(&v, &cfg1, &mut p_one).unwrap();
        let rep_one = p_one.finish();
        assert!(
            rep_two.counts.instructions > rep_one.counts.instructions * 6 / 5,
            "two-pass {} should cost well over one-pass {}",
            rep_two.counts.instructions,
            rep_one.counts.instructions
        );
        assert!(two.bitstream.size_bytes() > 0);
    }

    #[test]
    fn deterministic_bitstream() {
        let v = tiny_video("girl");
        let mut p1 = prof();
        let a = encode_video(&v, &EncoderConfig::default(), &mut p1).unwrap();
        let mut p2 = prof();
        let b = encode_video(&v, &EncoderConfig::default(), &mut p2).unwrap();
        assert_eq!(a.bitstream, b.bitstream);
    }

    #[test]
    fn wavefront_matches_serial() {
        // The whole point of the wavefront design: threads must change
        // nothing observable — bitstream, reconstruction, stats, and every
        // simulated profiler counter.
        let v = tiny_video("bike");
        let mut p1 = prof();
        let serial = encode_video(&v, &EncoderConfig::default(), &mut p1).unwrap();
        let rep1 = p1.finish();

        for threads in [2u32, 3] {
            let mut pn = prof();
            let cfg = EncoderConfig::default().with_threads(threads);
            let par = encode_video(&v, &cfg, &mut pn).unwrap();
            let repn = pn.finish();
            assert_eq!(serial.bitstream, par.bitstream, "threads={threads}");
            assert_eq!(serial.recon, par.recon, "threads={threads}");
            assert_eq!(serial.stats, par.stats, "threads={threads}");
            assert_eq!(rep1.counts, repn.counts, "threads={threads}");
            assert_eq!(rep1.profile, repn.profile, "threads={threads}");
        }
    }

    #[test]
    fn wavefront_cbr_falls_back_to_serial() {
        // CBR's per-MB bit feedback is serial by construction; threads
        // must still produce the identical stream via the fallback.
        let v = tiny_video("cricket");
        let cfg = EncoderConfig {
            rc: RateControlMode::Cbr { bitrate_kbps: 400 },
            ..EncoderConfig::default()
        };
        let mut p1 = prof();
        let serial = encode_video(&v, &cfg, &mut p1).unwrap();
        let mut p4 = prof();
        let par = encode_video(&v, &cfg.clone().with_threads(4), &mut p4).unwrap();
        assert_eq!(serial.bitstream, par.bitstream);
        assert_eq!(p1.finish().counts, p4.finish().counts);
    }

    #[test]
    fn mv_predictor_uses_median_of_neighbours() {
        use crate::types::MotionVector as Mv;
        let mb_w = 3;
        // Grid layout (3 wide): index 4 is the centre of a 3x2 grid.
        let mvs = vec![
            Mv::new(2, 2),  // 0: top-left
            Mv::new(4, 0),  // 1: top
            Mv::new(8, -2), // 2: top-right
            Mv::new(0, 6),  // 3: left
            Mv::ZERO,       // 4: current (unset)
            Mv::ZERO,
        ];
        let intra = vec![false; 6];
        let pred = mv_predictor(&mvs, &intra, mb_w, 1, 1);
        // median(left (0,6), top (4,0), topright (8,-2)) = (4, 0)
        assert_eq!(pred, Mv::new(4, 0));
    }

    #[test]
    fn mv_predictor_treats_intra_and_borders_as_zero() {
        use crate::types::MotionVector as Mv;
        let mvs = vec![Mv::new(10, 10); 4];
        let mut intra = vec![false; 4];
        intra[1] = true; // top neighbour of (1,1) in a 2-wide grid
                         // (0,0): no neighbours at all -> zero.
        assert_eq!(mv_predictor(&mvs, &intra, 2, 0, 0), Mv::ZERO);
        // (1,1): left = mvs[2] = (10,10), top = intra -> 0, topright = off-grid -> 0.
        // median(10,0,0) = 0.
        assert_eq!(mv_predictor(&mvs, &intra, 2, 1, 1), Mv::ZERO);
    }

    #[test]
    fn ref_lists_order_and_truncate() {
        let mk = |display: usize, slot: usize| Anchor {
            display,
            frame: RefFrame::new(&Frame::new(16, 16)),
            slot,
        };
        let anchors = vec![mk(0, 0), mk(3, 1), mk(6, 2), mk(9, 3)];
        // P frame at display 10: list0 = newest-first past anchors, capped.
        let (l0, l1) = ref_lists(&anchors, 10, 2);
        assert_eq!(l0, vec![3, 2]); // displays 9, 6
        assert!(l1.is_empty());
        // B frame at display 5: past = {3, 0}, future = {6} (nearest only).
        let (l0, l1) = ref_lists(&anchors, 5, 4);
        assert_eq!(l0, vec![1, 0]); // displays 3, 0
        assert_eq!(l1, vec![2]); // display 6
    }

    #[test]
    fn skip_threshold_grows_with_qp() {
        assert!(skip_threshold(Qp::new(40)) > skip_threshold(Qp::new(20)));
        assert!(skip_threshold(Qp::new(20)) > 0);
    }

    #[test]
    fn bitrate_helper() {
        let bs = Bitstream {
            data: vec![0; 1250],
        };
        assert!((bs.bitrate_kbps(1.0) - 10.0).abs() < 1e-9);
        assert_eq!(bs.bitrate_kbps(0.0), 0.0);
    }
}
