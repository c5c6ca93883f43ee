//! The video decoder: the exact mirror of [`crate::encoder`].
//!
//! Decoding is the first stage of every transcode (§II-A of the paper:
//! decode to raw frames, then re-encode). The decoder is fully instrumented
//! with its own kernel identities (`dec_parse`, `dec_pred`, `dec_recon`,
//! `dec_deblock`) so transcoding profiles include the decode-side front-end
//! and memory behaviour.

use vtx_frame::Frame;
use vtx_trace::Profiler;

use crate::bufs::CodecBufs;
use crate::deblock::deblock_frame;
use crate::encoder::{mv_predictor, ref_lists, Anchor, Bitstream, MAGIC, VERSION};
use crate::entropy::cabac::CabacReader;
use crate::entropy::cavlc::CavlcReader;
use crate::entropy::{ctx, EntropyReader};
use crate::instr::{K_DEC_DEBLOCK, K_DEC_PARSE, K_DEC_PRED, K_DEC_RECON};
use crate::intra::{predict16, predict4, predict_chroma_dc, Intra16Mode, Intra4Mode};
use crate::mbenc::{decode_chroma_residual, decode_luma_residual, read_coef_block};
use crate::mc::{build_inter_pred_frames, build_p8_pred, RefFrame};
use crate::quant::dequant4x4;
use crate::transform::idct4x4;
use crate::types::{FrameType, MotionVector, Qp};
use crate::{CodecError, DecodeError};

/// A decoded clip, in display order.
#[derive(Debug, Clone)]
pub struct DecodedVideo {
    /// Decoded frames in display order.
    pub frames: Vec<Frame>,
    /// Luma width.
    pub width: usize,
    /// Luma height.
    pub height: usize,
}

struct Header {
    width: usize,
    height: usize,
    frame_count: usize,
    cabac: bool,
    deblock: Option<(i8, i8)>,
    refs: u8,
    scale: u32,
}

/// Largest luma dimension the decoder will allocate for. A flipped bit in
/// the 16-bit width/height fields can otherwise demand multi-gigabyte frame
/// buffers; 4096 covers every vbench clip (up to 4K) with headroom.
const MAX_DECODE_DIM: usize = 4096;

fn parse_header(data: &[u8]) -> Result<(Header, usize), DecodeError> {
    if data.len() < 15 {
        return Err(DecodeError::Truncated {
            offset: 0,
            context: "container header",
        });
    }
    if &data[0..4] != MAGIC || data[4] != VERSION {
        return Err(DecodeError::BadMagic);
    }
    let width = usize::from(u16::from_le_bytes([data[5], data[6]]));
    let height = usize::from(u16::from_le_bytes([data[7], data[8]]));
    // data[9] is the frame rate, which decoding does not need.
    let frame_count = usize::from(u16::from_le_bytes([data[10], data[11]]));
    let flags = data[12];
    let refs = data[13].clamp(1, 16);
    let da = data[14] as i8;
    if data.len() < 17 {
        return Err(DecodeError::Truncated {
            offset: 14,
            context: "deblock offsets",
        });
    }
    let db = data[15] as i8;
    let scale = u32::from(data[16].max(1));
    if width == 0 || height == 0 || width % 16 != 0 || height % 16 != 0 {
        return Err(DecodeError::Corrupt {
            offset: 5,
            context: "frame dimensions",
        });
    }
    if width > MAX_DECODE_DIM || height > MAX_DECODE_DIM {
        return Err(DecodeError::Oversized { width, height });
    }
    Ok((
        Header {
            width,
            height,
            frame_count,
            cabac: flags & 1 != 0,
            deblock: if flags & 2 != 0 { Some((da, db)) } else { None },
            refs,
            scale,
        },
        17,
    ))
}

/// Decodes a vtx bitstream back into raw frames.
///
/// # Errors
///
/// Returns [`CodecError::BadMagic`] for foreign data and
/// [`CodecError::CorruptBitstream`] for truncated or inconsistent payloads.
pub fn decode_video(bs: &Bitstream, prof: &mut Profiler) -> Result<DecodedVideo, CodecError> {
    let (hdr, mut pos) = parse_header(&bs.data)?;
    let pool = usize::from(hdr.refs) + 2;
    let bufs = CodecBufs::new(prof, hdr.width, hdr.height, 1, pool, hdr.scale);

    let mut st = DecoderState {
        bufs,
        mb_w: hdr.width / 16,
        mb_h: hdr.height / 16,
        anchors: Vec::new(),
        next_slot: 0,
        global_mb: 0,
        refs: hdr.refs,
        deblock: hdr.deblock,
    };

    let mut frames: Vec<Option<Frame>> = vec![None; hdr.frame_count];
    for _ in 0..hdr.frame_count {
        if pos + 8 > bs.data.len() {
            return Err(CodecError::CorruptBitstream {
                offset: pos,
                context: "frame header",
            });
        }
        let ftype = match bs.data[pos] {
            0 => FrameType::I,
            1 => FrameType::P,
            2 => FrameType::B,
            3 => {
                // IDR: a forced segment-boundary keyframe. Mirror the
                // encoder by dropping every reference anchor before the
                // frame decodes — nothing may predict across the cut.
                st.anchors.clear();
                FrameType::I
            }
            _ => {
                return Err(CodecError::CorruptBitstream {
                    offset: pos,
                    context: "frame type",
                })
            }
        };
        let display = usize::from(u16::from_le_bytes([bs.data[pos + 1], bs.data[pos + 2]]));
        let qp = Qp::new(i32::from(bs.data[pos + 3]));
        let len = u32::from_le_bytes([
            bs.data[pos + 4],
            bs.data[pos + 5],
            bs.data[pos + 6],
            bs.data[pos + 7],
        ]) as usize;
        pos += 8;
        if pos + len > bs.data.len() || display >= hdr.frame_count {
            return Err(CodecError::CorruptBitstream {
                offset: pos,
                context: "frame payload",
            });
        }
        let payload = &bs.data[pos..pos + len];
        prof.load_range(st.bufs.bitstream + pos as u64, len as u64);
        pos += len;

        let frame = {
            let _frame_span = vtx_telemetry::Span::enter_with(
                match ftype {
                    FrameType::I => "decode_frame/I",
                    FrameType::P => "decode_frame/P",
                    FrameType::B => "decode_frame/B",
                },
                |a| {
                    a.u64("display", display as u64);
                },
            );
            if hdr.cabac {
                decode_frame(&mut st, ftype, qp, display, CabacReader::new(payload), prof)?
            } else {
                decode_frame(&mut st, ftype, qp, display, CavlcReader::new(payload), prof)?
            }
        };

        if frames[display].is_some() {
            return Err(CodecError::CorruptBitstream {
                offset: pos,
                context: "duplicate display index",
            });
        }
        if ftype != FrameType::B {
            let slot = st.next_slot;
            st.next_slot = (st.next_slot + 1) % pool;
            st.anchors.push(Anchor {
                display,
                frame: RefFrame::new(&frame),
                slot,
            });
            let keep = usize::from(hdr.refs) + 1;
            if st.anchors.len() > keep {
                st.anchors.drain(..st.anchors.len() - keep);
            }
        }
        frames[display] = Some(frame);
    }

    let frames: Result<Vec<Frame>, CodecError> = frames
        .into_iter()
        .map(|f| {
            f.ok_or(CodecError::CorruptBitstream {
                offset: pos,
                context: "missing frame",
            })
        })
        .collect();

    Ok(DecodedVideo {
        frames: frames?,
        width: hdr.width,
        height: hdr.height,
    })
}

struct DecoderState {
    bufs: CodecBufs,
    mb_w: usize,
    mb_h: usize,
    anchors: Vec<Anchor>,
    next_slot: usize,
    global_mb: u64,
    refs: u8,
    deblock: Option<(i8, i8)>,
}

fn decode_frame<R: EntropyReader>(
    st: &mut DecoderState,
    ftype: FrameType,
    base_qp: Qp,
    display: usize,
    mut r: R,
    prof: &mut Profiler,
) -> Result<Frame, CodecError> {
    let width = st.mb_w * 16;
    let height = st.mb_h * 16;
    let mut recon = Frame::new(width, height);
    let (list0, list1) = ref_lists(&st.anchors, display, st.refs);
    let mut mvs = vec![MotionVector::ZERO; st.mb_w * st.mb_h];
    let mut intra_map = vec![false; st.mb_w * st.mb_h];
    let mut prev_qp = base_qp;
    let cur_slot = st.next_slot % st.bufs.ref_pool.len();

    for mb_y in 0..st.mb_h {
        for mb_x in 0..st.mb_w {
            let mb_i = mb_y * st.mb_w + mb_x;
            prof.begin_unit(st.global_mb);
            st.global_mb += 1;
            prof.kernel(K_DEC_PARSE, 1, 120, 2);

            let pred_mv = mv_predictor(&mvs, &intra_map, st.mb_w, mb_x, mb_y);
            prof.load(st.bufs.tables + 8192);

            if ftype != FrameType::I && r.get_bit(ctx::SKIP)? {
                // Skip: forward MC with the predictor, no residual.
                let anchor = anchor_at(st, &list0, 0)?;
                let (py, pu, pv) = build_inter_pred_frames(
                    &anchor.frame,
                    None,
                    pred_mv,
                    MotionVector::ZERO,
                    0,
                    mb_x,
                    mb_y,
                );
                charge_pred(st, anchor, mb_x, mb_y, prof);
                commit(st, &mut recon, &py, &pu, &pv, mb_x, mb_y, cur_slot, prof);
                mvs[mb_i] = pred_mv;
                intra_map[mb_i] = false;
                continue;
            }

            let mode = r.get_ue(ctx::MB_MODE)?;
            match (ftype, mode) {
                (FrameType::P, 0) => {
                    let ref_idx = if st.refs > 1 {
                        r.get_ue(ctx::REF_IDX)? as usize
                    } else {
                        0
                    };
                    let mv = read_mv(&mut r, pred_mv)?;
                    let qp = read_qp(&mut r, &mut prev_qp)?;
                    let anchor = anchor_at(st, &list0, ref_idx)?;
                    let (py, pu, pv) = build_inter_pred_frames(
                        &anchor.frame,
                        None,
                        mv,
                        MotionVector::ZERO,
                        0,
                        mb_x,
                        mb_y,
                    );
                    charge_pred(st, anchor, mb_x, mb_y, prof);
                    inter_decode(
                        st, &mut r, &mut recon, &py, &pu, &pv, qp, mb_x, mb_y, cur_slot, prof,
                    )?;
                    mvs[mb_i] = mv;
                    intra_map[mb_i] = false;
                }
                (FrameType::P, 1) => {
                    let ref_idx = if st.refs > 1 {
                        r.get_ue(ctx::REF_IDX)? as usize
                    } else {
                        0
                    };
                    let mut sub = [MotionVector::ZERO; 4];
                    for mv in &mut sub {
                        *mv = read_mv(&mut r, pred_mv)?;
                    }
                    let qp = read_qp(&mut r, &mut prev_qp)?;
                    let anchor = anchor_at(st, &list0, ref_idx)?;
                    let (py, pu, pv) = build_p8_pred(&anchor.frame, &sub, mb_x, mb_y);
                    charge_pred(st, anchor, mb_x, mb_y, prof);
                    inter_decode(
                        st, &mut r, &mut recon, &py, &pu, &pv, qp, mb_x, mb_y, cur_slot, prof,
                    )?;
                    mvs[mb_i] = sub[3];
                    intra_map[mb_i] = false;
                }
                (FrameType::B, 0) => {
                    let dir = r.get_ue(ctx::MB_MODE + 4)? as u8;
                    if dir > 2 {
                        return Err(CodecError::CorruptBitstream {
                            offset: 0,
                            context: "b direction",
                        });
                    }
                    let fwd = if dir != 1 {
                        read_mv(&mut r, pred_mv)?
                    } else {
                        MotionVector::ZERO
                    };
                    let bwd = if dir != 0 {
                        read_mv(&mut r, MotionVector::ZERO)?
                    } else {
                        MotionVector::ZERO
                    };
                    let qp = read_qp(&mut r, &mut prev_qp)?;
                    let fa = anchor_at(st, &list0, 0)?;
                    let ba = anchor_at(st, &list1, 0)?;
                    let (py, pu, pv) = build_inter_pred_frames(
                        &fa.frame,
                        Some(&ba.frame),
                        fwd,
                        bwd,
                        dir,
                        mb_x,
                        mb_y,
                    );
                    if dir != 1 {
                        charge_pred(st, fa, mb_x, mb_y, prof);
                    }
                    if dir != 0 {
                        charge_pred(st, ba, mb_x, mb_y, prof);
                    }
                    inter_decode(
                        st, &mut r, &mut recon, &py, &pu, &pv, qp, mb_x, mb_y, cur_slot, prof,
                    )?;
                    mvs[mb_i] = if dir == 1 { MotionVector::ZERO } else { fwd };
                    intra_map[mb_i] = false;
                }
                // I16x16 in I/P/B frames (mode indices differ per frame type).
                (FrameType::I, 0) | (FrameType::P, 2) | (FrameType::B, 1) => {
                    let m = Intra16Mode::from_index(r.get_ue(ctx::IPRED)?).ok_or(
                        CodecError::CorruptBitstream {
                            offset: 0,
                            context: "intra16 mode",
                        },
                    )?;
                    let qp = read_qp(&mut r, &mut prev_qp)?;
                    let pred = predict16(recon.y(), mb_x * 16, mb_y * 16, m);
                    let pu = predict_chroma_dc(recon.u(), mb_x * 8, mb_y * 8);
                    let pv = predict_chroma_dc(recon.v(), mb_x * 8, mb_y * 8);
                    prof.kernel(K_DEC_PRED, 1, 260, 6);
                    inter_decode(
                        st, &mut r, &mut recon, &pred, &pu, &pv, qp, mb_x, mb_y, cur_slot, prof,
                    )?;
                    mvs[mb_i] = MotionVector::ZERO;
                    intra_map[mb_i] = true;
                }
                // I4x4.
                (FrameType::I, 1) | (FrameType::P, 3) | (FrameType::B, 2) => {
                    let qp = read_qp(&mut r, &mut prev_qp)?;
                    intra4_decode(st, &mut r, &mut recon, qp, mb_x, mb_y, cur_slot, prof)?;
                    mvs[mb_i] = MotionVector::ZERO;
                    intra_map[mb_i] = true;
                }
                _ => {
                    return Err(CodecError::CorruptBitstream {
                        offset: 0,
                        context: "mb mode",
                    })
                }
            }
        }
    }

    if let Some(offsets) = st.deblock {
        prof.begin_unit(st.global_mb);
        st.global_mb += 1;
        deblock_frame(
            &mut recon,
            base_qp,
            offsets,
            prof,
            K_DEC_DEBLOCK,
            st.bufs.ref_pool[cur_slot],
            st.bufs.scale(),
        );
    }
    Ok(recon)
}

fn anchor_at<'a>(
    st: &'a DecoderState,
    list: &[usize],
    idx: usize,
) -> Result<&'a Anchor, CodecError> {
    list.get(idx)
        .map(|&i| &st.anchors[i])
        .ok_or(CodecError::CorruptBitstream {
            offset: 0,
            context: "reference index",
        })
}

fn read_mv<R: EntropyReader>(r: &mut R, pred: MotionVector) -> Result<MotionVector, CodecError> {
    // In `i64`: a difference of up to 2^31 - 1 either way plus the
    // predictor must not overflow before the range check rejects it.
    let dx = r.get_se(ctx::MVD_X)?;
    let dy = r.get_se(ctx::MVD_Y)?;
    let cx = i64::from(pred.x) + i64::from(dx);
    let cy = i64::from(pred.y) + i64::from(dy);
    if !(-2048..=2048).contains(&cx) || !(-2048..=2048).contains(&cy) {
        return Err(CodecError::CorruptBitstream {
            offset: 0,
            context: "motion vector",
        });
    }
    Ok(MotionVector::new(cx as i16, cy as i16))
}

fn read_qp<R: EntropyReader>(r: &mut R, prev: &mut Qp) -> Result<Qp, CodecError> {
    let delta = r.get_se(ctx::QP_DELTA)?;
    let qp = Qp::new(i32::from(prev.value()).saturating_add(delta));
    *prev = qp;
    Ok(qp)
}

fn charge_pred(st: &DecoderState, anchor: &Anchor, mb_x: usize, mb_y: usize, prof: &mut Profiler) {
    for row in 0..16usize {
        prof.load(st.bufs.ref_luma(anchor.slot, mb_x * 16, mb_y * 16 + row));
    }
    prof.kernel(K_DEC_PRED, 1, 420, 24);
}

#[allow(clippy::too_many_arguments)]
fn inter_decode<R: EntropyReader>(
    st: &DecoderState,
    r: &mut R,
    recon: &mut Frame,
    py: &[u8; 256],
    pu: &[u8; 64],
    pv: &[u8; 64],
    qp: Qp,
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) -> Result<(), CodecError> {
    let (ry, _) = decode_luma_residual(py, qp, r, prof, st.bufs.scratch)?;
    let (ru, _) = decode_chroma_residual(pu, qp, r, prof)?;
    let (rv, _) = decode_chroma_residual(pv, qp, r, prof)?;
    commit(st, recon, &ry, &ru, &rv, mb_x, mb_y, cur_slot, prof);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn intra4_decode<R: EntropyReader>(
    st: &DecoderState,
    r: &mut R,
    recon: &mut Frame,
    qp: Qp,
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) -> Result<(), CodecError> {
    let x0 = mb_x * 16;
    let y0 = mb_y * 16;
    for by in 0..4 {
        for bx in 0..4 {
            let x = x0 + bx * 4;
            let y = y0 + by * 4;
            let mode = Intra4Mode::from_index(r.get_ue(ctx::IPRED + 1)?).ok_or(
                CodecError::CorruptBitstream {
                    offset: 0,
                    context: "intra4 mode",
                },
            )?;
            let pred = predict4(recon.y(), x, y, mode);
            let (mut blk, nz) = read_coef_block(r, false, prof)?;
            let mut out = pred;
            if nz > 0 {
                dequant4x4(&mut blk, qp);
                idct4x4(&mut blk);
                for i in 0..16 {
                    out[i] = (i32::from(pred[i]) + blk[i]).clamp(0, 255) as u8;
                }
            }
            recon.y_mut().write_block(x, y, 4, 4, &out);
        }
    }
    prof.kernel(K_DEC_PRED, 16, 110, 2);

    let pu = predict_chroma_dc(recon.u(), mb_x * 8, mb_y * 8);
    let pv = predict_chroma_dc(recon.v(), mb_x * 8, mb_y * 8);
    let (ru, _) = decode_chroma_residual(&pu, qp, r, prof)?;
    let (rv, _) = decode_chroma_residual(&pv, qp, r, prof)?;
    recon.u_mut().write_block(mb_x * 8, mb_y * 8, 8, 8, &ru);
    recon.v_mut().write_block(mb_x * 8, mb_y * 8, 8, 8, &rv);
    charge_stores(st, mb_x, mb_y, cur_slot, prof);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn commit(
    st: &DecoderState,
    recon: &mut Frame,
    ry: &[u8; 256],
    ru: &[u8; 64],
    rv: &[u8; 64],
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) {
    recon.y_mut().write_block(mb_x * 16, mb_y * 16, 16, 16, ry);
    recon.u_mut().write_block(mb_x * 8, mb_y * 8, 8, 8, ru);
    recon.v_mut().write_block(mb_x * 8, mb_y * 8, 8, 8, rv);
    charge_stores(st, mb_x, mb_y, cur_slot, prof);
}

fn charge_stores(
    st: &DecoderState,
    mb_x: usize,
    mb_y: usize,
    cur_slot: usize,
    prof: &mut Profiler,
) {
    prof.kernel(K_DEC_RECON, 16, 60, 0);
    for row in 0..16usize {
        prof.store(st.bufs.ref_luma(cur_slot, mb_x * 16, mb_y * 16 + row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderConfig;
    use crate::encoder::encode_video;
    use vtx_frame::{synth, vbench, Video};
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
        let mut spec = vbench::by_name(name).unwrap();
        spec.sim_width = 64;
        spec.sim_height = 48;
        spec.sim_frames = 6;
        synth::generate(&spec, 7)
    }

    fn roundtrip(name: &str, cfg: &EncoderConfig) {
        let v = tiny_video(name);
        let mut p = prof();
        let enc = encode_video(&v, cfg, &mut p).unwrap();
        let dec = decode_video(&enc.bitstream, &mut p).unwrap();
        assert_eq!(dec.frames.len(), v.frames.len());
        for (i, (d, e)) in dec.frames.iter().zip(enc.recon.iter()).enumerate() {
            assert_eq!(d, e, "frame {i} ({name}) decode != encoder recon");
        }
    }

    #[test]
    fn decode_matches_encoder_recon_cabac() {
        roundtrip("cricket", &EncoderConfig::default());
    }

    #[test]
    fn decode_matches_encoder_recon_cavlc() {
        let cfg = EncoderConfig {
            cabac: false,
            ..EncoderConfig::default()
        };
        roundtrip("cricket", &cfg);
    }

    #[test]
    fn decode_matches_with_bframes_disabled() {
        let cfg = EncoderConfig {
            bframes: 0,
            ..EncoderConfig::default()
        };
        roundtrip("girl", &cfg);
    }

    #[test]
    fn decode_matches_without_deblock() {
        let cfg = EncoderConfig {
            deblock: None,
            ..EncoderConfig::default()
        };
        roundtrip("bike", &cfg);
    }

    #[test]
    fn decode_matches_high_crf() {
        roundtrip("holi", &EncoderConfig::default().with_crf(40.0));
    }

    #[test]
    fn decode_matches_many_refs() {
        roundtrip("game2", &EncoderConfig::default().with_refs(6));
    }

    #[test]
    fn header_rejects_bad_geometry_and_truncation() {
        let mut p = prof();
        // Too short for even the fixed header.
        let bs = Bitstream {
            data: b"VTXB\x01".to_vec(),
        };
        assert!(matches!(
            decode_video(&bs, &mut p),
            Err(CodecError::CorruptBitstream { .. })
        ));
        // Valid magic but non-MB-aligned dimensions.
        let mut data = Vec::new();
        data.extend_from_slice(b"VTXB");
        data.push(1); // version
        data.extend_from_slice(&33u16.to_le_bytes()); // width: not even MB
        data.extend_from_slice(&32u16.to_le_bytes());
        data.push(30);
        data.extend_from_slice(&0u16.to_le_bytes());
        data.extend_from_slice(&[0, 1, 0, 0, 8]);
        let bs = Bitstream { data };
        assert!(matches!(
            decode_video(&bs, &mut p),
            Err(CodecError::CorruptBitstream { .. })
        ));
    }

    #[test]
    fn oversized_geometry_is_refused_without_allocating() {
        // 65520x65520 (the largest MB-aligned u16 geometry) would demand
        // ~6 GB of frame buffer; the decoder must refuse up front.
        let mut data = Vec::new();
        data.extend_from_slice(b"VTXB");
        data.push(1);
        data.extend_from_slice(&65520u16.to_le_bytes());
        data.extend_from_slice(&65520u16.to_le_bytes());
        data.push(30);
        data.extend_from_slice(&1u16.to_le_bytes());
        data.extend_from_slice(&[0, 1, 0, 0, 8]);
        let mut p = prof();
        assert_eq!(
            decode_video(&Bitstream { data }, &mut p).unwrap_err(),
            CodecError::CorruptBitstream {
                offset: 5,
                context: "oversized geometry"
            }
        );
    }

    #[test]
    fn zero_frames_yields_empty_clip_error_free_structures() {
        // A header declaring zero frames decodes to zero frames.
        let mut data = Vec::new();
        data.extend_from_slice(b"VTXB");
        data.push(1);
        data.extend_from_slice(&32u16.to_le_bytes());
        data.extend_from_slice(&32u16.to_le_bytes());
        data.push(30);
        data.extend_from_slice(&0u16.to_le_bytes()); // 0 frames
        data.extend_from_slice(&[0, 1, 0, 0, 8]);
        let mut p = prof();
        let out = decode_video(&Bitstream { data }, &mut p).unwrap();
        assert!(out.frames.is_empty());
        assert_eq!(out.width, 32);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut p = prof();
        let bs = Bitstream {
            data: b"NOPE0000000000000000".to_vec(),
        };
        assert_eq!(decode_video(&bs, &mut p).unwrap_err(), CodecError::BadMagic);
    }

    #[test]
    fn truncated_stream_errors_not_panics() {
        let v = tiny_video("cat");
        let mut p = prof();
        let enc = encode_video(&v, &EncoderConfig::default(), &mut p).unwrap();
        for cut in [10, 20, enc.bitstream.data.len() / 2] {
            let bs = Bitstream {
                data: enc.bitstream.data[..cut].to_vec(),
            };
            assert!(decode_video(&bs, &mut p).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn forced_idr_cut_decodes_standalone() {
        // A forced keyframe must reset prediction state so the records from
        // the cut onward form a self-contained stream: rebuild them under a
        // fresh header and the real decoder must reproduce the encoder's
        // reconstruction without ever seeing the frames before the cut.
        let v = tiny_video("cricket"); // 6 frames
        let n = v.frames.len();
        let cut = 3usize;
        let cfg = EncoderConfig::default().with_force_kf(vec![cut as u32]);
        let mut p = prof();
        let enc = encode_video(&v, &cfg, &mut p).unwrap();

        // Whole-stream roundtrip still matches the encoder recon.
        let dec = decode_video(&enc.bitstream, &mut p).unwrap();
        for (i, (d, e)) in dec.frames.iter().zip(enc.recon.iter()).enumerate() {
            assert_eq!(d, e, "frame {i} decode != encoder recon");
        }

        // Walk the records: header is 17 bytes, then per-record
        // ftype u8 + display u16 LE + qp u8 + len u32 LE + payload.
        let data = &enc.bitstream.data;
        let mut pos = 17usize;
        let mut idr_seen = false;
        let mut tail = Vec::new(); // records with display >= cut, rebased
        while pos < data.len() {
            let ftype = data[pos];
            let display = usize::from(u16::from_le_bytes([data[pos + 1], data[pos + 2]]));
            let len =
                u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]])
                    as usize;
            let rec_end = pos + 8 + len;
            if display == cut {
                assert_eq!(ftype, 3, "forced cut must be coded as an IDR record");
                idr_seen = true;
            }
            if display >= cut {
                assert!(idr_seen, "segment records must start at the IDR");
                let mut rec = data[pos..rec_end].to_vec();
                let rebased = (display - cut) as u16;
                rec[1..3].copy_from_slice(&rebased.to_le_bytes());
                tail.extend_from_slice(&rec);
            }
            pos = rec_end;
        }
        assert!(idr_seen, "IDR record missing");

        // Standalone stream: original header with frame_count patched.
        let mut seg = data[..17].to_vec();
        seg[10..12].copy_from_slice(&((n - cut) as u16).to_le_bytes());
        seg.extend_from_slice(&tail);
        let out = decode_video(&Bitstream { data: seg }, &mut p).unwrap();
        assert_eq!(out.frames.len(), n - cut);
        for (i, f) in out.frames.iter().enumerate() {
            assert_eq!(
                f,
                &enc.recon[cut + i],
                "standalone frame {i} != whole-clip recon {}",
                cut + i
            );
        }
    }

    #[test]
    fn empty_force_kf_leaves_bitstream_unchanged() {
        let v = tiny_video("girl");
        let mut p1 = prof();
        let base = encode_video(&v, &EncoderConfig::default(), &mut p1).unwrap();
        let mut p2 = prof();
        let cfg = EncoderConfig::default().with_force_kf(Vec::new());
        let same = encode_video(&v, &cfg, &mut p2).unwrap();
        assert_eq!(base.bitstream, same.bitstream);
    }

    /// A level coded as `u32::MAX` — the code `get_se` once read as
    /// `i32::MIN` — and motion-vector differences at and past both ends of
    /// the signed range, with predictors of either sign: each is an `Err`
    /// from the reader, never an overflow, on both backends. QP deltas at
    /// both ends saturate into the QP range instead of overflowing.
    #[test]
    fn crafted_levels_and_mvds_past_the_range_are_errors() {
        use crate::entropy::cabac::CabacWriter;
        use crate::entropy::cavlc::CavlcWriter;
        use crate::entropy::EntropyWriter;

        fn level_stream<W: EntropyWriter>(mut w: W) -> Vec<u8> {
            w.put_bit(ctx::CBF, true);
            w.put_ue(ctx::NZ_COUNT, 0);
            w.put_ue(ctx::RUN, 0);
            w.put_ue(ctx::LEVEL, u32::MAX);
            w.finish()
        }
        fn mvd_stream<W: EntropyWriter>(mut w: W, dx: Result<i32, u32>) -> Vec<u8> {
            match dx {
                Ok(v) => w.put_se(ctx::MVD_X, v),
                Err(code) => w.put_ue(ctx::MVD_X, code),
            }
            w.put_se(ctx::MVD_Y, 0);
            w.finish()
        }
        fn qp_stream<W: EntropyWriter>(mut w: W, delta: i32) -> Vec<u8> {
            w.put_se(ctx::QP_DELTA, delta);
            w.finish()
        }
        for (prev, delta, want) in [(51, i32::MAX, 51), (0, -i32::MAX, 0), (26, 3, 29)] {
            let bytes = qp_stream(CabacWriter::new(), delta);
            let got = read_qp(&mut CabacReader::new(&bytes), &mut Qp::new(prev));
            assert_eq!(got, Ok(Qp::new(want)), "{delta} from {prev}");
        }
        let mvds = [
            Err(u32::MAX),
            Ok(i32::MAX),
            Ok(-i32::MAX),
            Ok(2049),
            Ok(-2049),
        ];
        let preds = [-2048, -1, 0, 1, 2048].map(|v| MotionVector::new(v, v));
        let mut p = prof();

        let bytes = level_stream(CabacWriter::new());
        assert!(read_coef_block(&mut CabacReader::new(&bytes), false, &mut p).is_err());
        let bytes = level_stream(CavlcWriter::new());
        assert!(read_coef_block(&mut CavlcReader::new(&bytes), false, &mut p).is_err());
        for dx in mvds {
            for pred in preds {
                let bytes = mvd_stream(CabacWriter::new(), dx);
                let cabac = read_mv(&mut CabacReader::new(&bytes), pred);
                let bytes = mvd_stream(CavlcWriter::new(), dx);
                let cavlc = read_mv(&mut CavlcReader::new(&bytes), pred);
                let in_range = matches!(dx, Ok(v) if (-2048..=2048).contains(&(i64::from(pred.x) + i64::from(v))));
                assert_eq!(cabac.is_ok(), in_range, "{dx:?} from {pred:?}");
                assert_eq!(cavlc, cabac, "{dx:?} from {pred:?}");
            }
        }
    }

    #[test]
    fn corrupted_payload_errors_not_panics() {
        let v = tiny_video("cat");
        let mut p = prof();
        let enc = encode_video(&v, &EncoderConfig::default(), &mut p).unwrap();
        let mut data = enc.bitstream.data.clone();
        // Flip bits through the middle of the payload area.
        let n = data.len();
        for i in (n / 2..n / 2 + 64).step_by(3) {
            if i < n {
                data[i] ^= 0x5A;
            }
        }
        let bs = Bitstream { data };
        // Must terminate with Ok (garbage that still parses) or Err — no panic.
        let _ = decode_video(&bs, &mut p);
    }
}
