//! Macroblock residual coding: transform → quantization (optionally
//! trellis) → entropy syntax → reconstruction, plus the exact decode mirror.
//!
//! The coefficient syntax per 4x4 block is: a coded-block flag; if set, the
//! nonzero count minus one, then for each nonzero coefficient in zig-zag
//! order its preceding zero-run (ue) and level (se). Encoder and decoder
//! traverse blocks in identical raster order, so reconstruction is
//! bit-exact.
//!
//! Every syntax element and profiler event emitted here is a pure function
//! of the coefficient data — never of the entropy writer's internal state.
//! That invariant is what lets wavefront workers record syntax, symbol by
//! symbol, against a stateless sink and replay it later through the real
//! (stateful) writer with bit-identical results.

use vtx_trace::Profiler;

use crate::entropy::{ctx, EntropyReader, EntropyWriter};
use crate::instr::{K_DCT, K_DEQUANT, K_IDCT, K_QUANT, K_RECON, K_TRELLIS};
use crate::quant::{dequant4x4, quant4x4};
use crate::tables::ZIGZAG4X4;
use crate::transform::{dct4x4, idct4x4, Block4x4};
use crate::trellis::trellis_quant;
use crate::types::Qp;
use crate::CodecError;

/// Quantized levels of one 4x4 block.
type CoefBlock = Block4x4;

/// Bit `pair` of the result: whether either coefficient of zig-zag pair
/// `pair` is set in the significance mask `sig`.
#[inline]
fn pair_significant(sig: u32, pair: u32) -> bool {
    (sig >> (2 * pair)) & 3 != 0
}

/// Writes one quantized 4x4 block's syntax. Returns the nonzero count.
///
/// One pass over the block builds its zig-zag significance mask (bit `zi`
/// set: the coefficient at zig-zag index `zi` is nonzero); the count, the
/// runs and the profiler's branch events all come from the mask.
pub(crate) fn write_coef_block<W: EntropyWriter>(
    w: &mut W,
    levels: &CoefBlock,
    chroma: bool,
    prof: &mut Profiler,
    entropy_kernel: usize,
) -> u32 {
    let coff = u32::from(chroma) * 2;
    let mut sig = 0u32;
    for (zi, &pos) in ZIGZAG4X4.iter().enumerate() {
        sig |= u32::from(levels[pos] != 0) << zi;
    }
    let nz = sig.count_ones();
    w.put_bit(ctx::CBF + coff, nz > 0);
    prof.branch(4, nz > 0);
    if nz == 0 {
        prof.kernel(entropy_kernel, 1, 18, 0);
        return 0;
    }
    w.put_ue(ctx::NZ_COUNT + coff, nz - 1);
    // The significance test is the run/level coder's inner branch; one
    // data-dependent event per coefficient pair keeps the simulated branch
    // density close to the real coder's. A pair's event comes before that
    // pair's coefficients.
    let mut pair = 0u32;
    let mut next = 0u32; // zig-zag index after the last coded coefficient
    let mut left = sig;
    while left != 0 {
        let zi = left.trailing_zeros();
        left &= left - 1;
        while pair <= zi / 2 {
            prof.branch(13, pair_significant(sig, pair));
            pair += 1;
        }
        let level = levels[ZIGZAG4X4[zi as usize]];
        w.put_ue(ctx::RUN + coff, zi - next);
        w.put_se(ctx::LEVEL + coff, level);
        prof.branch(5, level.abs() > 1);
        prof.branch(6, level < 0);
        next = zi + 1;
    }
    for _ in pair..8 {
        prof.branch(13, false);
    }
    prof.kernel(entropy_kernel, nz * 3 + 6, 26, 0);
    nz
}

/// Reads one 4x4 block's syntax (mirror of [`write_coef_block`]). Returns
/// the levels and the nonzero count.
///
/// # Errors
///
/// Returns [`CodecError::CorruptBitstream`] on truncated payloads or
/// impossible run/level placements.
pub(crate) fn read_coef_block<R: EntropyReader>(
    r: &mut R,
    chroma: bool,
    prof: &mut Profiler,
) -> Result<(CoefBlock, u32), CodecError> {
    use crate::instr::K_DEC_PARSE;
    let coff = u32::from(chroma) * 2;
    let mut levels: CoefBlock = [0; 16];
    if !r.get_bit(ctx::CBF + coff)? {
        prof.branch(4, false);
        prof.kernel(K_DEC_PARSE, 1, 18, 0);
        return Ok((levels, 0));
    }
    prof.branch(4, true);
    // Checked before the `+ 1`: a crafted code of `u32::MAX` must not wrap
    // to a zero count.
    let coded = r.get_ue(ctx::NZ_COUNT + coff)?;
    if coded >= 16 {
        return Err(CodecError::CorruptBitstream {
            offset: 0,
            context: "nonzero count",
        });
    }
    let nz = coded + 1;
    let mut sig = 0u32;
    let mut zi = 0usize;
    for _ in 0..nz {
        let run = r.get_ue(ctx::RUN + coff)? as usize;
        zi += run;
        if zi >= 16 {
            return Err(CodecError::CorruptBitstream {
                offset: 0,
                context: "coefficient run",
            });
        }
        let level = r.get_se(ctx::LEVEL + coff)?;
        if level == 0 {
            return Err(CodecError::CorruptBitstream {
                offset: 0,
                context: "zero level",
            });
        }
        prof.branch(5, level.abs() > 1);
        prof.branch(6, level < 0);
        levels[ZIGZAG4X4[zi]] = level;
        sig |= 1 << zi;
        zi += 1;
    }
    // Mirror the encoder's per-pair significance branches.
    for pair in 0..8 {
        prof.branch(13, pair_significant(sig, pair));
    }
    prof.kernel(K_DEC_PARSE, nz * 3 + 6, 24, 0);
    Ok((levels, nz))
}

/// Feeds the trellis's per-coefficient accept/reject outcomes to the branch
/// predictor: these RD comparisons are the data-dependent branches that make
/// trellis quantization expensive on real cores.
pub(crate) fn emit_trellis_branches(prof: &mut Profiler, out: &crate::trellis::TrellisOutcome) {
    for i in 0..out.considered.min(32) {
        prof.branch(15, out.changed_bits & (1 << i) != 0);
    }
}

#[inline]
fn clip_pixel(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

fn sub_block<const N: usize>(
    src: &[u8],
    pred: &[u8],
    stride: usize,
    bx: usize,
    by: usize,
) -> Block4x4 {
    let mut d: Block4x4 = [0; 16];
    for r in 0..4 {
        for c in 0..4 {
            let i = (by * 4 + r) * stride + bx * 4 + c;
            d[r * 4 + c] = i32::from(src[i]) - i32::from(pred[i]);
        }
    }
    d
}

fn add_block(recon: &mut [u8], pred: &[u8], stride: usize, bx: usize, by: usize, res: &Block4x4) {
    for r in 0..4 {
        for c in 0..4 {
            let i = (by * 4 + r) * stride + bx * 4 + c;
            recon[i] = clip_pixel(i32::from(pred[i]) + res[r * 4 + c]);
        }
    }
}

/// Transforms, quantizes and entropy-codes the residual between a 16x16
/// source block and its prediction, producing the reconstruction. Returns
/// `(recon, total_nonzero)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_luma_residual<W: EntropyWriter>(
    src: &[u8; 256],
    pred: &[u8; 256],
    qp: Qp,
    intra: bool,
    trellis_level: u8,
    w: &mut W,
    prof: &mut Profiler,
    scratch: u64,
    entropy_kernel: usize,
) -> ([u8; 256], u32) {
    let mut recon = *pred;
    let mut total_nz = 0u32;
    let mut trellis_decisions = 0u32;
    let mut coded_blocks = 0u32;

    // Canonical compilation keeps the transform / quantize / reconstruct
    // stages as separate loops, each sweeping the residual scratch; the
    // optimizer's loop fusion collapses them into one sweep.
    let sweeps = if prof.data_plan().fuse_residual { 1 } else { 4 };
    for _ in 0..sweeps {
        prof.load_range(scratch, 1024);
        prof.store_range(scratch, 1024);
    }
    for by in 0..4 {
        for bx in 0..4 {
            let mut blk = sub_block::<16>(src, pred, 16, bx, by);
            dct4x4(&mut blk);
            let nz = if trellis_level > 0 {
                let out = trellis_quant(&mut blk, qp, intra, qp.lambda(), trellis_level);
                trellis_decisions += out.decisions;
                emit_trellis_branches(prof, &out);
                out.nonzero
            } else {
                quant4x4(&mut blk, qp, intra)
            };
            write_coef_block(w, &blk, false, prof, entropy_kernel);
            if nz > 0 {
                total_nz += nz;
                coded_blocks += 1;
                dequant4x4(&mut blk, qp);
                idct4x4(&mut blk);
                add_block(&mut recon, pred, 16, bx, by, &blk);
            }
        }
    }

    prof.kernel(K_DCT, 16, 90, 2);
    prof.kernel(K_QUANT, 16, 70, 16);
    if trellis_level > 0 && trellis_decisions > 0 {
        prof.kernel(K_TRELLIS, trellis_decisions, 45, 2);
    }
    if coded_blocks > 0 {
        prof.kernel(K_DEQUANT, coded_blocks, 40, 8);
        prof.kernel(K_IDCT, coded_blocks, 90, 2);
    }
    prof.kernel(K_RECON, 16, 60, 0);
    (recon, total_nz)
}

/// Decodes a 16x16 luma residual against `pred` (mirror of
/// [`encode_luma_residual`]).
///
/// # Errors
///
/// Propagates [`CodecError::CorruptBitstream`] from the syntax reader.
pub(crate) fn decode_luma_residual<R: EntropyReader>(
    pred: &[u8; 256],
    qp: Qp,
    r: &mut R,
    prof: &mut Profiler,
    scratch: u64,
) -> Result<([u8; 256], u32), CodecError> {
    let mut recon = *pred;
    let mut total_nz = 0u32;
    prof.load_range(scratch, 1024);
    for by in 0..4 {
        for bx in 0..4 {
            let (mut blk, nz) = read_coef_block(r, false, prof)?;
            if nz > 0 {
                total_nz += nz;
                dequant4x4(&mut blk, qp);
                idct4x4(&mut blk);
                add_block(&mut recon, pred, 16, bx, by, &blk);
            }
        }
    }
    prof.store_range(scratch, 1024);
    Ok((recon, total_nz))
}

/// Encodes an 8x8 chroma residual (one plane). Returns `(recon, nonzero)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_chroma_residual<W: EntropyWriter>(
    src: &[u8; 64],
    pred: &[u8; 64],
    qp: Qp,
    intra: bool,
    trellis_level: u8,
    w: &mut W,
    prof: &mut Profiler,
    entropy_kernel: usize,
) -> ([u8; 64], u32) {
    let cqp = qp.chroma();
    let mut recon = *pred;
    let mut total_nz = 0u32;
    // x264 applies trellis to chroma only at level 2.
    let t = if trellis_level >= 2 { 2 } else { 0 };
    for by in 0..2 {
        for bx in 0..2 {
            let mut blk = sub_block::<8>(src, pred, 8, bx, by);
            dct4x4(&mut blk);
            let nz = if t > 0 {
                let out = trellis_quant(&mut blk, cqp, intra, cqp.lambda(), t);
                emit_trellis_branches(prof, &out);
                out.nonzero
            } else {
                quant4x4(&mut blk, cqp, intra)
            };
            write_coef_block(w, &blk, true, prof, entropy_kernel);
            if nz > 0 {
                total_nz += nz;
                dequant4x4(&mut blk, cqp);
                idct4x4(&mut blk);
                add_block(&mut recon, pred, 8, bx, by, &blk);
            }
        }
    }
    prof.kernel(K_DCT, 4, 90, 2);
    prof.kernel(K_QUANT, 4, 70, 16);
    (recon, total_nz)
}

/// Decodes an 8x8 chroma residual (mirror of [`encode_chroma_residual`]).
///
/// # Errors
///
/// Propagates [`CodecError::CorruptBitstream`] from the syntax reader.
pub(crate) fn decode_chroma_residual<R: EntropyReader>(
    pred: &[u8; 64],
    qp: Qp,
    r: &mut R,
    prof: &mut Profiler,
) -> Result<([u8; 64], u32), CodecError> {
    let cqp = qp.chroma();
    let mut recon = *pred;
    let mut total_nz = 0u32;
    for by in 0..2 {
        for bx in 0..2 {
            let (mut blk, nz) = read_coef_block(r, true, prof)?;
            if nz > 0 {
                total_nz += nz;
                dequant4x4(&mut blk, cqp);
                idct4x4(&mut blk);
                add_block(&mut recon, pred, 8, bx, by, &blk);
            }
        }
    }
    Ok((recon, total_nz))
}

/// The two-pass block coders [`write_coef_block`] and [`read_coef_block`]
/// are tested against.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Counts, then scans: a significance test per coefficient.
    pub(crate) fn write_coef_block<W: EntropyWriter>(
        w: &mut W,
        levels: &CoefBlock,
        chroma: bool,
        prof: &mut Profiler,
        entropy_kernel: usize,
    ) -> u32 {
        let coff = u32::from(chroma) * 2;
        let nz = levels.iter().filter(|&&v| v != 0).count() as u32;
        w.put_bit(ctx::CBF + coff, nz > 0);
        prof.branch(4, nz > 0);
        if nz == 0 {
            prof.kernel(entropy_kernel, 1, 18, 0);
            return 0;
        }
        w.put_ue(ctx::NZ_COUNT + coff, nz - 1);
        let mut run = 0u32;
        for (zi, &pos) in ZIGZAG4X4.iter().enumerate() {
            let level = levels[pos];
            // The significance test is the run/level coder's inner branch; one
            // data-dependent event per coefficient pair keeps the simulated
            // branch density close to the real coder's.
            if zi % 2 == 0 {
                prof.branch(13, level != 0 || levels[ZIGZAG4X4[zi + 1]] != 0);
            }
            if level == 0 {
                run += 1;
            } else {
                w.put_ue(ctx::RUN + coff, run);
                w.put_se(ctx::LEVEL + coff, level);
                prof.branch(5, level.abs() > 1);
                prof.branch(6, level < 0);
                run = 0;
            }
        }
        prof.kernel(entropy_kernel, nz * 3 + 6, 26, 0);
        nz
    }

    /// Places the levels, then scans the block for the pair events; the caller
    /// counts the nonzero levels again.
    pub(crate) fn read_coef_block<R: EntropyReader>(
        r: &mut R,
        chroma: bool,
        prof: &mut Profiler,
    ) -> Result<CoefBlock, CodecError> {
        use crate::instr::K_DEC_PARSE;
        let coff = u32::from(chroma) * 2;
        let mut levels: CoefBlock = [0; 16];
        if !r.get_bit(ctx::CBF + coff)? {
            prof.branch(4, false);
            prof.kernel(K_DEC_PARSE, 1, 18, 0);
            return Ok(levels);
        }
        prof.branch(4, true);
        let coded = r.get_ue(ctx::NZ_COUNT + coff)?;
        if coded >= 16 {
            return Err(CodecError::CorruptBitstream {
                offset: 0,
                context: "nonzero count",
            });
        }
        let nz = coded + 1;
        let mut zi = 0usize;
        for _ in 0..nz {
            let run = r.get_ue(ctx::RUN + coff)? as usize;
            zi += run;
            if zi >= 16 {
                return Err(CodecError::CorruptBitstream {
                    offset: 0,
                    context: "coefficient run",
                });
            }
            let level = r.get_se(ctx::LEVEL + coff)?;
            if level == 0 {
                return Err(CodecError::CorruptBitstream {
                    offset: 0,
                    context: "zero level",
                });
            }
            prof.branch(5, level.abs() > 1);
            prof.branch(6, level < 0);
            levels[ZIGZAG4X4[zi]] = level;
            zi += 1;
        }
        // Mirror the encoder's per-pair significance branches.
        for zi in (0..16).step_by(2) {
            prof.branch(
                13,
                levels[ZIGZAG4X4[zi]] != 0 || levels[ZIGZAG4X4[zi + 1]] != 0,
            );
        }
        prof.kernel(K_DEC_PARSE, nz * 3 + 6, 24, 0);
        Ok(levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::cabac::{CabacReader, CabacWriter};
    use crate::entropy::cavlc::{CavlcReader, CavlcWriter};
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

    fn textured_src() -> [u8; 256] {
        let mut s = [0u8; 256];
        for (i, v) in s.iter_mut().enumerate() {
            *v = ((i * 13) % 200 + 20) as u8;
        }
        s
    }

    #[test]
    fn coef_block_syntax_roundtrip() {
        let mut p = prof();
        let mut levels: CoefBlock = [0; 16];
        levels[0] = 5;
        levels[1] = -2;
        levels[10] = 1;
        let mut w = CavlcWriter::new();
        let nz = write_coef_block(&mut w, &levels, false, &mut p, crate::instr::K_CAVLC);
        assert_eq!(nz, 3);
        let bytes = w.finish();
        let mut r = CavlcReader::new(&bytes);
        let decoded = read_coef_block(&mut r, false, &mut p).unwrap();
        assert_eq!(decoded, (levels, 3));
    }

    #[test]
    fn empty_block_is_one_flag() {
        let mut p = prof();
        let levels: CoefBlock = [0; 16];
        let mut w = CavlcWriter::new();
        write_coef_block(&mut w, &levels, false, &mut p, crate::instr::K_CAVLC);
        assert_eq!(w.bits_estimate(), 1.0);
    }

    #[test]
    fn luma_residual_encode_decode_match() {
        let mut p = prof();
        let src = textured_src();
        let pred = [128u8; 256];
        let qp = Qp::new(24);
        let mut w = CavlcWriter::new();
        let (enc_recon, enc_nz) = encode_luma_residual(
            &src,
            &pred,
            qp,
            true,
            1,
            &mut w,
            &mut p,
            0x5000_0000,
            crate::instr::K_CAVLC,
        );
        let bytes = w.finish();
        let mut r = CavlcReader::new(&bytes);
        let (dec_recon, dec_nz) =
            decode_luma_residual(&pred, qp, &mut r, &mut p, 0x5000_0000).unwrap();
        assert_eq!(enc_recon, dec_recon);
        assert_eq!(enc_nz, dec_nz);
        assert!(enc_nz > 0, "textured content must produce coefficients");
    }

    #[test]
    fn low_qp_reconstruction_is_accurate() {
        let mut p = prof();
        let src = textured_src();
        let pred = [128u8; 256];
        let mut w = CavlcWriter::new();
        let (recon, _) = encode_luma_residual(
            &src,
            &pred,
            Qp::new(4),
            true,
            0,
            &mut w,
            &mut p,
            0,
            crate::instr::K_CAVLC,
        );
        let max_err = src
            .iter()
            .zip(recon.iter())
            .map(|(a, b)| i32::from(a.abs_diff(*b)))
            .max()
            .unwrap();
        assert!(max_err <= 3, "max_err {max_err}");
    }

    #[test]
    fn high_qp_codes_fewer_coefficients() {
        let src = textured_src();
        let pred = [128u8; 256];
        let nz_at = |qp: i32| {
            let mut p = prof();
            let mut w = CavlcWriter::new();
            let (_, nz) = encode_luma_residual(
                &src,
                &pred,
                Qp::new(qp),
                true,
                0,
                &mut w,
                &mut p,
                0,
                crate::instr::K_CAVLC,
            );
            nz
        };
        assert!(nz_at(10) > nz_at(35));
    }

    #[test]
    fn chroma_residual_roundtrip() {
        let mut p = prof();
        let mut src = [0u8; 64];
        for (i, v) in src.iter_mut().enumerate() {
            *v = (100 + (i * 7) % 80) as u8;
        }
        let pred = [128u8; 64];
        let qp = Qp::new(20);
        let mut w = CavlcWriter::new();
        let (er, _) = encode_chroma_residual(
            &src,
            &pred,
            qp,
            false,
            2,
            &mut w,
            &mut p,
            crate::instr::K_CAVLC,
        );
        let bytes = w.finish();
        let mut r = CavlcReader::new(&bytes);
        let (dr, _) = decode_chroma_residual(&pred, qp, &mut r, &mut p).unwrap();
        assert_eq!(er, dr);
    }

    #[test]
    fn corrupt_coef_stream_errors() {
        let mut p = prof();
        // A stream of all-ones bits: cbf=1 then garbage counts.
        let bytes = vec![0xFFu8; 2];
        let mut r = CavlcReader::new(&bytes);
        // Either parses something odd or errors — but must not panic, and a
        // clearly invalid nz (>16) must error.
        let _ = read_coef_block(&mut r, false, &mut p);

        // cbf=1, then a count code no encoder writes: 16 is one too many,
        // and `u32::MAX` would wrap `+ 1` to an empty block.
        let bad_count = CodecError::CorruptBitstream {
            offset: 0,
            context: "nonzero count",
        };
        for coded in [16, u32::MAX] {
            let (mut cavlc, mut cabac) = (CavlcWriter::new(), CabacWriter::new());
            cavlc.put_bit(ctx::CBF, true);
            cavlc.put_ue(ctx::NZ_COUNT, coded);
            cabac.put_bit(ctx::CBF, true);
            cabac.put_ue(ctx::NZ_COUNT, coded);
            let (cavlc, cabac) = (cavlc.finish(), cabac.finish());
            let got = read_coef_block(&mut CavlcReader::new(&cavlc), false, &mut p);
            assert_eq!(got.unwrap_err(), bad_count, "cavlc {coded}");
            let got = read_coef_block(&mut CabacReader::new(&cabac), false, &mut p);
            assert_eq!(got.unwrap_err(), bad_count, "cabac {coded}");
            let got = oracle::read_coef_block(&mut CavlcReader::new(&cavlc), false, &mut p);
            assert_eq!(got.unwrap_err(), bad_count, "oracle {coded}");
        }
    }

    /// The all-zero block, one coefficient at each position, the full block,
    /// then seeded blocks of every density with mostly small levels.
    fn test_blocks() -> Vec<CoefBlock> {
        let mut blocks = vec![[0; 16], [-3; 16]];
        for pos in 0..16 {
            let mut b: CoefBlock = [0; 16];
            b[pos] = if pos % 2 == 0 { 1 } else { -2 };
            blocks.push(b);
        }
        let mut rng = vtx_rng::Xoshiro256pp::new(17);
        for _ in 0..10_000 {
            let density = rng.next_range(17);
            let mut b: CoefBlock = [0; 16];
            for v in &mut b {
                if rng.next_range(16) < density {
                    let big = rng.next_range(8) == 0;
                    *v = rng.next_i64_in(-3, 3) as i32 * if big { 300 } else { 1 };
                }
            }
            blocks.push(b);
        }
        blocks
    }

    /// Codes every test block through `new_w` with the mask coder and
    /// through `old_w` with the two-pass one; returns the bytes both gave.
    fn write_both_ways<W: EntropyWriter>(mut new_w: W, mut old_w: W) -> Vec<u8> {
        let mut new_p = prof().recording_shard();
        let mut old_p = prof().recording_shard();
        let ek = crate::instr::K_CABAC;
        for (i, b) in test_blocks().iter().enumerate() {
            let chroma = i % 3 == 0;
            let nz = write_coef_block(&mut new_w, b, chroma, &mut new_p, ek);
            let want = oracle::write_coef_block(&mut old_w, b, chroma, &mut old_p, ek);
            assert_eq!(nz, want, "block {i} {b:?}");
            assert_eq!(new_p.take_events(), old_p.take_events(), "block {i} {b:?}");
        }
        let bytes = new_w.finish();
        assert_eq!(bytes, old_w.finish());
        bytes
    }

    /// Reads every test block back both ways.
    fn read_both_ways<R: EntropyReader>(mut new_r: R, mut old_r: R) {
        let mut new_p = prof().recording_shard();
        let mut old_p = prof().recording_shard();
        for (i, b) in test_blocks().iter().enumerate() {
            let chroma = i % 3 == 0;
            let (levels, nz) = read_coef_block(&mut new_r, chroma, &mut new_p).unwrap();
            let want = oracle::read_coef_block(&mut old_r, chroma, &mut old_p).unwrap();
            assert_eq!(levels, *b, "block {i}");
            assert_eq!(want, *b, "block {i}");
            let nonzero = b.iter().filter(|&&v| v != 0).count();
            assert_eq!(nz as usize, nonzero, "block {i} {b:?}");
            assert_eq!(new_p.take_events(), old_p.take_events(), "block {i} {b:?}");
        }
    }

    #[test]
    fn mask_coders_equal_the_two_pass_oracle() {
        let bytes = write_both_ways(CabacWriter::new(), CabacWriter::new());
        read_both_ways(CabacReader::new(&bytes), CabacReader::new(&bytes));
        let bytes = write_both_ways(CavlcWriter::new(), CavlcWriter::new());
        read_both_ways(CavlcReader::new(&bytes), CavlcReader::new(&bytes));
    }
}
