//! Motion compensation: full-pel block copy and half-pel bilinear
//! interpolation from border-extended reference planes.

use vtx_frame::{Frame, PaddedPlane};

use crate::types::MotionVector;

/// Replicated border of a reference luma plane, in samples. It must hold
/// the widest block motion search and compensation read plus its half-pel
/// tap, 16 + 1, for a read at any origin to equal an edge-clamped one; x264
/// pads 32.
pub const LUMA_PAD: usize = 32;
/// Replicated border of a reference chroma plane: at least 8 + 1; x264
/// pads 16.
pub const CHROMA_PAD: usize = 16;

const _: () = assert!(
    LUMA_PAD > 16 && CHROMA_PAD > 8,
    "a border narrower than a block and its tap"
);

/// A reconstructed frame as motion search and compensation read it: each
/// plane border-extended once, when the frame becomes a reference, so that
/// every block read is an in-place read at an origin clamped into the
/// border (see [`PaddedPlane`]).
#[derive(Debug)]
pub struct RefFrame {
    y: PaddedPlane,
    u: PaddedPlane,
    v: PaddedPlane,
}

impl RefFrame {
    /// Border-extends the three planes of `frame`.
    pub fn new(frame: &Frame) -> Self {
        RefFrame {
            y: PaddedPlane::new(frame.y(), LUMA_PAD),
            u: PaddedPlane::new(frame.u(), CHROMA_PAD),
            v: PaddedPlane::new(frame.v(), CHROMA_PAD),
        }
    }

    /// Luma plane.
    #[inline]
    pub fn y(&self) -> &PaddedPlane {
        &self.y
    }

    /// Cb plane.
    #[inline]
    pub fn u(&self) -> &PaddedPlane {
        &self.u
    }

    /// Cr plane.
    #[inline]
    pub fn v(&self) -> &PaddedPlane {
        &self.v
    }
}

/// Produces the `bw x bh` motion-compensated luma prediction for a block at
/// `(x, y)` displaced by `mv` (half-pel units) from `reference`.
///
/// Half-pel positions use bilinear interpolation of the 2 (or 4) nearest
/// full-pel samples, edge-extended at the borders.
///
/// # Panics
///
/// Panics if `out.len() < bw * bh`, or if the block and its taps are wider
/// or taller than the reference's border allows.
pub fn mc_luma(
    reference: &PaddedPlane,
    mv: MotionVector,
    x: usize,
    y: usize,
    bw: usize,
    bh: usize,
    out: &mut [u8],
) {
    assert!(out.len() >= bw * bh);
    let (fx, fy) = mv.fullpel();
    let hx = (mv.x & 1) as usize;
    let hy = (mv.y & 1) as usize;
    let bx = x as isize + fx as isize;
    let by = y as isize + fy as isize;

    if hx == 0 && hy == 0 {
        reference.copy_block(bx, by, bw, bh, out);
        return;
    }
    // Interpolating reads the block plus one more column (`hx`) and row
    // (`hy`) of taps, in place.
    let taps = reference.block(bx, by, bw + hx, bh + hy);
    interpolate(hx, hy, bw, bh, |r| taps.row(r), out);
}

/// Half-pel bilinear interpolation of a `bw x bh` block into `out`.
/// `taps(r)` is source row `r` (of `bh + hy`), at least `bw + hx` samples.
fn interpolate<'a>(
    hx: usize,
    hy: usize,
    bw: usize,
    bh: usize,
    taps: impl Fn(usize) -> &'a [u8],
    out: &mut [u8],
) {
    let avg2 = |a: u8, b: u8| (u32::from(a) + u32::from(b)).div_ceil(2) as u8;
    let avg4 = |a: u8, b: u8, c: u8, d: u8| {
        ((u32::from(a) + u32::from(b) + u32::from(c) + u32::from(d) + 2) / 4) as u8
    };
    for row in 0..bh {
        let out = &mut out[row * bw..(row + 1) * bw];
        let top = &taps(row)[..bw + hx];
        // The row below when `hy == 1`; `top` again (and unread) otherwise.
        let bot = &taps(row + hy)[..bw + hx];
        match (hx, hy) {
            (1, 0) => {
                for (o, t) in out.iter_mut().zip(top.windows(2)) {
                    *o = avg2(t[0], t[1]);
                }
            }
            (0, 1) => average(top, bot, out),
            _ => {
                for ((o, t), b) in out.iter_mut().zip(top.windows(2)).zip(bot.windows(2)) {
                    *o = avg4(t[0], t[1], b[0], b[1]);
                }
            }
        }
    }
}

/// Motion-compensates one chroma plane: the luma vector is halved (4:2:0),
/// keeping half-pel precision via bilinear interpolation.
///
/// `(cx, cy)` are chroma-plane coordinates; the output block is `bw x bh`
/// chroma samples.
pub fn mc_chroma(
    reference: &PaddedPlane,
    mv: MotionVector,
    cx: usize,
    cy: usize,
    bw: usize,
    bh: usize,
    out: &mut [u8],
) {
    // Luma half-pel units -> chroma half-pel units = halve keeping one
    // fractional bit. Arithmetic shift, not `/ 2`: truncating division
    // rounds negative vectors toward zero, which would bias the chroma
    // prediction differently for leftward vs. rightward motion. `>> 1`
    // rounds toward -inf for both signs (the H.264 convention), keeping
    // chroma prediction mirror-symmetric.
    let cmv = MotionVector::new(mv.x >> 1, mv.y >> 1);
    mc_luma(reference, cmv, cx, cy, bw, bh, out);
}

/// Averages two prediction blocks into `out` — bi-prediction for B frames.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn average(a: &[u8], b: &[u8], out: &mut [u8]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (u16::from(x) + u16::from(y)).div_ceil(2) as u8;
    }
}

/// `mc_luma` as it read an unpadded plane — in place inside it, through an
/// edge-clamped copy of the taps across a border — kept as the oracle of
/// the padded reads.
#[cfg(test)]
mod oracle {
    use super::interpolate;
    use crate::types::MotionVector;
    use vtx_frame::Plane;

    pub(super) fn mc_luma(
        reference: &Plane,
        mv: MotionVector,
        x: usize,
        y: usize,
        bw: usize,
        bh: usize,
        out: &mut [u8],
    ) {
        assert!(out.len() >= bw * bh);
        let (fx, fy) = mv.fullpel();
        let hx = (mv.x & 1) as usize;
        let hy = (mv.y & 1) as usize;
        let bx = x as isize + fx as isize;
        let by = y as isize + fy as isize;

        if hx == 0 && hy == 0 {
            reference.copy_block_clamped(bx, by, bw, bh, out);
            return;
        }
        let (tw, th) = (bw + hx, bh + hy);
        if let Some((ix, iy)) = reference.interior(bx, by, tw, th) {
            interpolate(hx, hy, bw, bh, |r| &reference.row(iy + r)[ix..], out);
            return;
        }
        let mut taps = vec![0u8; tw * th];
        reference.copy_block_clamped(bx, by, tw, th, &mut taps);
        interpolate(hx, hy, bw, bh, |r| &taps[r * tw..], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_frame::Plane;

    fn padded(p: &Plane) -> PaddedPlane {
        PaddedPlane::new(p, LUMA_PAD)
    }

    fn ramp_plane() -> Plane {
        let mut p = Plane::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                p.set(x, y, (x * 4 + y) as u8);
            }
        }
        p
    }

    #[test]
    fn fullpel_copy_matches_source() {
        let p = ramp_plane();
        let mut out = [0u8; 64];
        mc_luma(
            &padded(&p),
            MotionVector::from_fullpel(2, 3),
            4,
            4,
            8,
            8,
            &mut out,
        );
        for row in 0..8 {
            for col in 0..8 {
                assert_eq!(out[row * 8 + col], p.get(6 + col, 7 + row));
            }
        }
    }

    #[test]
    fn halfpel_x_interpolates() {
        let p = ramp_plane();
        let mut out = [0u8; 16];
        mc_luma(&padded(&p), MotionVector::new(1, 0), 8, 8, 4, 4, &mut out);
        let expect = (u32::from(p.get(8, 8)) + u32::from(p.get(9, 8))).div_ceil(2);
        assert_eq!(u32::from(out[0]), expect);
    }

    #[test]
    fn halfpel_xy_averages_four() {
        let p = ramp_plane();
        let mut out = [0u8; 16];
        mc_luma(&padded(&p), MotionVector::new(1, 1), 8, 8, 4, 4, &mut out);
        let e = (u32::from(p.get(8, 8))
            + u32::from(p.get(9, 8))
            + u32::from(p.get(8, 9))
            + u32::from(p.get(9, 9))
            + 2)
            / 4;
        assert_eq!(u32::from(out[0]), e);
    }

    /// `mc_luma` against the per-sample definition: each output sample is
    /// the rounded mean of its 1, 2 or 4 edge-extended taps.
    fn assert_matches_per_sample(
        p: &Plane,
        reference: &PaddedPlane,
        mv: MotionVector,
        x: usize,
        y: usize,
        bw: usize,
        bh: usize,
    ) {
        let mut out = vec![0u8; bw * bh];
        mc_luma(reference, mv, x, y, bw, bh, &mut out);
        let (fx, fy) = mv.fullpel();
        let (hx, hy) = (mv.x & 1, mv.y & 1);
        for (i, &got) in out.iter().enumerate() {
            let px = x as isize + fx as isize + (i % bw) as isize;
            let py = y as isize + fy as isize + (i / bw) as isize;
            let at = |dx, dy| u32::from(p.get_clamped(px + dx, py + dy));
            let want = match (hx, hy) {
                (0, 0) => at(0, 0),
                (1, 0) => (at(0, 0) + at(1, 0)).div_ceil(2),
                (0, 1) => (at(0, 0) + at(0, 1)).div_ceil(2),
                _ => (at(0, 0) + at(1, 0) + at(0, 1) + at(1, 1) + 2) / 4,
            };
            assert_eq!(
                u32::from(got),
                want,
                "{}x{} plane, mv ({}, {}), {bw}x{bh} block ({x}, {y}) #{i}",
                p.width(),
                p.height(),
                mv.x,
                mv.y
            );
        }
    }

    /// Every half-pel phase at every block position from across each edge
    /// to wholly inside equals the per-sample definition.
    #[test]
    fn every_phase_and_position_matches_the_per_sample_definition() {
        let p = ramp_plane();
        let r = padded(&p);
        for (mvx, mvy) in [(0, 0), (1, 0), (0, 1), (1, 1), (-3, 5), (7, -1)] {
            for y in 0..32 {
                for x in 0..32 {
                    assert_matches_per_sample(&p, &r, MotionVector::new(mvx, mvy), x, y, 8, 8);
                }
            }
        }
    }

    /// Every vector from a block wholly outside the plane on one side to
    /// wholly outside on the other, in all four phases — on blocks wider
    /// and taller than the plane, planes one sample wide or tall, and a
    /// block larger than a macroblock.
    #[test]
    fn every_vector_matches_on_degenerate_geometries() {
        let mut rng = vtx_rng::Xoshiro256pp::new(0x3C_1A);
        for (w, h, bw, bh) in [
            (16, 16, 8, 8),
            (5, 4, 8, 8),
            (12, 3, 4, 16),
            (1, 7, 4, 4),
            (7, 1, 4, 4),
            (9, 9, 20, 18),
        ] {
            let mut p = Plane::new(w, h);
            p.samples_mut().fill_with(|| rng.next_u8());
            let r = padded(&p);
            for mvy in -2 * (bh as i16 + 2)..=2 * (h as i16 + 2) + 1 {
                for mvx in -2 * (bw as i16 + 2)..=2 * (w as i16 + 2) + 1 {
                    let mv = MotionVector::new(mvx, mvy);
                    assert_matches_per_sample(&p, &r, mv, 0, 0, bw, bh);
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_clamps() {
        let p = ramp_plane();
        let mut out = [0u8; 256];
        mc_luma(
            &padded(&p),
            MotionVector::from_fullpel(-100, -100),
            0,
            0,
            16,
            16,
            &mut out,
        );
        assert!(out.iter().all(|&v| v == p.get(0, 0)));
    }

    #[test]
    fn chroma_halves_vector() {
        let p = padded(&ramp_plane());
        let mut a = [0u8; 16];
        let mut b = [0u8; 16];
        // Luma mv of 4 half-pels (= 2 full-pel) -> chroma 1 full-pel.
        mc_chroma(&p, MotionVector::new(4, 0), 4, 4, 4, 4, &mut a);
        mc_luma(&p, MotionVector::from_fullpel(1, 0), 4, 4, 4, 4, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn chroma_rounding_is_sign_symmetric() {
        // On a linear ramp, bilinear interpolation is exact, so the only
        // error in the chroma prediction is the MV-halving quantization.
        // An odd luma vector of +5 half-pels targets +1.25 chroma pels and
        // -5 targets -1.25; rounding toward -inf under-shoots *both* by a
        // quarter pel, so the prediction error must be identical for
        // leftward and rightward motion. (Truncating division instead
        // pulls both toward zero: -1 vs. +1 on this ramp.)
        let mut p = Plane::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                p.set(x, y, (x * 4) as u8);
            }
        }
        let p = PaddedPlane::new(&p, CHROMA_PAD);
        let mut out = [0u8; 16];

        mc_chroma(&p, MotionVector::new(5, 0), 8, 8, 4, 4, &mut out);
        // True target 8 + 1.25 = 9.25 pel -> value 37.
        let err_right = i32::from(out[0]) - 37;

        mc_chroma(&p, MotionVector::new(-5, 0), 8, 8, 4, 4, &mut out);
        // True target 8 - 1.25 = 6.75 pel -> value 27.
        let err_left = i32::from(out[0]) - 27;

        assert_eq!(
            err_right, err_left,
            "chroma MV rounding must not depend on motion direction"
        );
    }

    /// Reads from a padded plane against the clamped-read oracle at every
    /// block origin from past the border on each side to past it on the
    /// other, and at both ends of the vector range, for every shape the
    /// codec reads — 16x16, 8x8 and 4x4 luma, 8x8 and 4x4 chroma — at
    /// full pel and in each half-pel phase (17x17, 9x9 and 5x5 taps).
    #[test]
    fn padded_reads_equal_clamped_reads() {
        let mut rng = vtx_rng::Xoshiro256pp::new(0x9AD);
        for (w, h, pad, sizes) in [
            (48, 32, LUMA_PAD, &[16, 8, 4][..]),
            (24, 16, CHROMA_PAD, &[8, 4][..]),
        ] {
            let mut p = Plane::new(w, h);
            p.samples_mut().fill_with(|| rng.next_u8());
            let r = PaddedPlane::new(&p, pad);
            for &b in sizes {
                let (mut got, mut want) = (vec![0u8; b * b], vec![0u8; b * b]);
                let mut check = |mv: MotionVector, x: usize, y: usize| {
                    mc_luma(&r, mv, x, y, b, b, &mut got);
                    oracle::mc_luma(&p, mv, x, y, b, b, &mut want);
                    assert_eq!(got, want, "{w}x{h}, {b}x{b} at ({x}, {y}), {mv:?}");
                };
                let reach = (pad + b + 2) as i16;
                for oy in -reach..h as i16 + reach {
                    for ox in -reach..w as i16 + reach {
                        for (hx, hy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                            check(MotionVector::new(2 * ox + hx, 2 * oy + hy), 0, 0);
                        }
                    }
                }
                for (x, y) in [(0, 0), (w - b, 0), (0, h - b), (w - b, h - b)] {
                    for mvx in [-2048, -2047, 0, 2047, 2048] {
                        for mvy in [-2048, -2047, 0, 2047, 2048] {
                            check(MotionVector::new(mvx, mvy), x, y);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn average_length_mismatch_panics() {
        let a = [0u8; 4];
        let b = [0u8; 3];
        let mut out = [0u8; 4];
        average(&a, &b, &mut out);
    }

    #[test]
    fn average_rounds() {
        let a = [10u8, 11, 0, 255];
        let b = [20u8, 12, 1, 255];
        let mut out = [0u8; 4];
        average(&a, &b, &mut out);
        assert_eq!(out, [15, 12, 1, 255]);
    }
}

/// Builds the full inter prediction (luma 16x16 + both chroma 8x8) for a
/// macroblock. `dir`: 0 = forward only, 1 = backward only, 2 = bi-predicted
/// average. Shared by the encoder and decoder so reconstruction can never
/// diverge.
pub fn build_inter_pred_frames(
    fwd: &RefFrame,
    bwd: Option<&RefFrame>,
    fwd_mv: MotionVector,
    bwd_mv: MotionVector,
    dir: u8,
    mb_x: usize,
    mb_y: usize,
) -> ([u8; 256], [u8; 64], [u8; 64]) {
    let x = mb_x * 16;
    let y = mb_y * 16;
    let cx = mb_x * 8;
    let cy = mb_y * 8;

    let mc_one = |f: &RefFrame, mv: MotionVector| -> ([u8; 256], [u8; 64], [u8; 64]) {
        let mut py = [0u8; 256];
        let mut pu = [0u8; 64];
        let mut pv = [0u8; 64];
        mc_luma(f.y(), mv, x, y, 16, 16, &mut py);
        mc_chroma(f.u(), mv, cx, cy, 8, 8, &mut pu);
        mc_chroma(f.v(), mv, cx, cy, 8, 8, &mut pv);
        (py, pu, pv)
    };

    match dir {
        0 => mc_one(fwd, fwd_mv),
        1 => mc_one(bwd.unwrap_or(fwd), bwd_mv),
        _ => {
            let (fy, fu, fv) = mc_one(fwd, fwd_mv);
            let (by, bu, bv) = mc_one(bwd.unwrap_or(fwd), bwd_mv);
            let mut py = [0u8; 256];
            let mut pu = [0u8; 64];
            let mut pv = [0u8; 64];
            average(&fy, &by, &mut py);
            average(&fu, &bu, &mut pu);
            average(&fv, &bv, &mut pv);
            (py, pu, pv)
        }
    }
}

/// Builds the P8x8 prediction: four independently motion-compensated 8x8
/// luma quadrants; chroma uses the component-wise average vector. Shared by
/// the encoder and decoder.
pub fn build_p8_pred(
    reference: &RefFrame,
    sub: &[MotionVector; 4],
    mb_x: usize,
    mb_y: usize,
) -> ([u8; 256], [u8; 64], [u8; 64]) {
    let x = mb_x * 16;
    let y = mb_y * 16;
    let mut py = [0u8; 256];
    for (q, &mv) in sub.iter().enumerate() {
        let mut blk = [0u8; 64];
        mc_luma(
            reference.y(),
            mv,
            x + (q % 2) * 8,
            y + (q / 2) * 8,
            8,
            8,
            &mut blk,
        );
        for (r, row) in blk.chunks_exact(8).enumerate() {
            let at = ((q / 2) * 8 + r) * 16 + (q % 2) * 8;
            py[at..at + 8].copy_from_slice(row);
        }
    }
    let avg_mv = MotionVector::new(
        ((i32::from(sub[0].x) + i32::from(sub[1].x) + i32::from(sub[2].x) + i32::from(sub[3].x))
            / 4) as i16,
        ((i32::from(sub[0].y) + i32::from(sub[1].y) + i32::from(sub[2].y) + i32::from(sub[3].y))
            / 4) as i16,
    );
    let mut pu = [0u8; 64];
    let mut pv = [0u8; 64];
    mc_chroma(reference.u(), avg_mv, mb_x * 8, mb_y * 8, 8, 8, &mut pu);
    mc_chroma(reference.v(), avg_mv, mb_x * 8, mb_y * 8, 8, 8, &mut pv);
    (py, pu, pv)
}

#[cfg(test)]
mod shared_tests {
    use super::*;

    #[test]
    fn bi_direction_averages() {
        let mut a = Frame::new(32, 32);
        a.y_mut().fill(100);
        a.u_mut().fill(90);
        a.v_mut().fill(80);
        let mut b = Frame::new(32, 32);
        b.y_mut().fill(200);
        b.u_mut().fill(110);
        b.v_mut().fill(120);
        let (py, pu, pv) = build_inter_pred_frames(
            &RefFrame::new(&a),
            Some(&RefFrame::new(&b)),
            MotionVector::ZERO,
            MotionVector::ZERO,
            2,
            0,
            0,
        );
        assert!(py.iter().all(|&v| v == 150));
        assert!(pu.iter().all(|&v| v == 100));
        assert!(pv.iter().all(|&v| v == 100));
    }

    #[test]
    fn p8_quadrants_use_own_vectors() {
        let mut f = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                f.y_mut().set(x, y, (x * 8) as u8);
            }
        }
        let sub = [
            MotionVector::from_fullpel(0, 0),
            MotionVector::from_fullpel(2, 0),
            MotionVector::from_fullpel(0, 0),
            MotionVector::from_fullpel(2, 0),
        ];
        let (py, _, _) = build_p8_pred(&RefFrame::new(&f), &sub, 0, 0);
        // Quadrant 1 (top-right) shifted by +2 px: differs from unshifted copy.
        assert_eq!(py[0], f.y().get(0, 0));
        assert_eq!(py[8], f.y().get(10, 0));
    }
}
