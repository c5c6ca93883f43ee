//! In-loop deblocking filter.
//!
//! A simplified H.264-style edge filter applied to reconstructed frames
//! along macroblock boundaries (luma 16-pel grid, chroma 8-pel grid). Both
//! the encoder and the decoder run this identically, so reconstruction stays
//! bit-exact across the pair. The filter thresholds derive from QP plus the
//! configured alpha/beta offsets (x264's `deblock a:b`).
//!
//! Deblocking runs serially after the macroblock wavefront has been
//! stitched — it reads across macroblock boundaries in both directions, so
//! it cannot join the wavefront without a second dependency front, and as
//! a single frame-sized pass it is cheap relative to macroblock encoding.

use vtx_frame::{Frame, Plane};
use vtx_trace::Profiler;

use crate::types::Qp;

/// Filter strength parameters for a given QP and offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeblockStrength {
    /// Edge activation threshold on |p0 - q0|.
    pub(crate) alpha: i32,
    /// Side flatness threshold on |p1 - p0| and |q1 - q0|.
    pub(crate) beta: i32,
    /// Clipping bound for the filter delta.
    pub(crate) tc: i32,
}

impl DeblockStrength {
    /// Derives thresholds from QP and (alpha, beta) offsets.
    fn new(qp: Qp, offsets: (i8, i8)) -> Self {
        let qa = (i32::from(qp.value()) + 2 * i32::from(offsets.0)).clamp(0, 51);
        let qb = (i32::from(qp.value()) + 2 * i32::from(offsets.1)).clamp(0, 51);
        DeblockStrength {
            // Exponential-ish growth like the H.264 alpha table.
            alpha: (0.8 * 2f64.powf(f64::from(qa) / 6.0)).round() as i32,
            beta: qb / 2 - 7,
            tc: qa / 10 + 1,
        }
    }

    /// Whether the filter can modify anything at all at this strength.
    fn active(&self) -> bool {
        self.alpha > 0 && self.beta > 0
    }
}

#[inline]
fn filter_pair(p1: u8, p0: u8, q0: u8, q1: u8, s: &DeblockStrength) -> Option<(u8, u8)> {
    let (p1, p0, q0, q1) = (i32::from(p1), i32::from(p0), i32::from(q0), i32::from(q1));
    if (p0 - q0).abs() >= s.alpha || (p1 - p0).abs() >= s.beta || (q1 - q0).abs() >= s.beta {
        return None;
    }
    let delta = (((q0 - p0) * 4 + (p1 - q1) + 4) >> 3).clamp(-s.tc, s.tc);
    Some((
        (p0 + delta).clamp(0, 255) as u8,
        (q0 - delta).clamp(0, 255) as u8,
    ))
}

fn deblock_plane(
    plane: &mut Plane,
    grid: usize,
    s: &DeblockStrength,
    prof: &mut Profiler,
    vaddr: u64,
    scale: u64,
) -> u32 {
    if !s.active() {
        return 0;
    }
    // When the optimizer fused deblocking into the macroblock loop, the
    // filtered lines are still cache-resident: the separate cold sweep's
    // memory traffic disappears (the arithmetic is unchanged).
    let emit = !prof.data_plan().fuse_deblock;
    let w = plane.width();
    let h = plane.height();
    let stride = w as u64 * scale;
    let mut edges_filtered = 0;

    // Vertical edges (columns at multiples of `grid`).
    let mut x = grid;
    while x < w {
        let mut seg_filtered = false;
        for y in 0..h {
            let p1 = plane.get(x - 2.min(x), y);
            let p0 = plane.get(x - 1, y);
            let q0 = plane.get(x, y);
            let q1 = plane.get((x + 1).min(w - 1), y);
            if let Some((np, nq)) = filter_pair(p1, p0, q0, q1, s) {
                plane.set(x - 1, y, np);
                plane.set(x, y, nq);
                edges_filtered += 1;
                seg_filtered = true;
            }
            if y % 8 == 0 {
                // One filter-activation branch per 8-sample segment: the
                // outcome depends on local pixel gradients.
                prof.branch(14, seg_filtered);
                seg_filtered = false;
                if emit {
                    let a = vaddr + y as u64 * scale * stride + x as u64 * scale;
                    prof.load(a);
                    prof.store(a);
                }
            }
        }
        x += grid;
    }

    // Horizontal edges (rows at multiples of `grid`).
    let mut y = grid;
    while y < h {
        if emit {
            prof.load_range(vaddr + (y - 1) as u64 * scale * stride, stride);
            prof.store_range(vaddr + y as u64 * scale * stride, stride);
        }
        let mut seg_filtered = false;
        for x in 0..w {
            let p1 = plane.get(x, y - 2.min(y));
            let p0 = plane.get(x, y - 1);
            let q0 = plane.get(x, y);
            let q1 = plane.get(x, (y + 1).min(h - 1));
            if let Some((np, nq)) = filter_pair(p1, p0, q0, q1, s) {
                plane.set(x, y - 1, np);
                plane.set(x, y, nq);
                edges_filtered += 1;
                seg_filtered = true;
            }
            if x % 8 == 7 {
                prof.branch(14, seg_filtered);
                seg_filtered = false;
            }
        }
        y += grid;
    }
    edges_filtered
}

/// Applies the in-loop filter to a reconstructed frame.
///
/// `kernel` selects the instrumentation identity (encoder vs decoder
/// deblock kernel); `vaddr` is the frame buffer's virtual base address.
pub(crate) fn deblock_frame(
    frame: &mut Frame,
    qp: Qp,
    offsets: (i8, i8),
    prof: &mut Profiler,
    kernel: usize,
    vaddr: u64,
    scale: u64,
) {
    let s = DeblockStrength::new(qp, offsets);
    let y_edges = deblock_plane(frame.y_mut(), 16, &s, prof, vaddr, scale);
    let y_bytes = (frame.width() * frame.height()) as u64 * scale * scale;
    let c_bytes = y_bytes / 4;
    let sc = DeblockStrength::new(qp.chroma(), offsets);
    let u_edges = deblock_plane(frame.u_mut(), 8, &sc, prof, vaddr + y_bytes, scale);
    let v_edges = deblock_plane(
        frame.v_mut(),
        8,
        &sc,
        prof,
        vaddr + y_bytes + c_bytes,
        scale,
    );
    let total = y_edges + u_edges + v_edges;
    prof.kernel(kernel, total.max(1), 22, 0);
    prof.branch(3, total > 0);
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A frame with a sharp step exactly on the MB boundary at x = 16.
    fn blocky_frame() -> Frame {
        let mut f = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                f.y_mut().set(x, y, if x < 16 { 100 } else { 110 });
            }
        }
        f
    }

    #[test]
    fn strength_grows_with_qp() {
        let weak = DeblockStrength::new(Qp::new(10), (0, 0));
        let strong = DeblockStrength::new(Qp::new(40), (0, 0));
        assert!(strong.alpha > weak.alpha);
        assert!(strong.tc >= weak.tc);
    }

    #[test]
    fn offsets_shift_thresholds() {
        let base = DeblockStrength::new(Qp::new(26), (0, 0));
        let stronger = DeblockStrength::new(Qp::new(26), (3, 3));
        assert!(stronger.alpha > base.alpha);
        assert!(stronger.beta > base.beta);
    }

    #[test]
    fn smooths_block_edge() {
        let mut f = blocky_frame();
        let before = (i32::from(f.y().get(15, 8)) - i32::from(f.y().get(16, 8))).abs();
        deblock_frame(
            &mut f,
            Qp::new(32),
            (0, 0),
            &mut prof(),
            crate::instr::K_DEBLOCK,
            0x3000_0000,
            1,
        );
        let after = (i32::from(f.y().get(15, 8)) - i32::from(f.y().get(16, 8))).abs();
        assert!(after < before, "edge {before} -> {after}");
    }

    #[test]
    fn preserves_real_edges_at_low_qp() {
        // A huge step (real content edge) must survive a low-QP filter.
        let mut f = Frame::new(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                f.y_mut().set(x, y, if x < 16 { 30 } else { 220 });
            }
        }
        let before = f.y().get(15, 4);
        deblock_frame(
            &mut f,
            Qp::new(10),
            (0, 0),
            &mut prof(),
            crate::instr::K_DEBLOCK,
            0x3000_0000,
            1,
        );
        assert_eq!(f.y().get(15, 4), before);
    }

    #[test]
    fn deterministic_and_identical_across_calls() {
        let mut a = blocky_frame();
        let mut b = blocky_frame();
        deblock_frame(
            &mut a,
            Qp::new(30),
            (1, 0),
            &mut prof(),
            crate::instr::K_DEBLOCK,
            0,
            1,
        );
        deblock_frame(
            &mut b,
            Qp::new(30),
            (1, 0),
            &mut prof(),
            crate::instr::K_DEC_DEBLOCK,
            0,
            1,
        );
        assert_eq!(a, b);
    }
}
