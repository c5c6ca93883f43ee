//! Integer and sub-pel motion estimation (§II-B.2 of the paper).
//!
//! Four search strategies mirror x264's: `dia` (small diamond), `hex`
//! (hexagon, the default), `umh` (uneven multi-hexagon) and `esa`/`tesa`
//! (exhaustive, the latter re-ranking by SATD). Search effort — and with it
//! instruction count, reference working set, and branch behaviour — rises
//! monotonically across that list, which is what differentiates the presets
//! in Figure 6.

use vtx_frame::PaddedPlane;
use vtx_trace::Profiler;

use crate::instr::{K_HPEL, K_ME_DIA, K_ME_ESA, K_ME_HEX, K_ME_UMH, K_SAD, K_SATD};
use crate::mc::mc_luma;
use crate::transform::{sad, satd16x16};
use crate::types::{se_len, MeMethod, MotionVector};

/// A reference picture plus its virtual base address for cache tracing.
#[derive(Debug)]
pub struct RefView<'a> {
    /// Reconstructed luma plane of the reference frame, border-extended.
    pub plane: &'a PaddedPlane,
    /// Virtual address of the plane's first sample.
    pub vaddr: u64,
    /// Address scale factor (nominal / simulated resolution; see
    /// `vtx_codec::bufs` for the scaled-addressing scheme).
    pub scale: u64,
}

impl RefView<'_> {
    /// Nominal-scale address of the sample at simulated `(x, y)`.
    #[inline]
    pub fn addr(&self, x: u64, y: u64) -> u64 {
        let stride = self.plane.width() as u64 * self.scale;
        self.vaddr + y * self.scale * stride + x * self.scale
    }
}

/// Search parameters, derived from the encoder configuration.
#[derive(Debug, Clone, Copy)]
pub struct MeParams {
    /// Search strategy.
    pub method: MeMethod,
    /// Maximum motion range in full pixels.
    pub merange: i32,
    /// Sub-pel refinement level (0 = integer only; >= 4 uses SATD).
    pub subme: u8,
    /// RD lambda for motion-vector rate costing.
    pub lambda: f64,
}

/// Result of a motion search against one reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeResult {
    /// Best motion vector (half-pel units).
    pub mv: MotionVector,
    /// Rate-distortion cost (metric + lambda * mv bits).
    pub cost: u32,
    /// Raw distortion metric (SAD, or SATD at high subme).
    pub metric: u32,
}

/// SAD between a 16x16 source block and the reference at full-pel `(rx, ry)`,
/// read in place, stopping every 4 rows once it reaches `early_out`.
fn sad_16x16_at(
    src: &[u8; 256],
    reference: &PaddedPlane,
    rx: isize,
    ry: isize,
    early_out: u32,
) -> u32 {
    let blk = reference.block(rx, ry, 16, 16);
    let mut acc = 0u32;
    for (row, src) in src.as_chunks::<16>().0.iter().enumerate() {
        acc += sad_row(src, blk.row(row).first_chunk().expect("16-sample rows"));
        if row % 4 == 3 && acc >= early_out {
            return acc;
        }
    }
    acc
}

/// SAD of one block row of a width known at compile time: a row is one
/// `psadbw`, where a slice of runtime length is a loop.
#[inline]
pub(crate) fn sad_row<const W: usize>(a: &[u8; W], b: &[u8; W]) -> u32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| u32::from(x.abs_diff(y)))
        .sum()
}

fn mv_cost(lambda: f64, mv: MotionVector, pred: MotionVector) -> u32 {
    let dx = i32::from(mv.x) - i32::from(pred.x);
    let dy = i32::from(mv.y) - i32::from(pred.y);
    round_to_u32(lambda * f64::from(se_len(dx) + se_len(dy)))
}

/// `x.round() as u32` without calling libm's `round`, which is what
/// `f64::round` compiles to on baseline x86-64: the truncating conversion
/// is one instruction, and the fraction it drops is exact to subtract.
/// Half rounds up, as `round` rounds it away from zero; a negative `x` or
/// NaN gives 0 and one past `u32::MAX` gives `u32::MAX`, as the saturating
/// `as` does.
#[inline]
fn round_to_u32(x: f64) -> u32 {
    let whole = x as u32;
    whole.saturating_add(u32::from(x - f64::from(whole) >= 0.5))
}

struct SearchState<'a, 'p> {
    src: &'a [u8; 256],
    reference: &'a RefView<'a>,
    x: usize,
    y: usize,
    pred: MotionVector,
    lambda: f64,
    merange: i32,
    best_mv: (i32, i32), // full-pel
    best_cost: u32,
    best_metric: u32,
    candidates: u32,
    prof: &'p mut Profiler,
    branch_stride: u32,
}

impl SearchState<'_, '_> {
    /// Evaluates a full-pel candidate, updating the best. Returns whether it
    /// improved.
    fn try_candidate(&mut self, mx: i32, my: i32) -> bool {
        if mx.abs() > self.merange * 2 || my.abs() > self.merange * 2 {
            return false;
        }
        self.candidates += 1;
        let rx = self.x as isize + mx as isize;
        let ry = self.y as isize + my as isize;
        // Touch the candidate's first reference line (the detailed window
        // read was charged when the window was loaded).
        let cy = ry.clamp(0, self.reference.plane.height() as isize - 1) as u64;
        let cx = rx.clamp(0, self.reference.plane.width() as isize - 1) as u64;
        let addr = self.reference.addr(cx, cy);
        self.prof.load(addr);

        let metric = sad_16x16_at(self.src, self.reference.plane, rx, ry, self.best_cost);
        let mv = MotionVector::from_fullpel(mx as i16, my as i16);
        let cost = metric.saturating_add(mv_cost(self.lambda, mv, self.pred));
        let improved = cost < self.best_cost;
        if self.candidates.is_multiple_of(self.branch_stride) {
            self.prof.branch(1, improved);
        }
        if improved {
            self.best_cost = cost;
            self.best_metric = metric;
            self.best_mv = (mx, my);
        }
        improved
    }
}

const DIA_OFFSETS: [(i32, i32); 4] = [(0, -1), (-1, 0), (1, 0), (0, 1)];
const HEX_OFFSETS: [(i32, i32); 6] = [(-2, 0), (-1, -2), (1, -2), (2, 0), (1, 2), (-1, 2)];
const SQUARE_OFFSETS: [(i32, i32); 8] = [
    (-1, -1),
    (0, -1),
    (1, -1),
    (-1, 0),
    (1, 0),
    (-1, 1),
    (0, 1),
    (1, 1),
];

/// Most sub-pel candidates one search can visit at a valid `subme`: four
/// refinement rounds (`subme` 10-11) of eight positions.
const MAX_SUBPEL_VISITS: usize = 32;

#[cfg(test)]
thread_local! {
    /// Sub-pel candidates this thread actually interpolated and scored.
    static SUBPEL_SCORED: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Searches one reference frame for the best motion vector for the 16x16
/// block at `(x, y)` of `src`, starting from the `pred_mv` predictor.
///
/// Emits kernel, cache-line and branch events to `prof` as a side effect.
pub fn search_ref(
    src: &[u8; 256],
    reference: &RefView<'_>,
    x: usize,
    y: usize,
    pred_mv: MotionVector,
    params: &MeParams,
    prof: &mut Profiler,
) -> MeResult {
    let full = search_fullpel(src, reference, x, y, pred_mv, params, prof);
    refine_subpel(src, reference, x, y, pred_mv, params, full, prof)
}

/// The integer-pel stage of [`search_ref`].
fn search_fullpel(
    src: &[u8; 256],
    reference: &RefView<'_>,
    x: usize,
    y: usize,
    pred_mv: MotionVector,
    params: &MeParams,
    prof: &mut Profiler,
) -> MeResult {
    // Charge the search-window working set: merange rows above/below. When
    // the optimizer tiled this loop over x, only the columns newly exposed
    // by the sliding window are fetched (the rest were loaded for the
    // previous macroblock and are still addressable as hits).
    let sim_width = reference.plane.width() as u64;
    let top = (y as i64 - i64::from(params.merange)).max(0) as u64;
    let bot =
        ((y + 16) as i64 + i64::from(params.merange)).min(reference.plane.height() as i64) as u64;
    let tiled = prof.data_plan().tile_me_window && x > 0;
    let (left, span) = if tiled {
        ((x + 16) as i64 - 16, (16 + params.merange) as u64)
    } else {
        (
            (x as i64 - i64::from(params.merange)).max(0),
            (16 + 2 * params.merange) as u64,
        )
    };
    let left = (left.max(0) as u64).min(sim_width - 1);
    let span_bytes = span.min(sim_width - left) * reference.scale;
    for row in top..bot {
        prof.load_range(reference.addr(left, row), span_bytes);
    }

    let (px, py) = pred_mv.fullpel();
    let mut st = SearchState {
        src,
        reference,
        x,
        y,
        pred: pred_mv,
        lambda: params.lambda,
        merange: params.merange.max(4),
        best_mv: (0, 0),
        best_cost: u32::MAX,
        best_metric: u32::MAX,
        candidates: 0,
        prof,
        branch_stride: if matches!(params.method, MeMethod::Esa | MeMethod::Tesa) {
            8
        } else {
            1
        },
    };

    // Seed with the predictor and the zero vector.
    st.try_candidate(i32::from(px), i32::from(py));
    st.try_candidate(0, 0);

    match params.method {
        MeMethod::Dia => diamond_search(&mut st),
        MeMethod::Hex => hex_search(&mut st),
        MeMethod::Umh => umh_search(&mut st),
        MeMethod::Esa | MeMethod::Tesa => esa_search(&mut st, params.method == MeMethod::Tesa),
    }

    let kernel = match params.method {
        MeMethod::Dia => K_ME_DIA,
        MeMethod::Hex => K_ME_HEX,
        MeMethod::Umh => K_ME_UMH,
        MeMethod::Esa | MeMethod::Tesa => K_ME_ESA,
    };
    let cands = st.candidates;
    let full = MeResult {
        mv: MotionVector::from_fullpel(st.best_mv.0 as i16, st.best_mv.1 as i16),
        cost: st.best_cost,
        metric: st.best_metric,
    };
    prof.kernel(kernel, cands, 30, 0);
    prof.kernel(K_SAD, cands, 64, 0);
    full
}

/// The sub-pel stage of [`search_ref`]: refines the integer-pel result
/// `full` over the eight half-pel neighbours of the running best. Deeper
/// subme levels run more refinement rounds (x264's subme ladder adds qpel
/// iterations and RD checks), and levels >= 5 always complete their scan
/// instead of breaking early.
#[allow(clippy::too_many_arguments)]
fn refine_subpel(
    src: &[u8; 256],
    reference: &RefView<'_>,
    x: usize,
    y: usize,
    pred_mv: MotionVector,
    params: &MeParams,
    full: MeResult,
    prof: &mut Profiler,
) -> MeResult {
    if params.subme == 0 {
        return full;
    }
    let MeResult {
        mut mv,
        cost: mut best_cost,
        metric: mut best_metric,
    } = full;
    let use_satd = params.subme >= 4;
    let rounds = u32::from(params.subme).div_ceil(3);
    let exhaustive_rounds = if params.subme >= 5 { 2 } else { 0 };
    // A round whose centre did not move revisits the previous round's
    // positions, and a moved centre shares neighbours with the old one. The
    // sub-pel metric has no early-out — it is a pure function of source,
    // reference and vector — so a revisit reuses the value scored here.
    // Only the host work is skipped: the visit count, every branch event
    // and the kernel charges below stay per visit, as the model defines
    // them. (With `best_cost` only ever falling a revisit cannot win today;
    // keeping the value leaves that a property of the loop, not the memo.)
    let mut scored = [(MotionVector::ZERO, 0u32); MAX_SUBPEL_VISITS];
    let mut n_scored = 0;
    let mut hpel_cands = 0u32;
    for round in 0..rounds {
        let mut improved = false;
        for (dx, dy) in SQUARE_OFFSETS {
            let cand = MotionVector::new(mv.x + dx as i16, mv.y + dy as i16);
            if !cand.has_halfpel() {
                continue; // full-pel positions were already searched
            }
            hpel_cands += 1;
            let known = scored[..n_scored].iter().find(|(v, _)| *v == cand);
            let metric = match known {
                Some(&(_, metric)) => metric,
                None => {
                    let mut pred_blk = [0u8; 256];
                    mc_luma(reference.plane, cand, x, y, 16, 16, &mut pred_blk);
                    let metric = if use_satd {
                        satd16x16(src, &pred_blk)
                    } else {
                        sad(src, &pred_blk)
                    };
                    // Never full at a valid `subme` (<= 11); past that a
                    // search would just stop remembering.
                    if let Some(slot) = scored.get_mut(n_scored) {
                        *slot = (cand, metric);
                        n_scored += 1;
                    }
                    #[cfg(test)]
                    SUBPEL_SCORED.with(|n| n.set(n.get() + 1));
                    metric
                }
            };
            let cost = metric.saturating_add(mv_cost(params.lambda, cand, pred_mv));
            let better = cost < best_cost;
            prof.branch(2, better);
            if better {
                best_cost = cost;
                best_metric = metric;
                mv = cand;
                improved = true;
            }
        }
        if !improved && round >= exhaustive_rounds {
            break;
        }
    }
    prof.kernel(K_HPEL, hpel_cands, 90, 16);
    if use_satd {
        prof.kernel(K_SATD, hpel_cands, 160, 0);
    }

    MeResult {
        mv,
        cost: best_cost,
        metric: best_metric,
    }
}

fn diamond_search(st: &mut SearchState<'_, '_>) {
    let mut iters = 0;
    loop {
        let (cx, cy) = st.best_mv;
        let mut improved = false;
        for (dx, dy) in DIA_OFFSETS {
            improved |= st.try_candidate(cx + dx, cy + dy);
        }
        iters += 1;
        if !improved || iters >= st.merange {
            break;
        }
    }
}

fn hex_search(st: &mut SearchState<'_, '_>) {
    let mut iters = 0;
    loop {
        let (cx, cy) = st.best_mv;
        let mut improved = false;
        for (dx, dy) in HEX_OFFSETS {
            improved |= st.try_candidate(cx + dx, cy + dy);
        }
        iters += 1;
        if !improved || iters >= st.merange {
            break;
        }
    }
    // Final square refinement.
    let (cx, cy) = st.best_mv;
    for (dx, dy) in SQUARE_OFFSETS {
        st.try_candidate(cx + dx, cy + dy);
    }
}

fn umh_search(st: &mut SearchState<'_, '_>) {
    // 1. Cross search at stride 2 out to merange.
    let (sx, sy) = st.best_mv;
    let range = st.merange;
    let mut d = 2;
    while d <= range {
        st.try_candidate(sx + d, sy);
        st.try_candidate(sx - d, sy);
        st.try_candidate(sx, sy + d);
        st.try_candidate(sx, sy - d);
        d += 2;
    }
    // 2. 5x5 full window around the current best.
    let (cx, cy) = st.best_mv;
    for dy in -2..=2 {
        for dx in -2..=2 {
            st.try_candidate(cx + dx, cy + dy);
        }
    }
    // 3. Uneven multi-hexagon rings expanding outward.
    let (cx, cy) = st.best_mv;
    let mut r = 4;
    while r <= range {
        for (hx, hy) in HEX_OFFSETS {
            st.try_candidate(cx + hx * r / 2, cy + hy * r / 2);
        }
        for (hx, hy) in SQUARE_OFFSETS {
            st.try_candidate(cx + hx * r, cy + hy * r);
        }
        r *= 2;
    }
    // 4. Hexagon convergence from the best point found.
    hex_search(st);
}

fn esa_search(st: &mut SearchState<'_, '_>, satd_rerank: bool) {
    let range = st.merange;
    let mut top: Vec<(u32, i32, i32)> = Vec::new();
    for my in -range..=range {
        for mx in -range..=range {
            st.try_candidate(mx, my);
            if satd_rerank && st.best_mv == (mx, my) {
                top.push((st.best_cost, mx, my));
            }
        }
    }
    if satd_rerank {
        // Re-rank the most recent best candidates by SATD (tesa behaviour).
        let n = top.len().min(8);
        let slice = &top[top.len() - n..];
        let mut best = (u32::MAX, st.best_mv);
        let mut blk = [0u8; 256];
        for &(_, mx, my) in slice {
            st.reference.plane.copy_block(
                st.x as isize + mx as isize,
                st.y as isize + my as isize,
                16,
                16,
                &mut blk,
            );
            let metric = satd16x16(st.src, &blk);
            let mv = MotionVector::from_fullpel(mx as i16, my as i16);
            let cost = metric.saturating_add(mv_cost(st.lambda, mv, st.pred));
            if cost < best.0 {
                best = (cost, (mx, my));
            }
        }
        if best.0 != u32::MAX {
            st.best_mv = best.1;
            st.best_cost = best.0;
            st.best_metric = best.0;
        }
    }
}

/// Replaced bodies kept as oracles: the sub-pel stage as it was before
/// candidates were memoised and before `satd16x16` — every visit
/// interpolated and scored, SATD gathered 4x4 by 4x4
/// (`transform::oracle`) — and the full-pel SAD as it read an unpadded
/// plane, in place inside it and through a clamped copy across a border.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::transform::oracle::satd16_blocks;
    use vtx_frame::Plane;

    pub(super) fn sad_16x16_at(
        src: &[u8; 256],
        reference: &Plane,
        rx: isize,
        ry: isize,
        early_out: u32,
    ) -> u32 {
        let w = reference.width() as isize;
        let h = reference.height() as isize;
        let mut acc = 0u32;
        if rx >= 0 && ry >= 0 && rx + 16 <= w && ry + 16 <= h {
            let stride = reference.width();
            let samples = reference.samples();
            for row in 0..16 {
                let off = (ry as usize + row) * stride + rx as usize;
                acc += sad(&src[row * 16..row * 16 + 16], &samples[off..off + 16]);
                if row % 4 == 3 && acc >= early_out {
                    return acc;
                }
            }
            acc
        } else {
            let mut blk = [0u8; 256];
            reference.copy_block_clamped(rx, ry, 16, 16, &mut blk);
            for row in 0..16 {
                acc += sad(&src[row * 16..row * 16 + 16], &blk[row * 16..row * 16 + 16]);
                if row % 4 == 3 && acc >= early_out {
                    return acc;
                }
            }
            acc
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn refine_subpel(
        src: &[u8; 256],
        reference: &RefView<'_>,
        x: usize,
        y: usize,
        pred_mv: MotionVector,
        params: &MeParams,
        full: MeResult,
        prof: &mut Profiler,
    ) -> MeResult {
        let mut mv = full.mv;
        let mut best_cost = full.cost;
        let mut best_metric = full.metric;
        if params.subme >= 1 {
            let use_satd = params.subme >= 4;
            let rounds = u32::from(params.subme).div_ceil(3);
            let exhaustive_rounds = if params.subme >= 5 { 2 } else { 0 };
            let mut hpel_cands = 0u32;
            for round in 0..rounds {
                let mut improved = false;
                for (dx, dy) in SQUARE_OFFSETS {
                    let cand = MotionVector::new(mv.x + dx as i16, mv.y + dy as i16);
                    if !cand.has_halfpel() {
                        continue;
                    }
                    hpel_cands += 1;
                    let mut pred_blk = [0u8; 256];
                    mc_luma(reference.plane, cand, x, y, 16, 16, &mut pred_blk);
                    let metric = if use_satd {
                        satd16_blocks(src, &pred_blk)
                    } else {
                        sad(src, &pred_blk)
                    };
                    let cost = metric.saturating_add(mv_cost(params.lambda, cand, pred_mv));
                    let better = cost < best_cost;
                    prof.branch(2, better);
                    if better {
                        best_cost = cost;
                        best_metric = metric;
                        mv = cand;
                        improved = true;
                    }
                }
                if !improved && round >= exhaustive_rounds {
                    break;
                }
            }
            prof.kernel(K_HPEL, hpel_cands, 90, 16);
            if use_satd {
                prof.kernel(K_SATD, hpel_cands, 160, 0);
            }
        }
        MeResult {
            mv,
            cost: best_cost,
            metric: best_metric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::LUMA_PAD;
    use vtx_frame::Plane;
    use vtx_trace::layout::CodeLayout;
    use vtx_uarch::config::UarchConfig;

    fn padded(p: &Plane) -> PaddedPlane {
        PaddedPlane::new(p, LUMA_PAD)
    }

    fn prof() -> Profiler {
        let kernels = crate::instr::kernel_table();
        Profiler::new(
            &UarchConfig::baseline(),
            kernels,
            CodeLayout::default_order(kernels),
        )
        .unwrap()
    }

    /// Builds a reference containing a smooth Gaussian blob centred at
    /// (32, 32) and a source block that equals the reference shifted by
    /// (8, 8): the SAD landscape is unimodal with a unique zero at that
    /// displacement, so both local and exhaustive searches must find it.
    fn shifted_scene() -> (Plane, [u8; 256]) {
        let mut reference = Plane::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                let dx = x as f64 - 32.0;
                let dy = y as f64 - 32.0;
                let v = 20.0 + 220.0 * (-(dx * dx + dy * dy) / 90.0).exp();
                reference.set(x, y, v as u8);
            }
        }
        let mut src = [0u8; 256];
        for r in 0..16 {
            for c in 0..16 {
                src[r * 16 + c] = reference.get(24 + c, 24 + r);
            }
        }
        (reference, src)
    }

    fn run(method: MeMethod, subme: u8) -> MeResult {
        let (plane, src) = shifted_scene();
        let mut p = prof();
        let rv = RefView {
            plane: &padded(&plane),
            vaddr: 0x2000_0000,
            scale: 1,
        };
        let params = MeParams {
            method,
            merange: 16,
            subme,
            lambda: 4.0,
        };
        search_ref(&src, &rv, 16, 16, MotionVector::ZERO, &params, &mut p)
    }

    #[test]
    fn esa_finds_exact_displacement() {
        let r = run(MeMethod::Esa, 0);
        assert_eq!(r.mv, MotionVector::from_fullpel(8, 8));
        assert_eq!(r.metric, 0);
    }

    #[test]
    fn umh_finds_exact_displacement() {
        let r = run(MeMethod::Umh, 0);
        assert_eq!(r.mv, MotionVector::from_fullpel(8, 8));
    }

    #[test]
    fn hex_finds_displacement() {
        let r = run(MeMethod::Hex, 0);
        assert_eq!(r.mv, MotionVector::from_fullpel(8, 8));
    }

    #[test]
    fn method_effort_ordering() {
        // Candidate counts (instructions charged to ME kernels) must grow
        // from dia to esa.
        let count = |m: MeMethod| {
            let (plane, src) = shifted_scene();
            let mut p = prof();
            let rv = RefView {
                plane: &padded(&plane),
                vaddr: 0x2000_0000,
                scale: 1,
            };
            let params = MeParams {
                method: m,
                merange: 16,
                subme: 0,
                lambda: 4.0,
            };
            search_ref(&src, &rv, 16, 16, MotionVector::ZERO, &params, &mut p);
            let rep = p.finish();
            rep.counts.instructions
        };
        let dia = count(MeMethod::Dia);
        let hex = count(MeMethod::Hex);
        let umh = count(MeMethod::Umh);
        let esa = count(MeMethod::Esa);
        // dia takes 1-px steps so it may iterate more than hex on deep
        // displacements; the robust ordering is pattern searches < umh < esa.
        assert!(dia < umh, "dia {dia} umh {umh}");
        assert!(hex < umh, "hex {hex} umh {umh}");
        assert!(umh < esa, "umh {umh} esa {esa}");
    }

    #[test]
    fn subpel_refinement_improves_half_pel_content() {
        // Build a reference whose best match is at a half-pel offset: the
        // source is the average of two adjacent columns.
        let mut reference = Plane::new(64, 64);
        for y in 0..64 {
            for x in 0..64 {
                reference.set(x, y, ((x * 11 + y * 3) % 240) as u8);
            }
        }
        let mut src = [0u8; 256];
        for r in 0..16 {
            for c in 0..16 {
                let a = u16::from(reference.get(16 + c, 16 + r));
                let b = u16::from(reference.get(17 + c, 16 + r));
                src[r * 16 + c] = (a + b).div_ceil(2) as u8;
            }
        }
        let mut p = prof();
        let rv = RefView {
            plane: &padded(&reference),
            vaddr: 0x2000_0000,
            scale: 1,
        };
        let coarse = search_ref(
            &src,
            &rv,
            16,
            16,
            MotionVector::ZERO,
            &MeParams {
                method: MeMethod::Hex,
                merange: 8,
                subme: 0,
                lambda: 1.0,
            },
            &mut p,
        );
        let fine = search_ref(
            &src,
            &rv,
            16,
            16,
            MotionVector::ZERO,
            &MeParams {
                method: MeMethod::Hex,
                merange: 8,
                subme: 2,
                lambda: 1.0,
            },
            &mut p,
        );
        assert!(
            fine.metric < coarse.metric,
            "{} vs {}",
            fine.metric,
            coarse.metric
        );
        assert!(fine.mv.has_halfpel());
    }

    #[test]
    fn tiled_window_loading_emits_fewer_accesses() {
        use vtx_trace::plan::DataPlan;
        let (plane, src) = shifted_scene();
        let params = MeParams {
            method: MeMethod::Hex,
            merange: 16,
            subme: 0,
            lambda: 4.0,
        };
        let run = |plan: DataPlan| {
            let mut p = prof();
            p.set_data_plan(plan);
            // Nominal-scale addressing (scale 8), where the narrower tiled
            // span covers measurably fewer cache lines.
            let rv = RefView {
                plane: &padded(&plane),
                vaddr: 0x2000_0000,
                scale: 8,
            };
            // x > 0 so the sliding-window delta applies.
            search_ref(&src, &rv, 32, 16, MotionVector::ZERO, &params, &mut p);
            p.finish().counts.loads.total()
        };
        let canonical = run(DataPlan::canonical());
        let tiled = run(DataPlan::fully_blocked());
        assert!(
            tiled < canonical,
            "tiled {tiled} should load less than canonical {canonical}"
        );
    }

    #[test]
    fn tesa_runs_and_finds_displacement() {
        let r = run(MeMethod::Tesa, 0);
        assert_eq!(r.mv, MotionVector::from_fullpel(8, 8));
    }

    /// Reference / source plane pairs of 64x48 (4x3 macroblocks: every
    /// corner and edge position, two interior): two catalog clips two
    /// frames apart, and unrelated noise, where the best vector wanders.
    fn seeded_scenes() -> Vec<(Plane, Plane)> {
        let mut scenes = Vec::new();
        for (name, seed) in [("holi", 3), ("bike", 9)] {
            let mut spec = vtx_frame::vbench::by_name(name).unwrap();
            (spec.sim_width, spec.sim_height, spec.sim_frames) = (64, 48, 3);
            let clip = vtx_frame::synth::generate(&spec, seed);
            scenes.push((clip.frames[0].y().clone(), clip.frames[2].y().clone()));
        }
        let mut rng = vtx_rng::Xoshiro256pp::new(0x5CE4E);
        let mut noise = || {
            let mut p = Plane::new(64, 48);
            p.samples_mut().fill_with(|| rng.next_u8());
            p
        };
        scenes.push((noise(), noise()));
        scenes
    }

    /// Memoised sub-pel refinement against the loop it replaced: the same
    /// `MeResult` at every macroblock position and the same simulated
    /// counts, for every method and every `subme`.
    #[test]
    fn memoised_subpel_matches_the_unmemoised_oracle() {
        let scenes = seeded_scenes();
        let mut rng = vtx_rng::Xoshiro256pp::new(0x0AC1E);
        for method in [
            MeMethod::Dia,
            MeMethod::Hex,
            MeMethod::Umh,
            MeMethod::Esa,
            MeMethod::Tesa,
        ] {
            let exhaustive = matches!(method, MeMethod::Esa | MeMethod::Tesa);
            for subme in 0..=11u8 {
                let params = MeParams {
                    method,
                    merange: if exhaustive { 4 } else { 16 },
                    subme,
                    lambda: 1.0 + f64::from(subme),
                };
                for (si, (reference, source)) in scenes.iter().enumerate() {
                    let rv = RefView {
                        plane: &padded(reference),
                        vaddr: 0x2000_0000,
                        scale: 8,
                    };
                    let (mut p_new, mut p_old) = (prof(), prof());
                    for mb in 0..12 {
                        let (x, y) = (mb % 4 * 16, mb / 4 * 16);
                        let mut src = [0u8; 256];
                        source.copy_block_clamped(x as isize, y as isize, 16, 16, &mut src);
                        let pred = MotionVector::new(
                            rng.next_i64_in(-9, 9) as i16,
                            rng.next_i64_in(-9, 9) as i16,
                        );
                        let got = search_ref(&src, &rv, x, y, pred, &params, &mut p_new);
                        let full = search_fullpel(&src, &rv, x, y, pred, &params, &mut p_old);
                        let want =
                            oracle::refine_subpel(&src, &rv, x, y, pred, &params, full, &mut p_old);
                        assert_eq!(got, want, "{method:?} subme {subme} scene {si} mb {mb}");
                    }
                    let (new, old) = (p_new.finish(), p_old.finish());
                    assert_eq!(
                        new.counts, old.counts,
                        "{method:?} subme {subme} scene {si}"
                    );
                    assert_eq!(
                        new.profile, old.profile,
                        "{method:?} subme {subme} scene {si}"
                    );
                }
            }
        }
    }

    /// On a static scene at `subme` 7 the centre never moves: three rounds
    /// visit the same eight half-pel neighbours, the model is charged all
    /// 24 visits, and the host interpolates and scores each position once.
    #[test]
    fn revisited_subpel_candidates_are_scored_once() {
        let (plane, _) = shifted_scene();
        let mut src = [0u8; 256];
        plane.copy_block_clamped(24, 24, 16, 16, &mut src);
        let rv = RefView {
            plane: &padded(&plane),
            vaddr: 0x2000_0000,
            scale: 1,
        };
        let params = MeParams {
            method: MeMethod::Hex,
            merange: 16,
            subme: 7,
            lambda: 4.0,
        };
        let mut p = prof();
        let before = SUBPEL_SCORED.get();
        let r = search_ref(&src, &rv, 24, 24, MotionVector::ZERO, &params, &mut p);
        assert_eq!((r.mv, r.metric), (MotionVector::ZERO, 0));
        assert_eq!(SUBPEL_SCORED.get() - before, 8, "distinct candidates");
        // K_HPEL is the only kernel of a search with heavy ops: 16 a visit.
        assert_eq!(p.finish().counts.heavy_ops, 24 * 16, "visits charged");
    }

    /// `MeParams` is public and does not validate: a `subme` past the
    /// encoder's 0..=11 can walk through more distinct candidates than the
    /// memo holds. The search then stops remembering and stays correct.
    #[test]
    fn a_full_memo_stops_remembering_and_still_matches_the_oracle() {
        // A 4-pixel diamond search leaves the (8, 8) displacement half
        // covered; sixty sub-pel rounds walk the rest in half-pel steps.
        let (plane, src) = shifted_scene();
        let rv = RefView {
            plane: &padded(&plane),
            vaddr: 0x2000_0000,
            scale: 1,
        };
        let params = MeParams {
            method: MeMethod::Dia,
            merange: 4,
            subme: 180,
            lambda: 0.0,
        };
        let (mut p_new, mut p_old) = (prof(), prof());
        let before = SUBPEL_SCORED.get();
        let got = search_ref(&src, &rv, 16, 16, MotionVector::ZERO, &params, &mut p_new);
        let scored = SUBPEL_SCORED.get() - before;
        assert!(scored as usize > MAX_SUBPEL_VISITS, "scored {scored}");
        let full = search_fullpel(&src, &rv, 16, 16, MotionVector::ZERO, &params, &mut p_old);
        let want = oracle::refine_subpel(
            &src,
            &rv,
            16,
            16,
            MotionVector::ZERO,
            &params,
            full,
            &mut p_old,
        );
        assert_eq!(got, want);
        assert_eq!(p_new.finish().counts, p_old.finish().counts);
    }

    #[test]
    fn border_sad_honours_early_out() {
        let (plane, src) = shifted_scene();
        // rx = -4 straddles the left edge: the read is in the border.
        let reference = padded(&plane);
        let full = sad_16x16_at(&src, &reference, -4, 16, u32::MAX);
        let mut blk = [0u8; 256];
        plane.copy_block_clamped(-4, 16, 16, 16, &mut blk);
        assert_eq!(full, sad(&src, &blk), "no early-out must give full SAD");
        assert!(full > 0);

        // A threshold the first 4 rows already exceed must terminate early:
        // the partial accumulator is below the full SAD but at or above the
        // threshold, exactly like the interior path.
        let partial = sad_16x16_at(&src, &reference, -4, 16, 1);
        assert!(partial >= 1);
        assert!(
            partial < full,
            "partial {partial} should stop before full {full}"
        );

        let four_rows: u32 = (0..4)
            .map(|row| sad(&src[row * 16..row * 16 + 16], &blk[row * 16..row * 16 + 16]))
            .sum();
        assert_eq!(partial, four_rows);
    }

    /// Full-pel SAD from the padded plane against the oracle's clamped
    /// reads: every origin from past the border on each side to past it on
    /// the other, both ends of the vector range, with no early out and with
    /// thresholds that stop it after each group of four rows.
    #[test]
    fn padded_sad_equals_the_clamped_oracle() {
        let mut rng = vtx_rng::Xoshiro256pp::new(0x5AD16);
        let mut plane = Plane::new(48, 32);
        plane.samples_mut().fill_with(|| rng.next_u8());
        let reference = padded(&plane);
        let src: [u8; 256] = std::array::from_fn(|_| rng.next_u8());
        let reach = (LUMA_PAD + 18) as isize;
        let mut origins = Vec::new();
        for ry in -reach..32 + reach {
            for rx in -reach..48 + reach {
                origins.push((rx, ry));
            }
        }
        for r in [-1024, -1023, 1023, 1024] {
            origins.extend([(r, 0), (0, r), (r, r), (r, -r)]);
        }
        for (rx, ry) in origins {
            for early_out in [u32::MAX, 1, 1500, 3000, 6000] {
                assert_eq!(
                    sad_16x16_at(&src, &reference, rx, ry, early_out),
                    oracle::sad_16x16_at(&src, &plane, rx, ry, early_out),
                    "({rx}, {ry}) early out {early_out}"
                );
            }
        }
    }

    /// The libm-free rounding against `f64::round` on a dense grid of the
    /// products `mv_cost` forms, every tie, the integers from 2^52 up where
    /// a fraction no longer exists, and results past `u32::MAX`.
    #[test]
    fn rounding_equals_f64_round() {
        let check = |x: f64| assert_eq!(round_to_u32(x), x.round() as u32, "{x:e}");
        for qp in 0..=51u8 {
            let lambda = crate::types::Qp::new(i32::from(qp)).lambda();
            for bits in 0..=130u32 {
                check(lambda * f64::from(bits));
            }
        }
        for i in 0..200_000u32 {
            let x = f64::from(i) / 1024.0;
            check(x);
            check(f64::from(i) + 0.5);
            check(x.next_up());
            check((f64::from(i) + 0.5).next_down());
        }
        for k in 52..64 {
            let big = (1u64 << k) as f64;
            for x in [big, big + 1.0, big + 2.0, big.next_down(), big.next_up()] {
                check(x);
            }
        }
        for x in [
            0.0,
            -0.0,
            0.49999999999999994,
            -0.4,
            -0.5,
            -7.7,
            4_294_967_294.5,
            4_294_967_295.0,
            4_294_967_295.49,
            4_294_967_295.5,
            4_294_967_296.0,
            1e12,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            check(x);
        }
    }
}
