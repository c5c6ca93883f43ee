//! Look-ahead analysis: scene-cut detection and adaptive B-frame placement.
//!
//! Decides the frame type (I/P/B) for every display frame before encoding
//! starts, and derives the coding order (anchors precede the B frames that
//! reference them).

use vtx_frame::Video;
use vtx_trace::Profiler;

use crate::config::EncoderConfig;
use crate::instr::K_LOOKAHEAD;
use crate::types::FrameType;

/// Output of the look-ahead pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LookaheadResult {
    /// Frame types in display order.
    pub types: Vec<FrameType>,
    /// Display indices in coding order (anchors before their B frames).
    pub coding_order: Vec<usize>,
    /// Per-frame complexity estimate (mean absolute luma delta), display order.
    pub complexity: Vec<f64>,
}

/// Scene-cut floor: a mean absolute luma delta below `480 / scenecut`
/// never triggers an I frame (x264's default `scenecut=40` maps to 12).
fn cut_threshold(scenecut: u8) -> f64 {
    480.0 / f64::from(scenecut.max(1))
}

/// Analyzes the clip and assigns frame types and coding order.
pub fn analyze(video: &Video, cfg: &EncoderConfig, prof: &mut Profiler) -> LookaheadResult {
    let n = video.frames.len();
    let mut complexity = Vec::with_capacity(n);
    let mut cuts = vec![false; n];

    // Per-frame complexity.
    for i in 0..n {
        let c = if i == 0 {
            mean_abs_deviation(&video.frames[0])
        } else {
            video.frames[i]
                .mean_abs_luma_diff(&video.frames[i - 1])
                .expect("frames share geometry")
        };
        complexity.push(c);
    }

    // Adaptive cut detection: a cut is a *spike* relative to the clip's
    // typical inter-frame activity (x264 compares intra vs inter cost, so
    // steady fast motion does not read as a cut), with an absolute floor.
    // In fast-moving content a hard cut only roughly doubles the luma delta
    // (the scene is mostly new pixels either way), so the spike multiplier
    // must sit well below 2x; continuous motion stays near 1x the median.
    if cfg.scenecut > 0 && n > 1 {
        let mut sorted: Vec<f64> = complexity[1..].to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let threshold = cut_threshold(cfg.scenecut).max(1.5 * median);
        for i in 1..n {
            cuts[i] = complexity[i] > threshold;
            prof.branch(0, cuts[i]);
        }
    }
    // Look-ahead reads every frame once at low resolution; charge ~1/4 of
    // the luma rows.
    prof.kernel(K_LOOKAHEAD, n as u32, 600, 24);

    // Frame type assignment.
    let mut types = vec![FrameType::P; n];
    types[0] = FrameType::I;
    for i in 1..n {
        if cuts[i] || (cfg.keyint > 0 && i % usize::from(cfg.keyint.max(1)) == 0) {
            types[i] = FrameType::I;
        }
    }
    // Forced IDR cuts (segment boundaries). Set before B assignment so
    // `assign_b_frames` never plans a run across a boundary.
    for &k in &cfg.force_kf {
        let k = k as usize;
        if k < n {
            types[k] = FrameType::I;
        }
    }

    if cfg.bframes > 0 {
        assign_b_frames(&mut types, &complexity, cfg, prof);
    }

    // The final frame cannot be a B frame (no future anchor).
    if let Some(last) = types.last_mut() {
        if *last == FrameType::B {
            *last = FrameType::P;
        }
    }

    // Closed GOP at every forced cut: a B frame just before the boundary
    // would reference the boundary I as its future anchor and be coded
    // *after* it, interleaving the previous segment's records into the new
    // one. Demote the trailing B run to P so each segment's records are
    // contiguous and reference nothing across the cut.
    for &k in &cfg.force_kf {
        let k = k as usize;
        if k == 0 || k >= n {
            continue;
        }
        let mut j = k;
        while j > 0 && types[j - 1] == FrameType::B {
            types[j - 1] = FrameType::P;
            j -= 1;
        }
    }

    // Coding order: each anchor, then the B frames that precede it in
    // display order (and follow the previous anchor).
    let mut coding_order = Vec::with_capacity(n);
    let mut pending_b: Vec<usize> = Vec::new();
    for (i, t) in types.iter().enumerate() {
        if *t == FrameType::B {
            pending_b.push(i);
        } else {
            coding_order.push(i);
            coding_order.append(&mut pending_b);
        }
    }
    // Defensive: trailing Bs (should not happen after the fix-up above).
    coding_order.append(&mut pending_b);

    LookaheadResult {
        types,
        coding_order,
        complexity,
    }
}

fn assign_b_frames(
    types: &mut [FrameType],
    complexity: &[f64],
    cfg: &EncoderConfig,
    prof: &mut Profiler,
) {
    let n = types.len();
    let max_run = usize::from(cfg.bframes);
    let avg = (complexity.iter().sum::<f64>() / n as f64).max(1e-6);

    let mut i = 1;
    while i < n {
        if types[i] == FrameType::I {
            i += 1;
            continue;
        }
        // Candidate run of B frames starting at i, ending before the next
        // anchor candidate.
        let mut limit = 0;
        while limit < max_run && i + limit < n - 1 && types[i + limit] != FrameType::I {
            limit += 1;
        }
        let run = match cfg.b_adapt {
            0 => limit,
            1 => {
                // Fast heuristic: stop the B run at the first busy frame.
                let mut r = 0;
                while r < limit {
                    let busy = complexity[i + r] > 1.5 * avg;
                    prof.branch(1, busy);
                    if busy {
                        break;
                    }
                    r += 1;
                }
                r
            }
            _ => {
                // "Optimal": evaluate every candidate run length by an
                // aggregate cost model (B frames are cheap unless motion is
                // high; long runs pay a propagation penalty).
                let mut best = (0usize, f64::MAX);
                for r in 0..=limit {
                    let mut cost = 0.0;
                    for k in 0..r {
                        cost += complexity[i + k] * 0.6 + avg * 0.05 * (k as f64);
                    }
                    if i + r < n {
                        cost += complexity[i + r]; // the anchor pays full price
                    }
                    prof.branch(2, cost < best.1);
                    if cost < best.1 {
                        best = (r, cost);
                    }
                }
                prof.kernel(K_LOOKAHEAD, (limit + 1) as u32, 220, 8);
                best.0
            }
        };
        for k in 0..run {
            types[i + k] = FrameType::B;
        }
        i += run + 1;
    }
}

fn mean_abs_deviation(frame: &vtx_frame::Frame) -> f64 {
    let samples = frame.y().samples();
    let mean = samples.iter().map(|&v| u64::from(v)).sum::<u64>() / samples.len() as u64;
    let mad: u64 = samples
        .iter()
        .map(|&v| u64::from(v.abs_diff(mean as u8)))
        .sum();
    mad as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_frame::{synth, vbench};
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

    fn video(name: &str) -> Video {
        synth::generate(&vbench::by_name(name).unwrap(), 3)
    }

    #[test]
    fn first_frame_is_i() {
        let v = video("desktop");
        let r = analyze(&v, &EncoderConfig::default(), &mut prof());
        assert_eq!(r.types[0], FrameType::I);
        assert_eq!(r.types.len(), v.frames.len());
        assert_eq!(r.coding_order.len(), v.frames.len());
    }

    #[test]
    fn coding_order_is_permutation_with_anchors_first() {
        let v = video("cricket");
        let r = analyze(&v, &EncoderConfig::default(), &mut prof());
        let mut seen = vec![false; v.frames.len()];
        for &i in &r.coding_order {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Every B frame must appear in coding order after some later anchor.
        let pos: Vec<usize> = {
            let mut p = vec![0; v.frames.len()];
            for (k, &i) in r.coding_order.iter().enumerate() {
                p[i] = k;
            }
            p
        };
        for (i, t) in r.types.iter().enumerate() {
            if *t == FrameType::B {
                let anchor_after = (i + 1..v.frames.len())
                    .find(|&j| r.types[j] != FrameType::B)
                    .expect("B frame must have a future anchor");
                assert!(
                    pos[anchor_after] < pos[i],
                    "anchor {anchor_after} must be coded before B {i}"
                );
            }
        }
    }

    #[test]
    fn no_b_frames_when_disabled() {
        let v = video("cricket");
        let cfg = EncoderConfig {
            bframes: 0,
            ..EncoderConfig::default()
        };
        let r = analyze(&v, &cfg, &mut prof());
        assert!(r.types.iter().all(|&t| t != FrameType::B));
        // Coding order equals display order with no Bs.
        assert_eq!(r.coding_order, (0..v.frames.len()).collect::<Vec<_>>());
    }

    #[test]
    fn b_frames_appear_with_fixed_pattern() {
        let v = video("desktop"); // calm content
        let cfg = EncoderConfig {
            b_adapt: 0,
            bframes: 2,
            scenecut: 0,
            ..EncoderConfig::default()
        };
        let r = analyze(&v, &cfg, &mut prof());
        let b_count = r.types.iter().filter(|&&t| t == FrameType::B).count();
        assert!(b_count > 0, "fixed pattern must emit B frames");
        // No run of Bs longer than bframes.
        let mut run = 0;
        for t in &r.types {
            if *t == FrameType::B {
                run += 1;
                assert!(run <= 2);
            } else {
                run = 0;
            }
        }
    }

    #[test]
    fn high_entropy_video_gets_scene_cuts() {
        let v = video("hall"); // entropy 7.7: frequent cuts
        let r = analyze(&v, &EncoderConfig::default(), &mut prof());
        let i_count = r.types.iter().filter(|&&t| t == FrameType::I).count();
        assert!(i_count >= 2, "expected scene-cut I frames, got {i_count}");
    }

    #[test]
    fn scenecut_zero_disables_detection() {
        let v = video("hall");
        let cfg = EncoderConfig {
            scenecut: 0,
            ..EncoderConfig::default()
        };
        let r = analyze(&v, &cfg, &mut prof());
        let i_count = r.types.iter().filter(|&&t| t == FrameType::I).count();
        assert_eq!(i_count, 1);
    }

    #[test]
    fn last_frame_never_b() {
        for name in ["desktop", "cricket", "hall"] {
            let v = video(name);
            let r = analyze(&v, &EncoderConfig::default(), &mut prof());
            assert_ne!(*r.types.last().unwrap(), FrameType::B, "{name}");
        }
    }

    #[test]
    fn forced_cuts_are_i_frames_with_closed_gops() {
        let v = video("desktop");
        let n = v.frames.len();
        let cuts: Vec<u32> = vec![n as u32 / 3, 2 * n as u32 / 3];
        let cfg = EncoderConfig::default().with_force_kf(cuts.clone());
        let r = analyze(&v, &cfg, &mut prof());
        let pos: Vec<usize> = {
            let mut p = vec![0; n];
            for (k, &i) in r.coding_order.iter().enumerate() {
                p[i] = k;
            }
            p
        };
        for &k in &cuts {
            let k = k as usize;
            assert_eq!(r.types[k], FrameType::I, "forced index {k} must be I");
            // Closed GOP: the frame before the cut is an anchor, so no
            // record from before the cut is coded after the cut's I frame.
            assert_ne!(r.types[k - 1], FrameType::B, "no B straddles cut {k}");
            for i in 0..k {
                assert!(
                    pos[i] < pos[k],
                    "frame {i} coded after forced cut {k} — segment not contiguous"
                );
            }
        }
    }

    #[test]
    fn out_of_range_forced_cuts_are_ignored() {
        let v = video("desktop");
        let cfg = EncoderConfig::default().with_force_kf(vec![10_000]);
        let base = analyze(&v, &EncoderConfig::default(), &mut prof());
        let forced = analyze(&v, &cfg, &mut prof());
        assert_eq!(base.types, forced.types);
        assert_eq!(base.coding_order, forced.coding_order);
    }
}
