//! Pareto analysis of sweep data — the adaptive-streaming guidance the
//! paper's §V points at ("our results can guide better resource utilization
//! for these adaptive video streaming services").
//!
//! A sweep over (crf, refs) yields points in (bitrate, quality, compute)
//! space; an adaptive-streaming ladder wants the rate/quality *efficient
//! frontier*, and an operator wants rungs that respect a compute budget.

use super::sweep::SweepPoint;

/// A point is rate-quality dominated if another point has both no more
/// bitrate and no less PSNR (strictly better in at least one).
fn dominated_by(p: &SweepPoint, q: &SweepPoint) -> bool {
    q.bitrate_kbps <= p.bitrate_kbps
        && q.psnr_db >= p.psnr_db
        && (q.bitrate_kbps < p.bitrate_kbps || q.psnr_db > p.psnr_db)
}

/// The rate-quality efficient frontier of a sweep, sorted by ascending
/// bitrate. Among rate-quality ties, the cheaper (faster) point is kept.
pub fn pareto_front(points: &[SweepPoint]) -> Vec<SweepPoint> {
    let _span = vtx_telemetry::Span::enter_with("experiment/pareto_front", |a| {
        a.u64("points", points.len() as u64);
    });
    let mut front: Vec<SweepPoint> = Vec::new();
    for p in points {
        if points.iter().any(|q| dominated_by(p, q)) {
            continue;
        }
        // Deduplicate exact rate/quality ties by compute cost.
        if let Some(existing) = front
            .iter_mut()
            .find(|f| f.bitrate_kbps == p.bitrate_kbps && f.psnr_db == p.psnr_db)
        {
            if p.summary.seconds < existing.summary.seconds {
                *existing = p.clone();
            }
            continue;
        }
        front.push(p.clone());
    }
    front.sort_by(|a, b| a.bitrate_kbps.total_cmp(&b.bitrate_kbps));
    front
}

/// An encoding-ladder recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderPlan {
    /// Chosen operating points, ascending bitrate.
    pub rungs: Vec<SweepPoint>,
    /// Total simulated compute for one pass over the ladder, seconds.
    pub total_seconds: f64,
}

/// Minimum PSNR separation between ladder rungs: adjacent renditions closer
/// than this are perceptually redundant.
pub const MIN_RUNG_SEPARATION_DB: f64 = 1.0;

/// Picks up to `rungs` frontier points that fit a compute budget: rungs are
/// chosen greedily by quality-per-second from the Pareto front (skipping
/// candidates within [`MIN_RUNG_SEPARATION_DB`] of an already-chosen rung),
/// then sorted by bitrate.
pub fn ladder_for_budget(points: &[SweepPoint], rungs: usize, budget_seconds: f64) -> LadderPlan {
    let front = pareto_front(points);
    let mut order: Vec<usize> = (0..front.len()).collect();
    order.sort_by(|&a, &b| {
        let va = front[a].psnr_db / front[a].summary.seconds.max(1e-12);
        let vb = front[b].psnr_db / front[b].summary.seconds.max(1e-12);
        vb.total_cmp(&va)
    });

    let mut chosen: Vec<SweepPoint> = Vec::new();
    let mut spent = 0.0;
    for i in order {
        if chosen.len() >= rungs {
            break;
        }
        let cand = &front[i];
        if chosen
            .iter()
            .any(|c| (c.psnr_db - cand.psnr_db).abs() < MIN_RUNG_SEPARATION_DB)
        {
            continue;
        }
        let cost = cand.summary.seconds;
        if spent + cost <= budget_seconds {
            spent += cost;
            chosen.push(cand.clone());
        }
    }
    chosen.sort_by(|a, b| a.bitrate_kbps.total_cmp(&b.bitrate_kbps));
    LadderPlan {
        rungs: chosen,
        total_seconds: spent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunSummary;
    use vtx_trace::report::{MpkiReport, StallPki};
    use vtx_uarch::topdown::TopDown;

    fn pt(crf: u8, refs: u8, kbps: f64, psnr: f64, secs: f64) -> SweepPoint {
        SweepPoint {
            crf,
            refs,
            bitrate_kbps: kbps,
            psnr_db: psnr,
            summary: RunSummary {
                seconds: secs,
                ipc: 1.0,
                instructions: 1000,
                topdown: TopDown {
                    retiring: 1.0,
                    frontend: 0.0,
                    bad_speculation: 0.0,
                    backend_memory: 0.0,
                    backend_core: 0.0,
                },
                mpki: MpkiReport::default(),
                stalls: StallPki::default(),
            },
        }
    }

    #[test]
    fn dominated_points_are_dropped() {
        let pts = vec![
            pt(20, 1, 100.0, 40.0, 1.0),
            pt(25, 1, 120.0, 39.0, 1.0), // dominated: bigger AND worse
            pt(30, 1, 50.0, 35.0, 0.8),
            pt(35, 1, 60.0, 34.0, 0.7), // dominated by the 50kbps/35dB point
        ];
        let front = pareto_front(&pts);
        let crfs: Vec<u8> = front.iter().map(|p| p.crf).collect();
        assert_eq!(crfs, vec![30, 20]); // ascending bitrate
    }

    #[test]
    fn ties_keep_the_cheaper_point() {
        let pts = vec![
            pt(23, 8, 80.0, 38.0, 2.0),
            pt(23, 2, 80.0, 38.0, 1.0), // identical rate/quality, cheaper
        ];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].refs, 2);
    }

    #[test]
    fn ladder_respects_budget_and_rung_count() {
        let pts = vec![
            pt(16, 1, 200.0, 45.0, 3.0),
            pt(24, 1, 100.0, 41.0, 2.0),
            pt(32, 1, 50.0, 36.0, 1.0),
            pt(40, 1, 25.0, 31.0, 0.5),
        ];
        let plan = ladder_for_budget(&pts, 3, 3.6);
        assert!(plan.rungs.len() <= 3);
        assert!(plan.total_seconds <= 3.6);
        // Rungs ascend in bitrate.
        for w in plan.rungs.windows(2) {
            assert!(w[0].bitrate_kbps <= w[1].bitrate_kbps);
        }
        // The cheap high-value rungs fit; the 3-second archive rung cannot
        // (it alone nearly exhausts the budget after cheaper picks).
        assert!(plan.rungs.iter().any(|p| p.crf == 40));
    }

    #[test]
    fn rungs_are_perceptually_separated() {
        let pts = vec![
            pt(30, 1, 50.0, 36.0, 1.0),
            pt(30, 2, 49.5, 36.2, 1.1), // within 1 dB of the rung above
            pt(24, 1, 100.0, 41.0, 2.0),
        ];
        let plan = ladder_for_budget(&pts, 3, 100.0);
        for (i, a) in plan.rungs.iter().enumerate() {
            for b in &plan.rungs[i + 1..] {
                assert!(
                    (a.psnr_db - b.psnr_db).abs() >= MIN_RUNG_SEPARATION_DB,
                    "{} vs {}",
                    a.psnr_db,
                    b.psnr_db
                );
            }
        }
    }

    #[test]
    fn empty_sweep_is_fine() {
        assert!(pareto_front(&[]).is_empty());
        let plan = ladder_for_budget(&[], 4, 10.0);
        assert!(plan.rungs.is_empty());
        assert_eq!(plan.total_seconds, 0.0);
    }

    #[test]
    fn frontier_is_mutually_nondominated() {
        let pts: Vec<SweepPoint> = (0..30)
            .map(|i| {
                let f = f64::from(i);
                pt(
                    (10 + i) as u8,
                    1,
                    200.0 - f * 6.0 + (f * 7.0) % 13.0,
                    45.0 - f * 0.4 + (f * 3.0) % 2.0,
                    1.0,
                )
            })
            .collect();
        let front = pareto_front(&pts);
        for a in &front {
            for b in &front {
                assert!(!dominated_by(a, b) || std::ptr::eq(a, b));
            }
        }
    }
}
