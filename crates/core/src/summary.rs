//! Compact per-run summaries — the rows of the paper's figures.

use vtx_trace::report::{MpkiReport, ProfileReport, StallPki};
use vtx_uarch::topdown::TopDown;

/// Everything a figure needs from one transcoding run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Simulated transcoding time in seconds.
    pub seconds: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Retired instructions.
    pub instructions: u64,
    /// Top-down slot breakdown.
    pub topdown: TopDown,
    /// Cache / branch / TLB miss rates.
    pub mpki: MpkiReport,
    /// Resource-stall rates (Figure 5e–h).
    pub stalls: StallPki,
}

impl RunSummary {
    /// Extracts the summary from a full profile report.
    pub fn from_profile(p: &ProfileReport) -> Self {
        RunSummary {
            seconds: p.seconds,
            ipc: p.ipc,
            instructions: p.counts.instructions,
            topdown: p.topdown,
            mpki: p.mpki,
            stalls: p.stalls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_trace::kernel::KernelProfile;
    use vtx_uarch::interval::{CycleBreakdown, ExecutionCounts};

    #[test]
    fn from_profile_copies_fields() {
        let p = ProfileReport {
            config_name: "baseline".into(),
            counts: ExecutionCounts {
                instructions: 42,
                ..Default::default()
            },
            breakdown: CycleBreakdown {
                base_cycles: 1.0,
                frontend_cycles: 0.0,
                badspec_cycles: 0.0,
                memory_cycles: 0.0,
                sb_cycles: 0.0,
                core_cycles: 0.0,
                total_cycles: 10,
                uops: 42,
                dispatch_width: 4,
                rob_stall_cycles: 0.0,
                rs_stall_cycles: 0.0,
                sb_stall_cycles: 0.0,
            },
            topdown: TopDown {
                retiring: 1.0,
                frontend: 0.0,
                bad_speculation: 0.0,
                backend_memory: 0.0,
                backend_core: 0.0,
            },
            mpki: MpkiReport::default(),
            stalls: StallPki::default(),
            seconds: 1.5,
            ipc: 4.2,
            hotspots: vec![],
            profile: KernelProfile::new(0),
        };
        let s = RunSummary::from_profile(&p);
        assert_eq!(s.instructions, 42);
        assert!((s.seconds - 1.5).abs() < 1e-12);
    }
}
