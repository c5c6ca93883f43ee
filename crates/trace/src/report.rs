//! Profiling reports: the counters the paper's figures are built from.

use vtx_uarch::interval::{CycleBreakdown, ExecutionCounts};
use vtx_uarch::topdown::TopDown;

use crate::kernel::KernelProfile;

/// Misses per kilo-instruction, as reported by `perf` in the paper (§III-B.2).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MpkiReport {
    /// L1 instruction-cache MPKI.
    pub l1i: f64,
    /// L1 data-cache MPKI (loads + stores).
    pub l1d: f64,
    /// L2 MPKI (data side).
    pub l2: f64,
    /// L3 MPKI (data side).
    pub l3: f64,
    /// Branch mispredictions per kilo-instruction.
    pub branch: f64,
    /// iTLB misses per kilo-instruction.
    pub itlb: f64,
}

/// Resource-stall cycles per kilo-instruction (Figure 5e–h).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StallPki {
    /// Stalls due to any resource (Figure 5e).
    pub any: f64,
    /// Reorder-buffer-full stalls (Figure 5f).
    pub rob: f64,
    /// Reservation-station-full stalls (Figure 5g).
    pub rs: f64,
    /// Store-buffer-full stalls (Figure 5h).
    pub sb: f64,
}

/// Everything one profiled execution produces — the VTune + perf view.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Name of the simulated microarchitecture configuration.
    pub config_name: String,
    /// Raw accumulated event counts.
    pub counts: ExecutionCounts,
    /// Interval-model cycle ledger.
    pub breakdown: CycleBreakdown,
    /// Top-down slot categorization.
    pub topdown: TopDown,
    /// Cache/branch/TLB miss rates.
    pub mpki: MpkiReport,
    /// Resource stall rates.
    pub stalls: StallPki,
    /// Simulated execution time in seconds.
    pub seconds: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Kernels sorted by attributed instructions, descending.
    pub hotspots: Vec<(String, u64)>,
    /// The raw per-kernel profile (consumed by the AutoFDO-style optimizer).
    pub profile: KernelProfile,
}

impl ProfileReport {
    /// Accumulates this run's kernel hotspots into `out` as flamegraph
    /// collapsed stacks (`config;kernel weight`, weight = simulated
    /// instructions). Render with `flamegraph.pl` / `inferno-flamegraph`.
    pub fn collapse_hotspots_into(&self, out: &mut vtx_telemetry::flame::CollapsedStacks) {
        for (name, insns) in &self.hotspots {
            out.add(&[self.config_name.as_str(), name.as_str()], *insns);
        }
    }

    /// This run's kernel hotspots as a standalone collapsed-stack set.
    pub fn collapsed_stacks(&self) -> vtx_telemetry::flame::CollapsedStacks {
        let mut out = vtx_telemetry::flame::CollapsedStacks::new();
        self.collapse_hotspots_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(seconds: f64) -> ProfileReport {
        ProfileReport {
            config_name: "baseline".into(),
            counts: ExecutionCounts::default(),
            breakdown: CycleBreakdown {
                base_cycles: 0.0,
                frontend_cycles: 0.0,
                badspec_cycles: 0.0,
                memory_cycles: 0.0,
                sb_cycles: 0.0,
                core_cycles: 0.0,
                total_cycles: 1,
                uops: 0,
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
            seconds,
            ipc: 0.0,
            hotspots: vec![],
            profile: KernelProfile::new(0),
        }
    }

    #[test]
    fn collapsed_stacks_from_hotspots() {
        let mut r = dummy(1.0);
        r.hotspots = vec![("me_sad".into(), 900), ("idct".into(), 100)];
        let text = r.collapsed_stacks().render();
        assert_eq!(text, "baseline;idct 100\nbaseline;me_sad 900\n");
    }
}
