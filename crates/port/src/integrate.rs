//! Wiring the port model into the interval core and the report pipeline.
//!
//! The interval model's base dispatch time assumes the core sustains its
//! full dispatch width whenever uops are available. The port model knows
//! better: a SIMD-saturated SATD mix cannot issue four uops per cycle
//! through two SIMD-capable ports. [`dispatch_bound`] turns a config + mix
//! into the sustainable issue rate, and [`refine_report`] re-runs a
//! profiled report's cycle accounting under that bound — inflating the
//! backend-core Top-down share exactly where port contention lives.

use vtx_trace::ProfileReport;
use vtx_uarch::config::UarchConfig;
use vtx_uarch::interval::CoreModel;
use vtx_uarch::topdown::TopDown;

use crate::error::PortError;
use crate::layout::PortLayout;
use crate::mix::UopMix;
use crate::solver::{solve, ThroughputSolve};

/// What the port refinement of one report did.
#[derive(Debug, Clone, PartialEq)]
pub struct PortRefinement {
    /// Config the refinement ran under.
    pub(crate) config_name: String,
    /// Aggregate uop mix the refinement used (from the report's hotspots).
    pub(crate) mix: UopMix,
    /// Full solver result (per-port utilization, bottleneck group).
    pub(crate) solve: ThroughputSolve,
    /// Sustained issue rate fed to the interval model, uops/cycle.
    pub(crate) dispatch_bound: f64,
    /// Nominal dispatch width of the config.
    pub(crate) nominal_width: f64,
    /// Top-down shares before refinement.
    pub(crate) topdown_before: TopDown,
    /// Top-down shares after refinement.
    pub(crate) topdown_after: TopDown,
    /// Total cycles before refinement.
    pub(crate) cycles_before: u64,
    /// Total cycles after refinement.
    pub(crate) cycles_after: u64,
}

/// The sustainable issue rate (uops/cycle) for `mix` on `cfg`'s port
/// layout, clamped to the config's dispatch width.
///
/// # Errors
///
/// Propagates [`PortError`] from the solver (zero width, unserved class).
pub fn dispatch_bound(cfg: &UarchConfig, mix: &UopMix) -> Result<f64, PortError> {
    let layout = PortLayout::for_config(cfg);
    let s = solve(&layout, mix, f64::from(cfg.dispatch_width))?;
    Ok(s.uops_per_cycle)
}

/// Re-runs `report`'s cycle accounting with the port-model dispatch bound
/// for its own hotspot mix, updating the breakdown, Top-down shares,
/// stall rates, IPC, and simulated seconds in place. The returned
/// [`PortRefinement`] carries the bound and the per-port utilization.
///
/// # Errors
///
/// Propagates [`PortError`] from the solver; the report is untouched on
/// error.
pub fn refine_report(
    report: &mut ProfileReport,
    cfg: &UarchConfig,
) -> Result<PortRefinement, PortError> {
    let mix = UopMix::from_hotspots(&report.hotspots);
    let layout = PortLayout::for_config(cfg);
    let width = f64::from(cfg.dispatch_width);
    let s = solve(&layout, &mix, width)?;
    let bound = s.uops_per_cycle;

    let model = CoreModel::new(cfg)
        .with_dispatch_bound(bound)
        .map_err(|_| PortError::ZeroWidth)?;
    let breakdown = model.run(&report.counts);
    let topdown = breakdown.topdown();

    let refinement = PortRefinement {
        config_name: cfg.name.clone(),
        mix,
        dispatch_bound: bound,
        nominal_width: width,
        topdown_before: report.topdown,
        topdown_after: topdown,
        cycles_before: report.breakdown.total_cycles,
        cycles_after: breakdown.total_cycles,
        solve: s,
    };

    let pki = |v: f64| {
        if report.counts.instructions == 0 {
            0.0
        } else {
            v * 1000.0 / report.counts.instructions as f64
        }
    };
    report.stalls.any = pki(breakdown.any_stall_cycles());
    report.stalls.rob = pki(breakdown.rob_stall_cycles);
    report.stalls.rs = pki(breakdown.rs_stall_cycles);
    report.stalls.sb = pki(breakdown.sb_stall_cycles);
    report.seconds = breakdown.seconds(cfg.freq_ghz);
    report.ipc = if breakdown.total_cycles == 0 {
        0.0
    } else {
        report.counts.instructions as f64 / breakdown.total_cycles as f64
    };
    report.breakdown = breakdown;
    report.topdown = topdown;

    Ok(refinement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtx_uarch::hierarchy::LevelCounters;
    use vtx_uarch::interval::ExecutionCounts;

    fn fake_report(cfg: &UarchConfig) -> ProfileReport {
        let counts = ExecutionCounts {
            instructions: 1_000_000,
            uops: 1_100_000,
            branches: 100_000,
            branch_mispredicts: 2_000,
            inst_fetch: LevelCounters {
                l1: 300_000,
                l2: 2_000,
                l3: 200,
                l4: 0,
                mem: 50,
            },
            itlb_misses: 100,
            loads: LevelCounters {
                l1: 200_000,
                l2: 8_000,
                l3: 1_500,
                l4: 0,
                mem: 700,
            },
            stores: LevelCounters {
                l1: 80_000,
                l2: 3_000,
                l3: 400,
                l4: 0,
                mem: 150,
            },
            heavy_ops: 100_000,
            redirects: 10_000,
        };
        let breakdown = CoreModel::new(cfg).run(&counts);
        let topdown = breakdown.topdown();
        ProfileReport {
            config_name: cfg.name.clone(),
            seconds: breakdown.seconds(cfg.freq_ghz),
            ipc: counts.instructions as f64 / breakdown.total_cycles as f64,
            counts,
            breakdown,
            topdown,
            mpki: Default::default(),
            stalls: Default::default(),
            hotspots: vec![("satd".to_owned(), 700_000), ("cabac".to_owned(), 300_000)],
            profile: vtx_trace::kernel::KernelProfile::new(0),
        }
    }

    #[test]
    fn bound_never_exceeds_width_and_binds_for_simd_mixes() {
        for cfg in UarchConfig::table_iv() {
            let b = dispatch_bound(&cfg, &UopMix::for_kernel("sad")).unwrap();
            assert!(b <= f64::from(cfg.dispatch_width) + 1e-12, "{}", cfg.name);
            assert!(b > 0.0);
        }
        // A SIMD-saturated mix cannot sustain the full width on the
        // two-SIMD-port baseline layout.
        let cfg = UarchConfig::baseline();
        let b = dispatch_bound(&cfg, &UopMix::for_kernel("sad")).unwrap();
        assert!(b < f64::from(cfg.dispatch_width));
    }

    #[test]
    fn refinement_inflates_backend_core_and_keeps_topdown_normalized() {
        let cfg = UarchConfig::baseline();
        let mut report = fake_report(&cfg);
        let before = report.topdown;
        let r = refine_report(&mut report, &cfg).unwrap();
        assert!(
            r.cycles_after >= r.cycles_before,
            "ports can only slow the core"
        );
        assert!((report.topdown.sum() - 1.0).abs() < 1e-9);
        assert!(report.topdown.backend_core >= before.backend_core);
        // Report fields were rewritten consistently.
        assert_eq!(report.breakdown.total_cycles, r.cycles_after);
        assert!(
            (report.ipc - report.counts.instructions as f64 / report.breakdown.total_cycles as f64)
                .abs()
                < 1e-12
        );
        assert!((report.seconds - report.breakdown.seconds(cfg.freq_ghz)).abs() < 1e-15);
    }

    #[test]
    fn widened_core_feels_less_port_pressure() {
        let base = UarchConfig::baseline();
        let be2 = UarchConfig::be_op2();
        let mix = UopMix::for_kernel("satd");
        let b_base = dispatch_bound(&base, &mix).unwrap();
        let b_be2 = dispatch_bound(&be2, &mix).unwrap();
        assert!(
            b_be2 >= b_base,
            "widened layout should not bind tighter: {b_be2} vs {b_base}"
        );
    }
}
