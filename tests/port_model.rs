//! Integration tests for the vtx-port issue-port model: the solver's bound
//! on every Table IV configuration, port-aware Top-down accounting, and
//! the port-informed serving policy end to end.

use vtx_port::{dispatch_bound, solve, PortLayout, UopMix};
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::service::ServeConfig;
use vtx_serve::sim::simulate;
use vtx_serve::workload::WorkloadSpec;
use vtx_uarch::config::UarchConfig;
use vtx_uarch::hierarchy::LevelCounters;
use vtx_uarch::interval::{CoreModel, ExecutionCounts};

fn sample_counts() -> ExecutionCounts {
    ExecutionCounts {
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
        heavy_ops: 5_000,
        redirects: 300,
    }
}

#[test]
fn port_aware_topdown_sums_to_one_on_every_config() {
    let counts = sample_counts();
    for cfg in &UarchConfig::table_iv() {
        let mix = UopMix::for_preset_rank(9);
        let bound = dispatch_bound(cfg, &mix).expect("table kernels are served");
        let flat = CoreModel::new(cfg).run(&counts);
        let ported = CoreModel::new(cfg)
            .with_dispatch_bound(bound)
            .expect("solver bound is positive and finite")
            .run(&counts);
        let td = ported.topdown();
        assert!(
            (td.sum() - 1.0).abs() < 1e-9,
            "{}: port-aware Top-down sums to {}",
            cfg.name,
            td.sum()
        );
        assert!(
            ported.total_cycles >= flat.total_cycles,
            "{}: a dispatch bound can only slow the core",
            cfg.name
        );
        assert!(
            td.backend_core >= flat.topdown().backend_core - 1e-12,
            "{}: port pressure must surface as backend-core share",
            cfg.name
        );
    }
}

#[test]
fn solver_bound_never_exceeds_nominal_width() {
    for cfg in &UarchConfig::table_iv() {
        let width = f64::from(cfg.dispatch_width);
        for rank in 0..10 {
            let mix = UopMix::for_preset_rank(rank);
            let layout = PortLayout::for_config(cfg);
            let s = solve(&layout, &mix, width).unwrap();
            assert!(s.uops_per_cycle <= width + 1e-9);
            assert!(s.uops_per_cycle > 0.0);
        }
    }
}

#[test]
fn port_policy_serves_no_worse_than_smart_on_p99() {
    // Serving-layer acceptance: `--policy port` must be selectable and no
    // worse than `smart` on p99 sojourn over the bundled workload.
    let w = WorkloadSpec::bundled(42);
    let run = |name: &str| {
        simulate(
            &w,
            Fleet::table_iv(),
            policy_by_name(name, w.seed).expect("policy resolves"),
            ServeConfig::default(),
        )
        .unwrap()
    };
    let smart = run("smart");
    let port = run("port");
    assert!(
        port.report.sojourn.p99_us <= smart.report.sojourn.p99_us,
        "port p99 {} must not exceed smart p99 {}",
        port.report.sojourn.p99_us,
        smart.report.sojourn.p99_us
    );
    // And the engine stays deterministic with the new policy.
    let again = run("port");
    assert_eq!(port.assignments, again.assignments);
    assert_eq!(port.report.render(), again.report.render());
}
