//! Figure 9 at fleet scale — the XL restatement of the dispatch-policy
//! comparison. The small-fleet benches prove the placement claim on the
//! Table IV fleet; this one proves it survives the two-level routing
//! (consistent-hash cells, the exact solve per cell) the model-driven
//! policies switch to at [`vtx_serve::cells::XL_FLEET_THRESHOLD`] servers
//! and above.
//!
//! Two tiers, both always run (~20 s together):
//!
//! * **xl_smoke**: 500 servers / 20k jobs per policy. Rows are appended to
//!   the `BENCH_serving.json` trajectory produced by the `fig9_serving`
//!   bench, so the committed artifact carries the XL evidence and CI
//!   byte-compares it like every other row. The `smart` scenario runs
//!   twice and the two reports must print identically — a cheap in-process
//!   determinism check ahead of CI's two-run `cmp`.
//! * **xl_full**: 10 000 servers / 1 000 000 jobs, `random` vs `smart`,
//!   written to its own `BENCH_serving_xl.json`, committed beside
//!   `BENCH_serving.json` and byte-compared by CI the same way — the
//!   tail-latency win at the paper-motivated fleet size.

use vtx_obs::{BenchTrajectory, ObsConfig};
use vtx_serve::cells::CellPlan;
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::report::ServingReport;
use vtx_serve::service::ServeConfig;
use vtx_serve::sim::{simulate, SimOutcome};
use vtx_serve::workload::WorkloadSpec;

/// XL runs drop the event log and the observability plane: at 10k
/// servers / 1M jobs both are pure overhead and neither feeds the
/// trajectory columns this bench reports.
fn xl_config(cells: usize) -> ServeConfig {
    ServeConfig {
        collect_event_log: false,
        obs: ObsConfig::disabled(),
        cells,
        ..ServeConfig::default()
    }
}

fn run(
    workload: &WorkloadSpec,
    n_servers: usize,
    policy: &str,
) -> Result<(SimOutcome, u64), Box<dyn std::error::Error>> {
    let start = std::time::Instant::now();
    let out = simulate(
        workload,
        Fleet::sized(n_servers)?,
        policy_by_name(policy, workload.seed).expect("known policy"),
        xl_config(0),
    )?;
    let wall = start.elapsed().as_millis() as u64;
    Ok((out, wall))
}

fn print_table(reports: &[(ServingReport, u64)]) {
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "policy", "p50_ms", "p99_ms", "tput", "shed%", "viol%", "wall_ms"
    );
    for (r, wall) in reports {
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>8.2} {:>8.2} {:>8.2} {:>10}",
            r.policy,
            r.sojourn.p50_us as f64 / 1e3,
            r.sojourn.p99_us as f64 / 1e3,
            r.throughput_jps,
            r.shed_rate() * 100.0,
            r.violation_rate() * 100.0,
            wall
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Figure 9 (serving, XL): two-level cell dispatch at fleet scale");

    // ---- xl_smoke: 500 servers, 20k jobs, all four policies -------------
    let smoke_servers = 500usize;
    let workload = WorkloadSpec::xl_smoke(vtx_bench::SEED);
    let smoke_cells = CellPlan::build(smoke_servers, 0, workload.seed).n_cells() as u64;
    println!(
        "xl_smoke: {} jobs, {} Hz arrivals, {} servers, {} cells\n",
        workload.jobs, workload.arrival_rate_hz, smoke_servers, smoke_cells
    );

    let mut smoke: Vec<(ServingReport, u64)> = Vec::new();
    for name in ["random", "round_robin", "smart", "port"] {
        let (out, wall) = run(&workload, smoke_servers, name)?;
        smoke.push((out.report, wall));
    }
    print_table(&smoke);

    let random = &smoke[0].0;
    let smart = &smoke[2].0;
    assert!(
        smart.sojourn.p99_us < random.sojourn.p99_us,
        "two-level cell dispatch must beat random on p99 at XL scale \
         ({} vs {})",
        smart.sojourn.p99_us,
        random.sojourn.p99_us
    );
    for (r, _) in &smoke {
        assert_eq!(
            r.completed + r.shed_total(),
            r.offered,
            "{}: XL conservation — every job reaches one terminal state",
            r.policy
        );
    }

    // Same-seed rerun of the smart scenario: the serving engine is meant
    // to be byte-deterministic, so the two reports must match exactly.
    let (rerun, _) = run(&workload, smoke_servers, "smart")?;
    assert_eq!(
        format!("{:?}", smart),
        format!("{:?}", rerun.report),
        "same-seed xl_smoke reruns must print identically"
    );
    println!("\n[determinism] smart xl_smoke rerun is byte-identical");

    // ---- merge XL rows into the fig9_serving trajectory -----------------
    let path = vtx_bench::results_dir().join("BENCH_serving.json");
    let mut traj = if path.exists() {
        let text = std::fs::read_to_string(&path)?;
        BenchTrajectory::validate_str(&text).map_err(|e| {
            format!(
                "existing {} is not schema-valid ({e}); re-run the fig9_serving bench first",
                path.display()
            )
        })?
    } else {
        BenchTrajectory::new("fig9_serving")
    };
    traj.rows.retain(|r| !r.scenario.starts_with("xl"));
    for (r, wall) in &smoke {
        traj.push(r.trajectory_row("xl_smoke", smoke_servers as u64, smoke_cells, 0, 0, *wall));
    }
    let json = traj.to_json();
    BenchTrajectory::validate_str(&json).expect("trajectory validates against its own schema");
    std::fs::write(&path, &json)?;
    println!(
        "[artifact] {} (+{} xl_smoke rows)",
        path.display(),
        smoke.len()
    );

    // ---- xl_full: 10k servers / 1M jobs ---------------------------------
    vtx_bench::banner("Figure 9 (serving, XL full): 10k servers / 1M jobs");
    let xl_servers = 10_000usize;
    let xl_workload = WorkloadSpec::xl(vtx_bench::SEED);
    let xl_cells = CellPlan::build(xl_servers, 0, xl_workload.seed).n_cells() as u64;
    println!(
        "xl_full: {} jobs, {} Hz arrivals, {} servers, {} cells\n",
        xl_workload.jobs, xl_workload.arrival_rate_hz, xl_servers, xl_cells
    );
    let mut full: Vec<(ServingReport, u64)> = Vec::new();
    for name in ["random", "smart"] {
        let (out, wall) = run(&xl_workload, xl_servers, name)?;
        full.push((out.report, wall));
    }
    print_table(&full);
    assert!(
        full[1].0.sojourn.p99_us < full[0].0.sojourn.p99_us,
        "smart must beat random on p99 at 10k servers ({} vs {})",
        full[1].0.sojourn.p99_us,
        full[0].0.sojourn.p99_us
    );
    let mut xl_traj = BenchTrajectory::new("fig9_xl_full");
    for (r, wall) in &full {
        xl_traj.push(r.trajectory_row("xl_full", xl_servers as u64, xl_cells, 0, 0, *wall));
    }
    let xl_json = xl_traj.to_json();
    BenchTrajectory::validate_str(&xl_json).expect("xl trajectory validates");
    let xl_path = vtx_bench::results_dir().join("BENCH_serving_xl.json");
    std::fs::write(&xl_path, &xl_json)?;
    println!("[artifact] {}", xl_path.display());
    Ok(())
}
