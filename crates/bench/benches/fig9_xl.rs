//! Figure 9 at the paper-motivated fleet size — the XL restatement of the
//! dispatch-policy comparison. The `fig9_serving` bench proves the
//! placement claim on the Table IV fleet and at 500 servers (`xl_smoke`);
//! this one proves it at 10 000 servers / 1 000 000 jobs (`xl_full`,
//! ~20 s), `random` vs `smart`, through the two-level routing
//! (consistent-hash cells, the exact solve per cell) the model-driven
//! policies take at [`vtx_serve::cells::XL_FLEET_THRESHOLD`] servers and
//! above. The rows go to their own `BENCH_serving_xl.json`, committed
//! beside `BENCH_serving.json` and byte-compared by CI the same way.

use vtx_obs::BenchTrajectory;
use vtx_serve::cells::CellPlan;
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::report::ServingReport;
use vtx_serve::service::ServeConfig;
use vtx_serve::sim::simulate;
use vtx_serve::workload::WorkloadSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
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
        let start = std::time::Instant::now();
        let out = simulate(
            &xl_workload,
            Fleet::sized(xl_servers)?,
            policy_by_name(name, xl_workload.seed).expect("known policy"),
            ServeConfig::xl(),
        )?;
        full.push((out.report, start.elapsed().as_millis() as u64));
    }
    vtx_bench::print_xl_table(full.iter().map(|(r, wall)| (r, *wall)));
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
