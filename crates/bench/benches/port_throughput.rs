//! Port-model fidelity: predicted vs ground-truth issue throughput across
//! the ten presets' dominant-kernel mixes, on every Table IV configuration.
//!
//! For each config the harness hides the true port layout behind the
//! blocked-port measurement bench, recovers it with the uops.info-style
//! inference pass, and then scores the recovered PALMED-style conjunctive
//! model against the exact saturating-flow solution on the true layout.
//! Reported per config: per-preset relative error, the mean relative error,
//! and solver wall time (inference + all twenty solves).

use vtx_codec::preset::Preset;
use vtx_port::infer::{infer, BlockedPortBench};
use vtx_port::{solve, PortLayout, UopMix};
use vtx_uarch::config::UarchConfig;

#[derive(Debug)]
struct PresetRow {
    preset: &'static str,
    rank: usize,
    ground_truth_upc: f64,
    predicted_upc: f64,
    rel_error: f64,
}

// Read only through the `Debug` dump, which the dead-code lint ignores.
#[allow(dead_code)]
#[derive(Debug)]
struct ConfigReport {
    config: String,
    ports: usize,
    experiments: u64,
    mean_rel_error: f64,
    max_rel_error: f64,
    infer_us: u128,
    solve_us: u128,
    rows: Vec<PresetRow>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Port throughput: inferred model vs ground-truth solver");
    let mut reports: Vec<ConfigReport> = Vec::new();

    for (i, cfg) in UarchConfig::table_iv().iter().enumerate() {
        let truth = PortLayout::for_config(cfg);
        let bench = BlockedPortBench::new(truth.clone(), vtx_bench::SEED + i as u64);

        let t0 = std::time::Instant::now();
        let model = infer(&bench)?;
        let infer_us = t0.elapsed().as_micros();

        let width = f64::from(cfg.dispatch_width);
        let mut rows = Vec::new();
        let t1 = std::time::Instant::now();
        for (rank, preset) in Preset::ALL.iter().enumerate() {
            let mix = UopMix::for_preset_rank(rank);
            let exact = solve(&truth, &mix, width)?.uops_per_cycle;
            let predicted = model.predicted_throughput(&mix, width)?;
            rows.push(PresetRow {
                preset: preset.name(),
                rank,
                ground_truth_upc: exact,
                predicted_upc: predicted,
                rel_error: (predicted - exact).abs() / exact.max(1e-9),
            });
        }
        let solve_us = t1.elapsed().as_micros();

        let mean = rows.iter().map(|r| r.rel_error).sum::<f64>() / rows.len() as f64;
        let max = rows.iter().map(|r| r.rel_error).fold(0.0f64, f64::max);

        println!(
            "\nconfig {:<10} ({} ports, {} experiments, infer {} us, {} solves {} us)",
            cfg.name,
            truth.num_ports(),
            bench.experiments(),
            infer_us,
            2 * rows.len(),
            solve_us
        );
        println!(
            "{:<12} {:>6} {:>12} {:>12} {:>10}",
            "preset", "rank", "truth_upc", "pred_upc", "rel_err"
        );
        for r in &rows {
            println!(
                "{:<12} {:>6} {:>12.4} {:>12.4} {:>10.6}",
                r.preset, r.rank, r.ground_truth_upc, r.predicted_upc, r.rel_error
            );
        }
        println!("mean rel error {mean:.6}, max rel error {max:.6}");
        assert!(
            max < 0.05,
            "{}: inferred model drifted {max} from ground truth",
            cfg.name
        );

        reports.push(ConfigReport {
            config: cfg.name.clone(),
            ports: truth.num_ports(),
            experiments: model.experiments,
            mean_rel_error: mean,
            max_rel_error: max,
            infer_us,
            solve_us,
            rows,
        });
    }

    vtx_bench::save_artifact("port_throughput", &reports);
    Ok(())
}
