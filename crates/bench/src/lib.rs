//! Shared scaffolding for the benchmark harnesses. The targets:
//!
//! * `paper`: Tables I–IV, Figures 2–9 and the four ablations in one pass,
//!   every run defined once; it writes the `BENCH_paper.json` ledger (see
//!   DESIGN.md's experiment index and EXPERIMENTS.md).
//! * `fig9_serving`: every `BENCH_serving.json` row in one pass.
//! * `fig9_xl`: the 10k-server / 1M-job tier, `BENCH_serving_xl.json`.
//!
//! Each prints its tables; the JSON files land in `target/vtx-results/`.

use std::path::PathBuf;

use vtx_core::{CoreError, TranscodeOptions, Transcoder};
use vtx_serve::report::ServingReport;

/// Seed used by every harness: results are fully reproducible.
pub const SEED: u64 = 42;

/// The single video the crf × refs sweep studies (the paper sweeps one
/// video; we use `bike`, a mid-entropy 720p clip).
pub fn sweep_transcoder() -> Result<Transcoder, CoreError> {
    Transcoder::from_catalog("bike", SEED)
}

/// Profiler sampling for sweep-sized workloads: detailed enough for stable
/// Top-down shares, fast enough for hundreds of points.
///
/// Burst sampling at shift 1 biases absolute simulated time upward versus
/// full tracing, by the amount `BENCH_paper.json` records as
/// `ablation_sampling.shift1_bias_milli_pct`; since every point of a figure
/// runs at the same shift, the *shapes* the paper reports are unaffected.
pub fn sweep_options() -> TranscodeOptions {
    TranscodeOptions::default().with_sample_shift(1)
}

/// Directory for artifacts, created if missing: `target/vtx-results`
/// beside this crate's manifest, fixed when the crate is compiled, so every
/// harness writes beside the checkout it was built from whatever target
/// directory built it.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/vtx-results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Saves an artifact as a pretty `Debug` dump and reports the path.
pub fn save_artifact<T: std::fmt::Debug>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.txt"));
    std::fs::write(&path, format!("{value:#?}\n")).expect("write artifact");
    println!("\n[artifact] {}", path.display());
}

/// Prints a figure/table banner.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Prints the fleet-scale per-policy table: sojourn p50/p99, throughput,
/// shed and violation rates, and each run's wall time.
pub fn print_xl_table<'a>(runs: impl IntoIterator<Item = (&'a ServingReport, u64)>) {
    println!(
        "{:<12} {:>10} {:>10} {:>8} {:>8} {:>8} {:>10}",
        "policy", "p50_ms", "p99_ms", "tput", "shed%", "viol%", "wall_ms"
    );
    for (r, wall) in runs {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.ends_with("vtx-results"));
        assert!(d.exists());
    }
}
