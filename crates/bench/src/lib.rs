//! Shared scaffolding for the per-figure benchmark harnesses.
//!
//! Every `[[bench]]` target in this crate regenerates one table or figure of
//! the paper (see DESIGN.md's experiment index). Each harness prints the
//! rows/series the paper reports and saves a `Debug` dump of them under
//! `target/vtx-results/` so runs are diffable.
//!
//! Figure 3 runs its full 816-point crf × refs plane; the other grids are
//! strided subsets of it, and every number in EXPERIMENTS.md comes from
//! them.

use std::path::PathBuf;

use vtx_core::{CoreError, TranscodeOptions, Transcoder};

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
/// Burst sampling at shift 1 carries a consistent ~15% absolute-time bias
/// versus full tracing (quantified by the `ablation_sampling` bench); since
/// every point of a figure runs at the same shift, the *shapes* the paper
/// reports are unaffected.
pub fn sweep_options() -> TranscodeOptions {
    TranscodeOptions::default().with_sample_shift(1)
}

/// Directory for artifacts (`target/vtx-results`).
pub fn results_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_owned()))
            .join("vtx-results");
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
