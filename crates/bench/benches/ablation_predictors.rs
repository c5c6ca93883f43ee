//! Ablation: branch predictor families on the transcoding workload.
//!
//! The paper's `bs_op` swaps the Pentium-M-style hybrid for TAGE; this
//! ablation sweeps all four implemented predictors on the same transcode so
//! the bad-speculation sensitivity of the workload is visible directly.

use vtx_codec::EncoderConfig;
use vtx_core::TranscodeOptions;
use vtx_uarch::branch::PredictorKind;
use vtx_uarch::config::UarchConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Ablation: branch predictors on the bike transcode (crf 23, refs 3)");
    let t = vtx_bench::sweep_transcoder()?;
    let cfg = EncoderConfig::default();

    println!(
        "{:<12} {:>12} {:>9} {:>10}",
        "predictor", "branch MPKI", "BS slots", "time(ms)"
    );
    let mut rows = Vec::new();
    for kind in [
        PredictorKind::Bimodal,
        PredictorKind::Gshare,
        PredictorKind::PentiumM,
        PredictorKind::Tage,
    ] {
        let mut uarch = UarchConfig::baseline();
        uarch.predictor = kind;
        uarch.name = format!("baseline+{}", kind.table_name());
        let r = t.transcode(&cfg, &TranscodeOptions::on(uarch).with_sample_shift(1))?;
        println!(
            "{:<12} {:>12.3} {:>8.2}% {:>10.3}",
            kind.table_name(),
            r.summary.mpki.branch,
            r.summary.topdown.bad_speculation * 100.0,
            r.seconds * 1e3
        );
        rows.push((kind.table_name().to_owned(), r.summary));
    }
    vtx_bench::save_artifact("ablation_predictors", &rows);
    Ok(())
}
