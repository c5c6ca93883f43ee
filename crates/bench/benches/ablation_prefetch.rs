//! Ablation: L1d hardware prefetchers on the transcoding workload
//! (extension beyond Table IV — the paper's configurations imply none).
//!
//! Transcoding's reference windows are stride-friendly, so a stream
//! prefetcher should recover a slice of the back-end-memory bound.

use vtx_codec::EncoderConfig;
use vtx_core::TranscodeOptions;
use vtx_uarch::config::UarchConfig;
use vtx_uarch::prefetch::PrefetcherKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Ablation: L1d prefetchers on the bike transcode (crf 23, refs 3)");
    let t = vtx_bench::sweep_transcoder()?;
    let cfg = EncoderConfig::default();

    println!(
        "{:<10} {:>10} {:>9} {:>10} {:>10}",
        "prefetch", "L1d MPKI", "L2 MPKI", "BE-mem", "time(ms)"
    );
    let mut rows = Vec::new();
    for (name, kind) in [
        ("none", PrefetcherKind::None),
        ("next-line", PrefetcherKind::NextLine),
        ("stream", PrefetcherKind::Stream),
    ] {
        let mut uarch = UarchConfig::baseline();
        uarch.l1d_prefetcher = kind;
        uarch.name = format!("baseline+pf_{name}");
        let r = t.transcode(&cfg, &TranscodeOptions::on(uarch).with_sample_shift(1))?;
        println!(
            "{:<10} {:>10.3} {:>9.3} {:>9.2}% {:>10.3}",
            name,
            r.summary.mpki.l1d,
            r.summary.mpki.l2,
            r.summary.topdown.backend_memory * 100.0,
            r.seconds * 1e3
        );
        rows.push((name.to_owned(), r.summary));
    }
    vtx_bench::save_artifact("ablation_prefetch", &rows);
    Ok(())
}
