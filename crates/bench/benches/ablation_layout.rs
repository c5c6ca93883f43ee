//! Ablation: code-layout cold-gap factor.
//!
//! The default (unoptimized) binary model spreads hot kernels apart with
//! cold code between them (`DEFAULT_GAP_FACTOR`). This ablation sweeps the
//! gap to show how much of the front-end bound comes from layout — the
//! headroom AutoFDO harvests.

use vtx_codec::{instr, EncoderConfig};
use vtx_core::TranscodeOptions;
use vtx_trace::layout::CodeLayout;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Ablation: cold-code gap factor in the binary layout model");
    let t = vtx_bench::sweep_transcoder()?;
    let cfg = EncoderConfig::default();
    let kernels = instr::kernel_table();
    let order: Vec<usize> = (0..kernels.len()).collect();

    println!(
        "{:<5} {:>12} {:>10} {:>11} {:>9} {:>10}",
        "gap", "span(KiB)", "L1i MPKI", "iTLB MPKI", "FE slots", "time(ms)"
    );
    let mut rows = Vec::new();
    for gap in [0u32, 2, 4, 7, 12] {
        let layout = CodeLayout::with_order_and_gap(kernels, &order, gap);
        let span = layout.span_bytes();
        let mut opts = TranscodeOptions::default().with_sample_shift(1);
        opts.layout = Some(layout);
        let r = t.transcode(&cfg, &opts)?;
        println!(
            "{:<5} {:>12} {:>10.3} {:>11.4} {:>8.2}% {:>10.3}",
            gap,
            span / 1024,
            r.summary.mpki.l1i,
            r.summary.mpki.itlb,
            r.summary.topdown.frontend * 100.0,
            r.seconds * 1e3
        );
        rows.push((gap, r.summary));
    }
    println!("\n(gap 7 is the default linker-like layout; gap 0 is ideal packing)");
    vtx_bench::save_artifact("ablation_layout", &rows);
    Ok(())
}
