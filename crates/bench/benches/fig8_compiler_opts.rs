//! Figure 8 — speedup of AutoFDO- and Graphite-optimized binaries over the
//! stock build, per video, averaged over parameter combinations.
//!
//! 6 videos x 4 combinations (the paper averages 32 per video over its
//! whole catalog).

use vtx_core::experiments::compiler_opts::{compiler_opt_study, mean_speedups, quick_combos};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let videos = vec!["desktop", "bike", "cricket", "game2", "holi", "hall"];
    let combos = quick_combos();
    vtx_bench::banner(&format!(
        "Figure 8: AutoFDO / Graphite speedup ({} videos x {} parameter combos)",
        videos.len(),
        combos.len()
    ));

    let runs = compiler_opt_study(
        &videos,
        vtx_bench::SEED,
        &combos,
        &vtx_bench::sweep_options(),
    )?;

    println!(
        "\n{:<13} {:>14} {:>12} {:>12}",
        "video", "baseline(ms)", "autofdo", "graphite"
    );
    for r in &runs {
        println!(
            "{:<13} {:>14.3} {:>+11.2}% {:>+11.2}%",
            r.video,
            r.baseline_seconds * 1e3,
            (r.autofdo_speedup - 1.0) * 100.0,
            (r.graphite_speedup - 1.0) * 100.0
        );
    }
    let (fdo, gra) = mean_speedups(&runs);
    println!(
        "\naverage speedup: autofdo {:+.2}%  graphite {:+.2}%",
        (fdo - 1.0) * 100.0,
        (gra - 1.0) * 100.0
    );
    println!("(paper reports +4.66% and +4.42% on the real FFmpeg/Xeon setup)");

    vtx_bench::save_artifact("fig8_compiler_opts", &runs);
    Ok(())
}
