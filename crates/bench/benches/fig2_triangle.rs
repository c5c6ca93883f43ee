//! Figure 2 — the transcoding speed / video quality / file size triangle:
//! measure the directional effect of crf and refs on all three metrics.

use vtx_core::experiments::triangle::triangle_study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Figure 2: speed / quality / size triangle (measured arrows)");
    let t = vtx_bench::sweep_transcoder()?;
    let report = triangle_study(&t, &vtx_bench::sweep_options())?;

    println!(
        "{:>4} {:>5} {:>10} {:>10} {:>10}",
        "crf", "refs", "time(ms)", "kbps", "PSNR(dB)"
    );
    for p in &report.points {
        println!(
            "{:>4} {:>5} {:>10.3} {:>10.1} {:>10.2}",
            p.crf,
            p.refs,
            p.summary.seconds * 1e3,
            p.bitrate_kbps,
            p.psnr_db
        );
    }

    let d = report.directions();
    println!("\narrows of the diagram (paper: all should hold):");
    println!("  crf ^  => quality v   : {}", d.crf_degrades_quality);
    println!("  crf ^  => size v      : {}", d.crf_shrinks_size);
    println!("  crf ^  => speed ^     : {}", d.crf_speeds_up);
    println!("  refs ^ => size v      : {}", d.refs_shrink_size);
    println!("  refs ^ => speed v     : {}", d.refs_slow_down);
    println!("  all hold              : {}", d.all_hold());

    vtx_bench::save_artifact("fig2_triangle", &report);
    Ok(())
}
