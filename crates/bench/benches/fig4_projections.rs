//! Figure 4 — the two projections of the crf × refs sweep:
//! (A) PSNR vs bitrate per-crf lines (the line length is the size range
//!     reachable by varying refs), and
//! (B) transcoding time vs refs per-crf series (the diminishing-returns
//!     elbow).

use vtx_codec::EncoderConfig;
use vtx_core::experiments::sweep::{
    crf_refs_sweep, full_refs_grid, projection_bitrate_range, projection_time_vs_refs,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let crfs: Vec<u8> = vec![10, 18, 26, 34, 42];
    let refs = full_refs_grid();
    vtx_bench::banner("Figure 4: projections A (PSNR vs bitrate) and B (time vs refs)");

    let t = vtx_bench::sweep_transcoder()?;
    let points = crf_refs_sweep(
        &t,
        &crfs,
        &refs,
        &EncoderConfig::default(),
        &vtx_bench::sweep_options(),
    )?;

    println!("\nprojection A: per-crf bitrate range across refs 1..16");
    println!(
        "{:>4} {:>9} {:>12} {:>12} {:>11}",
        "crf", "PSNR(dB)", "min kbps", "max kbps", "line length"
    );
    for (crf, min, max) in projection_bitrate_range(&points) {
        let psnr = points
            .iter()
            .filter(|p| p.crf == crf)
            .map(|p| p.psnr_db)
            .sum::<f64>()
            / refs.len() as f64;
        println!(
            "{crf:>4} {psnr:>9.2} {min:>12.1} {max:>12.1} {:>11.1}",
            max - min
        );
    }

    println!("\nprojection B: time (ms) vs refs, one series per crf");
    print!("{:>4} |", "crf");
    for r in &refs {
        print!(" r{r:<5}");
    }
    println!();
    for (crf, series) in projection_time_vs_refs(&points) {
        print!("{crf:>4} |");
        for (_, secs) in &series {
            print!(" {:>5.2} ", secs * 1e3);
        }
        println!();
    }

    println!("\npaper's takeaways to check:");
    println!("  - low crf lines are longer (benefit more from refs)");
    println!("  - every series flattens as refs grows (diminishing returns)");

    vtx_bench::save_artifact("fig4_projections", &points);
    Ok(())
}
