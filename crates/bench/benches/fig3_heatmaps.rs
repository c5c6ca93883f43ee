//! Figure 3 — heat maps of front-end, back-end and bad-speculation bound
//! pipeline slots over the crf × refs plane.
//!
//! Always the paper's full 816 combinations (crf 1–51 × refs 1–16): a few
//! seconds on two cores.

use vtx_codec::EncoderConfig;
use vtx_core::experiments::sweep::{crf_refs_sweep, full_crf_grid, full_refs_grid, SweepPoint};

fn heatmap(points: &[SweepPoint], crfs: &[u8], refs: &[u8], f: impl Fn(&SweepPoint) -> f64) {
    print!("{:>4} |", "crf");
    for r in refs {
        print!(" r{r:<5}");
    }
    println!();
    for &crf in crfs {
        print!("{crf:>4} |");
        for &r in refs {
            let p = points
                .iter()
                .find(|p| p.crf == crf && p.refs == r)
                .expect("grid point");
            print!(" {:>5.1} ", f(p) * 100.0);
        }
        println!();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (crfs, refs) = (full_crf_grid(), full_refs_grid());
    vtx_bench::banner(&format!(
        "Figure 3: FE / BE / bad-speculation bound slots (%) over {} crf x {} refs",
        crfs.len(),
        refs.len()
    ));

    let t = vtx_bench::sweep_transcoder()?;
    let points = crf_refs_sweep(
        &t,
        &crfs,
        &refs,
        &EncoderConfig::default(),
        &vtx_bench::sweep_options(),
    )?;

    println!("\n(a) front-end bound (%):");
    heatmap(&points, &crfs, &refs, |p| p.summary.topdown.frontend);
    println!("\n(b) back-end bound (%):");
    heatmap(&points, &crfs, &refs, |p| p.summary.topdown.backend());
    println!("\n(c) bad speculation bound (%):");
    heatmap(&points, &crfs, &refs, |p| p.summary.topdown.bad_speculation);

    // The paper's takeaway: increasing crf or refs reduces FE and BS slots
    // and increases BE slots. Check the corners.
    let corner = |crf: u8, r: u8| points.iter().find(|p| p.crf == crf && p.refs == r).unwrap();
    let lo = corner(crfs[0], refs[0]);
    let hi = corner(*crfs.last().unwrap(), *refs.last().unwrap());
    println!("\ntrend check (low corner -> high corner):");
    println!(
        "  FE  {:.1}% -> {:.1}%  (paper: decreases)   BE  {:.1}% -> {:.1}%  (paper: increases)",
        lo.summary.topdown.frontend * 100.0,
        hi.summary.topdown.frontend * 100.0,
        lo.summary.topdown.backend() * 100.0,
        hi.summary.topdown.backend() * 100.0
    );
    println!(
        "  BS  {:.1}% -> {:.1}%  (paper: decreases)",
        lo.summary.topdown.bad_speculation * 100.0,
        hi.summary.topdown.bad_speculation * 100.0
    );

    vtx_bench::save_artifact("fig3_heatmaps", &points);
    Ok(())
}
