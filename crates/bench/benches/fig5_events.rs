//! Figure 5 — eight microarchitectural event rates over the crf × refs
//! plane: branch MPKI, L1/L2/L3 data-cache MPKI, and resource stalls
//! (any / ROB / RS / SB) per kilo-instruction.

use vtx_codec::EncoderConfig;
use vtx_core::experiments::sweep::{
    crf_refs_sweep, default_crf_grid, default_refs_grid, SweepPoint,
};

fn grid(points: &[SweepPoint], crfs: &[u8], refs: &[u8], f: impl Fn(&SweepPoint) -> f64) {
    print!("{:>4} |", "crf");
    for r in refs {
        print!(" r{r:<6}");
    }
    println!();
    for &crf in crfs {
        print!("{crf:>4} |");
        for &r in refs {
            let p = points
                .iter()
                .find(|p| p.crf == crf && p.refs == r)
                .expect("grid point");
            print!(" {:>6.2} ", f(p));
        }
        println!();
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (crfs, refs) = (default_crf_grid(), default_refs_grid());
    vtx_bench::banner("Figure 5: microarchitectural inefficiencies over crf x refs");

    let t = vtx_bench::sweep_transcoder()?;
    let points = crf_refs_sweep(
        &t,
        &crfs,
        &refs,
        &EncoderConfig::default(),
        &vtx_bench::sweep_options(),
    )?;

    type Panel = (&'static str, Box<dyn Fn(&SweepPoint) -> f64>);
    let panels: [Panel; 8] = [
        ("(a) branch MPKI", Box::new(|p| p.summary.mpki.branch)),
        ("(b) L1d MPKI", Box::new(|p| p.summary.mpki.l1d)),
        ("(c) L2 MPKI", Box::new(|p| p.summary.mpki.l2)),
        ("(d) L3 MPKI", Box::new(|p| p.summary.mpki.l3)),
        (
            "(e) resource stalls - any (cycles PKI)",
            Box::new(|p| p.summary.stalls.any),
        ),
        (
            "(f) resource stalls - ROB (cycles PKI)",
            Box::new(|p| p.summary.stalls.rob),
        ),
        (
            "(g) resource stalls - RS (cycles PKI)",
            Box::new(|p| p.summary.stalls.rs),
        ),
        (
            "(h) resource stalls - SB (cycles PKI)",
            Box::new(|p| p.summary.stalls.sb),
        ),
    ];
    for (title, f) in &panels {
        println!("\n{title}:");
        grid(&points, &crfs, &refs, f);
    }

    // Paper: branch MPKI decreases with crf and refs; cache MPKI and
    // ROB/RS stalls increase; SB stalls decrease with refs.
    let corner = |crf: u8, r: u8| points.iter().find(|p| p.crf == crf && p.refs == r).unwrap();
    let lo = corner(crfs[0], refs[0]);
    let hi = corner(*crfs.last().unwrap(), *refs.last().unwrap());
    let hi_crf_lo_refs = corner(*crfs.last().unwrap(), refs[0]);
    println!("\ntrend check (low corner -> high corner):");
    println!(
        "  branch MPKI {:.2} -> {:.2} (paper: decreases; ours floors at high crf — see EXPERIMENTS.md)",
        lo.summary.mpki.branch, hi.summary.mpki.branch
    );
    println!(
        "  L2 MPKI {:.2} -> {:.2} (paper: increases)",
        lo.summary.mpki.l2, hi.summary.mpki.l2
    );
    println!(
        "  SB stalls at high crf: refs {} -> {}: {:.2} -> {:.2} PKI (paper: decreases with refs)",
        refs[0],
        refs.last().unwrap(),
        hi_crf_lo_refs.summary.stalls.sb,
        hi.summary.stalls.sb
    );

    vtx_bench::save_artifact("fig5_events", &points);
    Ok(())
}
