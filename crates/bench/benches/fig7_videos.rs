//! Figure 7 — profiling results across the vbench videos (crf 23, refs 3,
//! medium preset), grouped by resolution and sorted by entropy.

use vtx_core::experiments::videos::video_study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Figure 7: profiling results for different videos");
    let runs = video_study(None, vtx_bench::SEED, &vtx_bench::sweep_options())?;

    println!("\n(a) Top-down slots (%):");
    println!(
        "{:<13} {:>6} {:>8} {:>9} {:>7} {:>7} {:>7}",
        "video", "res", "entropy", "retiring", "FE", "BS", "BE"
    );
    let mut last_res = 0;
    for r in &runs {
        if r.spec.nominal_height != last_res {
            if last_res != 0 {
                println!("{}", "-".repeat(66));
            }
            last_res = r.spec.nominal_height;
        }
        let td = &r.summary.topdown;
        println!(
            "{:<13} {:>6} {:>8.1} {:>8.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            r.spec.short_name,
            r.spec.resolution_label(),
            r.spec.entropy,
            td.retiring * 100.0,
            td.frontend * 100.0,
            td.bad_speculation * 100.0,
            td.backend() * 100.0
        );
    }

    println!("\n(b) branch & cache MPKI:");
    println!(
        "{:<13} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "video", "branch", "L1i", "L1d", "L2", "L3"
    );
    for r in &runs {
        let m = &r.summary.mpki;
        println!(
            "{:<13} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            r.spec.short_name, m.branch, m.l1i, m.l1d, m.l2, m.l3
        );
    }

    println!("\n(c) resource stalls (cycles PKI):");
    println!(
        "{:<13} {:>8} {:>8} {:>8} {:>8}",
        "video", "any", "ROB", "RS", "SB"
    );
    for r in &runs {
        let s = &r.summary.stalls;
        println!(
            "{:<13} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            r.spec.short_name, s.any, s.rob, s.rs, s.sb
        );
    }

    // Paper: entropy up => FE and BS up, BE down (within the corpus).
    let vbench_runs: Vec<_> = runs.iter().filter(|r| r.spec.short_name != "bbb").collect();
    let lo = vbench_runs
        .iter()
        .min_by(|a, b| a.spec.entropy.total_cmp(&b.spec.entropy))
        .unwrap();
    let hi = vbench_runs
        .iter()
        .max_by(|a, b| a.spec.entropy.total_cmp(&b.spec.entropy))
        .unwrap();
    println!(
        "\ntrend check ({} e={:.1} -> {} e={:.1}):",
        lo.spec.short_name, lo.spec.entropy, hi.spec.short_name, hi.spec.entropy
    );
    println!(
        "  BS {:.1}% -> {:.1}% (paper: increases) | BE {:.1}% -> {:.1}% (paper: decreases)",
        lo.summary.topdown.bad_speculation * 100.0,
        hi.summary.topdown.bad_speculation * 100.0,
        lo.summary.topdown.backend() * 100.0,
        hi.summary.topdown.backend() * 100.0
    );

    vtx_bench::save_artifact("fig7_videos", &runs);
    Ok(())
}
