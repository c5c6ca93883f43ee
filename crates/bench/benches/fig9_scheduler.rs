//! Figure 9 — transcoding speedup of the random / smart / best schedulers
//! over the baseline microarchitecture, on the Table III tasks and
//! Table IV configurations.

use vtx_core::experiments::scheduler::scheduler_study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Figure 9: scheduler speedup over the baseline configuration");
    let study = scheduler_study(vtx_bench::SEED, 1)?;

    println!("\nmeasured seconds (rows = Table III tasks):");
    print!("{:>10}", "baseline");
    for name in &study.config_names {
        print!("{name:>10}");
    }
    println!();
    for (i, row) in study.times.iter().enumerate() {
        print!("{:>10.5}", study.baseline_times[i]);
        for v in row {
            print!("{v:>10.5}");
        }
        println!("  <- {}", study.tasks[i].video);
    }

    println!("\nassignments (indices into {:?}):", study.config_names);
    println!("  smart: {:?}", study.smart.assignment);
    println!("  best : {:?}", study.best.assignment);

    println!("\nspeedup over baseline:");
    println!(
        "  random : {:>6.2} %",
        (study.random_speedup() - 1.0) * 100.0
    );
    println!(
        "  smart  : {:>6.2} %",
        (study.smart_speedup() - 1.0) * 100.0
    );
    println!("  best   : {:>6.2} %", (study.best_speedup() - 1.0) * 100.0);
    println!(
        "\nsmart over random: {:+.2} %  (paper: +3.72%)",
        (study.smart_over_random() - 1.0) * 100.0
    );
    println!(
        "smart matches best: {:.0} % of tasks  (paper: 75%)",
        study.smart_match_rate * 100.0
    );

    vtx_bench::save_artifact("fig9_scheduler", &study);
    Ok(())
}
