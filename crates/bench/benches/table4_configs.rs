//! Table IV — the microarchitecture configurations for the scheduler study.

use vtx_uarch::config::UarchConfig;

fn kib(bytes: u64) -> String {
    format!("{}K", bytes / 1024)
}

fn main() {
    vtx_bench::banner("Table IV: microarchitectural configurations for simulation");
    println!(
        "{:<9} {:>5} {:>5} {:>6} {:>7} {:>7} {:>5} {:>4} {:>4} {:>15} {:>11}",
        "Config",
        "L1d",
        "L1i",
        "L2",
        "L3",
        "L4",
        "itlb",
        "ROB",
        "RS",
        "issue@dispatch",
        "predictor"
    );
    let configs = UarchConfig::table_iv();
    for c in &configs {
        println!(
            "{:<9} {:>5} {:>5} {:>6} {:>7} {:>7} {:>5} {:>4} {:>4} {:>15} {:>11}",
            c.name,
            kib(c.l1d.size_bytes),
            kib(c.l1i.size_bytes),
            kib(c.l2.size_bytes),
            kib(c.l3.size_bytes),
            c.l4.map_or("none".to_owned(), |l| kib(l.size_bytes)),
            c.itlb_entries,
            c.rob_size,
            c.rs_size,
            if c.issue_at_dispatch { "Yes" } else { "No" },
            c.predictor.table_name()
        );
    }
    vtx_bench::save_artifact("table4_configs", &configs);
}
