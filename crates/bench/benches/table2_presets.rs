//! Table II — the preset option matrix, reproduced from the configuration
//! code (so any drift from the paper's table fails loudly here).

use vtx_codec::Preset;

fn main() {
    vtx_bench::banner("Table II: selection of the important options for different presets");
    println!(
        "{:<10} {:>3} {:>8} {:>8} {:>8} {:>5} {:>8} {:>5} {:>9} {:>6} {:>8} {:>6}",
        "preset",
        "aq",
        "b-adapt",
        "bframes",
        "deblock",
        "me",
        "merange",
        "refs",
        "scenecut",
        "subme",
        "trellis",
        "cabac"
    );
    let mut rows = Vec::new();
    for p in Preset::ALL {
        let c = p.config();
        let deblock = match c.deblock {
            Some((a, b)) => format!("[{a}:{b}]"),
            None => "off".to_owned(),
        };
        println!(
            "{:<10} {:>3} {:>8} {:>8} {:>8} {:>5} {:>8} {:>5} {:>9} {:>6} {:>8} {:>6}",
            p.name(),
            c.aq_mode,
            c.b_adapt,
            c.bframes,
            deblock,
            c.me.as_option(),
            c.merange,
            c.refs,
            c.scenecut,
            c.subme,
            c.trellis,
            c.cabac
        );
        rows.push((p.name().to_owned(), c));
    }
    vtx_bench::save_artifact("table2_presets", &rows);
}
