//! Table III — the transcoding tasks used for the scheduler simulation.

use vtx_sched::table_iii_tasks;

fn main() {
    vtx_bench::banner("Table III: transcoding parameters used for Sniper simulation");
    println!(
        "{:<6} {:<14} {:>4} {:>5} {:>10}",
        "Task#", "Video", "crf", "refs", "Preset"
    );
    let tasks = table_iii_tasks();
    for (i, t) in tasks.iter().enumerate() {
        println!(
            "{:<6} {:<14} {:>4} {:>5} {:>10}",
            i + 1,
            t.video,
            t.crf,
            t.refs,
            t.preset.name()
        );
    }
    vtx_bench::save_artifact("table3_tasks", &tasks);
}
