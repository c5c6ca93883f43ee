//! Table I — the vbench video catalog with simulation geometry.

use vtx_frame::vbench;

fn main() {
    vtx_bench::banner("Table I: vbench videos info (+ simulation geometry)");
    println!(
        "{:<14} {:<28} {:>10} {:>4} {:>8} {:>10} {:>7}",
        "short", "full name", "resolution", "fps", "entropy", "sim", "frames"
    );
    let catalog = vbench::catalog();
    for v in &catalog {
        println!(
            "{:<14} {:<28} {:>5}x{:<4} {:>4} {:>8.1} {:>5}x{:<4} {:>6}",
            v.short_name,
            v.full_name,
            v.nominal_width,
            v.nominal_height,
            v.fps,
            v.entropy,
            v.sim_width,
            v.sim_height,
            v.sim_frames
        );
    }
    vtx_bench::save_artifact("table1_videos", &catalog);
}
