//! Ablation: profiler sampling shift.
//!
//! The sweep harnesses trade simulation detail for speed via
//! `Profiler::set_sample_shift`. This ablation quantifies the trade:
//! estimated-time error vs the fully-traced run, and host wall-clock cost.

use std::time::Instant;

use vtx_codec::EncoderConfig;
use vtx_core::TranscodeOptions;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Ablation: simulation sampling shift (detail vs host cost)");
    let t = vtx_bench::sweep_transcoder()?;
    let cfg = EncoderConfig::default();

    let start = Instant::now();
    let full = t.transcode(&cfg, &TranscodeOptions::default())?;
    let full_wall = start.elapsed();

    println!(
        "{:<6} {:>14} {:>12} {:>12} {:>12}",
        "shift", "sim time(ms)", "err vs s0", "host(ms)", "speedup"
    );
    println!(
        "{:<6} {:>14.4} {:>12} {:>12.0} {:>12}",
        0,
        full.seconds * 1e3,
        "-",
        full_wall.as_secs_f64() * 1e3,
        "1.0x"
    );
    let mut rows = vec![(0u32, full.seconds, full_wall.as_secs_f64())];
    for shift in [1u32, 2, 3, 4] {
        let start = Instant::now();
        let r = t.transcode(&cfg, &TranscodeOptions::default().with_sample_shift(shift))?;
        let wall = start.elapsed();
        let err = (r.seconds / full.seconds - 1.0) * 100.0;
        println!(
            "{:<6} {:>14.4} {:>11.2}% {:>12.0} {:>11.1}x",
            shift,
            r.seconds * 1e3,
            err,
            wall.as_secs_f64() * 1e3,
            full_wall.as_secs_f64() / wall.as_secs_f64()
        );
        rows.push((shift, r.seconds, wall.as_secs_f64()));
        // Instruction counts stay exact regardless of sampling.
        assert_eq!(
            r.profile.counts.instructions,
            full.profile.counts.instructions
        );
    }
    vtx_bench::save_artifact("ablation_sampling", &rows);
    Ok(())
}
