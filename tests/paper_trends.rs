//! The paper's qualitative findings, asserted as integration tests: if a
//! refactor breaks one of these shapes, the reproduction no longer
//! reproduces. The last test reads the committed paper ledger instead.

use vtx_codec::{EncoderConfig, Preset};
use vtx_core::experiments::presets::preset_study_subset;
use vtx_core::experiments::sweep::crf_refs_sweep;
use vtx_core::TranscodeOptions;
use vtx_obs::json::{self, JsonValue};
use vtx_tests::tiny_transcoder;

fn opts() -> TranscodeOptions {
    TranscodeOptions::default().with_sample_shift(1)
}

#[test]
fn crf_increases_backend_and_decreases_badspec() {
    // Figure 3: raising crf raises the back-end share and lowers bad
    // speculation (operational-intensity/roofline argument). This trend
    // needs the catalog geometry — on 64x48 toy clips denominator effects
    // dominate — so it uses the real simulated 720p bike clip.
    let t = vtx_core::Transcoder::from_catalog("bike", 42).unwrap();
    let pts = crf_refs_sweep(&t, &[8, 44], &[3], &EncoderConfig::default(), &opts()).unwrap();
    let lo = &pts[0].summary.topdown;
    let hi = &pts[1].summary.topdown;
    assert!(
        hi.backend() > lo.backend(),
        "backend {:.3} -> {:.3}",
        lo.backend(),
        hi.backend()
    );
    assert!(
        hi.bad_speculation <= lo.bad_speculation + 0.01,
        "bad spec {:.3} -> {:.3}",
        lo.bad_speculation,
        hi.bad_speculation
    );
}

#[test]
fn refs_increase_transcoding_time_and_shrink_output() {
    // Figure 2 / Figure 4: refs trade time for size. All-P encode so every
    // frame is an anchor and refs genuinely bind on the short test clip.
    let t = tiny_transcoder("cricket", 12, 7);
    let cfg = EncoderConfig {
        bframes: 0,
        ..EncoderConfig::default()
    };
    let pts = crf_refs_sweep(&t, &[23], &[1, 4], &cfg, &opts()).unwrap();
    assert!(
        pts[1].summary.seconds > pts[0].summary.seconds,
        "time {} -> {}",
        pts[0].summary.seconds,
        pts[1].summary.seconds
    );
    assert!(
        pts[1].bitrate_kbps <= pts[0].bitrate_kbps * 1.02,
        "size {} -> {}",
        pts[0].bitrate_kbps,
        pts[1].bitrate_kbps
    );
}

#[test]
fn branch_mispredicts_fall_with_crf() {
    // Figure 5a's driver: raising crf removes coefficient-coding and
    // search work, and with it branch mispredictions. The *count* falls
    // strongly and monotonically; the per-kilo-instruction normalization
    // floors at high crf where the fixed (branch-heavy) decode stage
    // dominates the shrinking instruction count — a documented divergence
    // (EXPERIMENTS.md).
    let t = vtx_core::Transcoder::from_catalog("bike", 42).unwrap();
    let cfg = EncoderConfig::default();
    let lo = t
        .transcode(&cfg.clone().with_crf(6.0), &opts())
        .unwrap()
        .profile
        .counts
        .branch_mispredicts;
    let hi = t
        .transcode(&cfg.with_crf(44.0), &opts())
        .unwrap()
        .profile
        .counts
        .branch_mispredicts;
    assert!(
        hi * 2 < lo,
        "mispredicts should at least halve: {lo} -> {hi}"
    );
}

#[test]
fn presets_get_slower_and_less_memory_bound() {
    // Figure 6: transcoding time rises from ultrafast to slower presets and
    // the back-end share falls (higher operational intensity). Like the
    // Figure 3 trend above, this needs the catalog geometry: on a 64x48 toy
    // clip ultrafast's lower operational intensity makes it *memory*-bound
    // enough to lose the time ordering outright.
    // `bike` is two moving rectangles of random size, so one rendition can
    // sit on either side of an ordering; the trend must hold on all five.
    for seed in [1, 2, 3, 7, 42] {
        let t = vtx_core::Transcoder::from_catalog("bike", seed).unwrap();
        let runs = preset_study_subset(
            &t,
            &[Preset::Ultrafast, Preset::Veryfast, Preset::Slow],
            &opts(),
        )
        .unwrap();
        let secs: Vec<f64> = runs.iter().map(|r| r.summary.seconds).collect();
        assert!(secs[0] < secs[2], "seed {seed}: {secs:?}");
        assert!(secs[1] < secs[2], "seed {seed}: {secs:?}");
        assert!(
            runs[2].summary.topdown.backend() < runs[0].summary.topdown.backend(),
            "seed {seed}: backend {:.3} (ultrafast) vs {:.3} (slow)",
            runs[0].summary.topdown.backend(),
            runs[2].summary.topdown.backend()
        );
    }
}

#[test]
fn complex_videos_are_more_badspec_and_less_memory_bound() {
    // Figure 7: entropy up => bad speculation up, back-end down.
    let calm = tiny_transcoder("desktop", 8, 21);
    let busy = tiny_transcoder("holi", 8, 21);
    let cfg = EncoderConfig::default();
    let calm_r = calm.transcode(&cfg, &opts()).unwrap();
    let busy_r = busy.transcode(&cfg, &opts()).unwrap();
    assert!(
        busy_r.summary.topdown.bad_speculation > calm_r.summary.topdown.bad_speculation,
        "bs {:.3} vs {:.3}",
        calm_r.summary.topdown.bad_speculation,
        busy_r.summary.topdown.bad_speculation
    );
    assert!(
        busy_r.summary.topdown.backend_memory < calm_r.summary.topdown.backend_memory,
        "be-mem {:.3} vs {:.3}",
        calm_r.summary.topdown.backend_memory,
        busy_r.summary.topdown.backend_memory
    );
}

#[test]
fn complex_videos_cost_more_bits() {
    let calm = tiny_transcoder("desktop", 8, 33);
    let busy = tiny_transcoder("holi", 8, 33);
    let cfg = EncoderConfig::default();
    let calm_r = calm.transcode(&cfg, &opts()).unwrap();
    let busy_r = busy.transcode(&cfg, &opts()).unwrap();
    assert!(
        busy_r.bitrate_kbps > calm_r.bitrate_kbps * 2.0,
        "busy {} vs calm {}",
        busy_r.bitrate_kbps,
        calm_r.bitrate_kbps
    );
}

/// The trends the committed ledger expects ✗ for: the paper's claims this
/// model does not reproduce (EXPERIMENTS.md, "Known divergences").
const EXPECTED_FAILURES: [&str; 5] = [
    "fig4_line_length_falls_with_crf",
    "fig5_a_branch_mpki_falls_with_crf",
    "fig5_h_sb_falls_with_refs",
    "fig7_be_falls_with_entropy_1080p",
    "fig7_fe_rises_with_entropy_480p",
];

#[test]
fn committed_paper_ledger_is_integral_and_every_verdict_is_expected() {
    // `cargo bench -p vtx-bench --bench paper` writes this file; reading the
    // committed copy runs no transcode.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_paper.json");
    let text = std::fs::read_to_string(path).expect("BENCH_paper.json is committed");
    let ledger = json::parse(&text).expect("the ledger parses");
    assert!(ledger.get("schema").and_then(JsonValue::as_u64).is_some());

    fn integers(value: &JsonValue, at: &str) {
        match value {
            JsonValue::Object(fields) => {
                for (key, value) in fields {
                    integers(value, &format!("{at}.{key}"));
                }
            }
            JsonValue::Number(n) => assert_eq!(n.fract(), 0.0, "{at} = {n}"),
            other => panic!("{at} is not an integer: {other:?}"),
        }
    }
    integers(&ledger, "ledger");

    let Some(JsonValue::Object(trends)) = ledger.get("trends") else {
        panic!("the ledger has no trends");
    };
    let mut failures = Vec::new();
    for (name, row) in trends {
        let flag = |key| row.get(key).and_then(JsonValue::as_u64);
        assert!(matches!(flag("expected"), Some(0 | 1)), "{name}");
        assert_eq!(flag("holds"), flag("expected"), "{name}");
        if flag("expected") == Some(0) {
            failures.push(name.as_str());
        }
    }
    assert_eq!(failures, EXPECTED_FAILURES);
}
