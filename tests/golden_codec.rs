//! Golden codec digests: the bitstream, the reconstruction and the shift-0
//! simulated counters of every preset, pinned as constants.
//!
//! The rest of tier-1 checks the codec against itself (decoder ≡ encoder
//! reconstruction, wavefront ≡ serial); nothing there notices a change that
//! moves both sides together. This does: a host-side optimisation of the
//! search, the interpolator or a cost metric must leave every row below
//! untouched, on search paths (`umh`, `tesa`, B-frames, `p8x8`, CBR) that
//! the `perf` digests do not reach.
//!
//! A row that moves on purpose is re-pinned from the table the failing
//! assertion prints, with the reason in the commit message.

use vtx_codec::encoder::encode_video;
use vtx_codec::{EncoderConfig, MeMethod, PartitionSet, Preset, RateControlMode};
use vtx_frame::synth;
use vtx_tests::{tiny_spec, Fnv};
use vtx_trace::layout::CodeLayout;
use vtx_trace::Profiler;
use vtx_uarch::config::UarchConfig;
use vtx_uarch::hierarchy::LevelCounters;
use vtx_uarch::interval::ExecutionCounts;

/// One low- and one high-entropy catalog clip (Table I: 0.2 and 7.0).
const CLIPS: [&str; 2] = ["desktop", "holi"];
const CONTENT_SEED: u64 = 17;

fn levels(h: &mut Fnv, l: &LevelCounters) {
    for v in [l.l1, l.l2, l.l3, l.l4, l.mem] {
        h.u64(v);
    }
}

fn counts_digest(c: &ExecutionCounts) -> u64 {
    let mut h = Fnv::default();
    for v in [c.instructions, c.uops, c.branches, c.branch_mispredicts] {
        h.u64(v);
    }
    levels(&mut h, &c.inst_fetch);
    h.u64(c.itlb_misses);
    levels(&mut h, &c.loads);
    levels(&mut h, &c.stores);
    h.u64(c.heavy_ops);
    h.u64(c.redirects);
    h.0
}

/// The configurations under test with the frame count each can afford in
/// a debug build: the ten presets, plus the paths no preset combines —
/// plain `esa`, per-macroblock CBR feedback (serial path only), fixed
/// B-frame placement over four references.
fn configs() -> Vec<(&'static str, EncoderConfig, u32)> {
    let mut v: Vec<_> = Preset::ALL
        .iter()
        .map(|&p| {
            let frames = match p {
                Preset::Placebo => 5,
                Preset::Veryslow | Preset::Slower => 6,
                _ => 8,
            };
            (p.name(), p.config(), frames)
        })
        .collect();
    let cbr = EncoderConfig {
        rc: RateControlMode::Cbr { bitrate_kbps: 150 },
        refs: 4,
        me: MeMethod::Esa,
        merange: 8,
        subme: 5,
        bframes: 2,
        b_adapt: 0,
        partitions: PartitionSet::all(),
        ..EncoderConfig::default()
    };
    v.push(("b2-refs4-esa-cbr", cbr, 8));
    v
}

/// `(bitstream, reconstruction, counts)` digests of one encode.
fn digests(clip: &str, cfg: &EncoderConfig, frames: u32) -> [u64; 3] {
    // 6 x 4 macroblocks: every edge and corner position plus eight interior.
    let mut spec = tiny_spec(clip, frames);
    (spec.sim_width, spec.sim_height) = (96, 64);
    let video = synth::generate(&spec, CONTENT_SEED);
    let kernels = vtx_codec::instr::kernel_table();
    let mut prof = Profiler::new(
        &UarchConfig::baseline(),
        kernels,
        CodeLayout::default_order(kernels),
    )
    .unwrap();
    let r = encode_video(&video, cfg, &mut prof).unwrap();
    let report = prof.finish();

    let mut bits = Fnv::default();
    bits.bytes(&r.bitstream.data);
    let mut recon = Fnv::default();
    for f in &r.recon {
        for p in [f.y(), f.u(), f.v()] {
            recon.bytes(p.samples());
        }
    }
    [bits.0, recon.0, counts_digest(&report.counts)]
}

/// Generated at commit 888c1f0 (the parent of the PR that added this file).
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, [u64; 3])] = &[
    ("desktop", "ultrafast", [0xfb9bf0d9f8ae3048, 0x8472b189a71737d1, 0x9a0f55c5a483b307]),
    ("desktop", "superfast", [0xb6c49e13ca17bbc4, 0x170143a766158a38, 0x47cab4e68f001d9d]),
    ("desktop", "veryfast", [0x0f430f844a2ff57e, 0x6de5b24ad127173b, 0xf00d3f83b4f7665e]),
    ("desktop", "faster", [0x6dd2f88e7d9fb004, 0x1cde1955bc1100e2, 0xaec664f27ec4cb64]),
    ("desktop", "fast", [0x6dd2f88e7d9fb004, 0x1cde1955bc1100e2, 0x02d78000ac8516b4]),
    ("desktop", "medium", [0xf52f8d67e4930abd, 0x1cde1955bc1100e2, 0x4bf118b18837e400]),
    ("desktop", "slow", [0xa2e10fa78a6a2a87, 0x980ea6bb9489bb75, 0xa53cba247b11c586]),
    ("desktop", "slower", [0xad6b65667506eb38, 0xe6db85a184c20e3c, 0x55b4fe31ab96d0bb]),
    ("desktop", "veryslow", [0xe385664c603597b0, 0xe6db85a184c20e3c, 0x029c948d878a779d]),
    ("desktop", "placebo", [0xf8ff1f0d9f46ae08, 0x0d4aba74e6b51267, 0x85db0e32da5d8beb]),
    ("desktop", "b2-refs4-esa-cbr", [0x314abce36a8c02cd, 0x54fad00d1ada2ea2, 0xa14db5a371a1ecbf]),
    ("holi", "ultrafast", [0xf99b8e5b3d2ce25a, 0xd05b2df259147bc3, 0x61237231b5d29c84]),
    ("holi", "superfast", [0x86817e9d5e2435b3, 0xc5e0a802fe1160ac, 0xe85c1e781bb704fa]),
    ("holi", "veryfast", [0x2db13a69ce739a83, 0x452c30426485c571, 0x509530acab752dc6]),
    ("holi", "faster", [0x913a514a7a9a997a, 0xf9b3f8cfa1291c28, 0xb0787a6da4dc0d22]),
    ("holi", "fast", [0x913a514a7a9a997a, 0xf9b3f8cfa1291c28, 0x7e3dbf0299a88e21]),
    ("holi", "medium", [0x36ac05c826135db1, 0xf9b3f8cfa1291c28, 0x76df52c9b845b817]),
    ("holi", "slow", [0xe21cadbf4cca0240, 0xfaf5854afa443d93, 0x0a93587731d0845c]),
    ("holi", "slower", [0x392183431792939c, 0xd7ae0ffb91e70dbb, 0x053520bde822d23d]),
    ("holi", "veryslow", [0x890fbcbc24cefb8e, 0x6e6a69dc5f54d2e2, 0x42036dd38560ab86]),
    ("holi", "placebo", [0x1fd447594d56c60b, 0xf6e84d7a68b5ace0, 0x7a477c88dcf2d611]),
    ("holi", "b2-refs4-esa-cbr", [0x00ab596c43ac5d56, 0x6b33490b740ae790, 0xbdbf1f5163084376]),
];

#[test]
fn every_preset_matches_its_pinned_digests() {
    let mut actual = Vec::new();
    for clip in CLIPS {
        for (name, cfg, frames) in configs() {
            actual.push((clip, name, digests(clip, &cfg, frames)));
        }
    }
    let table: String = actual
        .iter()
        .map(|(clip, name, [b, r, c])| {
            format!("    ({clip:?}, {name:?}, [{b:#018x}, {r:#018x}, {c:#018x}]),\n")
        })
        .collect();
    for (got, want) in actual.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            got, want,
            "(bitstream, recon, counts) moved; the table as measured:\n{table}"
        );
    }
    assert_eq!(actual.len(), GOLDEN.len(), "table as measured:\n{table}");
}
