//! Container-layer acceptance across crates: a real encode packaged to
//! CMAF roundtrips through the demuxer byte-exactly, truncated and
//! corrupted boxes come back as structured errors (never panics), a
//! same-seed double run of the whole encode→package path is
//! byte-identical, and a demuxed media segment decodes standalone through
//! the real decoder to the same pixels as the full-clip decode.

use vtx_codec::{decode_video, encode_video, instr, Bitstream, Preset};
use vtx_container::manifest::{parse_master, render_master, render_media};
use vtx_container::package::{master_playlist, media_playlist, package_stream};
use vtx_container::segment::{samples_to_stream, HEADER_LEN};
use vtx_container::{demux, mux, Ladder, Packaged};
use vtx_tests::tiny_video;
use vtx_trace::layout::CodeLayout;
use vtx_trace::Profiler;
use vtx_uarch::config::UarchConfig;

/// The fixed segment plan every test uses: a 12-frame clip cut into
/// 4-frame closed GOPs (forced IDRs at frames 4 and 8).
const POINTS: [u32; 3] = [0, 4, 8];

fn profiler() -> Profiler {
    let kernels = instr::kernel_table();
    Profiler::new(
        &UarchConfig::baseline(),
        kernels,
        CodeLayout::default_order(kernels),
    )
    .unwrap()
}

/// Encodes a tiny clip with forced keyframes at the segment points so the
/// stream splits into standalone closed GOPs.
fn encoded_stream(seed: u64) -> Vec<u8> {
    let v = tiny_video("cricket", 12, seed);
    let cfg = Preset::Veryfast
        .config()
        .with_crf(26.0)
        .with_refs(1)
        .with_force_kf(POINTS[1..].to_vec());
    let mut p = profiler();
    encode_video(&v, &cfg, &mut p).unwrap().bitstream.data
}

#[test]
fn real_encode_packages_and_demuxes_byte_exactly() {
    let stream = encoded_stream(7);
    let pkg = package_stream(&stream, &POINTS).unwrap();
    assert_eq!(pkg.media.len(), POINTS.len());

    let info = demux::parse_init(&pkg.init).unwrap();
    assert_eq!(info.codec_header, &stream[..HEADER_LEN]);
    assert_eq!((info.width, info.height), (64, 48));
    assert_eq!(info.duration, 12);
    // Exact inversion: re-muxing the parsed form reproduces the bytes.
    assert_eq!(mux::init_segment(&info.codec_header).unwrap(), pkg.init);

    let mut total_samples = 0;
    for (i, m) in pkg.media.iter().enumerate() {
        let parsed = demux::parse_media(m).unwrap();
        assert_eq!(parsed.seq, i as u32, "segment {i} sequence number");
        assert_eq!(parsed.base_time, POINTS[i], "segment {i} base time");
        assert!(parsed.samples[0].sync, "segment {i} starts at a keyframe");
        total_samples += parsed.samples.len();
        assert_eq!(
            mux::media_segment(parsed.seq, parsed.base_time, &parsed.samples),
            *m,
            "segment {i} re-mux is byte-identical"
        );
    }
    assert_eq!(
        total_samples, 12,
        "every frame lands in exactly one segment"
    );
}

#[test]
fn truncated_and_corrupted_boxes_are_structured_errors() {
    let stream = encoded_stream(5);
    let pkg = package_stream(&stream, &POINTS).unwrap();

    // Every proper prefix of an init or media segment must fail cleanly.
    for cut in 0..pkg.init.len() {
        demux::parse_init(&pkg.init[..cut]).unwrap_err();
    }
    let media = &pkg.media[0];
    for cut in 0..media.len() {
        demux::parse_media(&media[..cut]).unwrap_err();
    }

    // Flipping any single byte may or may not change the parse outcome,
    // but it must never panic — sizes and fourccs included.
    for i in 0..media.len() {
        let mut c = media.clone();
        c[i] ^= 0xFF;
        let _ = demux::parse_media(&c);
    }
    for i in 0..pkg.init.len() {
        let mut c = pkg.init.clone();
        c[i] ^= 0xFF;
        let _ = demux::parse_init(&c);
    }

    // Deterministic garbage is rejected on every entry point.
    let garbage: Vec<u8> = (0u32..512)
        .map(|i| (i.wrapping_mul(37) % 251) as u8)
        .collect();
    demux::parse_init(&garbage).unwrap_err();
    demux::parse_media(&garbage).unwrap_err();
    package_stream(&garbage, &[0]).unwrap_err();
    parse_master("#EXTM3U\nnot a playlist").unwrap_err();
}

#[test]
fn same_seed_double_run_is_byte_identical() {
    // The full path — synth, encode, package, playlists — twice from the
    // same seed, compared byte for byte.
    let run = |seed: u64| -> (Packaged, String, String) {
        let stream = encoded_stream(seed);
        let pkg = package_stream(&stream, &POINTS).unwrap();
        let master = render_master(&master_playlist(&Ladder::standard()));
        let media = render_media(&media_playlist("hi", &POINTS, 12, 24));
        (pkg, master, media)
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a, b, "same seed must reproduce every artifact byte");
    let c = run(10);
    assert_ne!(a.0, c.0, "a different seed must change the encoded bytes");
    assert_eq!(a.1, c.1, "playlists depend only on the plan, not the seed");
}

#[test]
fn demuxed_segment_decodes_standalone_through_the_real_decoder() {
    let stream = encoded_stream(3);
    let pkg = package_stream(&stream, &POINTS).unwrap();
    let info = demux::parse_init(&pkg.init).unwrap();

    // Decode the middle segment alone: closed GOPs mean it must not need
    // anything outside its own samples.
    let parsed = demux::parse_media(&pkg.media[1]).unwrap();
    let standalone = Bitstream {
        data: samples_to_stream(&info.codec_header, &parsed.samples),
    };
    let mut p = profiler();
    let seg_dec = decode_video(&standalone, &mut p).unwrap();
    assert_eq!(seg_dec.frames.len(), parsed.samples.len());

    // And it reproduces exactly the frames the full-clip decode yields for
    // that window — segmentation is transparent to the pixels.
    let full_dec = decode_video(&Bitstream { data: stream }, &mut p).unwrap();
    let window = &full_dec.frames[POINTS[1] as usize..POINTS[2] as usize];
    assert_eq!(seg_dec.frames.len(), window.len());
    for (i, (s, f)) in seg_dec.frames.iter().zip(window).enumerate() {
        assert_eq!(s, f, "frame {i} of the standalone segment decode");
    }
}
