//! Seeded bit-flip fuzzing and an exhaustive truncation sweep of the decoder.
//!
//! The fault-tolerance story of the serving layer assumes a transcode
//! worker can hit arbitrary garbage (a truncated upload, a corrupted
//! object-store read) and fail *cleanly* — an `Err` consumed by the retry
//! machinery, never a panic that takes the worker thread down. This test
//! pins that property: thousands of seeded single- and multi-bit mutations
//! of a real encoded bitstream, every one of which must decode to `Ok` or
//! `Err` without panicking, and every `Ok` must be structurally sound.
//! The sweep cuts a CABAC and a CAVLC stream at every length, the container
//! and each frame's entropy payload, where the bit flips sample.

use vtx_codec::decoder::{decode_video, DecodedVideo};
use vtx_codec::encoder::{encode_video, Bitstream};
use vtx_codec::EncoderConfig;
use vtx_frame::{synth, vbench};
use vtx_rng::SplitMix64;
use vtx_trace::layout::CodeLayout;
use vtx_trace::Profiler;
use vtx_uarch::config::UarchConfig;

fn prof() -> Profiler {
    let kernels = vtx_codec::instr::kernel_table();
    Profiler::new(
        &UarchConfig::baseline(),
        kernels,
        CodeLayout::default_order(kernels),
    )
    .unwrap()
}

fn encoded_stream() -> Vec<u8> {
    encoded_stream_with(&EncoderConfig::default(), 64, 48)
}

fn encoded_stream_with(cfg: &EncoderConfig, width: u32, height: u32) -> Vec<u8> {
    let mut spec = vbench::by_name("cricket").unwrap();
    spec.sim_width = width;
    spec.sim_height = height;
    spec.sim_frames = 6;
    let video = synth::generate(&spec, 11);
    let mut p = prof();
    encode_video(&video, cfg, &mut p).unwrap().bitstream.data
}

/// A decode that came back `Ok` must be structurally sound.
fn assert_sound(out: &DecodedVideo, what: &str) {
    assert!(out.width > 0 && out.width.is_multiple_of(16), "{what}");
    assert!(out.height > 0 && out.height.is_multiple_of(16), "{what}");
    for f in &out.frames {
        assert_eq!(f.width(), out.width, "{what}");
        assert_eq!(f.height(), out.height, "{what}");
    }
}

#[test]
fn thousand_bit_flips_never_panic() {
    let clean = encoded_stream();
    let mut p = prof();
    // The pristine stream must decode.
    assert!(decode_video(
        &Bitstream {
            data: clean.clone()
        },
        &mut p
    )
    .is_ok());

    let mut rng = SplitMix64::new(0xC0DE_C0DE);
    let (mut oks, mut errs) = (0u32, 0u32);
    for round in 0..1_000 {
        let mut data = clean.clone();
        // 1–4 bit flips anywhere in the stream, header included.
        let flips = 1 + rng.next_range(4);
        for _ in 0..flips {
            let byte = rng.next_range(data.len() as u64) as usize;
            data[byte] ^= 1 << rng.next_range(8);
        }
        match decode_video(&Bitstream { data }, &mut p) {
            Ok(out) => {
                // Tolerated flips (e.g. in an fps byte or a residual level)
                // may still decode; the result must be structurally sound.
                oks += 1;
                assert_sound(&out, &format!("round {round}"));
            }
            Err(_) => errs += 1,
        }
    }
    assert_eq!(oks + errs, 1_000);
    // A decoder that "accepted" most corruption would be rubber-stamping
    // garbage: the vast majority of mutations must be detected.
    assert!(errs > 500, "only {errs}/1000 mutations were rejected");
}

#[test]
fn random_truncations_never_panic() {
    let clean = encoded_stream();
    let mut p = prof();
    let mut rng = SplitMix64::new(0x7EA2);
    for _ in 0..200 {
        let cut = rng.next_range(clean.len() as u64) as usize;
        let bs = Bitstream {
            data: clean[..cut].to_vec(),
        };
        // Every strict prefix is missing data; decode must fail cleanly.
        assert!(decode_video(&bs, &mut p).is_err(), "cut at {cut}");
    }
}

/// Start and length of every frame's entropy payload: after the 17-byte
/// container header each frame is type, display index (2), QP, payload
/// length (4, little-endian), payload.
fn payload_spans(data: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut pos = 17;
    while pos < data.len() {
        let len = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap()) as usize;
        spans.push((pos + 8, len));
        pos += 8 + len;
    }
    assert_eq!(pos, data.len(), "frames tile the stream");
    spans
}

/// Decodes every strict prefix of the stream (all must fail: the container
/// knows its frame count and payload lengths), then every prefix of every
/// frame's payload with the frame's length field corrected, which is what
/// reaches the entropy readers. Returns how many of the latter decoded `Ok`.
/// The clip is six macroblocks a frame: a decode per byte of stream, twice.
fn truncation_sweep(cfg: &EncoderConfig) -> usize {
    let clean = &encoded_stream_with(cfg, 48, 32)[..];
    let mut p = prof();
    let decode = |data: Vec<u8>, p: &mut Profiler| decode_video(&Bitstream { data }, p);
    assert!(decode(clean.to_vec(), &mut p).is_ok());
    for cut in 0..clean.len() {
        assert!(
            decode(clean[..cut].to_vec(), &mut p).is_err(),
            "cut at {cut}"
        );
    }
    let mut oks = 0;
    for (frame, &(start, len)) in payload_spans(clean).iter().enumerate() {
        for keep in 0..len {
            let mut data = clean[..start + keep].to_vec();
            data[start - 4..start].copy_from_slice(&(keep as u32).to_le_bytes());
            data.extend_from_slice(&clean[start + len..]);
            if let Ok(out) = decode(data, &mut p) {
                oks += 1;
                assert_sound(
                    &out,
                    &format!("frame {frame} payload cut to {keep} of {len}"),
                );
            }
        }
    }
    oks
}

/// Payload lengths that still decode, generated on the bin-by-bin coders
/// this sweep was first run against (commit 1ada86b). CABAC: the writer's
/// five-byte flush carries more than the last bins need and the reader pads
/// eight zero bytes before it gives up, so a payload a few bytes short still
/// decodes (to something). CAVLC: every byte carries bits some symbol needs.
const CABAC_TRUNCATIONS_OK: usize = 61;
const CAVLC_TRUNCATIONS_OK: usize = 0;

#[test]
fn every_truncation_of_a_cabac_stream_is_clean() {
    let cfg = EncoderConfig::default();
    assert!(cfg.cabac);
    assert_eq!(truncation_sweep(&cfg), CABAC_TRUNCATIONS_OK);
}

#[test]
fn every_truncation_of_a_cavlc_stream_is_clean() {
    let cfg = EncoderConfig {
        cabac: false,
        ..EncoderConfig::default()
    };
    assert_eq!(truncation_sweep(&cfg), CAVLC_TRUNCATIONS_OK);
}

#[test]
fn pure_garbage_never_panics() {
    let mut p = prof();
    let mut rng = SplitMix64::new(0x0BAD_5EED);
    for len in [0usize, 1, 4, 16, 17, 64, 256, 4096] {
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_video(&Bitstream { data }, &mut p);
    }
}
