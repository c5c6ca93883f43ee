//! Seeded bit-flip fuzzing of the decoder.
//!
//! The fault-tolerance story of the serving layer assumes a transcode
//! worker can hit arbitrary garbage (a truncated upload, a corrupted
//! object-store read) and fail *cleanly* — an `Err` consumed by the retry
//! machinery, never a panic that takes the worker thread down. This test
//! pins that property: thousands of seeded single- and multi-bit mutations
//! of a real encoded bitstream, every one of which must decode to `Ok` or
//! `Err` without panicking, and every `Ok` must be structurally sound.

use vtx_codec::decoder::decode_video;
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
    let mut spec = vbench::by_name("cricket").unwrap();
    spec.sim_width = 64;
    spec.sim_height = 48;
    spec.sim_frames = 6;
    let video = synth::generate(&spec, 11);
    let mut p = prof();
    encode_video(&video, &EncoderConfig::default(), &mut p)
        .unwrap()
        .bitstream
        .data
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
                assert!(out.width > 0 && out.width % 16 == 0, "round {round}");
                assert!(out.height > 0 && out.height % 16 == 0, "round {round}");
                for f in &out.frames {
                    assert_eq!(f.width(), out.width, "round {round}");
                    assert_eq!(f.height(), out.height, "round {round}");
                }
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

#[test]
fn pure_garbage_never_panics() {
    let mut p = prof();
    let mut rng = SplitMix64::new(0x0BAD_5EED);
    for len in [0usize, 1, 4, 16, 17, 64, 256, 4096] {
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_video(&Bitstream { data }, &mut p);
    }
}
