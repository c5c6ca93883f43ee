//! Property tests on cross-crate invariants: seeded loops over `vtx-rng`.

use vtx_codec::entropy::cabac::{CabacReader, CabacWriter};
use vtx_codec::entropy::cavlc::{CavlcReader, CavlcWriter};
use vtx_codec::entropy::{EntropyReader, EntropyWriter};
use vtx_codec::quant::{dequant4x4, quant4x4};
use vtx_codec::transform::{dct4x4, idct4x4, Block4x4};
use vtx_codec::types::Qp;
use vtx_codec::{decode_video, encode_video, instr, EncoderConfig};
use vtx_frame::{Frame, Plane, Video};
use vtx_rng::Xoshiro256pp;
use vtx_trace::layout::CodeLayout;
use vtx_trace::Profiler;
use vtx_uarch::config::UarchConfig;
use vtx_uarch::interval::{CoreModel, ExecutionCounts};

fn profiler() -> Profiler {
    let kernels = instr::kernel_table();
    Profiler::new(
        &UarchConfig::baseline(),
        kernels,
        CodeLayout::default_order(kernels),
    )
    .unwrap()
}

/// A 4x4 block of residuals in `[-amp, amp)`.
fn residuals(rng: &mut Xoshiro256pp, amp: i64) -> Block4x4 {
    std::array::from_fn(|_| rng.next_i64_in(-amp, amp) as i32)
}

fn bytes(rng: &mut Xoshiro256pp, max_len: u64) -> Vec<u8> {
    let len = rng.next_range(max_len);
    (0..len).map(|_| rng.next_u8()).collect()
}

/// The transform/quantization pipeline at qp<=6 reconstructs residuals
/// within +-2 of the original for arbitrary content.
#[test]
fn transform_quant_roundtrip_is_tight_at_low_qp() {
    let mut rng = Xoshiro256pp::new(0x7A11);
    for _ in 0..256 {
        let src = residuals(&mut rng, 100);
        let qp = Qp::new(rng.next_range(7) as i32);
        let mut b = src;
        dct4x4(&mut b);
        quant4x4(&mut b, qp, true);
        dequant4x4(&mut b, qp);
        idct4x4(&mut b);
        for (o, s) in b.iter().zip(src.iter()) {
            assert!((o - s).abs() <= 2, "{qp:?}: {b:?} vs {src:?}");
        }
    }
}

/// Quantization at any qp never increases coefficient magnitude sign-
/// flips: reconstructed residual error is bounded by ~the quant step.
#[test]
fn quant_error_bounded_by_step() {
    let mut rng = Xoshiro256pp::new(0x0B0D);
    for _ in 0..256 {
        let src = residuals(&mut rng, 128);
        let q = Qp::new(rng.next_range(52) as i32);
        let mut b = src;
        dct4x4(&mut b);
        quant4x4(&mut b, q, false);
        dequant4x4(&mut b, q);
        idct4x4(&mut b);
        let bound = (q.qstep() * 1.5 + 3.0) as i32;
        for (o, s) in b.iter().zip(src.iter()) {
            assert!(
                (o - s).abs() <= bound,
                "{q:?}: err {} > {bound}",
                (o - s).abs()
            );
        }
    }
}

/// Both entropy backends round-trip arbitrary syntax streams.
#[test]
fn entropy_backends_roundtrip() {
    fn write_all(mut w: impl EntropyWriter, values: &[(u32, bool)]) -> Vec<u8> {
        for (v, bit) in values {
            w.put_ue(3, *v);
            w.put_bit(5, *bit);
            w.put_se(7, *v as i32 - 100_000);
        }
        w.finish()
    }
    fn read_all(mut r: impl EntropyReader, values: &[(u32, bool)]) {
        for (v, bit) in values {
            assert_eq!(r.get_ue(3).unwrap(), *v);
            assert_eq!(r.get_bit(5).unwrap(), *bit);
            assert_eq!(r.get_se(7).unwrap(), *v as i32 - 100_000);
        }
    }
    let mut rng = Xoshiro256pp::new(0xE27);
    for _ in 0..64 {
        let len = 1 + rng.next_range(199);
        let values: Vec<(u32, bool)> = (0..len)
            .map(|_| (rng.next_range(200_000) as u32, rng.next_bool()))
            .collect();
        read_all(
            CavlcReader::new(&write_all(CavlcWriter::new(), &values)),
            &values,
        );
        read_all(
            CabacReader::new(&write_all(CabacWriter::new(), &values)),
            &values,
        );
    }
}

/// Top-down categories always sum to exactly 1 for any counts.
#[test]
fn topdown_partitions_slots() {
    let mut rng = Xoshiro256pp::new(0x70D0);
    for _ in 0..256 {
        let instructions = 1 + rng.next_range(9_999_999);
        let heavy = rng.next_range(200_000);
        let mut c = ExecutionCounts::default();
        c.instructions = instructions;
        c.uops = instructions + heavy;
        c.branches = instructions / 5;
        c.branch_mispredicts = rng.next_range(50_000).min(c.branches);
        c.loads.l1 = instructions / 3;
        c.loads.l2 = rng.next_range(100_000);
        c.loads.l3 = rng.next_range(20_000);
        c.loads.mem = rng.next_range(10_000);
        c.stores.l1 = instructions / 10;
        c.stores.mem = rng.next_range(50_000);
        c.heavy_ops = heavy;
        c.redirects = instructions / 100;
        let bd = CoreModel::new(&UarchConfig::baseline()).run(&c);
        let td = bd.topdown();
        assert!((td.sum() - 1.0).abs() < 1e-9, "{td:?} from {c:?}");
        assert!(td.retiring >= 0.0 && td.frontend >= 0.0);
        assert!(td.bad_speculation >= 0.0 && td.backend() >= 0.0);
    }
}

/// The decoder must never panic on arbitrary garbage — it either parses
/// something or returns a structured error.
#[test]
fn decoder_never_panics_on_garbage() {
    let mut rng = Xoshiro256pp::new(0x6A2B);
    for _ in 0..32 {
        let mut p = profiler();
        let bs = vtx_codec::encoder::Bitstream {
            data: bytes(&mut rng, 4096),
        };
        let _ = decode_video(&bs, &mut p);
    }
}

/// Garbage wrapped in a valid-looking container header must also fail
/// gracefully (this exercises the entropy decoders on noise).
#[test]
fn decoder_never_panics_on_wrapped_garbage() {
    let mut rng = Xoshiro256pp::new(0x3A9);
    for _ in 0..32 {
        let payload = bytes(&mut rng, 2048);
        let cabac = rng.next_bool();
        let mut data = Vec::new();
        data.extend_from_slice(vtx_codec::encoder::MAGIC);
        data.push(vtx_codec::encoder::VERSION);
        data.extend_from_slice(&32u16.to_le_bytes()); // width
        data.extend_from_slice(&32u16.to_le_bytes()); // height
        data.push(30); // fps
        data.extend_from_slice(&1u16.to_le_bytes()); // frame count
        data.push(u8::from(cabac)); // flags
        data.push(1); // refs
        data.push(0); // deblock a
        data.push(0); // deblock b
        data.push(8); // scale
        data.push(0); // frame type I
        data.extend_from_slice(&0u16.to_le_bytes()); // display index
        data.push(23); // qp
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        data.extend_from_slice(&payload);
        let mut p = profiler();
        let bs = vtx_codec::encoder::Bitstream { data };
        let _ = decode_video(&bs, &mut p);
    }
}

/// Encode -> decode is a bit-exact round trip for random pixel content
/// (the toughest possible input: pure noise).
#[test]
fn random_content_roundtrips() {
    let mut rng = Xoshiro256pp::new(0xC0DEC);
    for _ in 0..4 {
        let crf = 10 + rng.next_range(35);
        let mut spec = vtx_frame::vbench::by_name("cat").unwrap();
        spec.sim_width = 32;
        spec.sim_height = 32;
        spec.sim_frames = 3;
        let frames: Vec<Frame> = (0..3)
            .map(|_| {
                let mut f = Frame::new(32, 32);
                randomize(f.y_mut(), &mut rng);
                randomize(f.u_mut(), &mut rng);
                randomize(f.v_mut(), &mut rng);
                f
            })
            .collect();
        let video = Video::new(spec, frames);
        let mut p = profiler();
        let cfg = EncoderConfig::default().with_crf(crf as f64);
        let enc = encode_video(&video, &cfg, &mut p).unwrap();
        let dec = decode_video(&enc.bitstream, &mut p).unwrap();
        assert_eq!(dec.frames, enc.recon, "crf {crf}");
    }
}

fn randomize(p: &mut Plane, rng: &mut Xoshiro256pp) {
    for v in p.samples_mut() {
        *v = rng.next_u8();
    }
}
