//! Shared helpers for the vtx integration tests.

use vtx_core::Transcoder;
use vtx_frame::{synth, vbench, Video, VideoSpec};

/// A catalog spec shrunk to test size (fast in debug builds) while keeping
/// the entropy-driven content character.
pub fn tiny_spec(name: &str, frames: u32) -> VideoSpec {
    let mut spec = vbench::by_name(name).expect("catalog video");
    spec.sim_width = 64;
    spec.sim_height = 48;
    spec.sim_frames = frames;
    spec
}

/// A tiny synthetic clip for `name`.
pub fn tiny_video(name: &str, frames: u32, seed: u64) -> Video {
    synth::generate(&tiny_spec(name, frames), seed)
}

/// A transcoding workload over a tiny clip.
pub fn tiny_transcoder(name: &str, frames: u32, seed: u64) -> Transcoder {
    Transcoder::from_video(tiny_video(name, frames, seed)).expect("mezzanine encode")
}

/// FNV-1a 64, the digest `golden_codec` and the `serve_fleet` pins are kept as.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = super::Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
