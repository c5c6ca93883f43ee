//! Kernel identities and code-footprint descriptors for instrumentation.
//!
//! Every hot function of the codec is declared here with an approximate hot
//! code footprint (sized after the corresponding x264/FFmpeg routines). The
//! profiler lays these kernels out in a synthetic text section; instruction
//! cache, iTLB and branch behaviour follow from that layout (see
//! `vtx-trace`).
//!
//! The kernel table is identical under wavefront-parallel encoding: worker
//! threads record the same kernel events a serial encode would emit and the
//! stitcher replays them in raster order, so per-kernel instruction and
//! cycle attribution does not depend on `EncoderConfig::threads`.

use vtx_trace::KernelDesc;

/// Look-ahead (scene cut / B-placement) analysis.
pub(crate) const K_LOOKAHEAD: usize = 0;
/// Rate-control bookkeeping.
pub(crate) const K_RC: usize = 1;
/// Macroblock-encode control (mode decision driver).
pub(crate) const K_MBENC: usize = 2;
/// Intra 16x16 prediction.
pub(crate) const K_IPRED16: usize = 3;
/// Intra 4x4 prediction.
pub(crate) const K_IPRED4: usize = 4;
/// Intra mode decision.
pub(crate) const K_IDECIDE: usize = 5;
/// Diamond motion search.
pub(crate) const K_ME_DIA: usize = 6;
/// Hexagon motion search.
pub(crate) const K_ME_HEX: usize = 7;
/// Uneven multi-hexagon motion search.
pub(crate) const K_ME_UMH: usize = 8;
/// Exhaustive motion search.
pub(crate) const K_ME_ESA: usize = 9;
/// Block SAD evaluation.
pub(crate) const K_SAD: usize = 10;
/// Block SATD evaluation.
pub(crate) const K_SATD: usize = 11;
/// Half-pel interpolation.
pub(crate) const K_HPEL: usize = 12;
/// Motion compensation (full-pel copy / average).
pub(crate) const K_MC: usize = 13;
/// Forward 4x4 transform.
pub(crate) const K_DCT: usize = 14;
/// Inverse 4x4 transform.
pub(crate) const K_IDCT: usize = 15;
/// Quantization.
pub(crate) const K_QUANT: usize = 16;
/// Dequantization.
pub(crate) const K_DEQUANT: usize = 17;
/// Trellis RD quantization.
pub(crate) const K_TRELLIS: usize = 18;
/// CAVLC residual coding.
pub(crate) const K_CAVLC: usize = 19;
/// CABAC residual coding.
pub(crate) const K_CABAC: usize = 20;
/// Reconstruction (prediction + residual merge).
pub(crate) const K_RECON: usize = 21;
/// In-loop deblocking filter.
pub(crate) const K_DEBLOCK: usize = 22;
/// Headers and frame-level bookkeeping.
pub(crate) const K_HEADER: usize = 23;
/// Decoder: bitstream parsing / entropy decode.
pub(crate) const K_DEC_PARSE: usize = 24;
/// Decoder: prediction (intra + motion compensation).
pub(crate) const K_DEC_PRED: usize = 25;
/// Decoder: residual reconstruction.
pub(crate) const K_DEC_RECON: usize = 26;
/// Decoder: in-loop deblocking.
pub(crate) const K_DEC_DEBLOCK: usize = 27;

const KERNELS: &[KernelDesc] = &[
    KernelDesc::new("lookahead", 2048),
    KernelDesc::new("ratecontrol", 1536),
    KernelDesc::new("mbenc_ctrl", 5120),
    KernelDesc::new("intra_pred16", 1536),
    KernelDesc::new("intra_pred4", 2048),
    KernelDesc::new("intra_decide", 2048),
    KernelDesc::new("me_dia", 1024),
    KernelDesc::new("me_hex", 1536),
    KernelDesc::new("me_umh", 4096),
    KernelDesc::new("me_esa", 2048),
    KernelDesc::new("sad", 1024),
    KernelDesc::new("satd", 1536),
    KernelDesc::new("hpel_interp", 3072),
    KernelDesc::new("mc", 1024),
    KernelDesc::new("dct4x4", 1280),
    KernelDesc::new("idct4x4", 1280),
    KernelDesc::new("quant", 1024),
    KernelDesc::new("dequant", 768),
    KernelDesc::new("trellis", 4096),
    KernelDesc::new("cavlc", 3072),
    KernelDesc::new("cabac", 5120),
    KernelDesc::new("recon", 1024),
    KernelDesc::new("deblock", 4096),
    KernelDesc::new("header", 512),
    KernelDesc::new("dec_parse", 3072),
    KernelDesc::new("dec_pred", 2048),
    KernelDesc::new("dec_recon", 1024),
    KernelDesc::new("dec_deblock", 2048),
];

/// The codec's full kernel table, indexed by the `K_*` constants.
pub fn kernel_table() -> &'static [KernelDesc] {
    KERNELS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_index_the_table() {
        let t = kernel_table();
        assert_eq!(t[K_LOOKAHEAD].name, "lookahead");
        assert_eq!(t[K_CABAC].name, "cabac");
        assert_eq!(t[K_DEC_DEBLOCK].name, "dec_deblock");
        assert_eq!(t.len(), K_DEC_DEBLOCK + 1);
    }

    #[test]
    fn hot_footprint_exceeds_l1i() {
        // The whole point: the interleaved hot working set must not fit in a
        // 32 KiB L1i, like real x264.
        let total: u32 = kernel_table().iter().map(|k| k.code_bytes).sum();
        assert!(total > 48 * 1024, "total hot code {total} bytes");
    }
}
