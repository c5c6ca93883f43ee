//! Scalar quantization/dequantization of 4x4 transform coefficients, plus
//! variance-based adaptive quantization (x264's `aq-mode`).

use crate::tables::{DEQUANT_V, POS_CLASS, QUANT_MF};
use crate::transform::Block4x4;
use crate::types::Qp;

/// Quantizes a block of forward-transform coefficients in place, returning
/// the number of nonzero levels.
///
/// `intra` selects the rounding offset (intra blocks round less
/// aggressively toward zero, per the H.264 reference: f = 2^qbits/3 intra,
/// 2^qbits/6 inter).
pub fn quant4x4(b: &mut Block4x4, qp: Qp, intra: bool) -> u32 {
    let qbits = 15 + u32::from(qp.shift());
    let f: i64 = if intra {
        (1i64 << qbits) / 3
    } else {
        (1i64 << qbits) / 6
    };
    let mf = &QUANT_MF[qp.rem()];
    let mut nz = 0;
    for (i, v) in b.iter_mut().enumerate() {
        let m = i64::from(mf[POS_CLASS[i]]);
        let level = ((i64::from(v.unsigned_abs()) * m + f) >> qbits) as i32;
        *v = if *v < 0 { -level } else { level };
        if level != 0 {
            nz += 1;
        }
    }
    nz
}

/// Dequantizes a block of levels in place (inverse of [`quant4x4`] up to the
/// quantization error).
pub fn dequant4x4(b: &mut Block4x4, qp: Qp) {
    let shift = u32::from(qp.shift());
    let v = &DEQUANT_V[qp.rem()];
    for (i, c) in b.iter_mut().enumerate() {
        *c = (*c * v[POS_CLASS[i]]) << shift;
    }
}

/// Dequantizes a single level at a given block position — used by the
/// trellis search to evaluate candidate levels.
#[inline]
pub(crate) fn dequant_coef(level: i32, pos: usize, qp: Qp) -> i32 {
    (level * DEQUANT_V[qp.rem()][POS_CLASS[pos]]) << u32::from(qp.shift())
}

/// Per-macroblock adaptive-quantization offset (x264 `aq-mode 1`): flat
/// blocks get a finer quantizer, busy blocks a coarser one, steered by the
/// log-ratio of the block variance to the frame's average variance.
///
/// Returns a QP delta in `-4..=4`.
pub(crate) fn aq_offset(block_variance: u32, avg_variance: f64) -> i32 {
    if avg_variance <= 0.0 {
        return 0;
    }
    let v = f64::from(block_variance.max(1));
    let strength = 1.0; // x264 default aq-strength
    let delta = strength * (v / avg_variance).log2() * 1.5;
    delta.round().clamp(-4.0, 4.0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{dct4x4, idct4x4};

    fn pipeline(src: Block4x4, qp: Qp, intra: bool) -> Block4x4 {
        let mut b = src;
        dct4x4(&mut b);
        quant4x4(&mut b, qp, intra);
        dequant4x4(&mut b, qp);
        idct4x4(&mut b);
        b
    }

    #[test]
    fn low_qp_is_near_lossless() {
        let src: Block4x4 = [
            10, 20, 30, 40, 15, 25, 35, 45, 12, 22, 32, 42, 18, 28, 38, 48,
        ];
        let out = pipeline(src, Qp::new(0), true);
        for (o, s) in out.iter().zip(src.iter()) {
            assert!((o - s).abs() <= 1, "{out:?} vs {src:?}");
        }
    }

    #[test]
    fn high_qp_is_lossy_but_preserves_dc() {
        let src: Block4x4 = [
            100, 105, 98, 102, 101, 99, 104, 100, 97, 103, 100, 101, 102, 98, 99, 100,
        ];
        let out = pipeline(src, Qp::new(40), true);
        let src_mean: i32 = src.iter().sum::<i32>() / 16;
        let out_mean: i32 = out.iter().sum::<i32>() / 16;
        assert!(
            (src_mean - out_mean).abs() <= 8,
            "mean {src_mean} vs {out_mean}"
        );
    }

    #[test]
    fn error_grows_with_qp() {
        let src: Block4x4 = [
            10, 60, 20, 80, 30, 90, 15, 70, 25, 85, 35, 95, 5, 65, 45, 75,
        ];
        let err = |qp: i32| -> i64 {
            let out = pipeline(src, Qp::new(qp), false);
            out.iter()
                .zip(src.iter())
                .map(|(o, s)| i64::from((o - s).pow(2)))
                .sum()
        };
        assert!(err(12) <= err(30));
        assert!(err(30) <= err(48));
    }

    #[test]
    fn nonzero_count_shrinks_with_qp() {
        let mut noisy: Block4x4 = [0; 16];
        for (i, v) in noisy.iter_mut().enumerate() {
            *v = ((i as i32 * 37) % 23) - 11;
        }
        let count = |qp: i32| {
            let mut b = noisy;
            dct4x4(&mut b);
            quant4x4(&mut b, Qp::new(qp), false)
        };
        assert!(count(4) >= count(24));
        assert!(count(24) >= count(44));
        assert_eq!(count(51).min(1), count(51), "levels can vanish entirely");
    }

    #[test]
    fn quant_preserves_sign() {
        let mut b: Block4x4 = [0; 16];
        b[0] = 500;
        b[1] = -500;
        quant4x4(&mut b, Qp::new(10), true);
        assert!(b[0] > 0);
        assert!(b[1] < 0);
    }

    #[test]
    fn dequant_coef_matches_block_dequant() {
        let mut b: Block4x4 = [0; 16];
        b[3] = 7;
        let single = dequant_coef(7, 3, Qp::new(22));
        dequant4x4(&mut b, Qp::new(22));
        assert_eq!(b[3], single);
    }

    #[test]
    fn aq_offsets_directionally_correct() {
        // Flat block vs very busy block around an average.
        let flat = aq_offset(10, 1000.0);
        let busy = aq_offset(100_000, 1000.0);
        assert!(flat < 0, "flat blocks get finer qp, got {flat}");
        assert!(busy > 0, "busy blocks get coarser qp, got {busy}");
        assert_eq!(aq_offset(100, 0.0), 0);
        assert!(aq_offset(u32::MAX, 1.0) <= 4);
    }
}
