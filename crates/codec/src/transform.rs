//! The H.264 4x4 integer transform and the Hadamard transform used for SATD.
//!
//! The forward/inverse pair is the standard bit-exact integer approximation
//! of the DCT: all arithmetic is shifts and adds, and
//! `idct4x4(dct4x4(x))` reproduces `x` exactly after the `>> 6` scaling
//! (given quantization-free round-tripping).

/// A 4x4 coefficient block in row-major order.
pub type Block4x4 = [i32; 16];

/// Forward 4x4 integer DCT (H.264 core transform), in place.
///
/// Input: spatial residual; output: transform coefficients (scaled by the
/// matrix gain, compensated in quantization).
pub fn dct4x4(b: &mut Block4x4) {
    // Rows.
    for r in 0..4 {
        let i = r * 4;
        let (a0, a1, a2, a3) = (b[i], b[i + 1], b[i + 2], b[i + 3]);
        let s03 = a0 + a3;
        let s12 = a1 + a2;
        let d03 = a0 - a3;
        let d12 = a1 - a2;
        b[i] = s03 + s12;
        b[i + 1] = 2 * d03 + d12;
        b[i + 2] = s03 - s12;
        b[i + 3] = d03 - 2 * d12;
    }
    // Columns.
    for c in 0..4 {
        let (a0, a1, a2, a3) = (b[c], b[c + 4], b[c + 8], b[c + 12]);
        let s03 = a0 + a3;
        let s12 = a1 + a2;
        let d03 = a0 - a3;
        let d12 = a1 - a2;
        b[c] = s03 + s12;
        b[c + 4] = 2 * d03 + d12;
        b[c + 8] = s03 - s12;
        b[c + 12] = d03 - 2 * d12;
    }
}

/// Inverse 4x4 integer DCT, in place; includes the final `(x + 32) >> 6`
/// scaling so that dequantized coefficients map back to residual amplitude.
pub fn idct4x4(b: &mut Block4x4) {
    // Rows.
    for r in 0..4 {
        let i = r * 4;
        let (a0, a1, a2, a3) = (b[i], b[i + 1], b[i + 2], b[i + 3]);
        let e0 = a0 + a2;
        let e1 = a0 - a2;
        let e2 = (a1 >> 1) - a3;
        let e3 = a1 + (a3 >> 1);
        b[i] = e0 + e3;
        b[i + 1] = e1 + e2;
        b[i + 2] = e1 - e2;
        b[i + 3] = e0 - e3;
    }
    // Columns.
    for c in 0..4 {
        let (a0, a1, a2, a3) = (b[c], b[c + 4], b[c + 8], b[c + 12]);
        let e0 = a0 + a2;
        let e1 = a0 - a2;
        let e2 = (a1 >> 1) - a3;
        let e3 = a1 + (a3 >> 1);
        b[c] = (e0 + e3 + 32) >> 6;
        b[c + 4] = (e1 + e2 + 32) >> 6;
        b[c + 8] = (e1 - e2 + 32) >> 6;
        b[c + 12] = (e0 - e3 + 32) >> 6;
    }
}

/// 4x4 Hadamard transform, in place (used for SATD cost).
fn hadamard4x4(b: &mut Block4x4) {
    for r in 0..4 {
        let i = r * 4;
        let (a0, a1, a2, a3) = (b[i], b[i + 1], b[i + 2], b[i + 3]);
        let s0 = a0 + a1;
        let s1 = a2 + a3;
        let d0 = a0 - a1;
        let d1 = a2 - a3;
        b[i] = s0 + s1;
        b[i + 1] = s0 - s1;
        b[i + 2] = d0 + d1;
        b[i + 3] = d0 - d1;
    }
    for c in 0..4 {
        let (a0, a1, a2, a3) = (b[c], b[c + 4], b[c + 8], b[c + 12]);
        let s0 = a0 + a1;
        let s1 = a2 + a3;
        let d0 = a0 - a1;
        let d1 = a2 - a3;
        b[c] = s0 + s1;
        b[c + 4] = s0 - s1;
        b[c + 8] = d0 + d1;
        b[c + 12] = d0 - d1;
    }
}

/// Sum of absolute transformed differences between two 4x4 pixel blocks —
/// the cost metric high `subme` levels use instead of SAD.
pub fn satd4x4(a: &[u8], b: &[u8]) -> u32 {
    debug_assert!(a.len() >= 16 && b.len() >= 16);
    let mut d: Block4x4 = [0; 16];
    for i in 0..16 {
        d[i] = i32::from(a[i]) - i32::from(b[i]);
    }
    hadamard4x4(&mut d);
    // Normalize by 2 (Hadamard gain) like x264.
    d.iter().map(|&v| v.unsigned_abs()).sum::<u32>() / 2
}

/// SATD between two 16x16 pixel blocks: the sum of [`satd4x4`] over their
/// sixteen 4x4 sub-blocks, each halved on its own as `satd4x4` halves it.
///
/// Works on strips of four rows. Differences fit `i16` with room for both
/// butterfly passes (|d| <= 255, <= 4 080 after them): the horizontal pass
/// stays within each group of four samples, the vertical pass then runs
/// across all sixteen columns at once, and a column's four absolute
/// coefficients (<= 16 320) sum in `u16`.
pub(crate) fn satd16x16(a: &[u8; 256], b: &[u8; 256]) -> u32 {
    let mut total = 0;
    for (sa, sb) in a.chunks_exact(64).zip(b.chunks_exact(64)) {
        let mut d = [0i16; 64];
        for ((d, &x), &y) in d.iter_mut().zip(sa).zip(sb) {
            *d = i16::from(x) - i16::from(y);
        }
        let mut h = [0i16; 64];
        for (o, q) in h.chunks_exact_mut(4).zip(d.chunks_exact(4)) {
            let (s0, s1, d0, d1) = (q[0] + q[1], q[2] + q[3], q[0] - q[1], q[2] - q[3]);
            o[0] = s0 + s1;
            o[1] = s0 - s1;
            o[2] = d0 + d1;
            o[3] = d0 - d1;
        }
        let (r0, rest) = h.split_at(16);
        let (r1, rest) = rest.split_at(16);
        let (r2, r3) = rest.split_at(16);
        let mut col = [0u16; 16];
        for (c, col) in col.iter_mut().enumerate() {
            let (s0, s1) = (r0[c] + r1[c], r2[c] + r3[c]);
            let (d0, d1) = (r0[c] - r1[c], r2[c] - r3[c]);
            *col = (s0 + s1).unsigned_abs()
                + (s0 - s1).unsigned_abs()
                + (d0 + d1).unsigned_abs()
                + (d0 - d1).unsigned_abs();
        }
        for block in col.chunks_exact(4) {
            total += block.iter().map(|&v| u32::from(v)).sum::<u32>() / 2;
        }
    }
    total
}

/// Sum of absolute differences between two equal-size pixel blocks.
pub fn sad(a: &[u8], b: &[u8]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| u32::from(x.abs_diff(y)))
        .sum()
}

/// The definition [`satd16x16`] replaced — gather each 4x4, call `satd4x4`
/// sixteen times — kept as its oracle (and `me::oracle`'s metric).
#[cfg(test)]
pub(crate) mod oracle {
    use super::satd4x4;

    pub(crate) fn satd16_blocks(a: &[u8; 256], b: &[u8; 256]) -> u32 {
        let mut total = 0;
        let mut pa = [0u8; 16];
        let mut pb = [0u8; 16];
        for by in 0..4 {
            for bx in 0..4 {
                for r in 0..4 {
                    for c in 0..4 {
                        pa[r * 4 + c] = a[(by * 4 + r) * 16 + bx * 4 + c];
                        pb[r * 4 + c] = b[(by * 4 + r) * 16 + bx * 4 + c];
                    }
                }
                total += satd4x4(&pa, &pb);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idct_of_scaled_dc_recovers_flat_block() {
        // A dequantized DC of 640 (10 * the 64x transform gain) must come
        // back as a flat block of 10s; the quant/dequant pipeline provides
        // that scaling in practice (see quant.rs round-trip tests).
        let mut b: Block4x4 = [0; 16];
        b[0] = 640;
        idct4x4(&mut b);
        assert!(b.iter().all(|&v| v == 10), "{b:?}");
    }

    #[test]
    fn dct_of_flat_block_is_dc_only() {
        let mut b: Block4x4 = [7; 16];
        dct4x4(&mut b);
        assert_eq!(b[0], 7 * 16);
        assert!(b[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn hadamard_energy_preserved() {
        let mut b: Block4x4 = [
            1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11, -12, 13, -14, 15, -16,
        ];
        let orig_sq: i64 = b.iter().map(|&v| i64::from(v) * i64::from(v)).sum();
        hadamard4x4(&mut b);
        let tran_sq: i64 = b.iter().map(|&v| i64::from(v) * i64::from(v)).sum();
        // Orthogonal transform with gain 4: energy scales by 16.
        assert_eq!(tran_sq, orig_sq * 16);
    }

    #[test]
    fn satd_zero_for_identical() {
        let a = [100u8; 16];
        assert_eq!(satd4x4(&a, &a), 0);
        let mut b = a;
        b[5] = 110;
        assert!(satd4x4(&a, &b) > 0);
    }

    #[test]
    fn satd16x16_is_the_sum_of_sixteen_satd4x4() {
        let mut rng = vtx_rng::Xoshiro256pp::new(0x005A_7D16);
        for i in 0..10_000 {
            let a: [u8; 256] = std::array::from_fn(|_| rng.next_u8());
            // Alternate unrelated blocks with near matches (small residuals
            // with odd 4x4 sums, where the per-block halving truncates).
            let b: [u8; 256] = if i % 2 == 0 {
                std::array::from_fn(|_| rng.next_u8())
            } else {
                std::array::from_fn(|j| a[j].wrapping_add(rng.next_u8() % 4))
            };
            assert_eq!(satd16x16(&a, &b), oracle::satd16_blocks(&a, &b), "pair {i}");
        }
    }

    /// The inputs that drive the `i16` intermediates to their bounds: a
    /// +-255 difference everywhere, concentrated into one coefficient per
    /// 4x4 (flat, 1-sample checkerboard) or per strip column (4-sample).
    #[test]
    fn satd16x16_extremes_stay_in_range() {
        let flat = |v: u8| [v; 256];
        let checker = |pitch: usize, phase: usize| -> [u8; 256] {
            std::array::from_fn(|i| {
                if (i / 16 / pitch + i % 16 / pitch + phase).is_multiple_of(2) {
                    0
                } else {
                    255
                }
            })
        };
        let cases = [
            (flat(0), flat(255)),
            (flat(255), flat(0)),
            (checker(1, 0), checker(1, 1)),
            (checker(4, 0), checker(4, 1)),
            (checker(1, 0), flat(0)),
            (checker(4, 1), flat(255)),
        ];
        for (i, (a, b)) in cases.iter().enumerate() {
            assert_eq!(satd16x16(a, b), oracle::satd16_blocks(a, b), "case {i}");
        }
        // 16 blocks x (one coefficient of 16 * 255) / 2.
        assert_eq!(satd16x16(&flat(0), &flat(255)), 16 * 16 * 255 / 2);
        assert_eq!(satd16x16(&checker(1, 0), &checker(1, 1)), 16 * 16 * 255 / 2);
    }

    #[test]
    fn sad_basics() {
        let a = [10u8; 16];
        let b = [13u8; 16];
        assert_eq!(sad(&a, &b), 48);
        assert_eq!(sad(&a, &a), 0);
    }

    #[test]
    fn satd_penalizes_structure_less_than_sad_for_dc_shift() {
        // A pure DC shift: SATD (after transform) concentrates it, so
        // satd < sad for flat differences of the same magnitude sum.
        let a = [100u8; 16];
        let b = [108u8; 16];
        assert!(satd4x4(&a, &b) < sad(&a, &b));
    }
}
