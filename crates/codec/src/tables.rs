//! Constant tables shared by the transform/quantization pipeline.
//!
//! These are the standard H.264 4x4 tables: the zig-zag scan order and the
//! per-`qp % 6` quantization (MF) and dequantization (V) multipliers.

/// Zig-zag scan order for a 4x4 block (row-major index per scan position).
pub(crate) const ZIGZAG4X4: [usize; 16] = [0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15];

/// Forward quantization multipliers `MF[qp%6][class]` where class 0 covers
/// positions (0,0),(0,2),(2,0),(2,2), class 1 the odd-odd positions, and
/// class 2 the rest (H.264 spec, Table 8-xx).
pub(crate) const QUANT_MF: [[i32; 3]; 6] = [
    [13107, 5243, 8066],
    [11916, 4660, 7490],
    [10082, 4194, 6554],
    [9362, 3647, 5825],
    [8192, 3355, 5243],
    [7282, 2893, 4559],
];

/// Dequantization multipliers `V[qp%6][class]` (same class mapping).
pub(crate) const DEQUANT_V: [[i32; 3]; 6] = [
    [10, 16, 13],
    [11, 18, 14],
    [13, 20, 16],
    [14, 23, 18],
    [16, 25, 20],
    [18, 29, 23],
];

/// Position class (0, 1 or 2) of each coefficient in a row-major 4x4 block,
/// selecting the MF/V column.
pub(crate) const POS_CLASS: [usize; 16] = [0, 2, 0, 2, 2, 1, 2, 1, 0, 2, 0, 2, 2, 1, 2, 1];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 16];
        for &i in &ZIGZAG4X4 {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // First coefficients are the low frequencies.
        assert_eq!(ZIGZAG4X4[0], 0);
        assert_eq!(ZIGZAG4X4[15], 15);
    }

    #[test]
    fn class_mapping_matches_spec() {
        // (0,0) -> class 0, (1,1) -> class 1, (0,1) -> class 2
        assert_eq!(POS_CLASS[0], 0);
        assert_eq!(POS_CLASS[5], 1);
        assert_eq!(POS_CLASS[1], 2);
        // All four even-even positions are class 0.
        for &p in &[0usize, 2, 8, 10] {
            assert_eq!(POS_CLASS[p], 0);
        }
    }

    #[test]
    fn quant_tables_monotone_in_qp() {
        // MF shrinks (coarser) as qp%6 grows; V grows.
        for c in 0..3 {
            for r in 1..6 {
                assert!(QUANT_MF[r][c] < QUANT_MF[r - 1][c]);
                assert!(DEQUANT_V[r][c] >= DEQUANT_V[r - 1][c]);
            }
        }
    }
}
