//! Trellis (rate-distortion) quantization — §II-B.4 of the paper.
//!
//! After scalar quantization, each nonzero level is revisited in reverse
//! zig-zag order and the alternatives `level - 1` and `0` are evaluated
//! against the Lagrangian `D + lambda * R`, where the distortion is measured
//! in the transform domain against the unquantized coefficient and the rate
//! is the exp-Golomb cost of the level plus run coding. This is a
//! deliberately simplified (per-coefficient, greedy) version of x264's
//! Viterbi trellis, preserving its workload character: heavily
//! data-dependent branching over coefficient values.

use crate::quant::{dequant_coef, quant4x4};
use crate::tables::ZIGZAG4X4;
use crate::transform::Block4x4;
use crate::types::{se_len, Qp};

/// Outcome of trellis quantization for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrellisOutcome {
    /// Nonzero levels remaining after optimization.
    pub(crate) nonzero: u32,
    /// Number of level-adjustment decisions that were evaluated (drives
    /// instruction accounting).
    pub(crate) decisions: u32,
    /// Number of coefficients the RD search considered.
    pub(crate) considered: u32,
    /// Per-considered-coefficient outcome bits (LSB = first considered):
    /// 1 = the level was modified. These drive branch-prediction events —
    /// the trellis's accept/reject comparisons are the data-dependent
    /// branches that make it expensive on real hardware.
    pub(crate) changed_bits: u32,
}

/// Quantizes `coefs` (forward-transform output) in place with RD refinement.
///
/// `level` selects the strength: `0` = plain scalar quantization, `1` and
/// `2` enable the refinement (`2` additionally considers zeroing isolated
/// high-frequency coefficients more aggressively, mirroring x264's
/// "trellis on all mode decisions").
pub fn trellis_quant(
    coefs: &mut Block4x4,
    qp: Qp,
    intra: bool,
    lambda: f64,
    level: u8,
) -> TrellisOutcome {
    let orig = *coefs;
    let mut nz = quant4x4(coefs, qp, intra);
    if level == 0 || nz == 0 {
        return TrellisOutcome {
            nonzero: nz,
            decisions: 0,
            considered: 0,
            changed_bits: 0,
        };
    }

    // Transform-domain lambda: spatial SSE relates to transform SSE by the
    // transform gain (~64x for this integer DCT), so scale accordingly.
    let tlambda = lambda * 64.0;
    let mut decisions = 0u32;
    let mut considered = 0u32;
    let mut changed_bits = 0u32;

    for zi in (0..16).rev() {
        let pos = ZIGZAG4X4[zi];
        let lvl = coefs[pos];
        if lvl == 0 {
            continue;
        }
        let sign = lvl.signum();
        let mag = lvl.abs();
        let target = orig[pos];

        let err = |l: i32| -> f64 {
            let rec = dequant_coef(l * sign, pos, qp);
            let d = f64::from(target - rec);
            d * d
        };
        let rate = |l: i32| -> f64 {
            if l == 0 {
                // A zeroed coefficient costs nothing itself and shortens the
                // run coding of its neighbours (approximated as 1 bit saved).
                -1.0
            } else {
                f64::from(se_len(l * sign)) + 1.0
            }
        };

        let mut best_mag = mag;
        let mut best_cost = err(mag) + tlambda * rate(mag);
        decisions += 1;

        let down = mag - 1;
        let cost_down = err(down) + tlambda * rate(down);
        decisions += 1;
        if cost_down < best_cost {
            best_cost = cost_down;
            best_mag = down;
        }
        // Level 2 also tries outright zeroing of small high-frequency
        // coefficients even when level-1 looked better.
        if level >= 2 && mag <= 2 && zi >= 8 {
            let cost_zero = err(0) + tlambda * rate(0);
            decisions += 1;
            if cost_zero < best_cost {
                best_mag = 0;
            }
        }

        if best_mag != mag {
            if best_mag == 0 {
                nz -= 1;
            }
            coefs[pos] = best_mag * sign;
            if considered < 32 {
                changed_bits |= 1 << considered;
            }
        }
        considered += 1;
    }

    TrellisOutcome {
        nonzero: nz,
        decisions,
        considered,
        changed_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::dct4x4;

    fn sample_block(seed: i32) -> Block4x4 {
        let mut b: Block4x4 = [0; 16];
        for (i, v) in b.iter_mut().enumerate() {
            *v = ((i as i32 * 29 + seed * 13) % 41) - 20;
        }
        dct4x4(&mut b);
        b
    }

    #[test]
    fn level_zero_matches_scalar_quant() {
        let qp = Qp::new(26);
        let mut a = sample_block(1);
        let mut b = sample_block(1);
        let out = trellis_quant(&mut a, qp, false, qp.lambda(), 0);
        let nz = quant4x4(&mut b, qp, false);
        assert_eq!(a, b);
        assert_eq!(out.nonzero, nz);
        assert_eq!(out.decisions, 0);
        assert_eq!(out.considered, 0);
    }

    #[test]
    fn trellis_never_increases_levels() {
        let qp = Qp::new(28);
        let mut scalar = sample_block(2);
        let mut rd = sample_block(2);
        quant4x4(&mut scalar, qp, false);
        trellis_quant(&mut rd, qp, false, qp.lambda(), 2);
        for i in 0..16 {
            assert!(rd[i].abs() <= scalar[i].abs(), "pos {i}");
            // Signs never flip.
            assert!(rd[i] * scalar[i] >= 0);
        }
    }

    #[test]
    fn trellis_reduces_or_keeps_nonzeros() {
        let qp = Qp::new(34);
        for seed in 0..20 {
            let mut scalar = sample_block(seed);
            let mut rd = sample_block(seed);
            let base = quant4x4(&mut scalar, qp, false);
            let out = trellis_quant(&mut rd, qp, false, qp.lambda(), 2);
            assert!(out.nonzero <= base, "seed {seed}");
        }
    }

    #[test]
    fn decisions_counted_when_active() {
        let qp = Qp::new(24);
        let mut b = sample_block(3);
        let out = trellis_quant(&mut b, qp, false, qp.lambda(), 1);
        if out.nonzero > 0 {
            assert!(out.decisions > 0);
            assert!(out.considered > 0);
            // Changed bits only refer to considered coefficients.
            if out.considered < 32 {
                assert_eq!(out.changed_bits >> out.considered, 0);
            }
        }
    }

    #[test]
    fn empty_block_is_noop() {
        let qp = Qp::new(40);
        let mut b: Block4x4 = [0; 16];
        let out = trellis_quant(&mut b, qp, true, qp.lambda(), 2);
        assert_eq!(out.nonzero, 0);
        assert_eq!(out.decisions, 0);
        assert!(b.iter().all(|&v| v == 0));
    }
}
