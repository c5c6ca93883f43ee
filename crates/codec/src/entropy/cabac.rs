//! The CABAC-style backend: adaptive binary arithmetic coding.
//!
//! A classic carry-propagating range coder (the LZMA construction: 32-bit
//! range, 33-bit low with byte cache) with 11-bit adaptive probabilities per
//! context. Compared to the CAVLC backend it compresses noticeably better
//! and executes far more data-dependent work per bin — the property that
//! makes x264's CABAC a front-end and branch-predictor stressor.

use super::{ue_len, EntropyReader, EntropyWriter, PREFIX_TOO_LONG};
use crate::CodecError;

const NUM_CTX: usize = 256;
const PROB_BITS: u32 = 11;
const PROB_ONE: u32 = 1 << PROB_BITS; // 2048
const PROB_INIT: u16 = (PROB_ONE / 2) as u16;
const ADAPT_SHIFT: u32 = 5;
const TOP: u32 = 1 << 24;

/// All ones for a one bin, zero for a zero bin. Both coders pick each arm of
/// a bin with this mask instead of a branch: bins are close to coin flips
/// for the host's predictor.
#[inline(always)]
fn mask_of(bit: bool) -> u32 {
    u32::from(bit).wrapping_neg()
}

/// The probability of a zero after coding `bit` under `p`: a zero moves it
/// up by `(2048 - p) >> 5`, a one down by `p >> 5`. Both are
/// `p - ((p + k) >> 5)` in signed arithmetic, with `k = 31 - 2048` for a
/// zero (the shift floors, so the negated quotient rounds the other way)
/// and `k = 0` for a one.
#[inline(always)]
fn adapt(p: u16, mask: u32) -> u16 {
    const K_ZERO: i32 = (1 << ADAPT_SHIFT) - 1 - PROB_ONE as i32;
    let p = i32::from(p);
    let k = K_ZERO & !(mask as i32);
    (p - ((p + k) >> ADAPT_SHIFT)) as u16
}

/// Approximate information content of coding a bin under probability
/// `p_zero` of the *zero* symbol, in milli-bits. A 17-entry lookup on the
/// effective symbol probability keeps this cheap.
#[inline(always)]
fn milli_bits(p_zero: u32, mask: u32) -> u64 {
    let p_sym = (p_zero & !mask) | ((PROB_ONE - p_zero) & mask);
    // -log2(p/2048) in millibits, bucketed.
    const TABLE: [u64; 17] = [
        11_000, 4_000, 3_000, 2_415, 2_000, 1_678, 1_415, 1_193, 1_000, 830, 678, 541, 415, 300,
        193, 93, 1,
    ];
    TABLE[((p_sym >> (PROB_BITS - 4)) as usize).min(16)]
}

/// Adaptive binary arithmetic writer.
#[derive(Debug, Clone)]
pub struct CabacWriter {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
    probs: [u16; NUM_CTX],
    est_milli_bits: u64,
}

impl CabacWriter {
    /// Creates a writer with all contexts at probability one-half.
    pub fn new() -> Self {
        CabacWriter {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
            probs: [PROB_INIT; NUM_CTX],
            est_milli_bits: 0,
        }
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            let mut temp = self.cache;
            loop {
                self.out.push(temp.wrapping_add(carry));
                temp = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (self.low >> 24) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Codes one bin. The only branch on data is the renormalisation.
    #[inline(always)]
    fn bin(&mut self, ctx: u32, bit: bool) {
        let mask = mask_of(bit);
        let p = &mut self.probs[(ctx as usize) & (NUM_CTX - 1)];
        let pz = u32::from(*p);
        self.est_milli_bits += milli_bits(pz, mask);
        let bound = (self.range >> PROB_BITS) * pz;
        self.low += u64::from(bound & mask);
        self.range = (bound & !mask) | ((self.range - bound) & mask);
        *p = adapt(*p, mask);
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }
}

impl Default for CabacWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl EntropyWriter for CabacWriter {
    #[inline]
    fn put_bit(&mut self, ctx: u32, bit: bool) {
        self.bin(ctx, bit);
    }

    fn bits_estimate(&self) -> f64 {
        self.est_milli_bits as f64 / 1000.0
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }

    fn put_ue(&mut self, ctx: u32, v: u32) {
        let x = u64::from(v) + 1;
        // The last arm is the code for any `n`. Most symbols are the 1-, 3-
        // and 5-bin codes: those run straight through, every context a
        // constant offset.
        match ue_len(v) {
            1 => self.bin(ctx, true),
            2 => {
                self.bin(ctx, false);
                self.bin(ctx + 1, true);
                self.bin(ctx + 4, x & 1 != 0);
            }
            3 => {
                self.bin(ctx, false);
                self.bin(ctx + 1, false);
                self.bin(ctx + 2, true);
                self.bin(ctx + 5, x & 2 != 0);
                self.bin(ctx + 4, x & 1 != 0);
            }
            n => {
                for i in 0..n - 1 {
                    self.bin(ctx + i.min(3), false);
                }
                self.bin(ctx + (n - 1).min(3), true);
                for i in (0..n - 1).rev() {
                    self.bin(ctx + 4 + i.min(3), (x >> i) & 1 != 0);
                }
            }
        }
    }
}

/// Adaptive binary arithmetic reader; the exact mirror of [`CabacWriter`].
#[derive(Debug, Clone)]
pub struct CabacReader<'a> {
    code: u32,
    range: u32,
    data: &'a [u8],
    pos: usize,
    overruns: usize,
    probs: [u16; NUM_CTX],
}

impl<'a> CabacReader<'a> {
    /// Creates a reader over a CABAC payload.
    pub fn new(data: &'a [u8]) -> Self {
        let mut r = CabacReader {
            code: 0,
            range: u32::MAX,
            data,
            pos: 0,
            overruns: 0,
            probs: [PROB_INIT; NUM_CTX],
        };
        // The encoder's first emitted byte is the initial zero cache.
        for _ in 0..5 {
            r.code = (r.code << 8) | u32::from(r.next_byte());
        }
        r
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        if let Some(&b) = self.data.get(self.pos) {
            self.pos += 1;
            b
        } else {
            self.overruns += 1;
            0
        }
    }

    /// Decodes one bin; the test for an exhausted payload comes before every
    /// bin, as the padding it allows (eight zero bytes) is counted in bins.
    #[inline(always)]
    fn bin(&mut self, ctx: u32) -> Result<bool, CodecError> {
        if self.overruns > 8 {
            return Err(CodecError::CorruptBitstream {
                offset: self.pos,
                context: "arithmetic payload exhausted",
            });
        }
        let p = &mut self.probs[(ctx as usize) & (NUM_CTX - 1)];
        let bound = (self.range >> PROB_BITS) * u32::from(*p);
        let bit = self.code >= bound;
        let mask = mask_of(bit);
        self.code -= bound & mask;
        self.range = (bound & !mask) | ((self.range - bound) & mask);
        *p = adapt(*p, mask);
        while self.range < TOP {
            self.code = (self.code << 8) | u32::from(self.next_byte());
            self.range <<= 8;
        }
        Ok(bit)
    }
}

impl EntropyReader for CabacReader<'_> {
    #[inline]
    fn get_bit(&mut self, ctx: u32) -> Result<bool, CodecError> {
        self.bin(ctx)
    }

    fn get_ue(&mut self, ctx: u32) -> Result<u32, CodecError> {
        let mut zeros = 0u32;
        while !self.bin(ctx + zeros.min(3))? {
            zeros += 1;
            if zeros > 32 {
                return Err(PREFIX_TOO_LONG);
            }
        }
        let mut info = 0u64;
        for i in (0..zeros).rev() {
            info = (info << 1) | u64::from(self.bin(ctx + 4 + i.min(3))?);
        }
        Ok(((1u64 << zeros) + info - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::ctx;

    #[test]
    fn mask_arithmetic_equals_both_arms() {
        use crate::entropy::oracle;
        for p in 0..=PROB_ONE as u16 {
            for bit in [false, true] {
                let mask = mask_of(bit);
                assert_eq!(adapt(p, mask), oracle::adapt(p, bit), "p {p} bit {bit}");
                assert_eq!(
                    milli_bits(u32::from(p), mask),
                    oracle::milli_bits(p, bit),
                    "p {p} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn bit_sequence_roundtrip() {
        let mut w = CabacWriter::new();
        let pattern: Vec<bool> = (0..5000).map(|i| (i * 7) % 11 < 4).collect();
        for (i, &b) in pattern.iter().enumerate() {
            w.put_bit((i % 6) as u32, b);
        }
        let bytes = w.finish();
        let mut r = CabacReader::new(&bytes);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(r.get_bit((i % 6) as u32).unwrap(), b, "bit {i}");
        }
    }

    #[test]
    fn ue_se_roundtrip() {
        let mut w = CabacWriter::new();
        let values: Vec<u32> = (0..500).map(|i| (i * i) % 3000).collect();
        for &v in &values {
            w.put_ue(ctx::LEVEL, v);
            w.put_se(ctx::MVD_X, v as i32 - 1500);
        }
        let bytes = w.finish();
        let mut r = CabacReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_ue(ctx::LEVEL).unwrap(), v);
            assert_eq!(r.get_se(ctx::MVD_X).unwrap(), v as i32 - 1500);
        }
    }

    #[test]
    fn biased_input_compresses_below_one_bit_per_bin() {
        let mut w = CabacWriter::new();
        let n = 20_000;
        for i in 0..n {
            w.put_bit(3, i % 16 == 0); // heavily biased toward false
        }
        let bytes = w.finish();
        assert!(
            (bytes.len() as u64) * 8 < n / 2,
            "adaptive coder should beat 0.5 bpb on a 1/16 biased source: {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn estimate_tracks_actual_size() {
        let mut w = CabacWriter::new();
        for i in 0..10_000u32 {
            w.put_bit(i % 4, (u64::from(i) * 2_654_435_761) % 7 < 3);
        }
        let est = w.bits_estimate();
        let actual = w.finish().len() as f64 * 8.0;
        let ratio = est / actual;
        assert!(
            (0.7..1.4).contains(&ratio),
            "estimate off: {est} vs {actual}"
        );
    }

    #[test]
    fn truncated_payload_errors_not_panics() {
        let mut w = CabacWriter::new();
        for i in 0..1000u32 {
            w.put_ue(0, i % 97);
        }
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() / 4);
        let mut r = CabacReader::new(&bytes);
        let mut errored = false;
        for _ in 0..1000 {
            match r.get_ue(0) {
                Ok(_) => {}
                Err(_) => {
                    errored = true;
                    break;
                }
            }
        }
        assert!(errored);
    }

    #[test]
    fn cabac_beats_cavlc_on_biased_syntax() {
        use crate::entropy::cavlc::CavlcWriter;
        // Skewed ue values (mostly 0/1) — CABAC should shrink them.
        let vals: Vec<u32> = (0..20_000)
            .map(|i| if i % 9 == 0 { 3 } else { 0 })
            .collect();
        let mut cw = CabacWriter::new();
        let mut vw = CavlcWriter::new();
        for &v in &vals {
            cw.put_ue(ctx::NZ_COUNT, v);
            vw.put_ue(ctx::NZ_COUNT, v);
        }
        let cb = cw.finish().len();
        let vb = vw.finish().len();
        assert!(cb < vb, "cabac {cb} should beat cavlc {vb}");
    }
}
