//! The bin-by-bin coders the backends are tested against.
//!
//! [`put_ue`] / [`get_ue`] are the exp-Golomb binarization as one
//! `put_bit` / `get_bit` call per bin, and the four coders below code each
//! bin the plain way — CABAC with a two-armed `if` on the bit, CAVLC one
//! bit per call — and take their symbols through those two functions.

use super::{EntropyReader, EntropyWriter};
use crate::CodecError;

/// Codes `v` as exp-Golomb bins under `ctx`, one `put_bit` per bin.
pub fn put_ue<W: EntropyWriter>(w: &mut W, ctx: u32, v: u32) {
    let x = u64::from(v) + 1;
    let n = 64 - x.leading_zeros(); // bit length of x
    for i in 0..n - 1 {
        w.put_bit(ctx + i.min(3), false);
    }
    w.put_bit(ctx + (n - 1).min(3), true);
    for i in (0..n - 1).rev() {
        let bit = (x >> i) & 1 != 0;
        w.put_bit(ctx + 4 + i.min(3), bit);
    }
}

/// Decodes an exp-Golomb value under `ctx`, one `get_bit` per bin.
pub fn get_ue<R: EntropyReader>(r: &mut R, ctx: u32) -> Result<u32, CodecError> {
    let mut zeros = 0u32;
    while !r.get_bit(ctx + zeros.min(3))? {
        zeros += 1;
        if zeros > 32 {
            return Err(CodecError::CorruptBitstream {
                offset: 0,
                context: "exp-golomb prefix",
            });
        }
    }
    let mut info = 0u64;
    for i in (0..zeros).rev() {
        let bit = r.get_bit(ctx + 4 + i.min(3))?;
        info = (info << 1) | u64::from(bit);
    }
    Ok(((1u64 << zeros) + info - 1) as u32)
}

const NUM_CTX: usize = 256;
const PROB_BITS: u32 = 11;
const PROB_ONE: u16 = 1 << PROB_BITS; // 2048
const PROB_INIT: u16 = PROB_ONE / 2;
const ADAPT_SHIFT: u16 = 5;
const TOP: u32 = 1 << 24;

/// The two-armed probability update.
pub fn adapt(p: u16, bit: bool) -> u16 {
    if bit {
        p - (p >> ADAPT_SHIFT)
    } else {
        p + ((PROB_ONE - p) >> ADAPT_SHIFT)
    }
}

/// The estimate's increment, selected by an `if` on the bit.
pub fn milli_bits(p_zero: u16, bit: bool) -> u64 {
    let p_sym = if bit { PROB_ONE - p_zero } else { p_zero };
    const TABLE: [u64; 17] = [
        11_000, 4_000, 3_000, 2_415, 2_000, 1_678, 1_415, 1_193, 1_000, 830, 678, 541, 415, 300,
        193, 93, 1,
    ];
    TABLE[(usize::from(p_sym) * 16 / usize::from(PROB_ONE)).min(16)]
}

/// Range coder writer, one branch per bin.
#[derive(Debug, Clone)]
pub struct CabacWriter {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
    probs: Vec<u16>,
    est_milli_bits: u64,
}

impl CabacWriter {
    pub fn new() -> Self {
        CabacWriter {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
            probs: vec![PROB_INIT; NUM_CTX],
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
}

impl EntropyWriter for CabacWriter {
    fn put_bit(&mut self, ctx: u32, bit: bool) {
        let p = &mut self.probs[(ctx as usize) & (NUM_CTX - 1)];
        self.est_milli_bits += milli_bits(*p, bit);
        let bound = (self.range >> PROB_BITS) * u32::from(*p);
        if !bit {
            self.range = bound;
        } else {
            self.low += u64::from(bound);
            self.range -= bound;
        }
        *p = adapt(*p, bit);
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
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
        put_ue(self, ctx, v);
    }
}

/// Range coder reader, one branch per bin.
#[derive(Debug, Clone)]
pub struct CabacReader<'a> {
    code: u32,
    range: u32,
    data: &'a [u8],
    pos: usize,
    overruns: usize,
    probs: Vec<u16>,
}

impl<'a> CabacReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        let mut r = CabacReader {
            code: 0,
            range: u32::MAX,
            data,
            pos: 0,
            overruns: 0,
            probs: vec![PROB_INIT; NUM_CTX],
        };
        for _ in 0..5 {
            r.code = (r.code << 8) | u32::from(r.next_byte());
        }
        r
    }

    fn next_byte(&mut self) -> u8 {
        if self.pos < self.data.len() {
            let b = self.data[self.pos];
            self.pos += 1;
            b
        } else {
            self.overruns += 1;
            0
        }
    }
}

impl EntropyReader for CabacReader<'_> {
    fn get_bit(&mut self, ctx: u32) -> Result<bool, CodecError> {
        if self.overruns > 8 {
            return Err(CodecError::CorruptBitstream {
                offset: self.pos,
                context: "arithmetic payload exhausted",
            });
        }
        let p = &mut self.probs[(ctx as usize) & (NUM_CTX - 1)];
        let bound = (self.range >> PROB_BITS) * u32::from(*p);
        let bit = self.code >= bound;
        if !bit {
            self.range = bound;
        } else {
            self.code -= bound;
            self.range -= bound;
        }
        *p = adapt(*p, bit);
        while self.range < TOP {
            self.code = (self.code << 8) | u32::from(self.next_byte());
            self.range <<= 8;
        }
        Ok(bit)
    }

    fn get_ue(&mut self, ctx: u32) -> Result<u32, CodecError> {
        get_ue(self, ctx)
    }
}

/// Raw bits, appended one per call.
#[derive(Debug, Default, Clone)]
pub struct CavlcWriter {
    buf: Vec<u8>,
    acc: u32,
    nbits: u32,
    total_bits: u64,
}

impl CavlcWriter {
    pub fn new() -> Self {
        Self::default()
    }
}

impl EntropyWriter for CavlcWriter {
    fn put_bit(&mut self, _ctx: u32, bit: bool) {
        self.acc = (self.acc << 1) | u32::from(bit);
        self.nbits += 1;
        self.total_bits += 1;
        if self.nbits == 8 {
            self.buf.push(self.acc as u8);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    fn bits_estimate(&self) -> f64 {
        self.total_bits as f64
    }

    fn finish(mut self) -> Vec<u8> {
        while self.nbits != 0 {
            self.put_bit(0, false);
        }
        self.buf
    }

    fn put_ue(&mut self, ctx: u32, v: u32) {
        put_ue(self, ctx, v);
    }
}

/// Raw bits, read one per call.
#[derive(Debug, Clone)]
pub struct CavlcReader<'a> {
    data: &'a [u8],
    bit_pos: usize,
}

impl<'a> CavlcReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        CavlcReader { data, bit_pos: 0 }
    }
}

impl EntropyReader for CavlcReader<'_> {
    fn get_bit(&mut self, _ctx: u32) -> Result<bool, CodecError> {
        let byte = self.bit_pos / 8;
        if byte >= self.data.len() {
            return Err(CodecError::CorruptBitstream {
                offset: byte,
                context: "bit read past end",
            });
        }
        let bit = (self.data[byte] >> (7 - (self.bit_pos % 8))) & 1 != 0;
        self.bit_pos += 1;
        Ok(bit)
    }

    fn get_ue(&mut self, ctx: u32) -> Result<u32, CodecError> {
        get_ue(self, ctx)
    }
}
