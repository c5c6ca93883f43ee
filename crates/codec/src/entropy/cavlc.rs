//! The CAVLC-style backend: syntax bins map directly to raw bits.

use super::bitio::{BitReader, BitWriter};
use super::{ue_len, EntropyReader, EntropyWriter, PREFIX_TOO_LONG};
use crate::CodecError;

/// Context-free variable-length writer (exp-Golomb bit codes).
#[derive(Debug, Default, Clone)]
pub struct CavlcWriter {
    bits: BitWriter,
}

impl CavlcWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EntropyWriter for CavlcWriter {
    #[inline]
    fn put_bit(&mut self, _ctx: u32, bit: bool) {
        self.bits.put_bit(bit);
    }

    fn bits_estimate(&self) -> f64 {
        self.bits.bit_len() as f64
    }

    fn finish(self) -> Vec<u8> {
        self.bits.finish()
    }

    #[inline]
    fn put_ue(&mut self, _ctx: u32, v: u32) {
        let x = u64::from(v) + 1;
        let n = ue_len(v);
        if n <= 16 {
            // `x` in a field of `2n - 1` bits brings its own zero prefix.
            self.bits.put_bits(x as u32, 2 * n - 1);
        } else {
            self.bits.put_bits(0, n - 1);
            self.bits.put_bits((x >> 1) as u32, n - 1);
            self.bits.put_bits(x as u32, 1);
        }
    }
}

/// Reader counterpart of [`CavlcWriter`].
#[derive(Debug, Clone)]
pub struct CavlcReader<'a> {
    bits: BitReader<'a>,
}

impl<'a> CavlcReader<'a> {
    /// Creates a reader over a CAVLC payload.
    pub fn new(data: &'a [u8]) -> Self {
        CavlcReader {
            bits: BitReader::new(data),
        }
    }
}

impl EntropyReader for CavlcReader<'_> {
    #[inline]
    fn get_bit(&mut self, _ctx: u32) -> Result<bool, CodecError> {
        self.bits.get_bit()
    }

    #[inline]
    fn get_ue(&mut self, _ctx: u32) -> Result<u32, CodecError> {
        if let Some(window) = self.bits.peek_window() {
            let zeros = window.leading_zeros();
            if zeros <= 24 {
                // The whole code, `2 * zeros + 1 <= 49` bits, is in view.
                let len = 2 * zeros + 1;
                self.bits.skip(len);
                return Ok((window >> (64 - len)) as u32 - 1);
            }
        }
        self.get_ue_bitwise()
    }
}

impl CavlcReader<'_> {
    /// Long codes and codes near the end of the payload, a bit at a time:
    /// the path that finds where a payload runs out.
    #[cold]
    fn get_ue_bitwise(&mut self) -> Result<u32, CodecError> {
        let mut zeros = 0u32;
        while !self.bits.get_bit()? {
            zeros += 1;
            if zeros > 32 {
                return Err(PREFIX_TOO_LONG);
            }
        }
        let info = u64::from(self.bits.get_bits(zeros)?);
        Ok(((1u64 << zeros) + info - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_syntax_roundtrip() {
        let mut w = CavlcWriter::new();
        w.put_bit(0, true);
        w.put_ue(8, 17);
        w.put_se(16, -9);
        w.put_bit(0, false);
        let est = w.bits_estimate();
        assert!(est > 0.0);
        let bytes = w.finish();
        let mut r = CavlcReader::new(&bytes);
        assert!(r.get_bit(0).unwrap());
        assert_eq!(r.get_ue(8).unwrap(), 17);
        assert_eq!(r.get_se(16).unwrap(), -9);
        assert!(!r.get_bit(0).unwrap());
    }

    #[test]
    fn estimate_equals_exact_bits() {
        let mut w = CavlcWriter::new();
        w.put_ue(0, 5); // ue(5) = 5 bits
        assert_eq!(w.bits_estimate(), 5.0);
    }
}
