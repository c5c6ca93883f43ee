//! Raw bit-level I/O used by the CAVLC backend.

use crate::CodecError;

/// An MSB-first bit writer.
///
/// Bits collect in a 64-bit accumulator and leave it four bytes at a time,
/// so a whole code costs one shift-or and, every fourth byte, one append.
#[derive(Debug, Default, Clone)]
pub(crate) struct BitWriter {
    buf: Vec<u8>,
    /// The low `nbits` bits are pending output, oldest bit highest.
    acc: u64,
    /// Always below 32 between calls.
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    #[cfg(test)]
    fn new() -> Self {
        Self::default()
    }

    /// Appends a single bit.
    #[inline]
    pub(crate) fn put_bit(&mut self, bit: bool) {
        self.put_bits(u32::from(bit), 1);
    }

    /// Appends the low `n` bits of `v`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    #[inline]
    pub(crate) fn put_bits(&mut self, v: u32, n: u32) {
        assert!(n <= 32);
        let v = u64::from(v) & ((1u64 << n) - 1);
        self.acc = (self.acc << n) | v;
        self.nbits += n;
        if self.nbits >= 32 {
            self.nbits -= 32;
            let word = (self.acc >> self.nbits) as u32;
            self.buf.extend_from_slice(&word.to_be_bytes());
        }
    }

    /// Total bits written so far (before padding).
    pub(crate) fn bit_len(&self) -> u64 {
        self.buf.len() as u64 * 8 + u64::from(self.nbits)
    }

    /// Pads with zero bits to a byte boundary and returns the bytes.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let pad = (8 - self.nbits % 8) % 8;
        let tail = (self.acc << pad) as u32;
        let bytes = ((self.nbits + pad) / 8) as usize;
        self.buf.extend_from_slice(&tail.to_be_bytes()[4 - bytes..]);
        self.buf
    }
}

/// An MSB-first bit reader over a byte slice.
#[derive(Debug, Clone)]
pub(crate) struct BitReader<'a> {
    data: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub(crate) fn new(data: &'a [u8]) -> Self {
        BitReader { data, bit_pos: 0 }
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CorruptBitstream`] at end of data.
    #[inline]
    pub(crate) fn get_bit(&mut self) -> Result<bool, CodecError> {
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

    /// The next 57 bits or more, left-aligned in a word, if eight whole
    /// bytes remain from the current byte on; `None` near the end of the
    /// data, where the caller reads bit by bit so that running out is found
    /// at the bit it happens on.
    #[inline]
    pub(crate) fn peek_window(&self) -> Option<u64> {
        let byte = self.bit_pos / 8;
        let bytes = self.data.get(byte..byte + 8)?;
        let word = u64::from_be_bytes(bytes.try_into().expect("eight bytes"));
        Some(word << (self.bit_pos % 8))
    }

    /// Skips `n` bits that [`Self::peek_window`] showed.
    #[inline]
    pub(crate) fn skip(&mut self, n: u32) {
        self.bit_pos += n as usize;
    }

    /// Reads `n` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CorruptBitstream`] if fewer than `n` bits remain.
    pub(crate) fn get_bits(&mut self, n: u32) -> Result<u32, CodecError> {
        let mut v = 0u32;
        for _ in 0..n {
            v = (v << 1) | u32::from(self.get_bit()?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.put_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit().unwrap(), b);
        }
    }

    #[test]
    fn multibit_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0b1011, 4);
        w.put_bits(0xABCD, 16);
        w.put_bits(0, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(4).unwrap(), 0b1011);
        assert_eq!(r.get_bits(16).unwrap(), 0xABCD);
        assert_eq!(r.get_bits(3).unwrap(), 0);
    }

    #[test]
    #[should_panic]
    fn put_bits_over_32_panics() {
        let mut w = BitWriter::new();
        w.put_bits(0, 33);
    }

    #[test]
    fn read_past_end_errors() {
        let bytes = BitWriter::new().finish();
        assert!(bytes.is_empty());
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bit().is_err());
    }
}
