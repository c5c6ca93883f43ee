//! Entropy coding backends.
//!
//! The bitstream syntax (mode flags, motion vector differences, run/level
//! coefficient codes) is expressed against the [`EntropyWriter`] /
//! [`EntropyReader`] traits, with two interchangeable backends:
//!
//! * [`cavlc::CavlcWriter`] — plain exp-Golomb bit codes (x264's CAVLC
//!   class: cheap, used by the `ultrafast` preset);
//! * [`cabac::CabacWriter`] — adaptive binary arithmetic coding with
//!   per-syntax-element contexts (x264's CABAC: denser output, heavier and
//!   far branchier — which is exactly why the paper's front-end/branch
//!   observations depend on it).
//!
//! Values are binarized to exp-Golomb bit patterns; in the CABAC backend
//! every bin is arithmetic-coded under a context selected from the syntax
//! element class and bin position, so both backends share one syntax.

mod bitio;
pub mod cabac;
pub mod cavlc;
#[cfg(test)]
mod oracle;

use crate::CodecError;

/// Context-class base identifiers for syntax elements. Each class reserves
/// a small range of contexts for its bin positions.
pub(crate) mod ctx {
    /// Macroblock skip flag.
    pub(crate) const SKIP: u32 = 0;
    /// Macroblock mode.
    pub(crate) const MB_MODE: u32 = 8;
    /// Reference index.
    pub(crate) const REF_IDX: u32 = 16;
    /// Motion vector difference, x component.
    pub(crate) const MVD_X: u32 = 24;
    /// Motion vector difference, y component.
    pub(crate) const MVD_Y: u32 = 32;
    /// Coded-block flag per 4x4 block.
    pub(crate) const CBF: u32 = 40;
    /// Number of nonzero coefficients in a block.
    pub(crate) const NZ_COUNT: u32 = 48;
    /// Zero-run length before a coefficient.
    pub(crate) const RUN: u32 = 64;
    /// Coefficient level magnitude.
    pub(crate) const LEVEL: u32 = 80;
    /// Per-macroblock QP delta.
    pub(crate) const QP_DELTA: u32 = 104;
    /// Intra prediction mode.
    pub(crate) const IPRED: u32 = 112;
}

/// Bit length of `v + 1`: an exp-Golomb code of `v` is `n - 1` zero prefix
/// bins, a one, and the low `n - 1` bits of `v + 1` — `2n - 1` bins in all.
#[inline]
pub(crate) fn ue_len(v: u32) -> u32 {
    64 - (u64::from(v) + 1).leading_zeros()
}

/// The unsigned value a signed one is coded as: 0, 1, -1, 2, -2, ... map
/// to 0, 1, 2, 3, 4, ... up to -(2^31 - 1) at `u32::MAX - 1`.
///
/// # Panics
///
/// Panics on `i32::MIN`, the one value with no code: its image, 2^32, is
/// one past `u32::MAX`.
#[inline]
pub(crate) fn se_to_ue(v: i32) -> u32 {
    assert!(v != i32::MIN, "i32::MIN has no signed exp-Golomb code");
    if v <= 0 {
        (-2i64 * i64::from(v)) as u32
    } else {
        (2i64 * i64::from(v) - 1) as u32
    }
}

/// A sink for entropy-coded syntax elements.
///
/// The unit of coding is the *symbol*. An exp-Golomb value `v` is, in order:
/// prefix bin `i` (zero for `i < n - 1`, then a one) under context
/// `ctx + min(i, 3)`, then suffix bit `i` of `v + 1` for `i` from `n - 2`
/// down to 0 under `ctx + 4 + min(i, 3)`. A backend owns how it gets those
/// bins out — it must keep their order, the context of each, the adaptation
/// after each, what each adds to [`Self::bits_estimate`] and every error
/// verdict of its reader; it is free to batch everything else.
pub trait EntropyWriter {
    /// Codes one binary decision under the given context.
    fn put_bit(&mut self, ctx: u32, bit: bool);

    /// Running estimate of emitted bits (exact for CAVLC, fractional
    /// information content for CABAC) — drives rate control.
    fn bits_estimate(&self) -> f64;

    /// Finalizes the stream and returns the payload bytes.
    fn finish(self) -> Vec<u8>;

    /// Codes an unsigned value as exp-Golomb bins under `ctx`.
    fn put_ue(&mut self, ctx: u32, v: u32);

    /// Codes a signed value (zigzag-mapped) as exp-Golomb bins under `ctx`.
    ///
    /// # Panics
    ///
    /// Panics on `i32::MIN`, which has no code: passing it is a bug.
    #[inline]
    fn put_se(&mut self, ctx: u32, v: i32) {
        self.put_ue(ctx, se_to_ue(v));
    }
}

/// A source of entropy-coded syntax elements; the mirror of [`EntropyWriter`].
pub trait EntropyReader {
    /// Decodes one binary decision under the given context.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CorruptBitstream`] when the payload is exhausted.
    fn get_bit(&mut self, ctx: u32) -> Result<bool, CodecError>;

    /// Decodes an unsigned exp-Golomb value under `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::CorruptBitstream`] on truncated or absurdly
    /// long codes (more than 32 prefix zeros).
    fn get_ue(&mut self, ctx: u32) -> Result<u32, CodecError>;

    /// Decodes a signed exp-Golomb value under `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError::CorruptBitstream`] from [`Self::get_ue`],
    /// and returns it ("signed value out of range") for the code of
    /// `u32::MAX`, whose value, 2^31, no `i32` holds.
    #[inline]
    fn get_se(&mut self, ctx: u32) -> Result<i32, CodecError> {
        let v = self.get_ue(ctx)?;
        if v == u32::MAX {
            return Err(SIGNED_OUT_OF_RANGE);
        }
        Ok(if v & 1 == 1 {
            v.div_ceil(2) as i32
        } else {
            -((v / 2) as i32)
        })
    }
}

/// The verdict on a signed exp-Golomb code past `i32::MAX`.
const SIGNED_OUT_OF_RANGE: CodecError = CodecError::CorruptBitstream {
    offset: 0,
    context: "signed value out of range",
};

/// The verdict on an exp-Golomb prefix of more than 32 zeros.
const PREFIX_TOO_LONG: CodecError = CodecError::CorruptBitstream {
    offset: 0,
    context: "exp-golomb prefix",
};

#[cfg(test)]
mod tests {
    use super::cabac::{CabacReader, CabacWriter};
    use super::cavlc::{CavlcReader, CavlcWriter};
    use super::*;
    use vtx_rng::Xoshiro256pp;

    #[test]
    fn ue_se_roundtrip_via_cavlc() {
        let mut w = CavlcWriter::new();
        let values = [0u32, 1, 2, 3, 7, 8, 255, 1 << 20, u32::MAX - 1];
        for &v in &values {
            w.put_ue(ctx::LEVEL, v);
        }
        let signed = [0i32, 1, -1, 5, -5, 1 << 20, -(1 << 20)];
        for &v in &signed {
            w.put_se(ctx::MVD_X, v);
        }
        let bytes = w.finish();
        let mut r = CavlcReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.get_ue(ctx::LEVEL).unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.get_se(ctx::MVD_X).unwrap(), v);
        }
    }

    /// Both ends of the signed range round-trip on both backends, and the
    /// code past `i32::MAX` — that of `u32::MAX` — is refused, not wrapped
    /// to `i32::MIN`.
    #[test]
    fn signed_range_ends_round_trip_and_the_code_past_them_is_refused() {
        const ENDS: [i32; 4] = [i32::MAX, -i32::MAX, i32::MAX - 1, 0];
        fn write<W: EntropyWriter>(mut w: W) -> Vec<u8> {
            for v in ENDS {
                w.put_se(ctx::MVD_X, v);
            }
            w.put_ue(ctx::LEVEL, u32::MAX);
            w.finish()
        }
        fn read<R: EntropyReader>(mut r: R) {
            for v in ENDS {
                assert_eq!(r.get_se(ctx::MVD_X), Ok(v));
            }
            assert_eq!(r.get_se(ctx::LEVEL), Err(SIGNED_OUT_OF_RANGE));
        }
        read(CabacReader::new(&write(CabacWriter::new())));
        read(CavlcReader::new(&write(CavlcWriter::new())));
    }

    #[test]
    #[should_panic(expected = "i32::MIN has no signed exp-Golomb code")]
    fn put_se_of_i32_min_panics_on_cabac() {
        CabacWriter::new().put_se(ctx::MVD_X, i32::MIN);
    }

    #[test]
    #[should_panic(expected = "i32::MIN has no signed exp-Golomb code")]
    fn put_se_of_i32_min_panics_on_cavlc() {
        CavlcWriter::new().put_se(ctx::LEVEL, i32::MIN);
    }

    #[test]
    fn truncated_stream_errors() {
        let mut w = CavlcWriter::new();
        w.put_ue(0, 300);
        let mut bytes = w.finish();
        bytes.truncate(1);
        let mut r = CavlcReader::new(&bytes);
        // May succeed partially, but must eventually error instead of panic.
        let mut err = false;
        for _ in 0..10 {
            if r.get_ue(0).is_err() {
                err = true;
                break;
            }
        }
        assert!(err);
    }

    /// One call on a writer, and what its reader must give back.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Sym {
        Bit(u32, bool),
        Ue(u32, u32),
        Se(u32, i32),
    }

    /// `v` reinterpreted as a signed symbol; `i32::MIN` has no code, so it
    /// becomes its neighbour.
    fn signed(class: u32, v: u32) -> Sym {
        Sym::Se(class, (v as i32).max(i32::MIN + 1))
    }

    /// `n` seeded symbols over every context class: mostly exp-Golomb codes
    /// with small values as real syntax has, some of every length up to the
    /// 65-bin code of `u32::MAX`, flags in between.
    fn seeded_symbols(n: usize, seed: u64) -> Vec<Sym> {
        const CLASSES: [u32; 8] = [
            ctx::MB_MODE,
            ctx::MVD_X,
            ctx::NZ_COUNT,
            ctx::NZ_COUNT + 2,
            ctx::RUN,
            ctx::LEVEL,
            ctx::LEVEL + 2,
            ctx::IPRED,
        ];
        let mut rng = Xoshiro256pp::new(seed);
        (0..n)
            .map(|_| {
                let class = CLASSES[rng.next_range(8) as usize];
                let width = if rng.next_range(4) == 0 {
                    1 + rng.next_range(32)
                } else {
                    1 + rng.next_range(4)
                };
                let v = (rng.next_u64() >> (64 - width)) as u32;
                match rng.next_range(5) {
                    0 => Sym::Bit(ctx::CBF + rng.next_range(4) as u32, v & 1 != 0),
                    1 | 2 => signed(class, v),
                    _ => Sym::Ue(class, v),
                }
            })
            .collect()
    }

    /// 0, 1, every 2^k - 1 and 2^k, the two largest values, as both kinds of
    /// symbol.
    fn edge_symbols() -> Vec<Sym> {
        let mut values = vec![0u32, 1, u32::MAX - 1, u32::MAX];
        for k in 1..32 {
            values.extend([(1u32 << k) - 1, 1 << k]);
        }
        values
            .iter()
            .flat_map(|&v| [Sym::Ue(ctx::LEVEL, v), signed(ctx::MVD_Y, v)])
            .collect()
    }

    /// Writes `syms` to a backend and to its oracle, comparing the running
    /// estimate after every symbol and the bytes at the end.
    fn write_both<W: EntropyWriter, O: EntropyWriter>(mut w: W, mut o: O, syms: &[Sym]) -> Vec<u8> {
        for (i, &sym) in syms.iter().enumerate() {
            match sym {
                Sym::Bit(c, b) => {
                    w.put_bit(c, b);
                    o.put_bit(c, b);
                }
                Sym::Ue(c, v) => {
                    w.put_ue(c, v);
                    oracle::put_ue(&mut o, c, v);
                }
                Sym::Se(c, v) => {
                    w.put_se(c, v);
                    oracle::put_ue(&mut o, c, se_to_ue(v));
                }
            }
            assert_eq!(w.bits_estimate(), o.bits_estimate(), "symbol {i} {sym:?}");
        }
        let bytes = w.finish();
        assert_eq!(bytes, o.finish());
        bytes
    }

    /// Reads `syms` back, each as the kind of symbol it was written as, until
    /// the first error.
    fn read_all<R: EntropyReader>(mut r: R, syms: &[Sym]) -> Vec<Result<Sym, CodecError>> {
        let mut out = Vec::with_capacity(syms.len());
        for &sym in syms {
            let got = match sym {
                Sym::Bit(c, _) => r.get_bit(c).map(|b| Sym::Bit(c, b)),
                Sym::Ue(c, _) => r.get_ue(c).map(|v| Sym::Ue(c, v)),
                Sym::Se(c, _) => r.get_se(c).map(|v| Sym::Se(c, v)),
            };
            let stop = got.is_err();
            out.push(got);
            if stop {
                break;
            }
        }
        out
    }

    /// Whether a reader gave every symbol back.
    fn all_ok(got: &[Result<Sym, CodecError>], syms: &[Sym]) -> bool {
        got.len() == syms.len() && got.iter().zip(syms).all(|(g, s)| g.as_ref() == Ok(s))
    }

    /// The first place two readers' results differ, if any: a short failure
    /// message where the vectors themselves would be megabytes.
    fn first_difference<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) -> Option<String> {
        let at = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))?;
        Some(format!("at {at}: {:?} != {:?}", got.get(at), want.get(at)))
    }

    #[test]
    fn backends_equal_the_bin_by_bin_oracle() {
        let mut syms = edge_symbols();
        syms.extend(seeded_symbols(100_000, 21));

        let want: Vec<_> = syms.iter().copied().map(Ok).collect();

        let bytes = write_both(CabacWriter::new(), oracle::CabacWriter::new(), &syms);
        let got = read_all(CabacReader::new(&bytes), &syms);
        assert_eq!(first_difference(&got, &want), None);
        let got = read_all(oracle::CabacReader::new(&bytes), &syms);
        assert_eq!(first_difference(&got, &want), None);

        let bytes = write_both(CavlcWriter::new(), oracle::CavlcWriter::new(), &syms);
        let got = read_all(CavlcReader::new(&bytes), &syms);
        assert_eq!(first_difference(&got, &want), None);
        let got = read_all(oracle::CavlcReader::new(&bytes), &syms);
        assert_eq!(first_difference(&got, &want), None);
    }

    #[test]
    fn readers_equal_the_oracle_on_every_truncation() {
        // Long codes included: they take the CAVLC reader's bitwise path in
        // the middle of the payload, short ones only near its end.
        let mut syms = seeded_symbols(600, 5);
        syms.extend(edge_symbols());
        syms.extend(seeded_symbols(200, 6));

        let bytes = write_both(CabacWriter::new(), oracle::CabacWriter::new(), &syms);
        let mut clean = 0;
        for len in 0..=bytes.len() {
            let got = read_all(CabacReader::new(&bytes[..len]), &syms);
            let want = read_all(oracle::CabacReader::new(&bytes[..len]), &syms);
            assert_eq!(first_difference(&got, &want), None, "cabac cut at {len}");
            clean += usize::from(all_ok(&got, &syms));
        }
        // The range coder flushes more bytes than the last bins need.
        assert!((1..=5).contains(&clean), "{clean} lengths decoded cleanly");

        let bytes = write_both(CavlcWriter::new(), oracle::CavlcWriter::new(), &syms);
        for len in 0..=bytes.len() {
            let got = read_all(CavlcReader::new(&bytes[..len]), &syms);
            let want = read_all(oracle::CavlcReader::new(&bytes[..len]), &syms);
            assert_eq!(first_difference(&got, &want), None, "cavlc cut at {len}");
            assert_eq!(
                all_ok(&got, &syms),
                len == bytes.len(),
                "cavlc cut at {len}"
            );
        }
    }

    #[test]
    fn over_long_prefix_is_the_same_verdict_everywhere() {
        // 33 zero bits, then ones: one zero too many for any code.
        let mut bytes = vec![0u8; 4];
        bytes.extend([0x7F; 12]);
        let want = Err(PREFIX_TOO_LONG);
        assert_eq!(CavlcReader::new(&bytes).get_ue(0), want);
        assert_eq!(oracle::CavlcReader::new(&bytes).get_ue(0), want);
        // At the end of a payload the missing bit is found first.
        let short = &bytes[..4];
        let got = CavlcReader::new(short).get_ue(0);
        assert_eq!(got, oracle::CavlcReader::new(short).get_ue(0));
        assert!(matches!(
            got,
            Err(CodecError::CorruptBitstream { offset: 4, .. })
        ));
    }
}
