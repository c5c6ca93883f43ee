//! ISO-BMFF box primitives: `u32` big-endian size + fourcc, nested by
//! containment.
//!
//! Every box is `[size: u32 BE][fourcc: 4 bytes][payload: size - 8 bytes]`,
//! the classic MP4 layout. Writers emit boxes bottom-up (payload first,
//! size patched on close); readers walk a byte range and hand out
//! `(fourcc, payload)` views with structured errors on truncation — the
//! same discipline as the codec's bitstream parser.

use crate::error::ContainerError;

/// A parsed box: fourcc plus a view of its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MpBox<'a> {
    /// The four-character code.
    pub(crate) fourcc: [u8; 4],
    /// Payload bytes (everything after the 8-byte box header).
    pub(crate) payload: &'a [u8],
    /// Byte offset of the box header within the walked range.
    pub(crate) offset: usize,
}

/// Appends a complete box (header + payload) to `out`.
pub(crate) fn push_box(out: &mut Vec<u8>, fourcc: &[u8; 4], payload: &[u8]) {
    let size = (payload.len() + 8) as u32;
    out.extend_from_slice(&size.to_be_bytes());
    out.extend_from_slice(fourcc);
    out.extend_from_slice(payload);
}

/// Iterator over the top-level boxes of a byte range.
#[derive(Debug, Clone)]
pub(crate) struct BoxIter<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> BoxIter<'a> {
    /// Walks `data` as a sequence of boxes.
    pub(crate) fn new(data: &'a [u8]) -> Self {
        BoxIter { data, pos: 0 }
    }
}

impl<'a> Iterator for BoxIter<'a> {
    type Item = Result<MpBox<'a>, ContainerError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.data.len() {
            return None;
        }
        let offset = self.pos;
        if self.pos + 8 > self.data.len() {
            self.pos = self.data.len();
            return Some(Err(ContainerError::Truncated {
                offset,
                context: "box header",
            }));
        }
        let size = u32::from_be_bytes([
            self.data[offset],
            self.data[offset + 1],
            self.data[offset + 2],
            self.data[offset + 3],
        ]) as usize;
        if size < 8 {
            self.pos = self.data.len();
            return Some(Err(ContainerError::Corrupt {
                offset,
                context: "box size below header size",
            }));
        }
        if offset + size > self.data.len() {
            self.pos = self.data.len();
            return Some(Err(ContainerError::Truncated {
                offset,
                context: "box payload",
            }));
        }
        let fourcc = [
            self.data[offset + 4],
            self.data[offset + 5],
            self.data[offset + 6],
            self.data[offset + 7],
        ];
        self.pos = offset + size;
        Some(Ok(MpBox {
            fourcc,
            payload: &self.data[offset + 8..offset + size],
            offset,
        }))
    }
}

/// Finds the first box with `fourcc` at the top level of `data`.
///
/// # Errors
///
/// Propagates walk errors; a missing box is `Corrupt` naming the fourcc's
/// static context supplied by the caller.
pub(crate) fn find_box<'a>(
    data: &'a [u8],
    fourcc: &[u8; 4],
    context: &'static str,
) -> Result<&'a [u8], ContainerError> {
    for b in BoxIter::new(data) {
        let b = b?;
        if &b.fourcc == fourcc {
            return Ok(b.payload);
        }
    }
    Err(ContainerError::Corrupt { offset: 0, context })
}

/// Reads a `u32` big-endian at `pos`, with a structured error.
pub(crate) fn read_u32(
    data: &[u8],
    pos: usize,
    context: &'static str,
) -> Result<u32, ContainerError> {
    if pos + 4 > data.len() {
        return Err(ContainerError::Truncated {
            offset: pos,
            context,
        });
    }
    Ok(u32::from_be_bytes([
        data[pos],
        data[pos + 1],
        data[pos + 2],
        data[pos + 3],
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_walk_roundtrip() {
        let mut out = Vec::new();
        push_box(&mut out, b"ftyp", b"vtxc");
        push_box(&mut out, b"mdat", &[1, 2, 3]);
        let boxes: Vec<MpBox<'_>> = BoxIter::new(&out).map(|b| b.unwrap()).collect();
        assert_eq!(boxes.len(), 2);
        assert_eq!(&boxes[0].fourcc, b"ftyp");
        assert_eq!(boxes[0].payload, b"vtxc");
        assert_eq!(&boxes[1].fourcc, b"mdat");
        assert_eq!(boxes[1].payload, &[1, 2, 3]);
        assert_eq!(boxes[1].offset, 12);
    }

    #[test]
    fn truncated_header_and_payload_error() {
        let mut out = Vec::new();
        push_box(&mut out, b"moov", &[0; 16]);
        // Cut inside the payload.
        let cut = &out[..10];
        let err = BoxIter::new(cut).next().unwrap().unwrap_err();
        assert!(matches!(err, ContainerError::Truncated { .. }));
        // Cut inside the header.
        let cut = &out[..5];
        let err = BoxIter::new(cut).next().unwrap().unwrap_err();
        assert_eq!(
            err,
            ContainerError::Truncated {
                offset: 0,
                context: "box header"
            }
        );
    }

    #[test]
    fn undersized_box_is_corrupt() {
        let mut data = Vec::new();
        data.extend_from_slice(&4u32.to_be_bytes()); // size 4 < 8
        data.extend_from_slice(b"free");
        let err = BoxIter::new(&data).next().unwrap().unwrap_err();
        assert!(matches!(err, ContainerError::Corrupt { .. }));
    }

    #[test]
    fn find_box_reports_missing() {
        let mut out = Vec::new();
        push_box(&mut out, b"ftyp", b"x");
        assert_eq!(find_box(&out, b"ftyp", "ftyp").unwrap(), b"x");
        assert!(find_box(&out, b"moov", "moov box").is_err());
    }
}
