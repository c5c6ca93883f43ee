//! GOP-aligned segmenter over vtx bitstreams.
//!
//! A vtx bitstream is a 17-byte header followed by frame records in coding
//! order (`ftype u8` + `display u16 LE` + `qp u8` + `payload_len u32 LE` +
//! payload). When the clip was encoded with forced IDRs at the segment
//! boundaries (closed GOPs — see `EncoderConfig::with_force_kf`), every
//! record of segment *k* precedes every record of segment *k+1* in coding
//! order, so the stream splits into standalone sub-streams: copy the
//! header, patch the frame count, rebase each record's display index to
//! the segment start. Each sub-stream decodes through the real decoder
//! with no knowledge of its neighbours.

use crate::error::ContainerError;
use crate::mux::Sample;

/// Byte length of the vtx bitstream header.
pub const HEADER_LEN: usize = 17;
/// Byte length of each per-frame record header.
const RECORD_HEADER_LEN: usize = 8;
/// Byte offset of the `frame_count` field (u16 LE) within the header.
const FRAME_COUNT_OFFSET: usize = 10;

/// Frame-type byte for plain intra records.
const FTYPE_I: u8 = 0;
/// Frame-type byte for forced-IDR records.
const FTYPE_IDR: u8 = 3;

/// A view of one frame record inside a vtx bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record<'a> {
    /// Frame-type byte (0=I, 1=P, 2=B, 3=IDR).
    pub(crate) ftype: u8,
    /// Display index within the clip.
    pub(crate) display: u16,
    /// The complete record bytes (header + payload).
    pub(crate) bytes: &'a [u8],
}

impl Record<'_> {
    /// Whether this record starts a decodable segment (I or IDR).
    fn is_sync(&self) -> bool {
        self.ftype == FTYPE_I || self.ftype == FTYPE_IDR
    }
}

/// Walks the frame records of a vtx bitstream.
///
/// # Errors
///
/// Returns [`ContainerError::Truncated`] when the stream ends inside the
/// header or a record, [`ContainerError::Corrupt`] on a bad magic.
fn records(stream: &[u8]) -> Result<Vec<Record<'_>>, ContainerError> {
    if stream.len() < HEADER_LEN {
        return Err(ContainerError::Truncated {
            offset: stream.len(),
            context: "bitstream header",
        });
    }
    if &stream[0..4] != b"VTXB" {
        return Err(ContainerError::Corrupt {
            offset: 0,
            context: "bitstream magic",
        });
    }
    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < stream.len() {
        if pos + RECORD_HEADER_LEN > stream.len() {
            return Err(ContainerError::Truncated {
                offset: pos,
                context: "frame record header",
            });
        }
        let ftype = stream[pos];
        let display = u16::from_le_bytes([stream[pos + 1], stream[pos + 2]]);
        let len = u32::from_le_bytes([
            stream[pos + 4],
            stream[pos + 5],
            stream[pos + 6],
            stream[pos + 7],
        ]) as usize;
        let end = pos + RECORD_HEADER_LEN + len;
        if end > stream.len() {
            return Err(ContainerError::Truncated {
                offset: pos,
                context: "frame record payload",
            });
        }
        out.push(Record {
            ftype,
            display,
            bytes: &stream[pos..end],
        });
        pos = end;
    }
    Ok(out)
}

/// GOP-aligned segment start points for a clip: `[0, g, 2g, …]` where `g`
/// is the closest whole-frame count to `target_ms` at `fps`. Always
/// includes 0; never includes `frames` itself.
pub fn segment_points(frames: u32, fps: u32, target_ms: u32) -> Vec<u32> {
    let g = (u64::from(fps) * u64::from(target_ms) / 1000).max(1) as u32;
    (0..frames.max(1)).step_by(g as usize).collect()
}

/// Splits a closed-GOP vtx bitstream into standalone sub-streams at the
/// given display-index `points` (must start with 0, strictly increasing).
///
/// # Errors
///
/// Returns [`ContainerError::Corrupt`] when a GOP straddles a cut (a record
/// of an earlier segment appears after a later segment began in coding
/// order, or a segment's first record is not a keyframe) — i.e. the stream
/// was not encoded with forced IDRs at `points`.
pub(crate) fn split_stream(stream: &[u8], points: &[u32]) -> Result<Vec<Vec<u8>>, ContainerError> {
    if points.first() != Some(&0) {
        return Err(ContainerError::Corrupt {
            offset: 0,
            context: "segment points must start at frame 0",
        });
    }
    let recs = records(stream)?;
    let frames = u16::from_le_bytes([stream[FRAME_COUNT_OFFSET], stream[FRAME_COUNT_OFFSET + 1]]);
    let seg_of = |display: u16| -> usize {
        points
            .iter()
            .rposition(|&p| u32::from(display) >= p)
            .unwrap_or(0)
    };
    let mut segs: Vec<Vec<u8>> = Vec::with_capacity(points.len());
    for (i, &start) in points.iter().enumerate() {
        let end = points.get(i + 1).copied().unwrap_or(u32::from(frames));
        let count = end.saturating_sub(start) as u16;
        let mut out = stream[..HEADER_LEN].to_vec();
        out[FRAME_COUNT_OFFSET..FRAME_COUNT_OFFSET + 2].copy_from_slice(&count.to_le_bytes());
        segs.push(out);
    }
    let mut current = 0usize;
    let mut first_in_seg = true;
    for r in &recs {
        let seg = seg_of(r.display);
        if seg != current {
            if seg < current {
                return Err(ContainerError::Corrupt {
                    offset: 0,
                    context: "GOP straddles a segment cut",
                });
            }
            current = seg;
            first_in_seg = true;
        }
        if first_in_seg && !r.is_sync() {
            return Err(ContainerError::Corrupt {
                offset: 0,
                context: "segment does not start at a keyframe",
            });
        }
        first_in_seg = false;
        let mut rec = r.bytes.to_vec();
        let rebased = (u32::from(r.display) - points[seg]) as u16;
        rec[1..3].copy_from_slice(&rebased.to_le_bytes());
        segs[seg].extend_from_slice(&rec);
    }
    Ok(segs)
}

/// Converts a standalone segment stream into media-segment samples: one
/// sample per record (duration 1 tick), sync on I/IDR records.
///
/// # Errors
///
/// Propagates record-walk errors from [`records`].
pub(crate) fn segment_to_samples(segment_stream: &[u8]) -> Result<Vec<Sample>, ContainerError> {
    Ok(records(segment_stream)?
        .iter()
        .map(|r| Sample {
            duration: 1,
            sync: r.is_sync(),
            data: r.bytes.to_vec(),
        })
        .collect())
}

/// Rebuilds a standalone segment stream from a parsed media segment's
/// samples plus the init segment's codec header (frame count patched to
/// the sample count). Inverse of `segment_to_samples` + muxing.
pub fn samples_to_stream(codec_header: &[u8], samples: &[Sample]) -> Vec<u8> {
    let mut out = codec_header[..HEADER_LEN.min(codec_header.len())].to_vec();
    if out.len() == HEADER_LEN {
        let count = samples.len() as u16;
        out[FRAME_COUNT_OFFSET..FRAME_COUNT_OFFSET + 2].copy_from_slice(&count.to_le_bytes());
    }
    for s in samples {
        out.extend_from_slice(&s.data);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic closed-GOP stream: `frames` records in display
    /// order, keyframes at `points`.
    fn synth_stream(frames: u16, points: &[u32]) -> Vec<u8> {
        let mut s = Vec::new();
        s.extend_from_slice(b"VTXB");
        s.push(1);
        s.extend_from_slice(&64u16.to_le_bytes());
        s.extend_from_slice(&48u16.to_le_bytes());
        s.push(24);
        s.extend_from_slice(&frames.to_le_bytes());
        s.extend_from_slice(&[3, 3, 1, 0, 8]);
        for d in 0..frames {
            let ftype = if points.contains(&u32::from(d)) {
                if d == 0 {
                    0u8
                } else {
                    3u8
                }
            } else {
                1u8
            };
            s.push(ftype);
            s.extend_from_slice(&d.to_le_bytes());
            s.push(30);
            let payload = [d as u8; 3];
            s.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            s.extend_from_slice(&payload);
        }
        s
    }

    #[test]
    fn segment_points_are_gop_aligned() {
        assert_eq!(segment_points(120, 24, 2000), vec![0, 48, 96]);
        assert_eq!(segment_points(48, 24, 2000), vec![0]);
        assert_eq!(segment_points(6, 30, 2000), vec![0]);
        assert_eq!(segment_points(1, 24, 2000), vec![0]);
    }

    #[test]
    fn split_rebases_and_patches_counts() {
        let points = vec![0u32, 4];
        let stream = synth_stream(10, &points);
        let segs = split_stream(&stream, &points).unwrap();
        assert_eq!(segs.len(), 2);
        let r0 = records(&segs[0]).unwrap();
        let r1 = records(&segs[1]).unwrap();
        assert_eq!(r0.len(), 4);
        assert_eq!(r1.len(), 6);
        assert_eq!(r0[0].display, 0);
        assert_eq!(r1[0].display, 0); // rebased from 4
        assert_eq!(r1[0].ftype, 3);
        let count1 =
            u16::from_le_bytes([segs[1][FRAME_COUNT_OFFSET], segs[1][FRAME_COUNT_OFFSET + 1]]);
        assert_eq!(count1, 6);
    }

    #[test]
    fn split_rejects_open_gops() {
        // No keyframe at the cut: the second segment opens with a P record.
        let stream = synth_stream(8, &[0]);
        let err = split_stream(&stream, &[0, 4]).unwrap_err();
        assert!(matches!(err, ContainerError::Corrupt { .. }));
    }

    #[test]
    fn samples_roundtrip_to_stream() {
        let points = vec![0u32, 4];
        let stream = synth_stream(8, &points);
        let segs = split_stream(&stream, &points).unwrap();
        for seg in &segs {
            let samples = segment_to_samples(seg).unwrap();
            let rebuilt = samples_to_stream(&seg[..HEADER_LEN], &samples);
            assert_eq!(&rebuilt, seg);
        }
    }

    #[test]
    fn truncated_records_error() {
        let stream = synth_stream(4, &[0]);
        assert!(records(&stream[..10]).is_err());
        assert!(records(&stream[..HEADER_LEN + 3]).is_err());
        assert!(records(&stream[..stream.len() - 1]).is_err());
    }
}
