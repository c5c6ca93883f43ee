//! Demuxing: parse init and media segments back into structured form.
//!
//! The contract with [`crate::mux`] is exact inversion: re-muxing a parsed
//! segment reproduces the original bytes. Any deviation from the expected
//! box tree — missing boxes, short payloads, size mismatches between the
//! `trun` sample table and the `mdat` — is a structured
//! [`ContainerError`], never a panic.

use crate::boxes::{find_box, read_u32, BoxIter};
use crate::error::ContainerError;
use crate::mux::{Sample, CODEC_HEADER_LEN, TRACK_ID};

/// Parsed init segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitInfo {
    /// The 17-byte vtx codec header carried in the `vtxC` box.
    pub codec_header: Vec<u8>,
    /// Track width in pixels (from `tkhd`).
    pub width: u32,
    /// Track height in pixels (from `tkhd`).
    pub height: u32,
    /// Track timescale in ticks per second (= fps).
    pub(crate) timescale: u32,
    /// Track duration in ticks (= frame count).
    pub duration: u32,
}

/// Parsed media segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaSegment {
    /// Fragment sequence number (from `mfhd`).
    pub seq: u32,
    /// Base decode time in track ticks (from `tfdt`).
    pub base_time: u32,
    /// The samples, in decode order.
    pub samples: Vec<Sample>,
}

/// Parses an init segment produced by [`crate::mux::init_segment`].
///
/// # Errors
///
/// Returns [`ContainerError`] on any missing box, truncation, or a codec
/// header of the wrong length.
pub fn parse_init(data: &[u8]) -> Result<InitInfo, ContainerError> {
    find_box(data, b"ftyp", "ftyp box")?;
    let moov = find_box(data, b"moov", "moov box")?;
    let mvhd = find_box(moov, b"mvhd", "mvhd box")?;
    let timescale = read_u32(mvhd, 4, "mvhd timescale")?;
    let duration = read_u32(mvhd, 8, "mvhd duration")?;
    let trak = find_box(moov, b"trak", "trak box")?;
    let tkhd = find_box(trak, b"tkhd", "tkhd box")?;
    let track_id = read_u32(tkhd, 4, "tkhd track id")?;
    if track_id != TRACK_ID {
        return Err(ContainerError::Corrupt {
            offset: 0,
            context: "unexpected track id",
        });
    }
    let width = read_u32(tkhd, 8, "tkhd width")?;
    let height = read_u32(tkhd, 12, "tkhd height")?;
    let mdia = find_box(trak, b"mdia", "mdia box")?;
    let minf = find_box(mdia, b"minf", "minf box")?;
    let stbl = find_box(minf, b"stbl", "stbl box")?;
    let stsd = find_box(stbl, b"stsd", "stsd box")?;
    if stsd.len() < 8 {
        return Err(ContainerError::Truncated {
            offset: 0,
            context: "stsd header",
        });
    }
    let entry = find_box(&stsd[8..], b"vtxb", "vtxb sample entry")?;
    let codec_header = find_box(entry, b"vtxC", "vtxC codec header box")?;
    if codec_header.len() != CODEC_HEADER_LEN {
        return Err(ContainerError::Corrupt {
            offset: 0,
            context: "codec header length",
        });
    }
    Ok(InitInfo {
        codec_header: codec_header.to_vec(),
        width,
        height,
        timescale,
        duration,
    })
}

/// Parses a media segment produced by [`crate::mux::media_segment`].
///
/// # Errors
///
/// Returns [`ContainerError`] on any missing box, truncation, or a `trun`
/// sample table whose sizes do not cover the `mdat` payload exactly.
pub fn parse_media(data: &[u8]) -> Result<MediaSegment, ContainerError> {
    find_box(data, b"styp", "styp box")?;
    let moof = find_box(data, b"moof", "moof box")?;
    let mfhd = find_box(moof, b"mfhd", "mfhd box")?;
    let seq = read_u32(mfhd, 4, "mfhd sequence number")?;
    let traf = find_box(moof, b"traf", "traf box")?;
    let tfhd = find_box(traf, b"tfhd", "tfhd box")?;
    if read_u32(tfhd, 4, "tfhd track id")? != TRACK_ID {
        return Err(ContainerError::Corrupt {
            offset: 0,
            context: "unexpected track id",
        });
    }
    let tfdt = find_box(traf, b"tfdt", "tfdt box")?;
    let base_time = read_u32(tfdt, 4, "tfdt base decode time")?;
    let trun = find_box(traf, b"trun", "trun box")?;
    let sample_count = read_u32(trun, 4, "trun sample count")? as usize;
    // Validate the advertised count against the box's actual size before
    // sizing any allocation by it — a corrupt count must be a structured
    // error, not an abort in the allocator.
    if trun.len().saturating_sub(8) / 12 < sample_count {
        return Err(ContainerError::Corrupt {
            offset: 0,
            context: "trun sample count exceeds box size",
        });
    }
    let mdat = find_box(data, b"mdat", "mdat box")?;

    let mut samples = Vec::with_capacity(sample_count);
    let mut mdat_pos = 0usize;
    for i in 0..sample_count {
        let base = 8 + i * 12;
        let duration = read_u32(trun, base, "trun sample duration")?;
        let size = read_u32(trun, base + 4, "trun sample size")? as usize;
        let flags = read_u32(trun, base + 8, "trun sample flags")?;
        if mdat_pos + size > mdat.len() {
            return Err(ContainerError::Truncated {
                offset: mdat_pos,
                context: "mdat sample data",
            });
        }
        samples.push(Sample {
            duration,
            sync: flags & 1 != 0,
            data: mdat[mdat_pos..mdat_pos + size].to_vec(),
        });
        mdat_pos += size;
    }
    if mdat_pos != mdat.len() {
        return Err(ContainerError::Corrupt {
            offset: mdat_pos,
            context: "mdat bytes beyond sample table",
        });
    }
    // The walk above only touched the boxes it needed; reject trailing
    // garbage after mdat by re-walking the top level.
    for b in BoxIter::new(data) {
        b?;
    }
    Ok(MediaSegment {
        seq,
        base_time,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::{init_segment, media_segment};

    fn header17(frames: u16) -> Vec<u8> {
        let mut h = Vec::new();
        h.extend_from_slice(b"VTXB");
        h.push(1);
        h.extend_from_slice(&64u16.to_le_bytes());
        h.extend_from_slice(&48u16.to_le_bytes());
        h.push(24);
        h.extend_from_slice(&frames.to_le_bytes());
        h.extend_from_slice(&[3, 3, 1, 0, 8]);
        h
    }

    fn sample(sync: bool, bytes: &[u8]) -> Sample {
        Sample {
            duration: 1,
            sync,
            data: bytes.to_vec(),
        }
    }

    #[test]
    fn init_roundtrip_is_byte_identical() {
        let h = header17(12);
        let seg = init_segment(&h).unwrap();
        let info = parse_init(&seg).unwrap();
        assert_eq!(info.codec_header, h);
        assert_eq!(info.width, 64);
        assert_eq!(info.height, 48);
        assert_eq!(info.timescale, 24);
        assert_eq!(info.duration, 12);
        let remux = init_segment(&info.codec_header).unwrap();
        assert_eq!(remux, seg);
    }

    #[test]
    fn media_roundtrip_is_byte_identical() {
        let samples = vec![
            sample(true, &[3, 0, 0, 30, 2, 0, 0, 0, 0xAA, 0xBB]),
            sample(false, &[1, 1, 0, 30, 1, 0, 0, 0, 0xCC]),
            sample(false, &[2, 2, 0, 31, 0, 0, 0, 0]),
        ];
        let seg = media_segment(5, 48, &samples);
        let parsed = parse_media(&seg).unwrap();
        assert_eq!(parsed.seq, 5);
        assert_eq!(parsed.base_time, 48);
        assert_eq!(parsed.samples, samples);
        let remux = media_segment(parsed.seq, parsed.base_time, &parsed.samples);
        assert_eq!(remux, seg);
    }

    #[test]
    fn truncated_media_is_structured_error() {
        let seg = media_segment(1, 0, &[sample(true, &[9; 20])]);
        for cut in [3, 9, seg.len() - 5] {
            let err = parse_media(&seg[..cut]);
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn mdat_size_mismatch_is_corrupt() {
        let mut seg = media_segment(1, 0, &[sample(true, &[9; 8])]);
        // Grow mdat by one byte and patch its size field.
        seg.push(0xEE);
        let mdat_off = seg.len() - 1 - 8 - 8;
        let size = u32::from_be_bytes([
            seg[mdat_off],
            seg[mdat_off + 1],
            seg[mdat_off + 2],
            seg[mdat_off + 3],
        ]) + 1;
        seg[mdat_off..mdat_off + 4].copy_from_slice(&size.to_be_bytes());
        assert!(matches!(
            parse_media(&seg),
            Err(ContainerError::Corrupt { .. })
        ));
    }

    #[test]
    fn missing_boxes_are_reported() {
        let h = header17(6);
        let init = init_segment(&h).unwrap();
        // An init segment is not a media segment.
        assert!(parse_media(&init).is_err());
        // And vice versa.
        let media = media_segment(0, 0, &[sample(true, &[1, 2, 3])]);
        assert!(parse_init(&media).is_err());
    }
}
