//! CMAF-style segment muxing: an init segment carrying the codec
//! configuration and media segments carrying the samples.
//!
//! The layout follows fragmented MP4: the init segment is
//! `ftyp` + `moov` (movie header, one video track, a sample-description
//! table whose custom `vtxb` sample entry carries the 17-byte vtx codec
//! header in a `vtxC` box); each media segment is `styp` + `moof`
//! (fragment header, track fragment with decode-time and a `trun` run of
//! per-sample durations/sizes/sync flags) + `mdat` with the sample bytes.
//! The track timescale is the clip's fps, so every sample lasts exactly
//! one tick — integer time end to end. Output is a pure function of the
//! inputs: byte-deterministic by construction.

use crate::boxes::push_box;
use crate::error::ContainerError;

/// Track id used for the single video track.
pub(crate) const TRACK_ID: u32 = 1;

/// Length of the vtx codec header carried in the `vtxC` box.
pub(crate) const CODEC_HEADER_LEN: usize = 17;

/// One sample of a media segment (one coded frame record).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Duration in track timescale ticks (1 tick = 1 frame).
    pub duration: u32,
    /// Whether the sample is a sync sample (IDR / keyframe).
    pub sync: bool,
    /// The sample bytes (a complete vtx frame record).
    pub data: Vec<u8>,
}

/// Muxes the init segment for a track whose codec configuration is the
/// given 17-byte vtx bitstream header. Geometry, fps and frame count are
/// read from the header itself.
///
/// # Errors
///
/// Returns [`ContainerError::Corrupt`] when the header is not a vtx codec
/// header, [`ContainerError::Truncated`] when it is too short.
pub fn init_segment(codec_header: &[u8]) -> Result<Vec<u8>, ContainerError> {
    if codec_header.len() < CODEC_HEADER_LEN {
        return Err(ContainerError::Truncated {
            offset: codec_header.len(),
            context: "codec header",
        });
    }
    if &codec_header[0..4] != b"VTXB" {
        return Err(ContainerError::Corrupt {
            offset: 0,
            context: "codec header magic",
        });
    }
    let width = u32::from(u16::from_le_bytes([codec_header[5], codec_header[6]]));
    let height = u32::from(u16::from_le_bytes([codec_header[7], codec_header[8]]));
    let timescale = u32::from(codec_header[9]).max(1);
    let duration = u32::from(u16::from_le_bytes([codec_header[10], codec_header[11]]));

    let mut out = Vec::new();
    let mut ftyp = Vec::new();
    ftyp.extend_from_slice(b"vtxc");
    ftyp.extend_from_slice(&1u32.to_be_bytes());
    ftyp.extend_from_slice(b"cmfc");
    ftyp.extend_from_slice(b"vtxb");
    push_box(&mut out, b"ftyp", &ftyp);

    // stsd: one custom sample entry whose payload is the codec header box.
    let mut vtxc = Vec::new();
    push_box(&mut vtxc, b"vtxC", &codec_header[..CODEC_HEADER_LEN]);
    let mut stsd = Vec::new();
    stsd.extend_from_slice(&0u32.to_be_bytes()); // version/flags
    stsd.extend_from_slice(&1u32.to_be_bytes()); // entry count
    push_box(&mut stsd, b"vtxb", &vtxc);
    let mut stbl = Vec::new();
    push_box(&mut stbl, b"stsd", &stsd);
    let mut minf = Vec::new();
    push_box(&mut minf, b"stbl", &stbl);

    let mut mdhd = Vec::new();
    mdhd.extend_from_slice(&0u32.to_be_bytes());
    mdhd.extend_from_slice(&timescale.to_be_bytes());
    mdhd.extend_from_slice(&duration.to_be_bytes());
    let mut hdlr = Vec::new();
    hdlr.extend_from_slice(&0u32.to_be_bytes());
    hdlr.extend_from_slice(b"vide");
    let mut mdia = Vec::new();
    push_box(&mut mdia, b"mdhd", &mdhd);
    push_box(&mut mdia, b"hdlr", &hdlr);
    push_box(&mut mdia, b"minf", &minf);

    let mut tkhd = Vec::new();
    tkhd.extend_from_slice(&0u32.to_be_bytes());
    tkhd.extend_from_slice(&TRACK_ID.to_be_bytes());
    tkhd.extend_from_slice(&width.to_be_bytes());
    tkhd.extend_from_slice(&height.to_be_bytes());
    let mut trak = Vec::new();
    push_box(&mut trak, b"tkhd", &tkhd);
    push_box(&mut trak, b"mdia", &mdia);

    let mut mvhd = Vec::new();
    mvhd.extend_from_slice(&0u32.to_be_bytes());
    mvhd.extend_from_slice(&timescale.to_be_bytes());
    mvhd.extend_from_slice(&duration.to_be_bytes());
    mvhd.extend_from_slice(&(TRACK_ID + 1).to_be_bytes()); // next track id
    let mut moov = Vec::new();
    push_box(&mut moov, b"mvhd", &mvhd);
    push_box(&mut moov, b"trak", &trak);
    push_box(&mut out, b"moov", &moov);
    Ok(out)
}

/// Muxes one media segment: fragment `seq` starting at decode time
/// `base_time` (track ticks = frames from clip start), carrying `samples`.
pub fn media_segment(seq: u32, base_time: u32, samples: &[Sample]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut styp = Vec::new();
    styp.extend_from_slice(b"cmfs");
    styp.extend_from_slice(&1u32.to_be_bytes());
    styp.extend_from_slice(b"cmfs");
    push_box(&mut out, b"styp", &styp);

    let mut mfhd = Vec::new();
    mfhd.extend_from_slice(&0u32.to_be_bytes());
    mfhd.extend_from_slice(&seq.to_be_bytes());

    let mut tfhd = Vec::new();
    tfhd.extend_from_slice(&0u32.to_be_bytes());
    tfhd.extend_from_slice(&TRACK_ID.to_be_bytes());
    let mut tfdt = Vec::new();
    tfdt.extend_from_slice(&0u32.to_be_bytes());
    tfdt.extend_from_slice(&base_time.to_be_bytes());
    let mut trun = Vec::new();
    trun.extend_from_slice(&0u32.to_be_bytes());
    trun.extend_from_slice(&(samples.len() as u32).to_be_bytes());
    for s in samples {
        trun.extend_from_slice(&s.duration.to_be_bytes());
        trun.extend_from_slice(&(s.data.len() as u32).to_be_bytes());
        trun.extend_from_slice(&u32::from(s.sync).to_be_bytes());
    }
    let mut traf = Vec::new();
    push_box(&mut traf, b"tfhd", &tfhd);
    push_box(&mut traf, b"tfdt", &tfdt);
    push_box(&mut traf, b"trun", &trun);

    let mut moof = Vec::new();
    push_box(&mut moof, b"mfhd", &mfhd);
    push_box(&mut moof, b"traf", &traf);
    push_box(&mut out, b"moof", &moof);

    let mut mdat = Vec::new();
    for s in samples {
        mdat.extend_from_slice(&s.data);
    }
    push_box(&mut out, b"mdat", &mdat);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn init_segment_is_deterministic_and_box_structured() {
        let h = header17(6);
        let a = init_segment(&h).unwrap();
        let b = init_segment(&h).unwrap();
        assert_eq!(a, b);
        // Top level: ftyp then moov.
        let boxes: Vec<_> = crate::boxes::BoxIter::new(&a).map(|b| b.unwrap()).collect();
        assert_eq!(&boxes[0].fourcc, b"ftyp");
        assert_eq!(&boxes[1].fourcc, b"moov");
        assert_eq!(boxes.len(), 2);
    }

    #[test]
    fn init_segment_rejects_garbage() {
        assert!(matches!(
            init_segment(b"VTX"),
            Err(ContainerError::Truncated { .. })
        ));
        assert!(matches!(
            init_segment(&[0u8; 17]),
            Err(ContainerError::Corrupt { .. })
        ));
    }

    #[test]
    fn media_segment_layout() {
        let samples = vec![
            Sample {
                duration: 1,
                sync: true,
                data: vec![3, 0, 0, 30, 2, 0, 0, 0, 0xAA, 0xBB],
            },
            Sample {
                duration: 1,
                sync: false,
                data: vec![1, 1, 0, 30, 1, 0, 0, 0, 0xCC],
            },
        ];
        let seg = media_segment(7, 12, &samples);
        let boxes: Vec<_> = crate::boxes::BoxIter::new(&seg)
            .map(|b| b.unwrap())
            .collect();
        assert_eq!(&boxes[0].fourcc, b"styp");
        assert_eq!(&boxes[1].fourcc, b"moof");
        assert_eq!(&boxes[2].fourcc, b"mdat");
        assert_eq!(boxes[2].payload.len(), 10 + 9);
    }
}
