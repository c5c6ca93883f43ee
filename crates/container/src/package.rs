//! End-to-end packaging: closed-GOP bitstream → CMAF init + media
//! segments → playlists.
//!
//! This is the glue the serving layer calls: given one rung's encoded
//! bitstream (forced IDRs at the segment points) it produces the init
//! segment and one media segment per cut, and given the *segment plan*
//! alone (points, frame count, fps, ladder) it produces the playlists.
//! Playlists deliberately depend only on the plan — never on encoded
//! bytes — so the simulator and the real executor emit byte-identical
//! manifests for the same seed.

use crate::error::ContainerError;
use crate::ladder::Ladder;
use crate::manifest::{MasterPlaylist, MediaPlaylist, SegmentEntry, Variant};
use crate::mux::{init_segment, media_segment};
use crate::segment::{segment_to_samples, split_stream, HEADER_LEN};

/// One rung's packaged output: init segment plus media segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packaged {
    /// The CMAF init segment.
    pub init: Vec<u8>,
    /// One media segment per cut point, in presentation order.
    pub media: Vec<Vec<u8>>,
}

/// Packages a closed-GOP vtx bitstream into CMAF segments at `points`.
///
/// # Errors
///
/// Propagates segmenter errors (open GOPs, truncation) and mux errors.
pub fn package_stream(stream: &[u8], points: &[u32]) -> Result<Packaged, ContainerError> {
    if stream.len() < HEADER_LEN {
        return Err(ContainerError::Truncated {
            offset: stream.len(),
            context: "bitstream header",
        });
    }
    let init = init_segment(&stream[..HEADER_LEN])?;
    let segs = split_stream(stream, points)?;
    let mut media = Vec::with_capacity(segs.len());
    for (i, seg) in segs.iter().enumerate() {
        let samples = segment_to_samples(seg)?;
        media.push(media_segment(i as u32, points[i], &samples));
    }
    Ok(Packaged { init, media })
}

/// Per-segment durations in integer milliseconds for a segment plan.
pub fn segment_durations_ms(points: &[u32], frames: u32, fps: u32) -> Vec<u32> {
    let fps = fps.max(1);
    points
        .iter()
        .enumerate()
        .map(|(i, &start)| {
            let end = points.get(i + 1).copied().unwrap_or(frames);
            end.saturating_sub(start) * 1000 / fps
        })
        .collect()
}

/// The media playlist for one rung of a segment plan. URIs follow the
/// fixed convention `{rung}/init.mp4` and `{rung}/seg{i}.m4s`.
pub fn media_playlist(rung: &str, points: &[u32], frames: u32, fps: u32) -> MediaPlaylist {
    let durations = segment_durations_ms(points, frames, fps);
    MediaPlaylist {
        init_uri: format!("{rung}/init.mp4"),
        segments: durations
            .iter()
            .enumerate()
            .map(|(i, &d)| SegmentEntry {
                duration_ms: d,
                uri: format!("{rung}/seg{i}.m4s"),
            })
            .collect(),
    }
}

/// The master playlist for a ladder. Bandwidth is a deterministic function
/// of the rung's CRF alone (lower CRF → higher rate), so the manifest
/// depends only on the plan.
pub fn master_playlist(ladder: &Ladder) -> MasterPlaylist {
    MasterPlaylist {
        variants: ladder
            .rungs
            .iter()
            .map(|r| Variant {
                name: r.name.clone(),
                bandwidth: u64::from(52u8.saturating_sub(r.crf)) * 200_000,
                uri: format!("{}/media.m3u8", r.name),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demux;
    use crate::manifest::{render_master, render_media};

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
                u8::from(d != 0) * 3
            } else {
                1u8
            };
            s.push(ftype);
            s.extend_from_slice(&d.to_le_bytes());
            s.push(30);
            s.extend_from_slice(&3u32.to_le_bytes());
            s.extend_from_slice(&[d as u8; 3]);
        }
        s
    }

    #[test]
    fn package_produces_parseable_segments() {
        let points = vec![0u32, 4];
        let stream = synth_stream(10, &points);
        let p = package_stream(&stream, &points).unwrap();
        assert_eq!(p.media.len(), 2);
        let info = demux::parse_init(&p.init).unwrap();
        assert_eq!(info.duration, 10);
        let m0 = demux::parse_media(&p.media[0]).unwrap();
        let m1 = demux::parse_media(&p.media[1]).unwrap();
        assert_eq!((m0.seq, m0.base_time, m0.samples.len()), (0, 0, 4));
        assert_eq!((m1.seq, m1.base_time, m1.samples.len()), (1, 4, 6));
        assert!(m1.samples[0].sync);
        // Same input, same bytes.
        assert_eq!(package_stream(&stream, &points).unwrap(), p);
    }

    #[test]
    fn playlists_depend_only_on_the_plan() {
        let points = vec![0u32, 48, 96];
        let media = media_playlist("hi", &points, 120, 24);
        let text = render_media(&media);
        assert!(text.contains("#EXT-X-MAP:URI=\"hi/init.mp4\""));
        assert!(text.contains("#EXTINF:2.000,\nhi/seg0.m4s"));
        assert!(text.contains("#EXTINF:1.000,\nhi/seg2.m4s"));
        let master = master_playlist(&Ladder::standard());
        let text = render_master(&master);
        assert!(text.contains("NAME=\"hi\"\nhi/media.m3u8"));
        assert_eq!(render_master(&master_playlist(&Ladder::standard())), text);
    }

    #[test]
    fn durations_cover_the_clip() {
        let points = vec![0u32, 48, 96];
        let d = segment_durations_ms(&points, 120, 24);
        assert_eq!(d, vec![2000, 2000, 1000]);
        assert_eq!(d.iter().sum::<u32>(), 120 * 1000 / 24);
    }
}
