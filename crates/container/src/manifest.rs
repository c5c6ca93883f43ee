//! Deterministic HLS-style manifests: a master playlist pointing at one
//! media playlist per ladder rung, and media playlists listing the init
//! segment plus every media segment with its exact integer-millisecond
//! duration.
//!
//! Rendering is a pure function of the inputs and parsing is its exact
//! inverse: `render(parse(text)) == text` for anything this module emits,
//! so manifests can be byte-compared across runs the same way bitstreams
//! are. Durations are carried as integer milliseconds and printed with
//! exactly three decimals — no floating point anywhere.

use crate::error::ContainerError;

/// One variant entry of a master playlist (one ladder rung).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Rendition name (the ladder rung name).
    pub(crate) name: String,
    /// Nominal bandwidth in bits per second.
    pub(crate) bandwidth: u64,
    /// URI of the rung's media playlist.
    pub(crate) uri: String,
}

/// A master playlist: the rung directory of one serving job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterPlaylist {
    /// Variants in ladder order.
    pub variants: Vec<Variant>,
}

/// One media-segment entry of a media playlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Segment duration in integer milliseconds.
    pub(crate) duration_ms: u32,
    /// Segment URI.
    pub(crate) uri: String,
}

/// A media playlist: init segment plus the ordered media segments of one
/// rung.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaPlaylist {
    /// URI of the init segment (`EXT-X-MAP`).
    pub(crate) init_uri: String,
    /// Segments in presentation order.
    pub(crate) segments: Vec<SegmentEntry>,
}

/// Formats integer milliseconds as seconds with exactly three decimals.
fn ms_to_secs(ms: u32) -> String {
    format!("{}.{:03}", ms / 1000, ms % 1000)
}

/// Parses a three-decimal seconds string back to integer milliseconds.
fn secs_to_ms(s: &str, line: usize) -> Result<u32, ContainerError> {
    let bad = || ContainerError::Manifest {
        line,
        message: format!("bad duration {s:?}"),
    };
    let (whole, frac) = s.split_once('.').ok_or_else(bad)?;
    if frac.len() != 3 {
        return Err(bad());
    }
    let whole: u32 = whole.parse().map_err(|_| bad())?;
    let frac: u32 = frac.parse().map_err(|_| bad())?;
    Ok(whole * 1000 + frac)
}

/// Marker tag a degraded master playlist carries right after the version
/// line: the server shed some rungs and is serving the ones that finished.
pub const DEGRADED_TAG: &str = "#EXT-X-VTX-DEGRADED:1";

/// Renders a master playlist.
pub fn render_master(m: &MasterPlaylist) -> String {
    render_master_inner(m, false)
}

/// Renders a *degraded* master playlist: same format plus the
/// [`DEGRADED_TAG`] marker, used for partial-manifest delivery when only a
/// subset of the ladder's rungs completed.
pub fn render_master_degraded(m: &MasterPlaylist) -> String {
    render_master_inner(m, true)
}

fn render_master_inner(m: &MasterPlaylist, degraded: bool) -> String {
    let mut out = String::new();
    out.push_str("#EXTM3U\n#EXT-X-VERSION:7\n");
    if degraded {
        out.push_str(DEGRADED_TAG);
        out.push('\n');
    }
    for v in &m.variants {
        out.push_str(&format!(
            "#EXT-X-STREAM-INF:BANDWIDTH={},NAME=\"{}\"\n{}\n",
            v.bandwidth, v.name, v.uri
        ));
    }
    out
}

/// Parses a master playlist rendered by [`render_master`] or
/// [`render_master_degraded`], ignoring the degraded marker. Use
/// [`parse_master_flagged`] to recover the marker.
///
/// # Errors
///
/// Returns [`ContainerError::Manifest`] with the offending 1-based line on
/// any structural deviation.
pub fn parse_master(text: &str) -> Result<MasterPlaylist, ContainerError> {
    parse_master_flagged(text).map(|(m, _)| m)
}

/// Parses a master playlist and reports whether it carried the
/// [`DEGRADED_TAG`] marker.
///
/// # Errors
///
/// Returns [`ContainerError::Manifest`] with the offending 1-based line on
/// any structural deviation.
pub fn parse_master_flagged(text: &str) -> Result<(MasterPlaylist, bool), ContainerError> {
    let mut lines = text.lines().enumerate().peekable();
    expect_line(&mut lines, "#EXTM3U")?;
    expect_line(&mut lines, "#EXT-X-VERSION:7")?;
    let degraded = matches!(lines.peek(), Some((_, line)) if *line == DEGRADED_TAG);
    if degraded {
        lines.next();
    }
    let mut variants = Vec::new();
    while let Some((i, line)) = lines.next() {
        let lineno = i + 1;
        let rest =
            line.strip_prefix("#EXT-X-STREAM-INF:BANDWIDTH=")
                .ok_or(ContainerError::Manifest {
                    line: lineno,
                    message: format!("expected stream-inf, got {line:?}"),
                })?;
        let (bw, name_part) =
            rest.split_once(",NAME=\"")
                .ok_or_else(|| ContainerError::Manifest {
                    line: lineno,
                    message: "missing NAME attribute".to_string(),
                })?;
        let bandwidth: u64 = bw.parse().map_err(|_| ContainerError::Manifest {
            line: lineno,
            message: format!("bad bandwidth {bw:?}"),
        })?;
        let name = name_part
            .strip_suffix('"')
            .ok_or_else(|| ContainerError::Manifest {
                line: lineno,
                message: "unterminated NAME".to_string(),
            })?;
        let (j, uri) = lines.next().ok_or(ContainerError::Manifest {
            line: lineno,
            message: "stream-inf without URI line".to_string(),
        })?;
        if uri.starts_with('#') || uri.is_empty() {
            return Err(ContainerError::Manifest {
                line: j + 1,
                message: "expected variant URI".to_string(),
            });
        }
        variants.push(Variant {
            name: name.to_string(),
            bandwidth,
            uri: uri.to_string(),
        });
    }
    Ok((MasterPlaylist { variants }, degraded))
}

/// Renders a media playlist. Target duration is the ceiling of the longest
/// segment in whole seconds.
pub fn render_media(m: &MediaPlaylist) -> String {
    let max_ms = m.segments.iter().map(|s| s.duration_ms).max().unwrap_or(0);
    let target = max_ms.div_ceil(1000);
    let mut out = String::new();
    out.push_str("#EXTM3U\n#EXT-X-VERSION:7\n");
    out.push_str(&format!("#EXT-X-TARGETDURATION:{target}\n"));
    out.push_str("#EXT-X-MEDIA-SEQUENCE:0\n");
    out.push_str(&format!("#EXT-X-MAP:URI=\"{}\"\n", m.init_uri));
    for s in &m.segments {
        out.push_str(&format!(
            "#EXTINF:{},\n{}\n",
            ms_to_secs(s.duration_ms),
            s.uri
        ));
    }
    out.push_str("#EXT-X-ENDLIST\n");
    out
}

/// Parses a media playlist rendered by [`render_media`].
///
/// # Errors
///
/// Returns [`ContainerError::Manifest`] with the offending 1-based line on
/// any structural deviation.
pub fn parse_media(text: &str) -> Result<MediaPlaylist, ContainerError> {
    let mut lines = text.lines().enumerate();
    expect_line(&mut lines, "#EXTM3U")?;
    expect_line(&mut lines, "#EXT-X-VERSION:7")?;
    let (i, td_line) = lines.next().ok_or(ContainerError::Manifest {
        line: 3,
        message: "missing target duration".to_string(),
    })?;
    td_line
        .strip_prefix("#EXT-X-TARGETDURATION:")
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or(ContainerError::Manifest {
            line: i + 1,
            message: format!("bad target duration {td_line:?}"),
        })?;
    expect_line(&mut lines, "#EXT-X-MEDIA-SEQUENCE:0")?;
    let (i, map_line) = lines.next().ok_or(ContainerError::Manifest {
        line: 5,
        message: "missing EXT-X-MAP".to_string(),
    })?;
    let init_uri = map_line
        .strip_prefix("#EXT-X-MAP:URI=\"")
        .and_then(|v| v.strip_suffix('"'))
        .ok_or(ContainerError::Manifest {
            line: i + 1,
            message: format!("bad EXT-X-MAP {map_line:?}"),
        })?
        .to_string();
    let mut segments = Vec::new();
    let mut ended = false;
    while let Some((i, line)) = lines.next() {
        let lineno = i + 1;
        if line == "#EXT-X-ENDLIST" {
            ended = true;
            if lines.next().is_some() {
                return Err(ContainerError::Manifest {
                    line: lineno + 1,
                    message: "content after ENDLIST".to_string(),
                });
            }
            break;
        }
        let dur = line
            .strip_prefix("#EXTINF:")
            .and_then(|v| v.strip_suffix(','))
            .ok_or_else(|| ContainerError::Manifest {
                line: lineno,
                message: format!("expected EXTINF, got {line:?}"),
            })?;
        let duration_ms = secs_to_ms(dur, lineno)?;
        let (j, uri) = lines.next().ok_or(ContainerError::Manifest {
            line: lineno,
            message: "EXTINF without URI line".to_string(),
        })?;
        if uri.starts_with('#') || uri.is_empty() {
            return Err(ContainerError::Manifest {
                line: j + 1,
                message: "expected segment URI".to_string(),
            });
        }
        segments.push(SegmentEntry {
            duration_ms,
            uri: uri.to_string(),
        });
    }
    if !ended {
        return Err(ContainerError::Manifest {
            line: text.lines().count(),
            message: "missing ENDLIST".to_string(),
        });
    }
    Ok(MediaPlaylist { init_uri, segments })
}

/// Consumes one line and requires it to equal `want`.
fn expect_line<'a, I: Iterator<Item = (usize, &'a str)>>(
    lines: &mut I,
    want: &str,
) -> Result<(), ContainerError> {
    match lines.next() {
        Some((_, line)) if line == want => Ok(()),
        Some((i, line)) => Err(ContainerError::Manifest {
            line: i + 1,
            message: format!("expected {want:?}, got {line:?}"),
        }),
        None => Err(ContainerError::Manifest {
            line: 0,
            message: format!("expected {want:?}, got end of input"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master() -> MasterPlaylist {
        MasterPlaylist {
            variants: vec![
                Variant {
                    name: "hi".to_string(),
                    bandwidth: 4_000_000,
                    uri: "hi/media.m3u8".to_string(),
                },
                Variant {
                    name: "lo".to_string(),
                    bandwidth: 800_000,
                    uri: "lo/media.m3u8".to_string(),
                },
            ],
        }
    }

    fn media() -> MediaPlaylist {
        MediaPlaylist {
            init_uri: "init.mp4".to_string(),
            segments: vec![
                SegmentEntry {
                    duration_ms: 2000,
                    uri: "seg0.m4s".to_string(),
                },
                SegmentEntry {
                    duration_ms: 1250,
                    uri: "seg1.m4s".to_string(),
                },
            ],
        }
    }

    #[test]
    fn master_roundtrip_is_exact() {
        let m = master();
        let text = render_master(&m);
        assert_eq!(parse_master(&text).unwrap(), m);
        assert_eq!(render_master(&parse_master(&text).unwrap()), text);
        assert_eq!(parse_master_flagged(&text).unwrap(), (m, false));
    }

    #[test]
    fn degraded_master_roundtrip_is_exact() {
        let m = master();
        let text = render_master_degraded(&m);
        assert!(text.contains(DEGRADED_TAG));
        // The tag survives a flagged parse and is ignored by the plain one.
        assert_eq!(parse_master_flagged(&text).unwrap(), (m.clone(), true));
        assert_eq!(parse_master(&text).unwrap(), m);
        assert_eq!(
            render_master_degraded(&parse_master_flagged(&text).unwrap().0),
            text
        );
    }

    #[test]
    fn media_roundtrip_is_exact() {
        let m = media();
        let text = render_media(&m);
        assert!(text.contains("#EXTINF:2.000,\nseg0.m4s"));
        assert!(text.contains("#EXTINF:1.250,\nseg1.m4s"));
        assert!(text.contains("#EXT-X-TARGETDURATION:2\n"));
        assert_eq!(parse_media(&text).unwrap(), m);
        assert_eq!(render_media(&parse_media(&text).unwrap()), text);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_master("#EXTM3U\nnope").unwrap_err();
        assert!(matches!(err, ContainerError::Manifest { line: 2, .. }));
        let text = render_media(&media()).replace("#EXT-X-ENDLIST\n", "");
        assert!(parse_media(&text).is_err());
        let text = render_media(&media()).replace("1.250", "1.25");
        assert!(parse_media(&text).is_err());
    }
}
