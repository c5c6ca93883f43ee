//! YUV4MPEG2 (`.y4m`) import/export.
//!
//! The synthetic generator stands in for vbench, but the pipeline is a real
//! transcoder: this module reads and writes the uncompressed `.y4m` format
//! that FFmpeg and most tools speak (`ffmpeg -i in.mp4 out.y4m`), so real
//! footage can be pushed through the instrumented encoder.
//!
//! Only the 4:2:0 chroma layout this workspace uses (`C420`/`C420jpeg`/
//! `C420mpeg2`) is accepted, at most 8192 pixels wide and high.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use crate::{Frame, Plane, Video, VideoSpec};

/// Errors produced while parsing a `.y4m` stream.
#[derive(Debug)]
pub enum Y4mError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream is not YUV4MPEG2 or uses an unsupported layout.
    Parse {
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for Y4mError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Y4mError::Io(e) => write!(f, "y4m i/o error: {e}"),
            Y4mError::Parse { detail } => write!(f, "y4m parse error: {detail}"),
        }
    }
}

impl Error for Y4mError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Y4mError::Io(e) => Some(e),
            Y4mError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for Y4mError {
    fn from(e: io::Error) -> Self {
        Y4mError::Io(e)
    }
}

/// Largest accepted width and height: the widest frame of H.264 level 6.2.
/// The cap bounds what a header can make the reader allocate before it has
/// read a byte of picture data.
const MAX_DIMENSION: usize = 8192;

fn parse_err(detail: impl Into<String>) -> Y4mError {
    Y4mError::Parse {
        detail: detail.into(),
    }
}

/// Writes frames as a YUV4MPEG2 stream.
///
/// # Errors
///
/// Propagates I/O failures; returns a parse error if `frames` is empty or
/// geometries are inconsistent.
pub fn write_y4m<W: Write>(mut w: W, frames: &[Frame], fps: u32) -> Result<(), Y4mError> {
    let first = frames.first().ok_or_else(|| parse_err("no frames"))?;
    let (width, height) = (first.width(), first.height());
    writeln!(w, "YUV4MPEG2 W{width} H{height} F{fps}:1 Ip A1:1 C420")?;
    for f in frames {
        if f.width() != width || f.height() != height {
            return Err(parse_err("inconsistent frame geometry"));
        }
        w.write_all(b"FRAME\n")?;
        w.write_all(f.y().samples())?;
        w.write_all(f.u().samples())?;
        w.write_all(f.v().samples())?;
    }
    Ok(())
}

/// Reads a YUV4MPEG2 stream: returns the frames and the frame rate.
///
/// # Errors
///
/// Returns [`Y4mError::Parse`] for non-y4m data, malformed header fields,
/// unsupported chroma layouts, or odd dimensions or ones above
/// `MAX_DIMENSION`, and [`Y4mError::Io`] on truncated reads.
fn read_y4m<R: Read>(mut r: R) -> Result<(Vec<Frame>, u32), Y4mError> {
    let header = read_line(&mut r)?;
    let mut tokens = header.split(' ');
    if tokens.next() != Some("YUV4MPEG2") {
        return Err(parse_err("missing YUV4MPEG2 magic"));
    }
    let (mut width, mut height, mut fps) = (0usize, 0usize, 30u32);
    for tok in tokens {
        // Every field is a one-letter ASCII key and its value; an empty
        // field (two spaces, a trailing space) is malformed.
        if !tok.as_bytes().first().is_some_and(u8::is_ascii) {
            return Err(parse_err("malformed header field"));
        }
        let (key, val) = tok.split_at(1);
        match key {
            "W" => width = val.parse().map_err(|_| parse_err("bad width"))?,
            "H" => height = val.parse().map_err(|_| parse_err("bad height"))?,
            "F" => {
                let (num, den) = val
                    .split_once(':')
                    .ok_or_else(|| parse_err("bad frame rate"))?;
                let num: u32 = num.parse().map_err(|_| parse_err("bad frame rate"))?;
                let den: u32 = den.parse().map_err(|_| parse_err("bad frame rate"))?;
                let den = den.max(1);
                fps = u32::try_from((u64::from(num) + u64::from(den / 2)) / u64::from(den))
                    .map_err(|_| parse_err("bad frame rate"))?;
            }
            "C" if !val.starts_with("420") => {
                return Err(parse_err(format!("unsupported chroma layout C{val}")));
            }
            _ => {} // interlacing / aspect / extensions: ignored
        }
    }
    if width == 0
        || height == 0
        || width % 2 != 0
        || height % 2 != 0
        || width > MAX_DIMENSION
        || height > MAX_DIMENSION
    {
        return Err(parse_err(format!(
            "unsupported dimensions {width}x{height}"
        )));
    }

    let mut frames = Vec::new();
    loop {
        let mut marker = Vec::new();
        match read_line_into(&mut r, &mut marker) {
            Ok(false) => break, // clean EOF
            Ok(true) => {}
            Err(e) => return Err(e),
        }
        let line = String::from_utf8_lossy(&marker);
        if !line.starts_with("FRAME") {
            return Err(parse_err("missing FRAME marker"));
        }
        let mut y = vec![0u8; width * height];
        let mut u = vec![0u8; width * height / 4];
        let mut v = vec![0u8; width * height / 4];
        r.read_exact(&mut y)?;
        r.read_exact(&mut u)?;
        r.read_exact(&mut v)?;
        let frame = Frame::from_planes(
            Plane::from_raw(width, height, y).map_err(|e| parse_err(e.to_string()))?,
            Plane::from_raw(width / 2, height / 2, u).map_err(|e| parse_err(e.to_string()))?,
            Plane::from_raw(width / 2, height / 2, v).map_err(|e| parse_err(e.to_string()))?,
        )
        .map_err(|e| parse_err(e.to_string()))?;
        frames.push(frame);
    }
    if frames.is_empty() {
        return Err(parse_err("stream contains no frames"));
    }
    Ok((frames, fps.max(1)))
}

/// Reads a `.y4m` stream into a [`Video`] with a custom catalog entry.
///
/// The clip runs at its native resolution (`scale = 1` addressing);
/// `entropy` is the caller's complexity estimate, used only by affinity
/// heuristics.
///
/// # Errors
///
/// Propagates [`Y4mError`]; dimensions must be multiples of 16 to be
/// encodable.
pub fn video_from_y4m<R: Read>(name: &str, entropy: f64, r: R) -> Result<Video, Y4mError> {
    let (frames, fps) = read_y4m(r)?;
    let width = frames[0].width();
    let height = frames[0].height();
    if width % 16 != 0 || height % 16 != 0 {
        return Err(parse_err(format!(
            "{width}x{height} is not macroblock aligned (crop to multiples of 16)"
        )));
    }
    let spec = VideoSpec {
        full_name: format!("{name}_{width}x{height}_{fps}.y4m"),
        short_name: name.to_owned(),
        nominal_width: width as u32,
        nominal_height: height as u32,
        fps,
        entropy,
        sim_width: width as u32,
        sim_height: height as u32,
        sim_frames: frames.len() as u32,
    };
    Ok(Video::new(spec, frames))
}

fn read_line<R: Read>(r: &mut R) -> Result<String, Y4mError> {
    let mut buf = Vec::new();
    if !read_line_into(r, &mut buf)? {
        return Err(parse_err("empty stream"));
    }
    String::from_utf8(buf).map_err(|_| parse_err("non-utf8 header"))
}

/// Reads bytes up to (not including) `\n`. Returns false on immediate EOF.
fn read_line_into<R: Read>(r: &mut R, buf: &mut Vec<u8>) -> Result<bool, Y4mError> {
    let mut byte = [0u8; 1];
    let mut any = false;
    loop {
        match r.read(&mut byte)? {
            0 => return Ok(any),
            _ => {
                any = true;
                if byte[0] == b'\n' {
                    return Ok(true);
                }
                if buf.len() > 256 {
                    return Err(parse_err("header line too long"));
                }
                buf.push(byte[0]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synth, vbench};

    #[test]
    fn roundtrip_preserves_frames() {
        let mut spec = vbench::by_name("cat").unwrap();
        spec.sim_width = 64;
        spec.sim_height = 48;
        spec.sim_frames = 4;
        let video = synth::generate(&spec, 5);
        let mut buf = Vec::new();
        write_y4m(&mut buf, &video.frames, video.spec.fps).unwrap();
        let (frames, fps) = read_y4m(buf.as_slice()).unwrap();
        assert_eq!(fps, video.spec.fps);
        assert_eq!(frames, video.frames);
    }

    #[test]
    fn video_from_y4m_builds_native_spec() {
        let mut spec = vbench::by_name("cat").unwrap();
        spec.sim_width = 64;
        spec.sim_height = 48;
        spec.sim_frames = 3;
        let video = synth::generate(&spec, 5);
        let mut buf = Vec::new();
        write_y4m(&mut buf, &video.frames, 25).unwrap();
        let v = video_from_y4m("myclip", 2.0, buf.as_slice()).unwrap();
        assert_eq!(v.spec.short_name, "myclip");
        assert_eq!(v.spec.sim_width, 64);
        assert_eq!(v.spec.nominal_width, 64); // native: scale 1
        assert_eq!(v.spec.fps, 25);
        assert_eq!(v.frames.len(), 3);
    }

    #[test]
    fn rejects_bad_magic_and_layouts() {
        assert!(matches!(
            read_y4m(&b"RIFFxxxx"[..]),
            Err(Y4mError::Parse { .. })
        ));
        let hdr = b"YUV4MPEG2 W64 H48 F30:1 C444\nFRAME\n";
        assert!(matches!(read_y4m(&hdr[..]), Err(Y4mError::Parse { .. })));
        let odd = b"YUV4MPEG2 W63 H48 F30:1 C420\n";
        assert!(matches!(read_y4m(&odd[..]), Err(Y4mError::Parse { .. })));
    }

    #[test]
    fn malformed_headers_are_parse_errors_not_panics() {
        for hdr in [
            "YUV4MPEG2 W32 H32 F30:1  Ip A1:1 C420",
            "YUV4MPEG2 W32 H32 F30:1 C420 ",
            "YUV4MPEG2 W32 H32 \u{e9}30:1 C420",
            "YUV4MPEG2 W60000 H60000 F30:1 C420",
            "YUV4MPEG2 W8194 H32 F30:1 C420",
        ] {
            let stream = format!("{hdr}\nFRAME\n");
            assert!(
                matches!(read_y4m(stream.as_bytes()), Err(Y4mError::Parse { .. })),
                "{hdr:?}"
            );
        }
    }

    #[test]
    fn extreme_frame_rate_does_not_overflow() {
        let mut buf = b"YUV4MPEG2 W2 H2 F4294967295:2 C420\nFRAME\n".to_vec();
        buf.extend_from_slice(&[0; 6]);
        let (frames, fps) = read_y4m(buf.as_slice()).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(fps, 2_147_483_648);
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"YUV4MPEG2 W64 H48 F30:1 C420\nFRAME\n");
        buf.extend_from_slice(&[0u8; 100]); // far too short
        assert!(matches!(read_y4m(buf.as_slice()), Err(Y4mError::Io(_))));
    }

    #[test]
    fn fractional_frame_rates_round() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"YUV4MPEG2 W16 H16 F30000:1001 C420\nFRAME\n");
        buf.extend_from_slice(&vec![0u8; 16 * 16 * 3 / 2]);
        let (frames, fps) = read_y4m(buf.as_slice()).unwrap();
        assert_eq!(fps, 30);
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn non_mb_aligned_video_rejected_for_encoding() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"YUV4MPEG2 W24 H24 F30:1 C420\nFRAME\n");
        buf.extend_from_slice(&vec![0u8; 24 * 24 * 3 / 2]);
        assert!(video_from_y4m("x", 1.0, buf.as_slice()).is_err());
    }
}
