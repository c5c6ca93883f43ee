//! Seeded mutation fuzz of every parser that reads outside input: a `.y4m`
//! header, a rendition ladder spec, HLS master and media playlists, JSON, a
//! serving arrival trace, and CMAF init and media segments.
//!
//! Each case takes a valid input, applies one to three mutations (byte flip,
//! insert, delete, truncate, duplicate a span) from a SplitMix64 stream, and
//! feeds the result to the parser. A parser may reject the input with an
//! error; it must never panic.

use std::panic::{self, AssertUnwindSafe};

use vtx_container::demux;
use vtx_container::manifest::{parse_master, parse_media, render_master, render_media};
use vtx_container::mux::{self, Sample};
use vtx_container::package::{master_playlist, media_playlist};
use vtx_container::Ladder;
use vtx_frame::y4m::{video_from_y4m, write_y4m};
use vtx_frame::Frame;
use vtx_obs::json;
use vtx_rng::SplitMix64;
use vtx_serve::workload::{parse_trace, render_trace, WorkloadSpec};

/// Mutated inputs per parser.
const CASES: u64 = 3_000;

/// Bytes an insertion or flip draws from: field separators, digits, the
/// y4m keys, JSON punctuation, a line break, and a UTF-8 lead byte.
const ALPHABET: &[u8] = b" 0123456789:=,.-WHFCIAX\"{}[]\n#\xc3";

/// Applies one to three seeded mutations to `input`.
fn mutate(input: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..1 + rng.next_range(3) {
        let pick = |rng: &mut SplitMix64| ALPHABET[rng.next_range(ALPHABET.len() as u64) as usize];
        let at = rng.next_range(out.len() as u64 + 1) as usize;
        match rng.next_range(5) {
            0 if at < out.len() => out[at] = pick(rng),
            1 => out.insert(at, pick(rng)),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => out.truncate(at),
            _ => {
                let len = rng.next_range(8) as usize + 1;
                let span = out[at..(at + len).min(out.len())].to_vec();
                out.splice(at..at, span);
            }
        }
    }
    out
}

/// Runs `parse` on `CASES` mutations of `valid` and panics with the first
/// input that made it panic.
fn fuzz(name: &str, seed: u64, valid: &[u8], parse: impl Fn(&[u8])) {
    parse(valid);
    let mut rng = SplitMix64::new(seed);
    for case in 0..CASES {
        let input = mutate(valid, &mut rng);
        if panic::catch_unwind(AssertUnwindSafe(|| parse(&input))).is_err() {
            panic!(
                "{name}: case {case} panicked on {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
}

/// Feeds text parsers the lossy UTF-8 view of the mutated bytes.
fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn y4m_header_mutations_never_panic() {
    // A 32x32 two-frame clip: the header is where a reader can go wrong.
    let frames = [Frame::new(32, 32), Frame::new(32, 32)];
    let mut valid = Vec::new();
    write_y4m(&mut valid, &frames, 30).unwrap();
    let header_end = valid.iter().position(|&b| b == b'\n').unwrap() + 1;
    let (header, body) = valid.split_at(header_end);
    fuzz("read_y4m", 1, header, |h| {
        let mut stream = h.to_vec();
        stream.extend_from_slice(body);
        let _ = video_from_y4m("fuzz", 1.0, stream.as_slice());
    });
}

#[test]
fn ladder_spec_mutations_never_panic() {
    let valid = "hi=medium:20,mid=veryfast:26,lo=ultrafast:32";
    assert_eq!(Ladder::parse(valid).unwrap(), Ladder::standard());
    fuzz("Ladder::parse", 2, valid.as_bytes(), |b| {
        let _ = Ladder::parse(&text(b));
    });
}

#[test]
fn playlist_mutations_never_panic() {
    let master = render_master(&master_playlist(&Ladder::standard()));
    fuzz("parse_master", 3, master.as_bytes(), |b| {
        let _ = parse_master(&text(b));
    });
    let media = render_media(&media_playlist("hi", &[0, 24, 48], 60, 24));
    fuzz("parse_media", 4, media.as_bytes(), |b| {
        let _ = parse_media(&text(b));
    });
}

#[test]
fn json_mutations_never_panic() {
    let valid = r#"{"schema": 5, "rows": [{"scenario": "a\"b", "p99_us": 1250, "share": -0.5e-3}], "ok": true, "none": null}"#;
    fuzz("json::parse", 5, valid.as_bytes(), |b| {
        let _ = json::parse(&text(b));
    });
}

#[test]
fn trace_mutations_never_panic() {
    let jobs = WorkloadSpec::smoke(42).generate().unwrap();
    let valid = render_trace(&jobs[..6.min(jobs.len())]);
    fuzz("parse_trace", 6, valid.as_bytes(), |b| {
        let _ = parse_trace(&text(b));
    });
}

#[test]
fn cmaf_segment_mutations_never_panic() {
    // A 17-byte codec header: magic, version, 64x48, 24 fps, 6 frames,
    // then the coding knobs.
    let mut header = b"VTXB\x01".to_vec();
    header.extend_from_slice(&64u16.to_le_bytes());
    header.extend_from_slice(&48u16.to_le_bytes());
    header.push(24);
    header.extend_from_slice(&6u16.to_le_bytes());
    header.extend_from_slice(&[3, 3, 1, 0, 8]);
    let init = mux::init_segment(&header).unwrap();
    demux::parse_init(&init).unwrap();
    fuzz("demux::parse_init", 7, &init, |b| {
        let _ = demux::parse_init(b);
    });
    let samples = [
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
    let media = mux::media_segment(7, 12, &samples);
    demux::parse_media(&media).unwrap();
    fuzz("demux::parse_media", 8, &media, |b| {
        let _ = demux::parse_media(b);
    });
}
