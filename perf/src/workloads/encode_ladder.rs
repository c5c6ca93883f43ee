//! `encode_ladder`: real encode speed of the from-scratch codec and the CMAF
//! packager. `codec` does nearly all the work; the profiler runs at sample
//! shift 16, so `trace` and `uarch` do almost none.
//!
//! One op takes one catalog clip at one CRF offset through the four-rung
//! ladder: decode the mezzanine, and per rung encode with forced-IDR GOPs,
//! package to CMAF, demux, re-mux, rebuild each segment's stream from its
//! samples and decode it; then render and parse the playlists.

use vtx_codec::{decode_video, encode_video, Bitstream, Preset};
use vtx_container::manifest::{
    parse_master, parse_media as parse_media_playlist, render_master, render_media,
};
use vtx_container::package::{master_playlist, media_playlist, package_stream};
use vtx_container::segment::{samples_to_stream, segment_points};
use vtx_container::{demux, mux, Ladder};
use vtx_core::Transcoder;
use vtx_frame::{quality, Video};
use vtx_uarch::config::UarchConfig;

use super::{profiler, rendition, OpResult, SimCounts, Size, Workload};
use crate::spans::Tracer;
use crate::stats::Fnv64;

/// Low, mid and high entropy; four 720p clips and one 480p.
const CLIPS: [&str; 5] = ["desktop", "bike", "game2", "girl", "holi"];
const CRF_OFFSETS: [i32; 3] = [-4, 0, 6];
/// Renditions of each clip at each offset. 5 x 3 x 3 is 45 ops a pass in five
/// cost clusters of nine (one per clip), so p50 (the 23rd op by cost) and p90
/// (the 41st) each fall on the middle of a cluster, not on the edge between
/// two, where they would jump from one clip to the next between seeds.
const RENDITIONS: usize = 3;
const LADDER: &str = "top=slow:18,hi=medium:20,mid=veryfast:26,lo=ultrafast:32";
/// Segment length: two or three GOPs in a half-second catalog clip.
const SEGMENT_MS: u32 = 250;
/// Sample shift 16 is the profiler's sparsest: simulation effectively off.
const SAMPLE_SHIFT: u32 = 16;
/// The coarsest rung at the highest CRF offset stays well above this.
const PSNR_FLOOR_DB: f64 = 22.0;

pub struct EncodeLadder {
    /// One rendition and one CRF offset per op.
    ops: Vec<(Transcoder, i32)>,
    ladder: Ladder,
    uarch: UarchConfig,
}

fn encode_span(preset: Preset) -> &'static str {
    match preset {
        Preset::Ultrafast => "codec.encode.ultrafast",
        Preset::Veryfast => "codec.encode.veryfast",
        Preset::Medium => "codec.encode.medium",
        Preset::Slow => "codec.encode.slow",
        _ => "codec.encode.other",
    }
}

impl EncodeLadder {
    pub fn build(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let (clips, renditions): (&[&str], usize) = match size {
            Size::Full => (&CLIPS, RENDITIONS),
            Size::Reference => (&CLIPS[1..2], 1),
        };
        let mut ops = Vec::new();
        for clip in clips {
            for &offset in &CRF_OFFSETS {
                for _ in 0..renditions {
                    ops.push((rendition(clip, seed, ops.len(), tr), offset));
                }
            }
        }
        EncodeLadder {
            ops,
            ladder: Ladder::parse(LADDER).expect("ladder spec parses"),
            uarch: UarchConfig::baseline(),
        }
    }
}

impl Workload for EncodeLadder {
    fn n_ops(&self) -> usize {
        self.ops.len()
    }

    fn label(&self, i: usize) -> String {
        let (t, offset) = &self.ops[i];
        format!("ladder {} crf{:+}", t.video().spec.short_name, offset)
    }

    fn try_run(&self, i: usize, tr: &mut Tracer) -> Result<OpResult, String> {
        let (t, offset) = &self.ops[i];
        let spec = t.video().spec.clone();
        let mut prof = tr.span("trace.profiler_new", |_| {
            profiler(&self.uarch, SAMPLE_SHIFT)
        });
        let mut digest = Fnv64::new();
        let mut ok = true;

        let decoded = tr
            .span_n("codec.decode", |_| {
                let d = decode_video(t.mezzanine(), &mut prof);
                let n = d.as_ref().map_or(0, |d| d.frames.len() as u64);
                (d, n)
            })
            .map_err(|e| e.to_string())?;
        let input = Video::new(spec.clone(), decoded.frames);
        let frames = input.len() as u32;
        let points = segment_points(frames, spec.fps, SEGMENT_MS);

        for rung in &self.ladder.rungs {
            let crf = (i32::from(rung.crf) + offset).clamp(0, 51);
            let mut cfg = rung
                .preset
                .config()
                .with_crf(f64::from(crf))
                .with_force_kf(points[1..].to_vec());
            cfg.threads = 1;
            let enc = tr
                .span_n(encode_span(rung.preset), |_| {
                    (encode_video(&input, &cfg, &mut prof), u64::from(frames))
                })
                .map_err(|e| e.to_string())?;
            let stream = &enc.bitstream.data;

            let pkg = tr
                .span_n("container.package", |_| {
                    (package_stream(stream, &points), stream.len() as u64)
                })
                .map_err(|e| e.to_string())?;
            let (info, segments) = tr
                .span_n("container.demux", |_| {
                    let bytes = pkg.init.len() + pkg.media.iter().map(Vec::len).sum::<usize>();
                    let parsed = demux::parse_init(&pkg.init).and_then(|info| {
                        let segs: Result<Vec<_>, _> =
                            pkg.media.iter().map(|m| demux::parse_media(m)).collect();
                        Ok((info, segs?))
                    });
                    (parsed, bytes as u64)
                })
                .map_err(|e| e.to_string())?;
            // demux ∘ mux is the identity: re-muxing the parsed form gives
            // back the packaged bytes.
            ok &= tr.span_n("container.package", |_| {
                let init_same = mux::init_segment(&info.codec_header).is_ok_and(|b| b == pkg.init);
                let media_same = segments
                    .iter()
                    .zip(&pkg.media)
                    .all(|(s, m)| mux::media_segment(s.seq, s.base_time, &s.samples) == *m);
                (init_same && media_same, stream.len() as u64)
            });

            // Each segment is a closed GOP that decodes on its own.
            let mut redecoded = Vec::with_capacity(input.len());
            for seg in &segments {
                let standalone = Bitstream {
                    data: tr.span("container.demux", |_| {
                        samples_to_stream(&info.codec_header, &seg.samples)
                    }),
                };
                let d = tr
                    .span_n("codec.decode", |_| {
                        (
                            decode_video(&standalone, &mut prof),
                            seg.samples.len() as u64,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                redecoded.extend(d.frames);
            }
            // The decoder's frames are the encoder's reconstruction, bit for bit.
            ok &= redecoded == enc.recon;

            let psnr = tr
                .span("frame.psnr", |_| {
                    quality::sequence_psnr(&input.frames, &enc.recon)
                })
                .map_err(|e| e.to_string())?;
            ok &= psnr > PSNR_FLOOR_DB;

            digest.bytes(stream).bytes(&pkg.init);
            for m in &pkg.media {
                digest.bytes(m);
            }
            digest.u64(psnr.to_bits());
        }

        ok &= tr.span_n("container.manifest", |_| {
            let master = master_playlist(&self.ladder);
            let text = render_master(&master);
            let mut same = parse_master(&text).is_ok_and(|m| m == master);
            digest.str(&text);
            for rung in &self.ladder.rungs {
                let media = media_playlist(&rung.name, &points, frames, spec.fps);
                let text = render_media(&media);
                same &= parse_media_playlist(&text).is_ok_and(|m| m == media);
                digest.str(&text);
            }
            (same, 1 + self.ladder.rungs.len() as u64)
        });

        Ok(OpResult {
            work: f64::from(frames) * self.ladder.rungs.len() as f64,
            digest: digest.finish(),
            ok,
            sim: SimCounts::default(),
        })
    }
}
