//! `characterize_sweep`: the paper's own use — profiled transcodes in sweeps.
//! `trace` and `uarch` (cache hierarchy, TLB, branch predictors, interval
//! model) do most of the work, the same `codec` calls do little.
//!
//! One op is one `Transcoder::transcode` at sample shift 1 followed by
//! `vtx_port::refine_report`. The op list has the shapes of Figures 3–8: a
//! strided crf × refs grid and the ten presets on `bike`, the five Table IV
//! configurations on `cat` and `desktop`, and the three binary variants; each
//! op on its own rendition of its clip (see `rendition`).
//!
//! With the tracer on, the op is split from outside by the crates' own
//! contract: decode and encode against a recording shard, replay the
//! captured events into the parent profiler, finish. The digest of the
//! resulting report must equal that of the unsplit transcode.

use vtx_codec::{decode_video, encode_video, instr, EncoderConfig, Preset};
use vtx_core::{TranscodeOptions, Transcoder};
use vtx_frame::{quality, Video};
use vtx_opt::{compile, BinaryVariant};
use vtx_port::refine_report;
use vtx_trace::layout::CodeLayout;
use vtx_trace::{ProfileReport, Profiler};
use vtx_uarch::config::UarchConfig;

use super::{rendition, OpResult, SimCounts, Size, Workload};
use crate::spans::Tracer;
use crate::stats::Fnv64;

/// What `vtx_bench::sweep_options` and every figure harness use.
const SAMPLE_SHIFT: u32 = 1;
const GRID_CRF: [u8; 6] = [10, 18, 26, 34, 42, 50];
const GRID_REFS: [u8; 5] = [1, 2, 4, 8, 16];
const TABLE_IV_CLIPS: [&str; 2] = ["cat", "desktop"];

struct Op {
    label: String,
    /// The op's own rendition of its clip.
    clip: Transcoder,
    cfg: EncoderConfig,
    opts: TranscodeOptions,
}

pub struct CharacterizeSweep {
    ops: Vec<Op>,
}

impl CharacterizeSweep {
    pub fn build(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let base = TranscodeOptions::default().with_sample_shift(SAMPLE_SHIFT);
        let fig6 = |p: Preset| p.config().with_crf(23.0).with_refs(3);
        let mut ops: Vec<Op> = Vec::new();
        let mut push = |kind: &str, clip: &str, what: String, cfg, opts, tr: &mut Tracer| {
            let clip_of_op = rendition(clip, seed, ops.len(), tr);
            ops.push(Op {
                label: format!("{kind} {clip} {what}"),
                clip: clip_of_op,
                cfg,
                opts,
            });
        };

        let full = size == Size::Full;
        let (grid_crf, grid_refs, presets): (&[u8], &[u8], &[Preset]) = if full {
            (&GRID_CRF, &GRID_REFS, &Preset::ALL)
        } else {
            (&GRID_CRF[2..3], &GRID_REFS[..2], &[Preset::Veryfast])
        };
        for &crf in grid_crf {
            for &refs in grid_refs {
                let cfg = EncoderConfig::default()
                    .with_crf(f64::from(crf))
                    .with_refs(refs);
                push(
                    "grid",
                    "bike",
                    format!("crf{crf} refs{refs}"),
                    cfg,
                    base.clone(),
                    tr,
                );
            }
        }
        for &p in presets {
            push(
                "preset",
                "bike",
                p.name().to_string(),
                fig6(p),
                base.clone(),
                tr,
            );
        }
        if full {
            for uarch in UarchConfig::table_iv() {
                for clip in TABLE_IV_CLIPS {
                    let opts = TranscodeOptions::on(uarch.clone()).with_sample_shift(SAMPLE_SHIFT);
                    push(
                        "table4",
                        clip,
                        uarch.name.clone(),
                        EncoderConfig::default(),
                        opts,
                        tr,
                    );
                }
            }
        }

        // AutoFDO recompiles from a profile of the stock binary, like the
        // real perf-record → rebuild flow; that training run is set-up.
        let training = rendition("bike", seed, usize::MAX, tr)
            .transcode(&fig6(Preset::Medium), &base)
            .expect("training transcode");
        let kernels = instr::kernel_table();
        // The stock binary once, the two optimised binaries on two presets.
        let per_binary: [&[Preset]; 3] = if full {
            [
                &[Preset::Veryfast],
                &[Preset::Veryfast, Preset::Medium],
                &[Preset::Veryfast, Preset::Medium],
            ]
        } else {
            [&[], &[Preset::Veryfast], &[Preset::Veryfast]]
        };
        for (&variant, presets) in BinaryVariant::ALL.iter().zip(per_binary) {
            let binary = tr.span("opt.compile", |_| {
                compile(
                    variant,
                    kernels,
                    Some(&training.profile.profile),
                    &base.uarch,
                )
                .expect("profile supplied")
            });
            for &p in presets {
                let what = format!("{} {}", variant.name(), p.name());
                push(
                    "binary",
                    "bike",
                    what,
                    fig6(p),
                    base.clone().with_binary(&binary),
                    tr,
                );
            }
        }
        CharacterizeSweep { ops }
    }

    /// The op as its callers run it: one facade call.
    fn transcode_whole(&self, op: &Op) -> Result<(ProfileReport, f64, f64, u64), String> {
        let r = op
            .clip
            .transcode(&op.cfg, &op.opts)
            .map_err(|e| e.to_string())?;
        Ok((r.profile, r.bitrate_kbps, r.psnr_db, 0))
    }

    /// The same transcode taken apart at the profiler: record, replay, finish.
    fn transcode_split(
        &self,
        op: &Op,
        tr: &mut Tracer,
    ) -> Result<(ProfileReport, f64, f64, u64), String> {
        let t = &op.clip;
        let kernels = instr::kernel_table();
        let mut prof = tr
            .span("trace.profiler_new", |_| {
                let layout = op
                    .opts
                    .layout
                    .clone()
                    .unwrap_or_else(|| CodeLayout::default_order(kernels));
                Profiler::new(&op.opts.uarch, kernels, layout)
            })
            .map_err(|e| e.to_string())?;
        prof.set_sample_shift(op.opts.sample_shift);
        prof.set_data_plan(op.opts.plan);

        let mut shard = prof.recording_shard();
        let (input, encoded) = tr.span_n("codec.record", |_| {
            let out = decode_video(t.mezzanine(), &mut shard).and_then(|d| {
                let input = Video::new(t.video().spec.clone(), d.frames);
                let encoded = encode_video(&input, &op.cfg, &mut shard)?;
                Ok((input, encoded))
            });
            let frames = out.as_ref().map_or(0, |(i, _)| 2 * i.len() as u64);
            (out.map_err(|e| e.to_string()), frames)
        })?;
        let events = shard.take_events();
        tr.span_n("trace.replay", |_| {
            prof.replay(&events);
            ((), events.len() as u64)
        });
        let psnr = tr
            .span("frame.psnr", |_| {
                quality::sequence_psnr(&input.frames, &encoded.recon)
            })
            .map_err(|e| e.to_string())?;
        let duration = input.len() as f64 / f64::from(input.spec.fps);
        let bitrate = encoded.bitstream.bitrate_kbps(duration);
        let profile = tr.span("trace.finish", |_| prof.finish());
        Ok((profile, bitrate, psnr, events.len() as u64))
    }
}

impl Workload for CharacterizeSweep {
    fn n_ops(&self) -> usize {
        self.ops.len()
    }

    fn label(&self, i: usize) -> String {
        self.ops[i].label.clone()
    }

    fn try_run(&self, i: usize, tr: &mut Tracer) -> Result<OpResult, String> {
        let op = &self.ops[i];
        let (mut profile, bitrate, psnr, events) = if tr.enabled() {
            tr.span("core.transcode", |tr| self.transcode_split(op, tr))?
        } else {
            self.transcode_whole(op)?
        };
        let refinement = tr
            .span("port.refine", |_| {
                refine_report(&mut profile, &op.opts.uarch)
            })
            .map_err(|e| e.to_string())?;

        let ok = (profile.topdown.sum() - 1.0).abs() < 1e-9 && profile.counts.instructions > 0;
        // `Debug` prints every field of the report, floats to full precision.
        let digest = Fnv64::new()
            .str(&format!("{profile:?}{refinement:?}"))
            .u64(bitrate.to_bits())
            .u64(psnr.to_bits())
            .finish();
        let c = &profile.counts;
        Ok(OpResult {
            work: c.instructions as f64 / 1e6,
            digest,
            ok,
            sim: SimCounts {
                events,
                instructions: c.instructions,
                l1d_misses: c.loads.l1_misses() + c.stores.l1_misses(),
                l2_misses: c.loads.l2_misses() + c.stores.l2_misses(),
                mispredicts: c.branch_mispredicts,
            },
        })
    }
}
