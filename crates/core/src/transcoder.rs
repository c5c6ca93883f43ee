//! The transcoder facade: FFmpeg + VTune in one call.

use vtx_codec::encoder::Bitstream;
use vtx_codec::{decode_video, encode_video, instr, EncoderConfig, RateControlMode};
use vtx_frame::{quality, synth, vbench, Video};
use vtx_opt::CompiledBinary;
use vtx_telemetry::{Collector, Span};
use vtx_trace::layout::CodeLayout;
use vtx_trace::plan::DataPlan;
use vtx_trace::{ProfileReport, Profiler};
use vtx_uarch::config::UarchConfig;

use crate::{CoreError, RunSummary};

/// Execution context for one transcode: which microarchitecture, which
/// compiled-binary model, and how densely to sample the simulation.
#[derive(Debug, Clone)]
pub struct TranscodeOptions {
    /// Microarchitecture configuration to simulate.
    pub uarch: UarchConfig,
    /// Code layout of the "binary" (default: linker order).
    pub layout: Option<CodeLayout>,
    /// Loop-transformation plan (default: canonical).
    pub plan: DataPlan,
    /// Profiler sampling shift (0 = trace everything; sweeps use 1–3).
    pub sample_shift: u32,
    /// Wavefront encoder threads: `None` respects the encoder config's
    /// `threads` field, `Some(n)` overrides it (`Some(0)` = auto). The
    /// parallel encoder is bit-identical to the serial one, so this only
    /// changes wall-clock time, never the report.
    pub(crate) threads: Option<u32>,
}

impl Default for TranscodeOptions {
    fn default() -> Self {
        TranscodeOptions {
            uarch: UarchConfig::baseline(),
            layout: None,
            plan: DataPlan::canonical(),
            sample_shift: 0,
            threads: None,
        }
    }
}

impl TranscodeOptions {
    /// Options for a specific microarchitecture.
    pub fn on(uarch: UarchConfig) -> Self {
        TranscodeOptions {
            uarch,
            ..Self::default()
        }
    }

    /// Options executing under a compiled-binary variant from `vtx-opt`.
    pub fn with_binary(mut self, binary: &CompiledBinary) -> Self {
        self.layout = Some(binary.layout.clone());
        self.plan = binary.plan;
        self
    }

    /// Sets the sampling shift. Builder-style.
    pub fn with_sample_shift(mut self, shift: u32) -> Self {
        self.sample_shift = shift;
        self
    }

    /// Sets the wavefront encoder thread count (`0` = auto). Builder-style.
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// Everything one transcode produces: the three key metrics of §III-A plus
/// the full microarchitectural profile.
#[derive(Debug, Clone)]
pub struct TranscodeReport {
    /// Transcoding speed: simulated seconds on the configured core.
    pub seconds: f64,
    /// Transcoded file size as a bitrate in kbit/s.
    pub bitrate_kbps: f64,
    /// Transcoded video quality: PSNR in dB against the transcode input.
    pub psnr_db: f64,
    /// Compact per-run summary (Top-down, MPKI, stalls).
    pub summary: RunSummary,
    /// The full profile (hotspots, raw counts, kernel profile for FDO).
    pub profile: ProfileReport,
}

/// A transcoding workload bound to one input video.
///
/// Construction encodes the raw synthetic clip once into a high-quality
/// *mezzanine* bitstream — the "uploaded video". Every [`Transcoder::transcode`]
/// call then performs the paper's §II-A two-stage operation: decode the
/// mezzanine to raw frames, re-encode with the requested parameters. Both
/// stages run under the profiler.
#[derive(Debug)]
pub struct Transcoder {
    video: Video,
    mezzanine: Bitstream,
}

impl Transcoder {
    /// Builds the workload for a vbench catalog entry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownVideo`] for names outside Table I, or a
    /// codec error if the mezzanine encode fails.
    pub fn from_catalog(short_name: &str, seed: u64) -> Result<Self, CoreError> {
        let spec = vbench::by_name(short_name).ok_or_else(|| CoreError::UnknownVideo {
            name: short_name.to_owned(),
        })?;
        Self::from_video(synth::generate(&spec, seed))
    }

    /// Builds the workload from an already-materialized raw video.
    ///
    /// # Errors
    ///
    /// Returns a codec error if the mezzanine encode fails.
    pub fn from_video(video: Video) -> Result<Self, CoreError> {
        // High-quality, fast mezzanine: what an uploader would have sent.
        let mezz_cfg = EncoderConfig {
            rc: RateControlMode::Cqp(14),
            refs: 1,
            subme: 1,
            bframes: 0,
            trellis: 0,
            aq_mode: 0,
            me: vtx_codec::MeMethod::Dia,
            ..EncoderConfig::default()
        };
        // The mezzanine encode is setup, not measurement: sample sparsely.
        let mut prof = throwaway_profiler()?;
        prof.set_sample_shift(6);
        let encoded = encode_video(&video, &mezz_cfg, &mut prof)?;
        Ok(Transcoder {
            video,
            mezzanine: encoded.bitstream,
        })
    }

    /// The source clip.
    pub fn video(&self) -> &Video {
        &self.video
    }

    /// The mezzanine ("uploaded") bitstream that every transcode decodes.
    pub fn mezzanine(&self) -> &Bitstream {
        &self.mezzanine
    }

    /// Runs one profiled transcode: decode the mezzanine, re-encode with
    /// `cfg`, and report speed / size / quality plus the microarchitectural
    /// profile.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and codec failures.
    pub fn transcode(
        &self,
        cfg: &EncoderConfig,
        opts: &TranscodeOptions,
    ) -> Result<TranscodeReport, CoreError> {
        let _span = Span::enter_with("transcode", |a| {
            a.str("config", &opts.uarch.name)
                .str("video", &self.video.spec.short_name)
                .u64("refs", u64::from(cfg.refs))
                .u64("sample_shift", u64::from(opts.sample_shift));
        });
        let kernels = instr::kernel_table();
        let layout = opts
            .layout
            .clone()
            .unwrap_or_else(|| CodeLayout::default_order(kernels));
        let mut prof = Profiler::new(&opts.uarch, kernels, layout)?;
        prof.set_sample_shift(opts.sample_shift);
        prof.set_data_plan(opts.plan);

        // Stage 1: decode the uploaded bitstream to raw frames.
        let decoded = {
            let _s = Span::enter("transcode/decode");
            decode_video(&self.mezzanine, &mut prof)?
        };
        let input = Video::new(self.video.spec.clone(), decoded.frames);

        // Stage 2: re-encode at the target parameters.
        let mut cfg_eff = cfg.clone();
        if let Some(t) = opts.threads {
            cfg_eff.threads = t;
        }
        let encoded = {
            let _s = Span::enter("transcode/encode");
            encode_video(&input, &cfg_eff, &mut prof)?
        };

        let psnr_db = quality::sequence_psnr(&input.frames, &encoded.recon)?;
        let duration = input.len() as f64 / f64::from(input.spec.fps);
        let bitrate_kbps = encoded.bitstream.bitrate_kbps(duration);

        let profile = prof.finish();
        if Collector::is_enabled() {
            crate::trace_export::record_profile(&profile);
        }
        Ok(TranscodeReport {
            seconds: profile.seconds,
            bitrate_kbps,
            psnr_db,
            summary: RunSummary::from_profile(&profile),
            profile,
        })
    }
}

fn throwaway_profiler() -> Result<Profiler, CoreError> {
    let kernels = instr::kernel_table();
    Ok(Profiler::new(
        &UarchConfig::baseline(),
        kernels,
        CodeLayout::default_order(kernels),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_transcoder(name: &str) -> Transcoder {
        let mut spec = vbench::by_name(name).unwrap();
        spec.sim_width = 64;
        spec.sim_height = 48;
        spec.sim_frames = 6;
        Transcoder::from_video(synth::generate(&spec, 3)).unwrap()
    }

    #[test]
    fn transcode_reports_all_metrics() {
        let t = tiny_transcoder("cricket");
        let r = t
            .transcode(&EncoderConfig::default(), &TranscodeOptions::default())
            .unwrap();
        assert!(r.seconds > 0.0);
        assert!(r.bitrate_kbps > 0.0);
        assert!(r.psnr_db > 25.0);
        assert!((r.summary.topdown.sum() - 1.0).abs() < 1e-9);
        assert!(r.profile.counts.instructions > 100_000);
    }

    #[test]
    fn unknown_video_is_an_error() {
        assert!(matches!(
            Transcoder::from_catalog("nope", 1),
            Err(CoreError::UnknownVideo { .. })
        ));
    }

    #[test]
    fn crf_direction_holds_through_facade() {
        let t = tiny_transcoder("cricket");
        let opts = TranscodeOptions::default();
        let lo = t
            .transcode(&EncoderConfig::default().with_crf(15.0), &opts)
            .unwrap();
        let hi = t
            .transcode(&EncoderConfig::default().with_crf(42.0), &opts)
            .unwrap();
        assert!(hi.bitrate_kbps < lo.bitrate_kbps);
        assert!(hi.psnr_db < lo.psnr_db);
        assert!(hi.seconds < lo.seconds, "{} < {}", hi.seconds, lo.seconds);
    }

    #[test]
    fn mezzanine_is_decodable_and_high_quality() {
        use vtx_codec::decode_video;
        use vtx_trace::layout::CodeLayout;
        let t = tiny_transcoder("bike");
        assert!(t.mezzanine().size_bytes() > 16);
        let kernels = vtx_codec::instr::kernel_table();
        let mut prof = vtx_trace::Profiler::new(
            &UarchConfig::baseline(),
            kernels,
            CodeLayout::default_order(kernels),
        )
        .unwrap();
        let dec = decode_video(t.mezzanine(), &mut prof).unwrap();
        let psnr = quality::sequence_psnr(&t.video().frames, &dec.frames).unwrap();
        assert!(psnr > 38.0, "mezzanine must be near-transparent: {psnr}");
    }

    #[test]
    fn deterministic_reports() {
        let t = tiny_transcoder("girl");
        let opts = TranscodeOptions::default();
        let a = t.transcode(&EncoderConfig::default(), &opts).unwrap();
        let b = t.transcode(&EncoderConfig::default(), &opts).unwrap();
        assert_eq!(a.profile.counts, b.profile.counts);
        assert_eq!(a.seconds, b.seconds);
    }

    #[test]
    fn threads_option_does_not_change_the_report() {
        let t = tiny_transcoder("bike");
        let serial = t
            .transcode(&EncoderConfig::default(), &TranscodeOptions::default())
            .unwrap();
        let threaded = t
            .transcode(
                &EncoderConfig::default(),
                &TranscodeOptions::default().with_threads(3),
            )
            .unwrap();
        assert_eq!(serial.profile.counts, threaded.profile.counts);
        assert_eq!(serial.profile.profile, threaded.profile.profile);
        assert_eq!(serial.seconds, threaded.seconds);
        assert_eq!(serial.bitrate_kbps, threaded.bitrate_kbps);
        assert_eq!(serial.psnr_db, threaded.psnr_db);
    }

    /// A whole transcode's report, with the profiler's models on their own
    /// thread, against the inline drive's on every Table IV configuration at
    /// shift 0 and 1: FNV-1a of the `Debug` text `perf` digests, pinned from
    /// the inline-drive profiler this one replaced.
    #[test]
    fn transcode_reports_equal_the_inline_drive() {
        let t = tiny_transcoder("cricket");
        let fnv = |text: String| {
            text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut got = Vec::new();
        for cfg in UarchConfig::table_iv() {
            for shift in [0, 1] {
                let opts = TranscodeOptions::on(cfg.clone()).with_sample_shift(shift);
                let r = t.transcode(&EncoderConfig::default(), &opts).unwrap();
                got.push(fnv(format!("{:?}", r.profile)));
            }
        }
        #[rustfmt::skip]
        let want = [
            0xfe64b8837d852a72, 0x8fa9c05ba14a4d4e, // baseline
            0x927b13089586a123, 0xab29b3caeef341b8, // fe_op
            0x627c48e0bfcc792e, 0x2f67a8b1ec86ccfb, // be_op1
            0xa232365ae96c27df, 0x9e1661067e10a9f4, // be_op2
            0x05d6adeb15924349, 0xeb218d61422dfcb7, // bs_op
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }
}
