//! Open-loop load generation: reproducible arrival traces over the vbench
//! catalog and the x264 presets.
//!
//! The generator is *open-loop* (arrivals do not react to service), which is
//! how production transcoding traffic behaves — uploads keep coming whether
//! or not the fleet is keeping up — and the regime in which tail latency and
//! shedding are actually stressed. A [`WorkloadSpec`] plus a seed fully
//! determines the trace: Poisson arrivals via inverse-CDF exponential
//! inter-arrival times, job parameters drawn from explicit choice lists,
//! priorities from an explicit mix. The rendered trace format is one line
//! per job (see [`render_trace`]) and round-trips through [`parse_trace`].

use std::sync::Arc;

use vtx_cache::ZipfSampler;
use vtx_codec::Preset;
use vtx_sched::TranscodeTask;

use crate::error::ServeError;
use crate::rng::SplitMix64;

/// Service classes, highest priority first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Live/interactive transcodes: tight deadline, never queued for long.
    Interactive,
    /// Standard VOD ingest.
    Standard,
    /// Bulk re-encodes, library migrations: loose deadline, shed first.
    Batch,
}

impl Priority {
    /// All classes, dispatch order (highest first).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Stable index into per-class arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }

    /// Short name used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }

    /// Parses a class name.
    fn from_name(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|p| p.name() == s)
    }
}

/// One job of an arrival trace: a transcoding task plus its service-level
/// envelope. Times are absolute simulated microseconds from trace start.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique, dense id (position in the trace).
    pub(crate) id: u64,
    /// Arrival time in microseconds from trace start.
    pub arrival_us: u64,
    /// What to transcode.
    pub task: TranscodeTask,
    /// Service class.
    pub(crate) priority: Priority,
    /// Absolute completion deadline; finishing later is an SLO violation,
    /// still being *queued* past it gets the job shed.
    pub(crate) deadline_us: u64,
    /// Per-attempt service cap: an attempt running longer is killed and the
    /// job retried (up to the configured retry budget).
    pub timeout_us: u64,
}

/// Popularity model for repeat-heavy catalogs: a Zipf skew over the video
/// list (rank order = list order, so the first video is the hottest) plus
/// a live-vs-VOD service-class split. Live requests map to
/// [`Priority::Interactive`]; VOD requests split between `Standard` and
/// `Batch` by the spec's remaining `mix` weights. Each class pins its knob
/// vector (live takes the first preset/CRF/refs choices, VOD the last) so
/// repeated requests for a hot video share cache keys, the way a
/// production catalog re-requests the same rendition settings.
#[derive(Debug, Clone, PartialEq)]
pub struct PopularitySpec {
    /// Zipf skew exponent `s` over the video list (0 = uniform).
    pub(crate) zipf_s: f64,
    /// Fraction of jobs in the live (interactive) class, in `[0, 1]`.
    pub(crate) live_frac: f64,
}

/// Shape of a non-stationary arrival process, as a time-varying multiplier
/// of the spec's base `arrival_rate_hz`. Arrivals are generated by thinning
/// a Poisson process at the shape's peak rate, so the trace stays a pure
/// function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalShape {
    /// Constant rate (the legacy stationary Poisson process).
    Stationary,
    /// Diurnal sinusoid: `rate(t) = base · (1 + depth · sin(2πt / period))`,
    /// clamped at zero. `depth` in `[0, 1]` is the peak-to-mean swing.
    Diurnal {
        /// Cycle period in seconds.
        period_s: f64,
        /// Relative swing amplitude in `[0, 1]`.
        depth: f64,
    },
    /// Flash crowd: base rate until `start_s`, linear ramp to
    /// `base · mult` over `ramp_s`, hold for `hold_s`, symmetric ramp back
    /// down, base rate thereafter. `ramp_s = 0` is a step spike.
    Flash {
        /// Peak rate as a multiple of the base rate (≥ 1).
        mult: f64,
        /// Spike onset, seconds from trace start.
        start_s: f64,
        /// Ramp duration (up and down), seconds.
        ramp_s: f64,
        /// Duration at peak, seconds.
        hold_s: f64,
    },
}

impl ArrivalShape {
    /// Rate multiplier at `t_s` seconds from trace start.
    fn multiplier(&self, t_s: f64) -> f64 {
        match *self {
            ArrivalShape::Stationary => 1.0,
            ArrivalShape::Diurnal { period_s, depth } => {
                let phase = 2.0 * std::f64::consts::PI * t_s / period_s.max(1e-9);
                (1.0 + depth * phase.sin()).max(0.0)
            }
            ArrivalShape::Flash {
                mult,
                start_s,
                ramp_s,
                hold_s,
            } => {
                let m = mult.max(1.0);
                let dt = t_s - start_s;
                if dt < 0.0 {
                    1.0
                } else if dt < ramp_s {
                    1.0 + (m - 1.0) * dt / ramp_s.max(1e-9)
                } else if dt < ramp_s + hold_s {
                    m
                } else if dt < 2.0 * ramp_s + hold_s {
                    m - (m - 1.0) * (dt - ramp_s - hold_s) / ramp_s.max(1e-9)
                } else {
                    1.0
                }
            }
        }
    }

    /// The shape's peak multiplier (the thinning envelope).
    fn peak(&self) -> f64 {
        match *self {
            ArrivalShape::Stationary => 1.0,
            ArrivalShape::Diurnal { depth, .. } => 1.0 + depth.max(0.0),
            ArrivalShape::Flash { mult, .. } => mult.max(1.0),
        }
    }

    /// For [`ArrivalShape::Flash`], the `(spike_start_us, spike_end_us)`
    /// window (ramp-up start to ramp-down end); `None` otherwise.
    pub fn flash_window_us(&self) -> Option<(u64, u64)> {
        match *self {
            ArrivalShape::Flash {
                start_s,
                ramp_s,
                hold_s,
                ..
            } => {
                let start = (start_s * 1e6).round() as u64;
                let end = ((start_s + 2.0 * ramp_s + hold_s) * 1e6).round() as u64;
                Some((start, end))
            }
            _ => None,
        }
    }
}

/// One tenant of a multi-tenant mix. Tenants share the fleet but draw from
/// their own rotated slice of the catalog with their own Zipf skew, and the
/// admission layer can hold each to its declared quota.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Share of the arrival stream (relative weight, any positive scale).
    pub(crate) weight: f64,
    /// Zipf skew of this tenant's catalog popularity (0 = uniform).
    pub(crate) zipf_s: f64,
    /// Admission quota in jobs per second the tenant is entitled to;
    /// the serving layer's token buckets enforce it when armed.
    pub(crate) quota_hz: f64,
}

/// A composable surge scenario: an arrival shape plus an optional
/// multi-tenant mix. Job ids encode the tenant (`id % n_tenants`, see
/// `tenant_of`) so the rendered trace format needs no extra column and
/// sim and real executors recover the same tenancy from the same trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Time-varying arrival shape.
    pub shape: ArrivalShape,
    /// Tenant mix; empty = single-tenant (legacy per-job knob draws).
    pub tenants: Vec<TenantSpec>,
}

/// The tenant a job id belongs to under an `n_tenants`-way mix (0 when the
/// mix is empty or single-tenant).
pub(crate) fn tenant_of(id: u64, n_tenants: usize) -> usize {
    if n_tenants <= 1 {
        0
    } else {
        (id % n_tenants as u64) as usize
    }
}

/// Everything that determines an arrival trace. Two equal specs generate
/// byte-identical traces.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Master seed: arrivals, parameter draws and service noise all derive
    /// from it.
    pub seed: u64,
    /// Mean arrival rate in jobs per second (open loop).
    pub arrival_rate_hz: f64,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Candidate videos (vbench short names).
    pub videos: Vec<String>,
    /// Candidate presets.
    pub presets: Vec<Preset>,
    /// Candidate CRF values.
    pub crf_choices: Vec<u8>,
    /// Candidate reference-frame counts.
    pub refs_choices: Vec<u8>,
    /// Priority mix (weights for interactive/standard/batch).
    pub mix: [f64; 3],
    /// Per-class deadline budget (microseconds after arrival).
    pub slo_budget_us: [u64; 3],
    /// Per-class per-attempt timeout in microseconds.
    pub timeout_us: [u64; 3],
    /// Optional popularity model. `None` (the default) keeps the legacy
    /// uniform draws byte-for-byte; `Some` switches video selection to
    /// Zipf and the class draw to the live/VOD split.
    pub popularity: Option<PopularitySpec>,
    /// Optional surge scenario (non-stationary shape and/or tenant mix).
    /// `None` (the default) keeps every legacy trace byte-for-byte.
    pub scenario: Option<ScenarioSpec>,
}

impl WorkloadSpec {
    /// The bundled benchmark scenario: a mixed diurnal-peak trace sized so a
    /// five-server Table IV fleet runs at ~80% utilization — busy enough
    /// that queueing (and therefore placement quality) dominates the tail.
    pub fn bundled(seed: u64) -> Self {
        WorkloadSpec {
            seed,
            arrival_rate_hz: 2.4,
            jobs: 400,
            videos: vec![
                "desktop".into(),
                "presentation".into(),
                "bike".into(),
                "game2".into(),
                "holi".into(),
                "cat".into(),
                "girl".into(),
                "hall".into(),
            ],
            presets: vec![
                Preset::Ultrafast,
                Preset::Veryfast,
                Preset::Faster,
                Preset::Medium,
                Preset::Slow,
            ],
            crf_choices: vec![18, 23, 28, 35],
            refs_choices: vec![1, 3, 6],
            mix: [0.2, 0.55, 0.25],
            slo_budget_us: [2_500_000, 6_000_000, 20_000_000],
            timeout_us: [4_000_000, 10_000_000, 30_000_000],
            popularity: None,
            scenario: None,
        }
    }

    /// A small scenario for smoke tests and CI (same shape, 60 jobs).
    pub fn smoke(seed: u64) -> Self {
        WorkloadSpec {
            jobs: 60,
            ..Self::bundled(seed)
        }
    }

    /// The fig9-XL scenario: one million jobs against a ten-thousand-server
    /// fleet ([`crate::fleet::Fleet::sized`]`(10_000)`). The arrival rate
    /// keeps the same per-server offered load as [`Self::bundled`] does at
    /// five servers, so placement quality — not raw saturation — still
    /// decides the tail. Intended for the XL engine path (calendar queue,
    /// idle index, two-level cell dispatch); with the event log and
    /// observability plane off it completes in seconds.
    pub fn xl(seed: u64) -> Self {
        WorkloadSpec {
            jobs: 1_000_000,
            arrival_rate_hz: 3_000.0,
            ..Self::bundled(seed)
        }
    }

    /// The CI-sized XL smoke: 20k jobs / intended for a 500-server fleet,
    /// same per-server load as [`Self::xl`]. Big enough to exercise every
    /// XL code path (cell routing, per-cell solves, Fenwick sampling), small
    /// enough for a two-run byte-determinism check in CI.
    pub fn xl_smoke(seed: u64) -> Self {
        WorkloadSpec {
            jobs: 20_000,
            arrival_rate_hz: 150.0,
            ..Self::bundled(seed)
        }
    }

    /// A tiny real-executor scenario: few jobs, fast presets only (these
    /// run *actual* transcodes, so the work per job must stay test-sized).
    pub fn real_smoke(seed: u64) -> Self {
        WorkloadSpec {
            seed,
            arrival_rate_hz: 4.0,
            jobs: 6,
            videos: vec!["desktop".into(), "cat".into()],
            presets: vec![Preset::Ultrafast, Preset::Veryfast],
            crf_choices: vec![23, 35],
            refs_choices: vec![1, 2],
            mix: [0.3, 0.5, 0.2],
            slo_budget_us: [2_500_000, 6_000_000, 20_000_000],
            timeout_us: [60_000_000, 60_000_000, 60_000_000],
            popularity: None,
            scenario: None,
        }
    }

    /// The flash-crowd surge scenario: 2 Hz base load that spikes 12× for
    /// ~10 s thirty seconds in (2 s ramps), then returns to base with a
    /// long quiet tail so recovery is visible inside the trace. 300 jobs —
    /// the spike alone contributes well over 200.
    pub fn flash_crowd(seed: u64) -> Self {
        WorkloadSpec {
            jobs: 300,
            arrival_rate_hz: 2.0,
            ..Self::bundled(seed)
        }
        .with_scenario(ScenarioSpec {
            shape: ArrivalShape::Flash {
                mult: 12.0,
                start_s: 30.0,
                ramp_s: 2.0,
                hold_s: 10.0,
            },
            tenants: Vec::new(),
        })
    }

    /// The diurnal surge scenario: a 60 s sinusoidal cycle with an 80%
    /// swing around the bundled base rate.
    pub fn diurnal(seed: u64) -> Self {
        WorkloadSpec {
            jobs: 400,
            ..Self::bundled(seed)
        }
        .with_scenario(ScenarioSpec {
            shape: ArrivalShape::Diurnal {
                period_s: 60.0,
                depth: 0.8,
            },
            tenants: Vec::new(),
        })
    }

    /// The multi-tenant surge scenario: three tenants with distinct Zipf
    /// skews over rotated catalog slices, weighted 5:3:2, each declaring a
    /// quota proportional to its share of the bundled rate — the heaviest
    /// tenant's quota is set *below* its offered share so fair shedding has
    /// something to do when admission quotas are armed.
    pub fn multi_tenant(seed: u64) -> Self {
        WorkloadSpec {
            jobs: 300,
            arrival_rate_hz: 2.4,
            ..Self::bundled(seed)
        }
        .with_scenario(ScenarioSpec {
            shape: ArrivalShape::Stationary,
            tenants: vec![
                TenantSpec {
                    weight: 5.0,
                    zipf_s: 1.0,
                    quota_hz: 0.8,
                },
                TenantSpec {
                    weight: 3.0,
                    zipf_s: 0.8,
                    quota_hz: 0.9,
                },
                TenantSpec {
                    weight: 2.0,
                    zipf_s: 1.2,
                    quota_hz: 0.6,
                },
            ],
        })
    }

    /// Attaches a surge scenario to this spec.
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Number of tenants in the attached scenario (1 when none).
    #[cfg(test)]
    fn n_tenants(&self) -> usize {
        self.scenario.as_ref().map_or(1, |s| s.tenants.len().max(1))
    }

    /// Switch this spec to popularity-driven generation: Zipf(`zipf_s`)
    /// video selection with a `live_frac` live/VOD class split.
    pub fn with_popularity(mut self, zipf_s: f64, live_frac: f64) -> Self {
        self.popularity = Some(PopularitySpec { zipf_s, live_frac });
        self
    }

    /// Generates the arrival trace this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::EmptyWorkload`] when `jobs` is 0 or any choice
    /// list is empty, and [`ServeError::InvalidPopularity`] when the
    /// popularity model's skew is negative or non-finite or its live
    /// fraction is outside `[0, 1]`.
    pub fn generate(&self) -> Result<Vec<JobSpec>, ServeError> {
        if self.jobs == 0
            || self.videos.is_empty()
            || self.presets.is_empty()
            || self.crf_choices.is_empty()
            || self.refs_choices.is_empty()
        {
            return Err(ServeError::EmptyWorkload);
        }
        if let Some(&PopularitySpec { zipf_s, live_frac }) = self.popularity.as_ref() {
            if !(zipf_s.is_finite() && zipf_s >= 0.0 && (0.0..=1.0).contains(&live_frac)) {
                return Err(ServeError::InvalidPopularity { zipf_s, live_frac });
            }
        }
        if let Some(scenario) = &self.scenario {
            return self.generate_scenario(scenario);
        }
        let mut rng = SplitMix64::new(self.seed);
        let mean_gap_s = 1.0 / self.arrival_rate_hz.max(1e-9);
        let mut t_us = 0u64;
        let mut jobs = Vec::with_capacity(self.jobs);
        let videos = self.shared_videos();
        let zipf = self
            .popularity
            .as_ref()
            .map(|p| ZipfSampler::new(self.videos.len(), p.zipf_s));
        for id in 0..self.jobs as u64 {
            t_us += (rng.next_exp(mean_gap_s) * 1e6).round() as u64;
            let (video, preset, crf, refs, priority) = match (&self.popularity, &zipf) {
                (Some(pop), Some(zipf)) => {
                    // Popularity-driven: Zipf video rank, live/VOD class
                    // split, knobs pinned per class so repeats of a hot
                    // video share cache keys. Constant draws per job.
                    let video = &videos[zipf.sample(rng.next_f64())];
                    let u = rng.next_f64();
                    let priority = if u < pop.live_frac {
                        Priority::Interactive
                    } else {
                        // Rescale the leftover mass over the VOD mix.
                        let rest = (1.0 - pop.live_frac).max(1e-12);
                        let v = (u - pop.live_frac) / rest;
                        let std_w = self.mix[1] / (self.mix[1] + self.mix[2]).max(1e-12);
                        if v < std_w {
                            Priority::Standard
                        } else {
                            Priority::Batch
                        }
                    };
                    let live = priority == Priority::Interactive;
                    let pick = |len: usize| if live { 0 } else { len - 1 };
                    (
                        video,
                        self.presets[pick(self.presets.len())],
                        self.crf_choices[pick(self.crf_choices.len())],
                        self.refs_choices[pick(self.refs_choices.len())],
                        priority,
                    )
                }
                _ => {
                    // Legacy uniform draws — byte-identical to every trace
                    // generated before the popularity model existed.
                    let video = &videos[rng.next_range(videos.len() as u64) as usize];
                    let preset = self.presets[rng.next_range(self.presets.len() as u64) as usize];
                    let crf =
                        self.crf_choices[rng.next_range(self.crf_choices.len() as u64) as usize];
                    let refs =
                        self.refs_choices[rng.next_range(self.refs_choices.len() as u64) as usize];
                    let priority = Priority::ALL[rng.pick_weighted(&self.mix)];
                    (video, preset, crf, refs, priority)
                }
            };
            let k = priority.index();
            jobs.push(JobSpec {
                id,
                arrival_us: t_us,
                task: TranscodeTask {
                    video: video.clone(),
                    crf,
                    refs,
                    preset,
                },
                priority,
                deadline_us: t_us + self.slo_budget_us[k],
                timeout_us: self.timeout_us[k],
            });
        }
        Ok(jobs)
    }

    /// The video list as shared names: every job of one video clones one
    /// allocation (a count bump) instead of owning a `String`.
    fn shared_videos(&self) -> Vec<Arc<str>> {
        self.videos.iter().map(|v| v.as_str().into()).collect()
    }

    /// Scenario-library generation: arrivals by thinning a Poisson process
    /// at the shape's peak rate (accept with probability
    /// `rate(t) / peak_rate`), tenants by weighted draw with per-tenant
    /// Zipf catalogs over rotated slices of the video list. Job ids encode
    /// the tenant (`counter · n_tenants + tenant`), so ids stay unique and
    /// tenant-recoverable through the unchanged 9-field trace format.
    fn generate_scenario(&self, scenario: &ScenarioSpec) -> Result<Vec<JobSpec>, ServeError> {
        let mut rng = SplitMix64::new(self.seed);
        let peak = scenario.shape.peak().max(1e-9);
        let peak_gap_s = 1.0 / (self.arrival_rate_hz.max(1e-9) * peak);
        let n_tenants = scenario.tenants.len().max(1);
        let weights: Vec<f64> = scenario.tenants.iter().map(|t| t.weight.max(0.0)).collect();
        let zipfs: Vec<ZipfSampler> = scenario
            .tenants
            .iter()
            .map(|t| ZipfSampler::new(self.videos.len(), t.zipf_s))
            .collect();
        // Rotate each tenant's catalog so the hot heads don't coincide.
        let stride = self.videos.len() / n_tenants;
        let mut counters = vec![0u64; n_tenants];
        let mut t_us = 0u64;
        let mut jobs = Vec::with_capacity(self.jobs);
        let videos = self.shared_videos();
        while jobs.len() < self.jobs {
            t_us += (rng.next_exp(peak_gap_s) * 1e6).round() as u64;
            let mult = scenario.shape.multiplier(t_us as f64 / 1e6);
            if rng.next_f64() >= mult / peak {
                continue; // thinned: below the instantaneous rate
            }
            let (tenant, video) = if scenario.tenants.is_empty() {
                let video = &videos[rng.next_range(videos.len() as u64) as usize];
                (0, video)
            } else {
                let tenant = rng.pick_weighted(&weights);
                let rank = zipfs[tenant].sample(rng.next_f64());
                let video = &videos[(rank + tenant * stride) % videos.len()];
                (tenant, video)
            };
            let preset = self.presets[rng.next_range(self.presets.len() as u64) as usize];
            let crf = self.crf_choices[rng.next_range(self.crf_choices.len() as u64) as usize];
            let refs = self.refs_choices[rng.next_range(self.refs_choices.len() as u64) as usize];
            let priority = Priority::ALL[rng.pick_weighted(&self.mix)];
            let k = priority.index();
            let id = counters[tenant] * n_tenants as u64 + tenant as u64;
            counters[tenant] += 1;
            jobs.push(JobSpec {
                id,
                arrival_us: t_us,
                task: TranscodeTask {
                    video: video.clone(),
                    crf,
                    refs,
                    preset,
                },
                priority,
                deadline_us: t_us + self.slo_budget_us[k],
                timeout_us: self.timeout_us[k],
            });
        }
        Ok(jobs)
    }
}

/// Renders an arrival trace in the documented one-line-per-job format:
///
/// ```text
/// # id arrival_us class video crf refs preset deadline_us timeout_us
/// 0 417322 standard bike 23 3 medium 6417322 10000000
/// ```
pub fn render_trace(jobs: &[JobSpec]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("# id arrival_us class video crf refs preset deadline_us timeout_us\n");
    for j in jobs {
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {} {}",
            j.id,
            j.arrival_us,
            j.priority.name(),
            j.task.video,
            j.task.crf,
            j.task.refs,
            j.task.preset.name(),
            j.deadline_us,
            j.timeout_us
        );
    }
    out
}

/// Parses the format written by [`render_trace`]. Lines starting with `#`
/// and blank lines are ignored.
///
/// # Errors
///
/// Returns [`ServeError::Trace`] with the offending line number.
pub fn parse_trace(text: &str) -> Result<Vec<JobSpec>, ServeError> {
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: &str| ServeError::Trace {
            line: i + 1,
            message: message.to_owned(),
        };
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 9 {
            return Err(err(&format!("expected 9 fields, got {}", f.len())));
        }
        let parse_u64 =
            |s: &str, what: &str| s.parse::<u64>().map_err(|_| err(&format!("bad {what}")));
        let parse_u8 =
            |s: &str, what: &str| s.parse::<u8>().map_err(|_| err(&format!("bad {what}")));
        let priority = Priority::from_name(f[2]).ok_or_else(|| err("unknown class"))?;
        let preset = Preset::from_name(f[6]).ok_or_else(|| err("unknown preset"))?;
        jobs.push(JobSpec {
            id: parse_u64(f[0], "id")?,
            arrival_us: parse_u64(f[1], "arrival_us")?,
            task: TranscodeTask::new(
                f[3],
                parse_u8(f[4], "crf")?,
                parse_u8(f[5], "refs")?,
                preset,
            ),
            priority,
            deadline_us: parse_u64(f[7], "deadline_us")?,
            timeout_us: parse_u64(f[8], "timeout_us")?,
        });
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::bundled(42);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 400);
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::smoke(1).generate().unwrap();
        let b = WorkloadSpec::smoke(2).generate().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_monotonic_and_deadlines_follow_class() {
        let spec = WorkloadSpec::bundled(7);
        let jobs = spec.generate().unwrap();
        for w in jobs.windows(2) {
            assert!(w[0].arrival_us <= w[1].arrival_us);
        }
        for j in &jobs {
            let k = j.priority.index();
            assert_eq!(j.deadline_us, j.arrival_us + spec.slo_budget_us[k]);
            assert_eq!(j.timeout_us, spec.timeout_us[k]);
        }
    }

    #[test]
    fn mean_rate_roughly_matches_spec() {
        let spec = WorkloadSpec {
            jobs: 5000,
            ..WorkloadSpec::bundled(11)
        };
        let jobs = spec.generate().unwrap();
        let span_s = jobs.last().unwrap().arrival_us as f64 / 1e6;
        let rate = jobs.len() as f64 / span_s;
        assert!(
            (rate - spec.arrival_rate_hz).abs() / spec.arrival_rate_hz < 0.1,
            "rate {rate} vs {}",
            spec.arrival_rate_hz
        );
    }

    #[test]
    fn all_classes_appear_in_the_bundled_mix() {
        let jobs = WorkloadSpec::bundled(42).generate().unwrap();
        for p in Priority::ALL {
            assert!(jobs.iter().any(|j| j.priority == p), "{:?} missing", p);
        }
    }

    #[test]
    fn popularity_trace_is_deterministic_and_skewed() {
        let spec = WorkloadSpec {
            jobs: 2000,
            ..WorkloadSpec::bundled(42)
        }
        .with_popularity(1.0, 0.3);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b);
        let count = |video: &str| a.iter().filter(|j| &*j.task.video == video).count();
        let hot = count(&spec.videos[0]);
        let cold = count(spec.videos.last().unwrap());
        assert!(hot > 4 * cold, "zipf head {hot} vs tail {cold}");
        let live = a
            .iter()
            .filter(|j| j.priority == Priority::Interactive)
            .count() as f64
            / a.len() as f64;
        assert!((live - 0.3).abs() < 0.05, "live fraction {live}");
        // Knobs are pinned per class: live takes the first choices, VOD
        // the last, so hot-video repeats share cache keys.
        for j in &a {
            if j.priority == Priority::Interactive {
                assert_eq!(j.task.preset, spec.presets[0]);
                assert_eq!(j.task.crf, spec.crf_choices[0]);
            } else {
                assert_eq!(j.task.preset, *spec.presets.last().unwrap());
                assert_eq!(j.task.crf, *spec.crf_choices.last().unwrap());
            }
        }
    }

    #[test]
    fn invalid_popularity_is_an_error_not_a_panic() {
        for (zipf_s, live_frac) in [(-1.0, 0.3), (f64::NAN, 0.3), (1.0, 2.0), (1.0, f64::NAN)] {
            let r = WorkloadSpec::bundled(42)
                .with_popularity(zipf_s, live_frac)
                .generate();
            assert!(
                matches!(r, Err(ServeError::InvalidPopularity { .. })),
                "skew {zipf_s}, live fraction {live_frac}: {r:?}"
            );
        }
    }

    #[test]
    fn trace_roundtrips() {
        let jobs = WorkloadSpec::smoke(42).generate().unwrap();
        let text = render_trace(&jobs);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(jobs, parsed);
    }

    #[test]
    fn jobs_of_one_video_share_one_name() {
        // Every generator path hands equal videos the same allocation, and
        // sharing changes nothing the trace format can see.
        for spec in [
            WorkloadSpec::bundled(42),
            WorkloadSpec::bundled(42).with_popularity(1.0, 0.3),
            WorkloadSpec::flash_crowd(42),
            WorkloadSpec::multi_tenant(42),
        ] {
            let jobs = spec.generate().unwrap();
            let mut names: Vec<&Arc<str>> = Vec::new();
            for j in &jobs {
                match names.iter().copied().find(|n| ***n == *j.task.video) {
                    Some(n) => assert!(Arc::ptr_eq(n, &j.task.video), "{}", j.task.video),
                    None => names.push(&j.task.video),
                }
            }
            assert!(names.len() > 1 && names.len() <= spec.videos.len());
            assert_eq!(parse_trace(&render_trace(&jobs)).unwrap(), jobs);
        }
    }

    #[test]
    fn parse_rejects_bad_lines() {
        assert!(matches!(
            parse_trace("0 1 standard bike 23 3"),
            Err(ServeError::Trace { line: 1, .. })
        ));
        assert!(matches!(
            parse_trace("# ok\n0 1 vip bike 23 3 medium 5 6"),
            Err(ServeError::Trace { line: 2, .. })
        ));
        assert!(parse_trace("# only comments\n\n").unwrap().is_empty());
    }

    #[test]
    fn flash_crowd_trace_spikes_and_roundtrips() {
        let spec = WorkloadSpec::flash_crowd(42);
        let a = spec.generate().unwrap();
        assert_eq!(a, spec.generate().unwrap(), "scenario traces are seeded");
        assert_eq!(a.len(), 300);
        let (start, end) = spec
            .scenario
            .as_ref()
            .unwrap()
            .shape
            .flash_window_us()
            .unwrap();
        let in_spike = a
            .iter()
            .filter(|j| j.arrival_us >= start && j.arrival_us < end)
            .count();
        let spike_s = (end - start) as f64 / 1e6;
        let pre_s = start as f64 / 1e6;
        let pre = a.iter().filter(|j| j.arrival_us < start).count();
        let spike_rate = in_spike as f64 / spike_s;
        let base_rate = pre as f64 / pre_s;
        assert!(
            spike_rate > 8.0 * base_rate,
            "spike {spike_rate:.1} Hz vs base {base_rate:.1} Hz"
        );
        assert!(in_spike > 200, "spike carries {in_spike} jobs");
        // The same plain-text trace format round-trips the scenario trace.
        let parsed = parse_trace(&render_trace(&a)).unwrap();
        assert_eq!(a, parsed);
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let shape = ArrivalShape::Diurnal {
            period_s: 60.0,
            depth: 0.8,
        };
        assert!((shape.multiplier(15.0) - 1.8).abs() < 1e-9, "peak at T/4");
        assert!(
            (shape.multiplier(45.0) - 0.2).abs() < 1e-9,
            "trough at 3T/4"
        );
        assert!((shape.peak() - 1.8).abs() < 1e-9);
        let spec = WorkloadSpec::diurnal(42);
        let jobs = spec.generate().unwrap();
        assert_eq!(jobs, spec.generate().unwrap());
        for w in jobs.windows(2) {
            assert!(w[0].arrival_us <= w[1].arrival_us);
        }
    }

    #[test]
    fn multi_tenant_ids_encode_tenant_and_rotate_catalogs() {
        let spec = WorkloadSpec::multi_tenant(42);
        let jobs = spec.generate().unwrap();
        assert_eq!(jobs, spec.generate().unwrap());
        let n = spec.n_tenants();
        assert_eq!(n, 3);
        // Every tenant appears, weighted 5:3:2.
        let count = |t: usize| jobs.iter().filter(|j| tenant_of(j.id, n) == t).count();
        let (c0, c1, c2) = (count(0), count(1), count(2));
        assert_eq!(c0 + c1 + c2, jobs.len());
        assert!(c0 > c1 && c1 > c2, "weights order: {c0} {c1} {c2}");
        // Ids are unique and tenant-recoverable.
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), jobs.len());
        // Per-tenant hot heads land on different videos (rotated slices).
        let hot = |t: usize| {
            let mut by_video = std::collections::BTreeMap::new();
            for j in jobs.iter().filter(|j| tenant_of(j.id, n) == t) {
                *by_video.entry(j.task.video.clone()).or_insert(0u64) += 1;
            }
            by_video
                .into_iter()
                .max_by_key(|(v, c)| (*c, std::cmp::Reverse(v.clone())))
                .map(|(v, _)| v)
                .unwrap()
        };
        assert_ne!(hot(0), hot(1));
        // Round-trips through the unchanged trace format.
        assert_eq!(parse_trace(&render_trace(&jobs)).unwrap(), jobs);
    }

    #[test]
    fn stationary_scenario_matches_base_rate() {
        let spec = WorkloadSpec {
            jobs: 4000,
            ..WorkloadSpec::bundled(11)
        }
        .with_scenario(ScenarioSpec {
            shape: ArrivalShape::Stationary,
            tenants: Vec::new(),
        });
        let jobs = spec.generate().unwrap();
        let span_s = jobs.last().unwrap().arrival_us as f64 / 1e6;
        let rate = jobs.len() as f64 / span_s;
        assert!(
            (rate - spec.arrival_rate_hz).abs() / spec.arrival_rate_hz < 0.1,
            "rate {rate} vs {}",
            spec.arrival_rate_hz
        );
    }

    #[test]
    fn tenant_of_is_total() {
        assert_eq!(tenant_of(7, 0), 0);
        assert_eq!(tenant_of(7, 1), 0);
        assert_eq!(tenant_of(7, 3), 1);
        assert_eq!(tenant_of(9, 3), 0);
    }

    #[test]
    fn empty_choice_lists_are_rejected() {
        let mut spec = WorkloadSpec::smoke(1);
        spec.videos.clear();
        assert_eq!(spec.generate(), Err(ServeError::EmptyWorkload));
        let spec = WorkloadSpec {
            jobs: 0,
            ..WorkloadSpec::smoke(1)
        };
        assert_eq!(spec.generate(), Err(ServeError::EmptyWorkload));
    }
}
