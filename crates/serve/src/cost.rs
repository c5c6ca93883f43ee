//! Throughput-model-driven service-time prediction.
//!
//! The smart dispatch policy must rank (job, server) pairs *without running
//! them* — the serving-layer analog of the paper's characterization-driven
//! scheduler, in the spirit of PALMED-style predicted-cost placement. The
//! model has two faces:
//!
//! * [`CostModel::predicted_us`] — what the policy is allowed to see: a
//!   closed-form throughput estimate from the catalog entry (resolution ×
//!   fps), the encoder parameters (preset/crf/refs trends from Figures 3/6)
//!   and the parameter-trend affinity model of
//!   [`vtx_sched::affinity::predict_benefit`] applied to the server's
//!   Table IV configuration and speed grade.
//! * `CostModel::port_predicted_us` — the prediction refined by the
//!   issue-port execution model (`vtx-port`): the job's preset-rank uop mix
//!   is solved against the server's port layout, and the relief a wider
//!   layout offers (the `be_op2` column's seventh port) divides the
//!   predicted time. Factors are precomputed per (config, preset rank), so
//!   the refinement costs one table lookup per query.
//! * [`CostModel::true_us`] — what the discrete-event engine bills: the
//!   *port-refined* prediction times deterministic lognormal-ish noise that
//!   is a pure function of `(seed, job, server)`. Truth never depends on
//!   the policy or on dispatch order, so policies compete on identical
//!   ground and any run is exactly reproducible — and a policy that ranks
//!   by the port-refined prediction optimizes the billed objective exactly,
//!   while port-blind policies optimize an approximation of it.
//!
//! The catalog and the port-relief factors depend on nothing but static
//! data, so they live in one process-wide table built on first use; a
//! [`CostModel`] is its noise seed, four gains and a reference to it.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use vtx_codec::Preset;
use vtx_frame::vbench;
use vtx_port::{dispatch_bound, UopMix};
use vtx_sched::affinity::predict_benefit;
use vtx_sched::TranscodeTask;
use vtx_uarch::config::UarchConfig;

use crate::fleet::ServerSpec;
use crate::rng::{derive, SplitMix64};
use crate::workload::JobSpec;

/// Per-preset relative encode cost (fastest → slowest), calibrated to the
/// Figure 6 speed spread.
const PRESET_COST: [f64; 10] = [0.30, 0.38, 0.50, 0.65, 0.85, 1.0, 1.6, 2.6, 4.2, 8.0];

/// Pixels per second a reference (speed 1.0) server encodes at preset
/// `medium`, crf 23.
const PIXEL_RATE: f64 = 80.0e6;

/// Nominal clip duration in seconds (vbench clips are ~5 s excerpts).
const CLIP_SECONDS: f64 = 5.0;

/// What the model derives from the static catalogs alone — the vbench
/// entries and the Table IV port layouts — and so needs once per process,
/// not once per run: building it solves 100 `dispatch_bound` LPs.
#[derive(Debug, PartialEq)]
struct StaticTable {
    /// Video short name → (pixels per clip, entropy).
    catalog: BTreeMap<String, (f64, f64)>,
    /// Port relief per (config name → preset rank): the relative
    /// dispatch-bound gain of that config's port layout over the baseline
    /// layout for the rank's dominant-kernel uop mix (0 when the layouts
    /// are identical).
    port_relief: BTreeMap<String, [f64; 10]>,
}

impl StaticTable {
    fn build() -> Self {
        let catalog = vbench::catalog()
            .into_iter()
            .map(|v| {
                let px = f64::from(v.nominal_width)
                    * f64::from(v.nominal_height)
                    * f64::from(v.fps)
                    * CLIP_SECONDS;
                (v.short_name, (px, v.entropy))
            })
            .collect();
        let baseline = UarchConfig::baseline();
        let mut port_relief = BTreeMap::new();
        for cfg in UarchConfig::table_iv() {
            let mut reliefs = [0.0f64; 10];
            for (rank, r) in reliefs.iter_mut().enumerate() {
                let mix = UopMix::for_preset_rank(rank);
                if let (Ok(base), Ok(here)) =
                    (dispatch_bound(&baseline, &mix), dispatch_bound(&cfg, &mix))
                {
                    *r = ((here - base) / base.max(f64::MIN_POSITIVE)).max(0.0);
                }
            }
            port_relief.insert(cfg.name.clone(), reliefs);
        }
        StaticTable {
            catalog,
            port_relief,
        }
    }

    /// The process-wide table, built by whoever asks first.
    fn get() -> &'static StaticTable {
        static TABLE: OnceLock<StaticTable> = OnceLock::new();
        TABLE.get_or_init(StaticTable::build)
    }
}

/// Deterministic service-time model over a video catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Noise seed (usually the workload seed).
    pub seed: u64,
    /// Multiplier on the affinity benefit share: how strongly a matching
    /// Table IV configuration speeds a task up.
    pub(crate) affinity_gain: f64,
    /// Lognormal sigma of the per-job size surprise (same on all servers).
    pub(crate) sigma_job: f64,
    /// Lognormal sigma of the per-(job, server) residual.
    pub(crate) sigma_pair: f64,
    /// Multiplier on the port-model relief: how strongly a wider port
    /// layout shortens a port-bound job. 1.0 = take the solver at its word.
    pub(crate) port_gain: f64,
    /// The catalog and port-relief tables, shared by every model.
    table: &'static StaticTable,
}

impl CostModel {
    /// Builds the model over the full vbench catalog. Only the first call
    /// in a process builds the static table; after it a model is five
    /// numbers and a reference.
    pub fn new(seed: u64) -> Self {
        CostModel {
            seed,
            affinity_gain: 2.5,
            sigma_job: 0.45,
            sigma_pair: 0.30,
            port_gain: 1.0,
            table: StaticTable::get(),
        }
    }

    /// Whether the model can price this video.
    pub fn knows(&self, video: &str) -> bool {
        self.table.catalog.contains_key(video)
    }

    fn lookup(&self, video: &str) -> (f64, f64) {
        // Unknown videos are rejected at admission; mid-catalog defaults
        // keep the model total if one slips through.
        self.table
            .catalog
            .get(video)
            .copied()
            .unwrap_or((1280.0 * 720.0 * 30.0 * CLIP_SECONDS, 3.0))
    }

    /// Baseline-server seconds for a task of `px` pixels per clip (speed
    /// 1.0, no affinity gain).
    fn base_seconds(task: &TranscodeTask, px: f64) -> f64 {
        let rank = Preset::ALL
            .iter()
            .position(|&p| p == task.preset)
            .unwrap_or(5);
        let preset_factor = PRESET_COST[rank];
        // Lower CRF = more bits = more work (Figure 2's speed edge).
        let crf_factor = 1.6 - 0.015 * f64::from(task.crf);
        let refs_factor = 1.0 + 0.06 * f64::from(task.refs.saturating_sub(1));
        (px * preset_factor * crf_factor.max(0.2) * refs_factor / PIXEL_RATE).max(1e-3)
    }

    /// The policy-visible prediction in microseconds (≥ 1).
    pub fn predicted_us(&self, job: &JobSpec, server: &ServerSpec) -> u64 {
        let (px, entropy) = self.lookup(&job.task.video);
        let gain = server
            .config_index()
            .map(|k| self.affinity_gain * predict_benefit(&job.task, entropy)[k])
            .unwrap_or(0.0);
        let secs = Self::base_seconds(&job.task, px) / (server.speed * (1.0 + gain));
        ((secs * 1e6).round() as u64).max(1)
    }

    /// The port-model speedup factor (`<= 1.0`) for this (job, server)
    /// pair: how much the server's port layout shortens the job relative to
    /// the baseline layout, for the job's preset-rank uop mix. 1.0 for
    /// every layout identical to the baseline (only the core-widened
    /// `be_op2` differs) and for unknown configs.
    fn port_factor(&self, job: &JobSpec, server: &ServerSpec) -> f64 {
        let rank = Preset::ALL
            .iter()
            .position(|&p| p == job.task.preset)
            .unwrap_or(5);
        let relief = self
            .table
            .port_relief
            .get(&server.uarch.name)
            .map_or(0.0, |r| r[rank]);
        1.0 / (1.0 + self.port_gain * relief)
    }

    /// The port-refined prediction in microseconds (≥ 1):
    /// [`CostModel::predicted_us`] × [`CostModel::port_factor`].
    pub(crate) fn port_predicted_us(&self, job: &JobSpec, server: &ServerSpec) -> u64 {
        let refined = self.predicted_us(job, server) as f64 * self.port_factor(job, server);
        (refined.round() as u64).max(1)
    }

    /// The engine-billed truth in microseconds: port-refined prediction ×
    /// job surprise × pair residual. Pure in `(seed, job.id, server
    /// index)`.
    pub fn true_us(&self, job: &JobSpec, server_idx: usize, server: &ServerSpec) -> u64 {
        let predicted = self.port_predicted_us(job, server) as f64;
        let job_noise = lognormalish(
            derive(self.seed, job.id.wrapping_mul(2) + 1),
            self.sigma_job,
        );
        let pair_noise = lognormalish(
            derive(derive(self.seed, job.id), server_idx as u64 + 1),
            self.sigma_pair,
        );
        ((predicted * job_noise * pair_noise).round() as u64).max(1)
    }
}

/// A cheap lognormal-ish multiplier: exp(sigma · z) with z an
/// Irwin–Hall(3) approximation of a standard normal (variance-corrected).
fn lognormalish(seed: u64, sigma: f64) -> f64 {
    let mut r = SplitMix64::new(seed);
    // Sum of 3 uniforms has mean 1.5, std 0.5; rescale to unit std.
    let z = (r.next_f64() + r.next_f64() + r.next_f64() - 1.5) * 2.0;
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::workload::{Priority, WorkloadSpec};

    fn job(video: &str, crf: u8, refs: u8, preset: Preset) -> JobSpec {
        JobSpec {
            id: 1,
            arrival_us: 0,
            task: TranscodeTask::new(video, crf, refs, preset),
            priority: Priority::Standard,
            deadline_us: 10_000_000,
            timeout_us: 10_000_000,
        }
    }

    #[test]
    fn slower_presets_cost_more() {
        let m = CostModel::new(42);
        let f = Fleet::table_iv();
        let s = f.server(0);
        let fast = m.predicted_us(&job("bike", 23, 3, Preset::Ultrafast), s);
        let slow = m.predicted_us(&job("bike", 23, 3, Preset::Veryslow), s);
        assert!(slow > 5 * fast, "{slow} vs {fast}");
    }

    #[test]
    fn bigger_videos_cost_more() {
        let m = CostModel::new(42);
        let f = Fleet::table_iv();
        let s = f.server(1);
        let small = m.predicted_us(&job("cat", 23, 3, Preset::Medium), s); // 480p
        let large = m.predicted_us(&job("presentation", 23, 3, Preset::Medium), s); // 1080p
        assert!(large > 3 * small, "{large} vs {small}");
    }

    #[test]
    fn faster_servers_and_affinity_lower_the_prediction() {
        let m = CostModel::new(42);
        let mut a = Fleet::table_iv().server(0).clone(); // baseline
        let j = job("hall", 23, 3, Preset::Medium); // high-entropy clip
        a.speed = 1.0;
        let base = m.predicted_us(&j, &a);
        let mut fast = a.clone();
        fast.speed = 2.0;
        assert!(m.predicted_us(&j, &fast) < base);
        // A matching config (fe_op attacks the front-end share a
        // high-entropy clip loses slots to) beats an equal-speed baseline.
        let f = Fleet::table_iv();
        let fe = f
            .servers()
            .iter()
            .find(|s| s.uarch.name == "fe_op")
            .unwrap();
        let mut fe_ref = fe.clone();
        fe_ref.speed = 1.0;
        assert!(m.predicted_us(&j, &fe_ref) < base);
    }

    #[test]
    fn truth_is_a_pure_function_of_seed_job_server() {
        let m = CostModel::new(42);
        let f = Fleet::table_iv();
        let j = job("bike", 23, 3, Preset::Medium);
        let a = m.true_us(&j, 2, f.server(2));
        let b = m.true_us(&j, 2, f.server(2));
        assert_eq!(a, b);
        // Different server index → different residual.
        assert_ne!(a, m.true_us(&j, 3, f.server(2)));
        // Different seed → different noise.
        let m2 = CostModel::new(43);
        assert_ne!(a, m2.true_us(&j, 2, f.server(2)));
    }

    #[test]
    fn truth_tracks_prediction_on_average() {
        let m = CostModel::new(42);
        let f = Fleet::table_iv();
        let jobs = WorkloadSpec::bundled(42).generate().unwrap();
        let mut ratio_sum = 0.0;
        for j in &jobs {
            let p = m.predicted_us(j, f.server(1)) as f64;
            let t = m.true_us(j, 1, f.server(1)) as f64;
            ratio_sum += t / p;
        }
        let mean_ratio = ratio_sum / jobs.len() as f64;
        // exp(sigma²/2) bias of the lognormal noise stays near 1.
        assert!((0.8..1.6).contains(&mean_ratio), "mean ratio {mean_ratio}");
    }

    #[test]
    fn port_factor_discounts_only_the_widened_core() {
        let m = CostModel::new(42);
        let f = Fleet::table_iv();
        let j = job("bike", 23, 3, Preset::Slower); // SATD/trellis-heavy rank
        for s in f.servers() {
            let factor = m.port_factor(&j, s);
            assert!(
                factor <= 1.0 + 1e-12 && factor > 0.5,
                "{}: {factor}",
                s.name
            );
            if s.uarch.name == "be_op2" {
                assert!(factor < 1.0, "be_op2's 7th port must discount");
                assert!(m.port_predicted_us(&j, s) < m.predicted_us(&j, s));
            } else {
                assert!((factor - 1.0).abs() < 1e-12, "{}: {factor}", s.name);
                assert_eq!(m.port_predicted_us(&j, s), m.predicted_us(&j, s));
            }
        }
    }

    #[test]
    fn truth_bills_the_port_refined_prediction() {
        let m = CostModel::new(42);
        let f = Fleet::table_iv();
        let j = job("bike", 23, 3, Preset::Veryslow);
        let be_op2 = f
            .servers()
            .iter()
            .position(|s| s.uarch.name == "be_op2")
            .unwrap();
        // Zeroing the port gain must raise the billed time on be_op2 (the
        // refinement is inside the truth, not just the prediction).
        let mut blind = m.clone();
        blind.port_gain = 0.0;
        let with_ports = m.true_us(&j, be_op2, f.server(be_op2));
        let without = blind.true_us(&j, be_op2, f.server(be_op2));
        assert!(with_ports < without, "{with_ports} vs {without}");
        // On a baseline-layout server the two models agree exactly.
        assert_eq!(
            m.true_us(&j, 1, f.server(1)),
            blind.true_us(&j, 1, f.server(1))
        );
    }

    #[test]
    fn static_table_equals_a_fresh_solve_and_models_differ_only_by_seed() {
        let table = StaticTable::get();
        assert_eq!(*table, StaticTable::build(), "built once == built now");
        let baseline = UarchConfig::baseline();
        let configs = UarchConfig::table_iv();
        assert_eq!(table.port_relief.len(), configs.len());
        for cfg in &configs {
            for rank in 0..Preset::ALL.len() {
                let mix = UopMix::for_preset_rank(rank);
                let base = dispatch_bound(&baseline, &mix).unwrap();
                let here = dispatch_bound(cfg, &mix).unwrap();
                let want = ((here - base) / base.max(f64::MIN_POSITIVE)).max(0.0);
                assert_eq!(
                    table.port_relief[&cfg.name][rank], want,
                    "{} {rank}",
                    cfg.name
                );
            }
        }
        let (a, b) = (CostModel::new(1), CostModel::new(2));
        assert!(std::ptr::eq(a.table, b.table), "one table per process");
        assert_ne!(a, b);
        assert_eq!(CostModel { seed: 2, ..a }, b);
    }

    #[test]
    fn knows_the_whole_catalog() {
        let m = CostModel::new(1);
        assert!(m.knows("bike"));
        assert!(m.knows("bbb"));
        assert!(!m.knows("nope"));
    }
}
