//! The mechanistic interval core model.
//!
//! Sniper (which the paper uses for its scheduler study) models an
//! out-of-order core analytically: execution proceeds at the dispatch width
//! except during *intervals* opened by miss events — branch mispredictions,
//! instruction-cache/iTLB misses, and long-latency loads — whose penalties
//! are added on top of the base dispatch time. Long-latency load penalties
//! overlap each other up to the amount of memory-level parallelism the
//! reorder buffer can expose, which is how a larger ROB (`be_op2`) speeds up
//! memory-bound code.
//!
//! [`CoreModel::run`] converts accumulated [`ExecutionCounts`] into a
//! [`CycleBreakdown`] whose penalty ledger feeds both the Top-down summary
//! and the Figure-5 resource-stall counters.

use crate::config::UarchConfig;
use crate::error::ConfigError;
use crate::hierarchy::LevelCounters;
use crate::topdown::TopDown;

/// Aggregated events from one profiled execution region.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionCounts {
    /// Retired instructions.
    pub instructions: u64,
    /// Retired micro-operations (>= instructions on x86-style cores).
    pub uops: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted (from the predictor simulation).
    pub branch_mispredicts: u64,
    /// Instruction-line fetches by the level that satisfied them.
    pub inst_fetch: LevelCounters,
    /// iTLB misses.
    pub itlb_misses: u64,
    /// Data-load line accesses by satisfying level.
    pub loads: LevelCounters,
    /// Data-store line accesses by satisfying level.
    pub stores: LevelCounters,
    /// Long-latency arithmetic uops (multiplies, divides) that stress the
    /// execution ports — the core-bound driver.
    pub heavy_ops: u64,
    /// Front-end redirects: transfers between code regions far enough apart
    /// to restart the decode pipeline (kernel-to-kernel calls).
    pub redirects: u64,
}

impl ExecutionCounts {
    /// Merges another region's counts into this one.
    pub fn merge(&mut self, other: &ExecutionCounts) {
        self.instructions += other.instructions;
        self.uops += other.uops;
        self.branches += other.branches;
        self.branch_mispredicts += other.branch_mispredicts;
        merge_levels(&mut self.inst_fetch, &other.inst_fetch);
        self.itlb_misses += other.itlb_misses;
        merge_levels(&mut self.loads, &other.loads);
        merge_levels(&mut self.stores, &other.stores);
        self.heavy_ops += other.heavy_ops;
        self.redirects += other.redirects;
    }

    /// Misses-per-kilo-instruction helper.
    pub fn mpki(&self, misses: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

fn merge_levels(a: &mut LevelCounters, b: &LevelCounters) {
    a.l1 += b.l1;
    a.l2 += b.l2;
    a.l3 += b.l3;
    a.l4 += b.l4;
    a.mem += b.mem;
}

/// Tunable penalty/overlap constants of the interval model.
///
/// The defaults are calibrated against the shapes the paper reports; they
/// are exposed so ablation studies can vary them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Fraction of an instruction-fetch miss penalty actually exposed
    /// (fetch-ahead hides the rest).
    pub fetch_exposure: f64,
    /// Decode-restart penalty per front-end redirect, cycles.
    pub redirect_penalty: f64,
    /// Exposed penalty of an L2-hit load (mostly hidden by OoO), cycles.
    pub l2_hit_exposed: f64,
    /// Maximum memory-level parallelism the model will credit.
    pub max_mlp: f64,
    /// Extra cycles of port pressure per heavy (mul/div) uop.
    pub heavy_cost: f64,
    /// Store-buffer occupancy (fraction of capacity) above which stalls
    /// accrue. Average occupancy understates burst pressure, so the
    /// threshold is a small fraction of capacity.
    pub sb_threshold: f64,
    /// Dispatch-to-issue bubble charged per uop when `issue_at_dispatch` is
    /// false (fraction of a cycle, amortized).
    pub dispatch_bubble: f64,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            fetch_exposure: 0.6,
            redirect_penalty: 3.0,
            l2_hit_exposed: 3.0,
            max_mlp: 8.0,
            heavy_cost: 1.6,
            sb_threshold: 0.0015,
            dispatch_bubble: 0.012,
        }
    }
}

/// Result of running the interval model: the cycle/penalty ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleBreakdown {
    /// Dispatch-limited baseline cycles (`uops / width`, rounded up).
    pub base_cycles: f64,
    /// Cycles lost to instruction fetch/decode (L1i, iTLB, redirects).
    pub frontend_cycles: f64,
    /// Cycles lost to branch misprediction recovery.
    pub badspec_cycles: f64,
    /// Cycles lost waiting on data loads (after MLP overlap).
    pub memory_cycles: f64,
    /// Cycles lost to store-buffer back-pressure.
    pub sb_cycles: f64,
    /// Cycles lost to execution-resource (port/window) pressure.
    pub core_cycles: f64,
    /// Total cycles.
    pub total_cycles: u64,
    /// Retired uops (copied from the input counts).
    pub uops: u64,
    /// Dispatch width used for slot accounting.
    pub dispatch_width: u32,
    /// ROB-full stall cycles (Figure 5f).
    pub rob_stall_cycles: f64,
    /// RS-full stall cycles (Figure 5g).
    pub rs_stall_cycles: f64,
    /// SB-full stall cycles (Figure 5h).
    pub sb_stall_cycles: f64,
}

impl CycleBreakdown {
    /// Any-resource stall cycles (Figure 5e).
    pub fn any_stall_cycles(&self) -> f64 {
        self.rob_stall_cycles + self.rs_stall_cycles + self.sb_stall_cycles
    }

    /// Cycles-per-instruction given an instruction count.
    pub fn cpi(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.total_cycles as f64 / instructions as f64
        }
    }

    /// Execution time in seconds at the given core frequency.
    pub fn seconds(&self, freq_ghz: f64) -> f64 {
        self.total_cycles as f64 / (freq_ghz * 1e9)
    }

    /// Top-down slot attribution; categories sum to exactly 1.0.
    pub fn topdown(&self) -> TopDown {
        let width = f64::from(self.dispatch_width);
        let slots = self.total_cycles as f64 * width;
        if slots <= 0.0 {
            return TopDown {
                retiring: 1.0,
                frontend: 0.0,
                bad_speculation: 0.0,
                backend_memory: 0.0,
                backend_core: 0.0,
            };
        }
        let retiring = self.uops as f64;
        let fe = self.frontend_cycles * width;
        let bs = self.badspec_cycles * width;
        let mem = (self.memory_cycles + self.sb_cycles) * width;
        // Everything else (core pressure + base rounding slack) is core-bound.
        let core = (slots - retiring - fe - bs - mem).max(0.0);
        TopDown {
            retiring: retiring / slots,
            frontend: fe / slots,
            bad_speculation: bs / slots,
            backend_memory: mem / slots,
            backend_core: core / slots,
        }
    }
}

/// The interval model for a given configuration.
#[derive(Debug, Clone)]
pub struct CoreModel {
    cfg: UarchConfig,
    params: ModelParams,
    /// Optional port-model dispatch bound (sustained uops/cycle the issue
    /// ports can deliver for the profiled uop mix). When set and lower than
    /// the nominal dispatch width, the base dispatch time stretches while
    /// Top-down slot accounting keeps the nominal width — so port
    /// contention surfaces as backend-core share, exactly where Top-down
    /// puts it on real hardware.
    dispatch_bound: Option<f64>,
}

impl CoreModel {
    /// Creates a model with default [`ModelParams`].
    pub fn new(cfg: &UarchConfig) -> Self {
        CoreModel {
            cfg: cfg.clone(),
            params: ModelParams::default(),
            dispatch_bound: None,
        }
    }

    /// Fallible constructor: validates the configuration first, so a
    /// hand-built config with a zero dispatch width, window, or buffer is
    /// rejected instead of silently producing garbage cycles.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] of [`UarchConfig::validate`].
    pub fn try_new(cfg: &UarchConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self::new(cfg))
    }

    /// Creates a model with explicit parameters (for ablation studies).
    pub fn with_params(cfg: &UarchConfig, params: ModelParams) -> Self {
        CoreModel {
            cfg: cfg.clone(),
            params,
            dispatch_bound: None,
        }
    }

    /// Fallible variant of [`CoreModel::with_params`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] of [`UarchConfig::validate`].
    pub fn try_with_params(cfg: &UarchConfig, params: ModelParams) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self::with_params(cfg, params))
    }

    /// Installs a port-model dispatch bound (uops/cycle). Bounds above the
    /// nominal width are harmless (the width still clamps).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Zero`] when `bound` is not a positive finite
    /// number.
    pub fn with_dispatch_bound(mut self, bound: f64) -> Result<Self, ConfigError> {
        if !(bound.is_finite() && bound > 0.0) {
            return Err(ConfigError::Zero {
                what: "dispatch_bound",
            });
        }
        self.dispatch_bound = Some(bound);
        Ok(self)
    }

    /// The installed dispatch bound, if any.
    pub fn dispatch_bound(&self) -> Option<f64> {
        self.dispatch_bound
    }

    /// The configuration this model simulates.
    pub fn config(&self) -> &UarchConfig {
        &self.cfg
    }

    /// Converts accumulated execution counts into a cycle breakdown.
    pub fn run(&self, c: &ExecutionCounts) -> CycleBreakdown {
        let p = &self.params;
        let cfg = &self.cfg;
        // Guard hand-built zero-sized configs: clamp rather than divide by
        // zero (use `try_new` to reject them loudly instead).
        let width = f64::from(cfg.dispatch_width.max(1));
        // Effective issue rate: the port model may bound dispatch below the
        // nominal width for contention-heavy uop mixes.
        let eff_width = self
            .dispatch_bound
            .map_or(width, |b| b.min(width))
            .max(f64::MIN_POSITIVE);

        // --- Base dispatch time ---
        let mut base = (c.uops as f64 / eff_width).ceil();
        if !cfg.issue_at_dispatch {
            base += c.uops as f64 * p.dispatch_bubble / eff_width;
        }

        // --- Front-end penalties ---
        let fe_lat = |hits: u64, lat: u32| hits as f64 * f64::from(lat) * p.fetch_exposure;
        let l4_lat = cfg.l4.map_or(cfg.mem_latency, |l| l.latency);
        let frontend = fe_lat(c.inst_fetch.l2, cfg.l2.latency)
            + fe_lat(c.inst_fetch.l3, cfg.l3.latency)
            + fe_lat(c.inst_fetch.l4, l4_lat)
            + fe_lat(c.inst_fetch.mem, cfg.mem_latency)
            + c.itlb_misses as f64 * f64::from(cfg.itlb_miss_penalty) * p.fetch_exposure
            + c.redirects as f64 * p.redirect_penalty;

        // --- Bad speculation ---
        let badspec = c.branch_mispredicts as f64 * f64::from(cfg.mispredict_penalty);

        // --- Memory penalties with ROB-limited MLP overlap ---
        // Long-latency events: everything that missed L2 on the data side.
        let long_misses = c.loads.l3 + c.loads.l4 + c.loads.mem;
        let raw_long = c.loads.l3 as f64 * f64::from(cfg.l3.latency)
            + c.loads.l4 as f64 * f64::from(l4_lat)
            + c.loads.mem as f64 * f64::from(cfg.mem_latency);
        let mlp = if long_misses == 0 {
            1.0
        } else {
            // Sub-linear in miss density: doubling the miss rate does not
            // double the exposed parallelism (dependent misses, bank
            // conflicts), so stall time still grows when misses grow —
            // which also means optimizations that remove misses always pay.
            let gap = c.uops as f64 / long_misses as f64; // uops between misses
            (f64::from(cfg.rob_size) / gap.max(1.0))
                .sqrt()
                .clamp(1.0, p.max_mlp)
        };
        let memory = c.loads.l2 as f64 * p.l2_hit_exposed + raw_long / mlp;

        // --- Store-buffer back-pressure ---
        // Each store that misses L1d occupies a store-buffer entry for its
        // fill latency; by Little's law, occupancy = fill-cycles / cycles.
        let store_fill_cycles = c.stores.l2 as f64 * f64::from(cfg.l2.latency)
            + c.stores.l3 as f64 * f64::from(cfg.l3.latency)
            + c.stores.l4 as f64 * f64::from(l4_lat)
            + c.stores.mem as f64 * f64::from(cfg.mem_latency);
        let pre_cycles = (base + frontend + badspec + memory).max(1.0);
        let occupancy = store_fill_cycles / pre_cycles; // average entries in use
        let pressure = occupancy / f64::from(cfg.sb_size.max(1));
        let sb = pre_cycles * (pressure - p.sb_threshold).clamp(0.0, 0.5);

        // --- Core (execution resource) pressure ---
        // Heavy uops contend for the long-latency ports; a smaller RS exposes
        // more of that contention.
        let rs_factor = (36.0 / f64::from(cfg.rs_size.max(1))).powf(0.3);
        let core = c.heavy_ops as f64 * p.heavy_cost / eff_width * rs_factor;

        let total = (base + frontend + badspec + memory + sb + core).ceil() as u64;

        // --- Resource-stall attribution (Figure 5e-h) ---
        // The ROB fills while long loads drain; the RS fills both on core
        // pressure and (faster, when small) on memory waits.
        let rob_stall = memory * 0.7;
        let rs_stall = core + memory * 0.3 * (36.0 / f64::from(cfg.rs_size.max(1))).sqrt();

        CycleBreakdown {
            base_cycles: base,
            frontend_cycles: frontend,
            badspec_cycles: badspec,
            memory_cycles: memory,
            sb_cycles: sb,
            core_cycles: core,
            total_cycles: total.max(1),
            uops: c.uops,
            dispatch_width: cfg.dispatch_width,
            rob_stall_cycles: rob_stall,
            rs_stall_cycles: rs_stall,
            sb_stall_cycles: sb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::LevelCounters;

    fn base_counts() -> ExecutionCounts {
        ExecutionCounts {
            instructions: 1_000_000,
            uops: 1_100_000,
            branches: 100_000,
            branch_mispredicts: 2_000,
            inst_fetch: LevelCounters {
                l1: 300_000,
                l2: 2_000,
                l3: 200,
                l4: 0,
                mem: 50,
            },
            itlb_misses: 100,
            loads: LevelCounters {
                l1: 200_000,
                l2: 8_000,
                l3: 1_500,
                l4: 0,
                mem: 700,
            },
            stores: LevelCounters {
                l1: 80_000,
                l2: 3_000,
                l3: 400,
                l4: 0,
                mem: 150,
            },
            heavy_ops: 40_000,
            redirects: 10_000,
        }
    }

    #[test]
    fn topdown_sums_to_one() {
        let model = CoreModel::new(&UarchConfig::baseline());
        let bd = model.run(&base_counts());
        let td = bd.topdown();
        assert!((td.sum() - 1.0).abs() < 1e-9, "sum = {}", td.sum());
        assert!(td.retiring > 0.0 && td.retiring < 1.0);
    }

    #[test]
    fn more_mispredicts_more_badspec() {
        let model = CoreModel::new(&UarchConfig::baseline());
        let c1 = base_counts();
        let mut c2 = base_counts();
        c2.branch_mispredicts *= 10;
        let t1 = model.run(&c1).topdown();
        let t2 = model.run(&c2).topdown();
        assert!(t2.bad_speculation > t1.bad_speculation);
        assert!(model.run(&c2).total_cycles > model.run(&c1).total_cycles);
    }

    #[test]
    fn more_dram_misses_more_memory_bound() {
        let model = CoreModel::new(&UarchConfig::baseline());
        let c1 = base_counts();
        let mut c2 = base_counts();
        c2.loads.mem *= 20;
        let t1 = model.run(&c1).topdown();
        let t2 = model.run(&c2).topdown();
        assert!(t2.backend_memory > t1.backend_memory);
    }

    #[test]
    fn bigger_rob_overlaps_memory_latency() {
        let mut c = base_counts();
        c.loads.mem = 20_000; // dense misses => MLP-limited
        let t_small = CoreModel::new(&UarchConfig::baseline()).run(&c);
        let t_big = CoreModel::new(&UarchConfig::be_op2()).run(&c);
        assert!(
            t_big.memory_cycles < t_small.memory_cycles,
            "be_op2 ROB should overlap more: {} vs {}",
            t_big.memory_cycles,
            t_small.memory_cycles
        );
        assert!(t_big.total_cycles < t_small.total_cycles);
    }

    #[test]
    fn store_pressure_stalls_and_bigger_sb_helps() {
        let mut c = base_counts();
        c.stores.mem = 60_000;
        let baseline = CoreModel::new(&UarchConfig::baseline()).run(&c);
        assert!(baseline.sb_stall_cycles > 0.0, "expected SB stalls");
        let mut big_sb = UarchConfig::baseline();
        big_sb.sb_size = 144;
        let relaxed = CoreModel::new(&big_sb).run(&c);
        assert!(relaxed.sb_stall_cycles < baseline.sb_stall_cycles);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = base_counts();
        let b = base_counts();
        a.merge(&b);
        assert_eq!(a.instructions, 2_000_000);
        assert_eq!(a.loads.mem, 1_400);
        assert_eq!(a.stores.l2, 6_000);
    }

    #[test]
    fn mpki_helper() {
        let c = base_counts();
        assert!((c.mpki(2_000) - 2.0).abs() < 1e-12);
        assert_eq!(ExecutionCounts::default().mpki(5), 0.0);
    }

    #[test]
    fn seconds_uses_frequency() {
        let model = CoreModel::new(&UarchConfig::baseline());
        let bd = model.run(&base_counts());
        let s = bd.seconds(3.5);
        assert!((s - bd.total_cycles as f64 / 3.5e9).abs() < 1e-15);
    }

    #[test]
    fn zero_counts_do_not_divide_by_zero() {
        let model = CoreModel::new(&UarchConfig::baseline());
        let bd = model.run(&ExecutionCounts::default());
        assert!(bd.total_cycles >= 1);
        let td = bd.topdown();
        assert!(td.sum().is_finite());
    }

    #[test]
    fn try_new_rejects_zero_sized_configs() {
        let mut cfg = UarchConfig::baseline();
        cfg.dispatch_width = 0;
        assert!(CoreModel::try_new(&cfg).is_err());
        assert!(CoreModel::try_with_params(&cfg, ModelParams::default()).is_err());
        assert!(CoreModel::try_new(&UarchConfig::baseline()).is_ok());
        // The infallible path clamps instead of dividing by zero.
        let bd = CoreModel::new(&cfg).run(&base_counts());
        assert!(bd.total_cycles >= 1);
        assert!(bd.topdown().sum().is_finite());
    }

    #[test]
    fn dispatch_bound_must_be_positive_finite() {
        let cfg = UarchConfig::baseline();
        assert!(CoreModel::new(&cfg).with_dispatch_bound(0.0).is_err());
        assert!(CoreModel::new(&cfg).with_dispatch_bound(-1.0).is_err());
        assert!(CoreModel::new(&cfg).with_dispatch_bound(f64::NAN).is_err());
        let m = CoreModel::new(&cfg).with_dispatch_bound(2.5).unwrap();
        assert_eq!(m.dispatch_bound(), Some(2.5));
    }

    #[test]
    fn dispatch_bound_stretches_cycles_into_backend_core() {
        let cfg = UarchConfig::baseline();
        let c = base_counts();
        let flat = CoreModel::new(&cfg).run(&c);
        let bound = CoreModel::new(&cfg)
            .with_dispatch_bound(f64::from(cfg.dispatch_width) * 0.6)
            .unwrap()
            .run(&c);
        assert!(bound.total_cycles > flat.total_cycles);
        // Slot accounting keeps the nominal width, so the extra cycles all
        // land in backend-core and the shares still sum to one.
        assert_eq!(bound.dispatch_width, cfg.dispatch_width);
        let td_flat = flat.topdown();
        let td_bound = bound.topdown();
        assert!((td_bound.sum() - 1.0).abs() < 1e-9);
        assert!(td_bound.backend_core > td_flat.backend_core);
        assert!(td_bound.retiring < td_flat.retiring);
    }

    #[test]
    fn dispatch_bound_above_width_is_inert() {
        let cfg = UarchConfig::baseline();
        let c = base_counts();
        let flat = CoreModel::new(&cfg).run(&c);
        let bound = CoreModel::new(&cfg)
            .with_dispatch_bound(f64::from(cfg.dispatch_width) * 2.0)
            .unwrap()
            .run(&c);
        assert_eq!(flat, bound);
    }

    #[test]
    fn issue_at_dispatch_removes_bubble() {
        let c = base_counts();
        let base = CoreModel::new(&UarchConfig::baseline()).run(&c);
        let mut cfg = UarchConfig::baseline();
        cfg.issue_at_dispatch = true;
        let fast = CoreModel::new(&cfg).run(&c);
        assert!(fast.base_cycles < base.base_cycles);
    }
}
