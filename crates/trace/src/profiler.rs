//! The online profiler: consumes instrumentation events, drives the
//! microarchitecture simulation, and produces a [`ProfileReport`].
//!
//! A profiler is two halves. The *front* runs on the caller's thread and
//! keeps everything exact: instructions, heavy ops, the per-kernel profile
//! and its call pairs, branch and redirect counts, and which units are
//! sampled; it also resolves each branch's PC and each access's line range.
//! The *models* — the cache/TLB hierarchy and the branch predictor — run on
//! a companion thread of their own, fed the sampled units' work in program
//! order (the crate-private `companion` module), and count mispredicts.
//! [`Profiler::finish`] takes them back and assembles the report. The two
//! halves overlap, so a profiled run costs about the larger of the program
//! and the models, not their sum, and the report is the one an inline drive
//! would produce.

use std::num::NonZeroU64;

use vtx_uarch::config::UarchConfig;
use vtx_uarch::hierarchy::{LevelCounters, MemoryHierarchy};
use vtx_uarch::interval::{CoreModel, ExecutionCounts};
use vtx_uarch::tlb::Tlb;
use vtx_uarch::ConfigError;

use crate::companion::{Companion, Work};
use crate::kernel::{KernelDesc, KernelId, KernelProfile};
use crate::layout::CodeLayout;
use crate::plan::DataPlan;
use crate::report::{MpkiReport, ProfileReport, StallPki};

/// Base of the synthetic data address space (distinct from the text base).
const DATA_BASE: u64 = 0x1000_0000;
/// Fixed per-invocation instruction overhead (call, prologue, epilogue).
const CALL_OVERHEAD_INSNS: u64 = 12;
/// Consecutive units traced per sampling burst (see [`Profiler::begin_unit`]).
const SAMPLE_BURST: u64 = 16;

/// One instrumentation event captured by a recording shard (see
/// [`Profiler::recording_shard`]).
///
/// Replaying a recorded stream through [`Profiler::replay`] drives the cache,
/// TLB and branch-predictor simulations exactly as if the events had been
/// issued directly, so a parallel workload can record per-task shards and
/// merge them in a deterministic order for bit-identical reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfEvent {
    /// A [`Profiler::begin_unit`] boundary.
    BeginUnit(u64),
    /// A [`Profiler::kernel`] invocation: `(kernel, iters, insns_per_iter,
    /// heavy_per_iter)`.
    Kernel(KernelId, u32, u32, u32),
    /// A [`Profiler::branch`] outcome: `(site, taken)`.
    Branch(u32, bool),
    /// A [`Profiler::load`] at a byte address.
    Load(u64),
    /// A [`Profiler::store`] at a byte address.
    Store(u64),
    /// A [`Profiler::load_range`]: `(addr, bytes)`.
    LoadRange(u64, u64),
    /// A [`Profiler::store_range`]: `(addr, bytes)`.
    StoreRange(u64, u64),
    /// A `Profiler::straightline` instruction count.
    Straightline(u64),
}

/// Where a profiler's events go.
#[derive(Debug)]
enum Backend {
    /// To the cache, TLB and branch-predictor models on their own thread.
    Simulate(Companion),
    /// Into a buffer, for a later [`Profiler::replay`]: a recording shard
    /// (see [`Profiler::recording_shard`]) owns no model to drive.
    Record(Vec<ProfEvent>),
}

/// What the front counts itself; the sampled-domain counts (branches,
/// redirects) before [`Profiler::finish`] scales them.
#[derive(Debug)]
struct Tally {
    instructions: u64,
    heavy_ops: u64,
    profile: KernelProfile,
    branches: u64,
    redirects: u64,
}

impl Tally {
    fn new(kernels: usize) -> Self {
        Tally {
            instructions: 0,
            heavy_ops: 0,
            profile: KernelProfile::new(kernels),
            branches: 0,
            redirects: 0,
        }
    }
}

/// What the models measured, in the sampled domain. All zero for a shard,
/// which simulates nothing.
#[derive(Debug, Default)]
struct Measured {
    inst_fetch: LevelCounters,
    itlb_misses: u64,
    loads: LevelCounters,
    stores: LevelCounters,
    mispredicts: u64,
}

impl Measured {
    fn of(hierarchy: &MemoryHierarchy, mispredicts: u64) -> Self {
        Measured {
            inst_fetch: hierarchy.inst_counters(),
            itlb_misses: hierarchy.itlb_stats().misses,
            loads: hierarchy.load_counters(),
            stores: hierarchy.store_counters(),
            mispredicts,
        }
    }
}

/// An online profiler for one execution of an instrumented workload.
///
/// See the [crate documentation](crate) for the full event vocabulary and an
/// end-to-end example. Events arrive in program order; [`Profiler::finish`]
/// runs the interval core model over the accumulated counts.
///
/// A profiler from [`Profiler::new`] drives its models on a companion
/// thread (see the `profiler` module documentation). Dropping it without
/// `finish` joins that thread; a panic there resurfaces on the caller's.
///
/// # Sampling
///
/// Feeding every memory access and branch of a long transcode through the
/// cache and predictor simulations is accurate but slow. For large parameter
/// sweeps, [`Profiler::set_sample_shift`] keeps full instruction accounting
/// but simulates only one in `2^shift` *units* (the workload marks unit
/// boundaries — one per macroblock — with [`Profiler::begin_unit`]); the
/// sampled categories are scaled back up in [`Profiler::finish`].
#[derive(Debug)]
pub struct Profiler {
    kernels: Vec<KernelDesc>,
    layout: CodeLayout,
    cfg: UarchConfig,
    backend: Backend,
    tally: Tally,
    last_kernel: Option<KernelId>,
    current_kernel: Option<KernelId>,

    sample_shift: u32,
    active: bool,
    plan: DataPlan,

    data_cursor: u64,
    allocations: Vec<(String, u64, u64)>,
}

impl Profiler {
    /// Creates a profiler for the given configuration, kernel table, and
    /// code layout, and starts its models' thread, which builds the models.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration fails validation, or
    /// describes an iTLB the hierarchy cannot build.
    pub fn new(
        cfg: &UarchConfig,
        kernels: &[KernelDesc],
        layout: CodeLayout,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Tlb::validate(cfg.itlb_entries)?;
        assert_eq!(
            layout.len(),
            kernels.len(),
            "layout must cover the kernel table"
        );
        let backend = Backend::Simulate(Companion::spawn(cfg.clone()));
        Ok(Self::fresh(cfg, kernels, layout, backend))
    }

    /// A profiler with nothing counted yet, on the given back end.
    fn fresh(
        cfg: &UarchConfig,
        kernels: &[KernelDesc],
        layout: CodeLayout,
        backend: Backend,
    ) -> Self {
        Profiler {
            kernels: kernels.to_vec(),
            layout,
            cfg: cfg.clone(),
            backend,
            tally: Tally::new(kernels.len()),
            last_kernel: None,
            current_kernel: None,
            sample_shift: 0,
            active: true,
            plan: DataPlan::default(),
            data_cursor: DATA_BASE,
            allocations: Vec::new(),
        }
    }

    /// Creates a *recording shard* of this profiler: a lightweight clone that
    /// captures the event stream instead of simulating it.
    ///
    /// A shard inherits the parent's sampling shift and [`DataPlan`] so the
    /// instrumented workload behaves identically against it (the same units
    /// are active, the same plan gates are read). Events issued against the
    /// shard are buffered — drain them with [`Profiler::take_events`] and
    /// feed them to the parent via [`Profiler::replay`] in a deterministic
    /// order; the parent's report is then bit-identical to having issued the
    /// events directly. This is how the wavefront-parallel encoder keeps
    /// per-thread counters mergeable without perturbing the simulation.
    #[must_use]
    pub fn recording_shard(&self) -> Profiler {
        Profiler {
            sample_shift: self.sample_shift,
            plan: self.plan,
            data_cursor: self.data_cursor,
            ..Self::fresh(
                &self.cfg,
                &self.kernels,
                self.layout.clone(),
                Backend::Record(Vec::new()),
            )
        }
    }

    /// Whether this profiler is a recording shard.
    #[cfg(test)]
    fn is_recording(&self) -> bool {
        matches!(self.backend, Backend::Record(_))
    }

    /// Drains the events buffered by a recording shard (empty for a normal
    /// profiler). The shard stays usable and keeps recording.
    pub fn take_events(&mut self) -> Vec<ProfEvent> {
        match &mut self.backend {
            Backend::Record(events) => std::mem::take(events),
            Backend::Simulate(_) => Vec::new(),
        }
    }

    /// Applies a recorded event stream as if the events were issued directly
    /// against this profiler, in order.
    pub fn replay(&mut self, events: &[ProfEvent]) {
        for e in events {
            match *e {
                ProfEvent::BeginUnit(index) => self.begin_unit(index),
                ProfEvent::Kernel(k, iters, insns, heavy) => self.kernel(k, iters, insns, heavy),
                ProfEvent::Branch(site, taken) => self.branch(site, taken),
                ProfEvent::Load(addr) => self.load(addr),
                ProfEvent::Store(addr) => self.store(addr),
                ProfEvent::LoadRange(addr, bytes) => self.load_range(addr, bytes),
                ProfEvent::StoreRange(addr, bytes) => self.store_range(addr, bytes),
                ProfEvent::Straightline(insns) => self.straightline(insns),
            }
        }
    }

    /// Sets the sampling shift: only one in `2^shift` units is fed to the
    /// cache/branch simulation. Zero (the default) traces everything.
    pub fn set_sample_shift(&mut self, shift: u32) {
        self.sample_shift = shift.min(16);
    }

    /// Installs a loop-transformation plan (see [`DataPlan`]); instrumented
    /// workloads consult it when emitting memory events.
    pub fn set_data_plan(&mut self, plan: DataPlan) {
        self.plan = plan;
    }

    /// The active loop-transformation plan.
    pub fn data_plan(&self) -> DataPlan {
        self.plan
    }

    /// Registers a data buffer and returns its stable virtual base address.
    ///
    /// Addresses are page-aligned with a guard page between buffers so
    /// distinct buffers never share a cache line.
    pub fn alloc(&mut self, name: &str, bytes: u64) -> u64 {
        let base = self.data_cursor;
        let span = bytes.div_ceil(4096) * 4096 + 4096;
        self.data_cursor += span;
        self.allocations.push((name.to_owned(), base, bytes));
        base
    }

    /// Marks the start of a sampling unit (the transcoder calls this once
    /// per macroblock with a monotonically increasing index).
    ///
    /// Sampling is *bursty*: runs of `SAMPLE_BURST` consecutive units are
    /// traced together, then `2^shift - 1` runs are skipped. Isolated
    /// sampled units would miss the cache warmth their skipped neighbours
    /// provide and systematically overestimate miss rates; bursts preserve
    /// intra-run locality.
    #[inline]
    pub fn begin_unit(&mut self, index: u64) {
        let mask = (1u64 << self.sample_shift) - 1;
        self.active = (index / SAMPLE_BURST) & mask == 0;
        // A shard records the boundary so replay reproduces the same
        // active/skip pattern on the parent (`active` is a pure function of
        // the unit index and the shared sampling shift).
        if let Backend::Record(rec) = &mut self.backend {
            rec.push(ProfEvent::BeginUnit(index));
        }
    }

    /// Records an invocation of kernel `k` executing `iters` loop iterations
    /// of `insns_per_iter` instructions, `heavy_per_iter` of which are
    /// long-latency (multiply/divide class).
    ///
    /// Charges instruction fetch for the kernel's code lines, models the
    /// loop's branches, and updates the call-pair profile.
    pub fn kernel(&mut self, k: KernelId, iters: u32, insns_per_iter: u32, heavy_per_iter: u32) {
        debug_assert!(k < self.kernels.len());
        let companion = match &mut self.backend {
            Backend::Record(rec) => {
                rec.push(ProfEvent::Kernel(k, iters, insns_per_iter, heavy_per_iter));
                return;
            }
            Backend::Simulate(companion) => companion,
        };
        let tally = &mut self.tally;
        let insns = CALL_OVERHEAD_INSNS + u64::from(iters) * u64::from(insns_per_iter);
        tally.instructions += insns;
        tally.heavy_ops += u64::from(iters) * u64::from(heavy_per_iter);
        tally.profile.invocations[k] += 1;
        tally.profile.instructions[k] += insns;
        if let Some(prev) = self.last_kernel {
            if prev != k {
                tally.profile.pairs[prev][k] += 1;
            }
        }
        let transition = self.last_kernel != Some(k);
        self.last_kernel = Some(k);
        self.current_kernel = Some(k);

        if !self.active {
            return;
        }

        // A transition streams the kernel's hot lines through the front end;
        // a re-entry keeps the entry line warm (LRU recency).
        let lines = self.layout.lines(k);
        let fetched = if transition {
            lines.end - lines.start
        } else {
            (lines.end - lines.start).min(1)
        };
        tally.redirects += u64::from(transition);
        // Loop control: `iters` taken back-edges plus one fall-through exit.
        let loop_pc = if iters > 0 {
            tally.branches += u64::from(iters) + 1;
            NonZeroU64::new(self.layout.base(k) + 8)
        } else {
            None
        };
        companion.push(Work::Kernel {
            first: lines.start,
            lines: u32::try_from(fetched).expect("a kernel's code lines fit its u32 byte size"),
            loop_pc,
        });
    }

    /// Records a data-dependent conditional branch within the current kernel.
    ///
    /// `site` distinguishes static branch locations inside the kernel; the
    /// real outcome drives the simulated predictor.
    #[inline]
    pub fn branch(&mut self, site: u32, taken: bool) {
        // Inactive units are filtered at record time: the shard computes the
        // same `active` flag the parent will recompute at replay, so dropped
        // events would be no-ops there anyway.
        if !self.active {
            return;
        }
        match &mut self.backend {
            Backend::Record(rec) => rec.push(ProfEvent::Branch(site, taken)),
            Backend::Simulate(companion) => {
                let k = self.current_kernel.unwrap_or(0);
                let pc = self.layout.branch_pc(k, site);
                self.tally.branches += 1;
                companion.push(Work::Branch { pc, taken });
            }
        }
    }

    /// Records a data load at a virtual byte address.
    #[inline]
    pub fn load(&mut self, addr: u64) {
        self.data(ProfEvent::Load(addr), addr, 1, Work::Load);
    }

    /// Records a data store at a virtual byte address.
    #[inline]
    pub fn store(&mut self, addr: u64) {
        self.data(ProfEvent::Store(addr), addr, 1, Work::Store);
    }

    /// Records a contiguous read of `bytes` starting at `addr` (touches each
    /// spanned cache line once).
    pub fn load_range(&mut self, addr: u64, bytes: u64) {
        let event = ProfEvent::LoadRange(addr, bytes);
        self.data(event, addr, bytes, Work::Load);
    }

    /// Records a contiguous write of `bytes` starting at `addr`.
    pub fn store_range(&mut self, addr: u64, bytes: u64) {
        let event = ProfEvent::StoreRange(addr, bytes);
        self.data(event, addr, bytes, Work::Store);
    }

    /// One data-side event of an active unit: buffered by a shard, otherwise
    /// the cache lines of `addr..addr + bytes` go to the models as `work`.
    #[inline]
    fn data(&mut self, event: ProfEvent, addr: u64, bytes: u64, work: fn(u64, u64) -> Work) {
        if !self.active || bytes == 0 {
            return;
        }
        match &mut self.backend {
            Backend::Record(rec) => rec.push(event),
            Backend::Simulate(companion) => {
                companion.push(work(addr >> 6, ((addr + bytes - 1) >> 6) + 1));
            }
        }
    }

    /// Adds plain (non-loop) instructions to the current kernel's account
    /// without any fetch or branch modelling — for straight-line sections.
    fn straightline(&mut self, insns: u64) {
        match &mut self.backend {
            Backend::Record(rec) => rec.push(ProfEvent::Straightline(insns)),
            Backend::Simulate(_) => {
                self.tally.instructions += insns;
                if let Some(k) = self.current_kernel {
                    self.tally.profile.instructions[k] += insns;
                }
            }
        }
    }

    /// Finalizes the profile: waits for the models to apply everything,
    /// scales sampled counters, runs the interval core model, and assembles
    /// the report.
    pub fn finish(self) -> ProfileReport {
        let measured = match self.backend {
            Backend::Simulate(companion) => {
                let models = companion.finish();
                Measured::of(&models.hierarchy, models.mispredicts)
            }
            Backend::Record(_) => Measured::default(),
        };
        report(
            &self.cfg,
            &self.kernels,
            self.sample_shift,
            self.tally,
            measured,
        )
    }
}

/// Scales the sampled-domain counts by `2^sample_shift`, runs the interval
/// core model, and derives rates and hotspots.
fn report(
    cfg: &UarchConfig,
    kernels: &[KernelDesc],
    sample_shift: u32,
    tally: Tally,
    measured: Measured,
) -> ProfileReport {
    let scale = 1u64 << sample_shift;
    let scale_levels = |c: LevelCounters| LevelCounters {
        l1: c.l1 * scale,
        l2: c.l2 * scale,
        l3: c.l3 * scale,
        l4: c.l4 * scale,
        mem: c.mem * scale,
    };
    let counts = ExecutionCounts {
        instructions: tally.instructions,
        uops: tally.instructions + tally.heavy_ops,
        branches: tally.branches * scale,
        branch_mispredicts: measured.mispredicts * scale,
        inst_fetch: scale_levels(measured.inst_fetch),
        itlb_misses: measured.itlb_misses * scale,
        loads: scale_levels(measured.loads),
        stores: scale_levels(measured.stores),
        heavy_ops: tally.heavy_ops,
        redirects: tally.redirects * scale,
    };

    let breakdown = CoreModel::new(cfg).run(&counts);
    let topdown = breakdown.topdown();

    let pki = |v: f64| {
        if counts.instructions == 0 {
            0.0
        } else {
            v * 1000.0 / counts.instructions as f64
        }
    };
    let mpki = MpkiReport {
        l1i: counts.mpki(counts.inst_fetch.l1_misses()),
        l1d: counts.mpki(counts.loads.l1_misses() + counts.stores.l1_misses()),
        l2: counts.mpki(counts.loads.l2_misses() + counts.stores.l2_misses()),
        l3: counts.mpki(counts.loads.l3_misses() + counts.stores.l3_misses()),
        branch: counts.mpki(counts.branch_mispredicts),
        itlb: counts.mpki(counts.itlb_misses),
    };
    let stalls = StallPki {
        any: pki(breakdown.any_stall_cycles()),
        rob: pki(breakdown.rob_stall_cycles),
        rs: pki(breakdown.rs_stall_cycles),
        sb: pki(breakdown.sb_stall_cycles),
    };

    let hotspots = tally
        .profile
        .hotspots()
        .into_iter()
        .map(|(k, insns)| (kernels[k].name.to_owned(), insns))
        .collect();

    ProfileReport {
        config_name: cfg.name.clone(),
        seconds: breakdown.seconds(cfg.freq_ghz),
        ipc: if breakdown.total_cycles == 0 {
            0.0
        } else {
            counts.instructions as f64 / breakdown.total_cycles as f64
        },
        counts,
        breakdown,
        topdown,
        mpki,
        stalls,
        hotspots,
        profile: tally.profile,
    }
}

/// The inline drive this profiler replaced, kept as the oracle: the same
/// exact accounting, with the hierarchy and the predictor driven on the
/// caller's thread, event by event, and every kernel transition fetched one
/// line at a time. Only the report assembly is shared.
#[cfg(test)]
mod oracle {
    use vtx_uarch::branch::{BranchPredictor, Predictor};
    use vtx_uarch::hierarchy::{HitLevel, MemoryHierarchy};

    use super::*;

    pub(crate) struct Inline {
        kernels: Vec<KernelDesc>,
        layout: CodeLayout,
        cfg: UarchConfig,
        hierarchy: MemoryHierarchy,
        predictor: Predictor,
        tally: Tally,
        mispredicts: u64,
        last_kernel: Option<KernelId>,
        current_kernel: Option<KernelId>,
        sample_shift: u32,
        active: bool,
    }

    impl Inline {
        pub(crate) fn new(cfg: &UarchConfig, kernels: &[KernelDesc], layout: CodeLayout) -> Self {
            Inline {
                kernels: kernels.to_vec(),
                layout,
                cfg: cfg.clone(),
                hierarchy: MemoryHierarchy::new(cfg).unwrap(),
                predictor: cfg.predictor.build(),
                tally: Tally::new(kernels.len()),
                mispredicts: 0,
                last_kernel: None,
                current_kernel: None,
                sample_shift: 0,
                active: true,
            }
        }

        pub(crate) fn set_sample_shift(&mut self, shift: u32) {
            self.sample_shift = shift.min(16);
        }

        pub(crate) fn replay(&mut self, events: &[ProfEvent]) {
            for e in events {
                match *e {
                    ProfEvent::BeginUnit(index) => {
                        let mask = (1u64 << self.sample_shift) - 1;
                        self.active = (index / SAMPLE_BURST) & mask == 0;
                    }
                    ProfEvent::Kernel(k, iters, insns, heavy) => {
                        self.kernel(k, iters, insns, heavy)
                    }
                    ProfEvent::Branch(site, taken) => {
                        if self.active {
                            let k = self.current_kernel.unwrap_or(0);
                            let pc = self.layout.branch_pc(k, site);
                            let ok = self.predictor.observe(pc, taken);
                            self.tally.branches += 1;
                            if !ok {
                                self.mispredicts += 1;
                            }
                        }
                    }
                    ProfEvent::Load(addr) => self.data(addr, 1, MemoryHierarchy::load_line),
                    ProfEvent::Store(addr) => self.data(addr, 1, MemoryHierarchy::store_line),
                    ProfEvent::LoadRange(addr, bytes) => {
                        self.data(addr, bytes, MemoryHierarchy::load_line);
                    }
                    ProfEvent::StoreRange(addr, bytes) => {
                        self.data(addr, bytes, MemoryHierarchy::store_line);
                    }
                    ProfEvent::Straightline(insns) => {
                        self.tally.instructions += insns;
                        if let Some(k) = self.current_kernel {
                            self.tally.profile.instructions[k] += insns;
                        }
                    }
                }
            }
        }

        fn kernel(&mut self, k: KernelId, iters: u32, insns_per_iter: u32, heavy_per_iter: u32) {
            let insns = CALL_OVERHEAD_INSNS + u64::from(iters) * u64::from(insns_per_iter);
            self.tally.instructions += insns;
            self.tally.heavy_ops += u64::from(iters) * u64::from(heavy_per_iter);
            self.tally.profile.invocations[k] += 1;
            self.tally.profile.instructions[k] += insns;
            if let Some(prev) = self.last_kernel {
                if prev != k {
                    self.tally.profile.pairs[prev][k] += 1;
                }
            }
            let transition = self.last_kernel != Some(k);
            self.last_kernel = Some(k);
            self.current_kernel = Some(k);

            if !self.active {
                return;
            }

            if transition {
                self.tally.redirects += 1;
                for line in self.layout.lines(k) {
                    self.hierarchy.fetch_line(line);
                }
            } else if let Some(first) = self.layout.lines(k).next() {
                self.hierarchy.fetch_line(first);
            }

            if iters > 0 {
                let pc = self.layout.base(k) + 8;
                let body_ok = self.predictor.observe(pc, true);
                let exit_ok = self.predictor.observe(pc, false);
                self.tally.branches += u64::from(iters) + 1;
                if !body_ok {
                    self.mispredicts += 1;
                }
                if !exit_ok {
                    self.mispredicts += 1;
                }
            }
        }

        fn data(
            &mut self,
            addr: u64,
            bytes: u64,
            access: impl Fn(&mut MemoryHierarchy, u64) -> HitLevel,
        ) {
            if !self.active || bytes == 0 {
                return;
            }
            for line in addr >> 6..=(addr + bytes - 1) >> 6 {
                access(&mut self.hierarchy, line);
            }
        }

        pub(crate) fn finish(self) -> ProfileReport {
            let measured = Measured::of(&self.hierarchy, self.mispredicts);
            report(
                &self.cfg,
                &self.kernels,
                self.sample_shift,
                self.tally,
                measured,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::companion::{BATCH, IN_FLIGHT};

    const KERNELS: &[KernelDesc] = &[
        KernelDesc::new("alpha", 4096),
        KernelDesc::new("beta", 8192),
        KernelDesc::new("gamma", 2048),
    ];

    fn profiler() -> Profiler {
        Profiler::new(
            &UarchConfig::baseline(),
            KERNELS,
            CodeLayout::default_order(KERNELS),
        )
        .unwrap()
    }

    /// `Profiler::new` checks on the caller what building the models used
    /// to check there: for every invalid configuration the tests build —
    /// zero pipeline sizes, bad cache geometry at each level, an iTLB that
    /// is empty, not a multiple of its ways or of a non-power-of-two set
    /// count — it returns the error validating and building did.
    #[test]
    fn new_refuses_what_building_the_models_refused() {
        let bad_cache = |c: &mut vtx_uarch::cache::CacheParams, how: u8| match how {
            0 => c.size_bytes = 0,
            1 => c.assoc = 0,
            2 => c.line_bytes = 0,
            3 => c.size_bytes += 64,
            _ => c.size_bytes = 3 * u64::from(c.assoc) * u64::from(c.line_bytes),
        };
        let mut cases: Vec<UarchConfig> = Vec::new();
        for field in 0..9 {
            for how in 0..5u8 {
                let mut cfg = UarchConfig::baseline();
                match field {
                    0 => bad_cache(&mut cfg.l1d, how),
                    1 => bad_cache(&mut cfg.l1i, how),
                    2 => bad_cache(&mut cfg.l2, how),
                    3 => bad_cache(&mut cfg.l3, how),
                    4 => {
                        let mut l4 = cfg.l3;
                        bad_cache(&mut l4, how);
                        cfg.l4 = Some(l4);
                    }
                    5 => cfg.itlb_entries = [0, 6, 12, 20, 132][usize::from(how)],
                    6 => cfg.rob_size = 0,
                    7 => cfg.dispatch_width = 0,
                    _ if how % 2 == 0 => cfg.rs_size = 0,
                    _ => cfg.sb_size = 0,
                }
                cases.push(cfg);
            }
        }
        let layout = CodeLayout::default_order(KERNELS);
        for cfg in &cases {
            let want = cfg
                .validate()
                .and_then(|()| MemoryHierarchy::new(cfg).map(drop));
            assert!(want.is_err(), "{cfg:?}");
            let got = Profiler::new(cfg, KERNELS, layout.clone()).map(drop);
            assert_eq!(got, want, "{cfg:?}");
        }
    }

    #[test]
    fn kernel_accounting() {
        let mut p = profiler();
        p.kernel(0, 10, 8, 1);
        p.kernel(1, 5, 20, 0);
        p.kernel(0, 10, 8, 1);
        let r = p.finish();
        assert_eq!(r.counts.instructions, 2 * (12 + 80) + (12 + 100));
        assert_eq!(r.counts.heavy_ops, 20);
        assert_eq!(r.profile.invocations[0], 2);
        assert_eq!(r.profile.pairs[0][1], 1);
        assert_eq!(r.profile.pairs[1][0], 1);
    }

    #[test]
    fn hotspots_name_resolution() {
        let mut p = profiler();
        p.kernel(2, 100, 50, 0);
        p.kernel(0, 1, 1, 0);
        let r = p.finish();
        assert_eq!(r.hotspots[0].0, "gamma");
    }

    #[test]
    fn loads_feed_cache_sim() {
        let mut p = profiler();
        let buf = p.alloc("buf", 1 << 20);
        p.kernel(0, 1, 1, 0);
        for i in 0..10_000u64 {
            p.load(buf + (i * 64) % (1 << 20));
        }
        let r = p.finish();
        assert!(r.counts.loads.total() >= 10_000);
        assert!(r.counts.loads.l1_misses() > 0);
    }

    #[test]
    fn sampling_scales_counts() {
        let run = |shift: u32| {
            let mut p = profiler();
            p.set_sample_shift(shift);
            let buf = p.alloc("buf", 1 << 16);
            for unit in 0..1024u64 {
                p.begin_unit(unit);
                p.kernel(0, 4, 10, 0);
                p.load(buf + unit * 64);
                p.branch(0, unit % 3 == 0);
            }
            p.finish()
        };
        let full = run(0);
        let sampled = run(2);
        // Instructions are exact in both.
        assert_eq!(full.counts.instructions, sampled.counts.instructions);
        // Uniform units: scaled branch and load totals match exactly (1024
        // units = 64 bursts of 16, of which every 4th is traced).
        assert_eq!(full.counts.branches, sampled.counts.branches);
        assert_eq!(full.counts.loads.total(), sampled.counts.loads.total());
    }

    #[test]
    fn sample_shift_clamps_to_16() {
        let mut clamped = profiler();
        clamped.set_sample_shift(31);
        let mut max = profiler();
        max.set_sample_shift(16);
        // The active/skip pattern of an over-large shift matches shift 16
        // exactly; an unclamped shift of 31 would overflow the burst mask.
        for index in [
            0,
            15,
            16,
            17,
            SAMPLE_BURST * ((1 << 16) - 1),
            SAMPLE_BURST << 16,
        ] {
            clamped.begin_unit(index);
            max.begin_unit(index);
            assert_eq!(clamped.active, max.active, "unit {index}");
        }
    }

    #[test]
    fn sampled_counters_are_scale_multiples() {
        let shift = 3u32;
        let mut p = profiler();
        p.set_sample_shift(shift);
        let buf = p.alloc("buf", 1 << 16);
        for unit in 0..4096u64 {
            p.begin_unit(unit);
            p.kernel((unit % 3) as usize, 4, 10, 1);
            p.load(buf + (unit * 64) % (1 << 16));
            p.store(buf + (unit * 128) % (1 << 16));
            p.branch(0, unit % 7 < 3);
        }
        let r = p.finish();
        // Everything in the sampled domain is scaled by exactly 2^shift at
        // finish(), so the reported totals must be multiples of it.
        let scale = 1u64 << shift;
        for (name, v) in [
            ("branches", r.counts.branches),
            ("mispredicts", r.counts.branch_mispredicts),
            ("redirects", r.counts.redirects),
            ("loads", r.counts.loads.total()),
            ("stores", r.counts.stores.total()),
            ("itlb", r.counts.itlb_misses),
        ] {
            assert_eq!(v % scale, 0, "{name} = {v} not a multiple of {scale}");
        }
        assert!(r.counts.branches > 0 && r.counts.loads.total() > 0);
    }

    #[test]
    fn sampling_preserves_rates_within_tolerance() {
        // A macroblock-like walk: mostly sequential loads with a data-
        // dependent branch. Sampled rates can't match exactly, but
        // per-instruction rates must stay close to the full trace — that is
        // the contract that makes sampled sweeps trustworthy. (Burst
        // sampling assumes this kind of locality; a fully random access
        // stream would give each burst different cache warmth.)
        let run = |shift: u32| {
            let mut p = profiler();
            p.set_sample_shift(shift);
            let buf = p.alloc("buf", 1 << 20);
            let mut x = 9_871u64;
            for unit in 0..8192u64 {
                p.begin_unit(unit);
                p.kernel((unit % 3) as usize, 6, 12, 1);
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                // Sequential per-unit line, plus a jittered touch within
                // it (spatial locality a burst always captures; jitter that
                // crossed burst boundaries would be invisible to sampling).
                p.load(buf + (unit * 64) % (1 << 20));
                p.load(buf + (unit * 64 + (x >> 32) % 64) % (1 << 20));
                p.branch(0, x & 8 != 0);
            }
            p.finish()
        };
        let full = run(0);
        let sampled = run(2);
        assert_eq!(full.counts.instructions, sampled.counts.instructions);
        let rel = |a: f64, b: f64| (a - b).abs() / a.max(1e-12);
        assert!(
            rel(full.counts.branches as f64, sampled.counts.branches as f64) < 0.05,
            "branch totals diverge: {} vs {}",
            full.counts.branches,
            sampled.counts.branches
        );
        assert!(
            rel(
                full.counts.loads.total() as f64,
                sampled.counts.loads.total() as f64
            ) < 0.05,
            "load totals diverge: {} vs {}",
            full.counts.loads.total(),
            sampled.counts.loads.total()
        );
        assert!(
            rel(full.mpki.l1d, sampled.mpki.l1d) < 0.25,
            "L1d MPKI drifts: {} vs {}",
            full.mpki.l1d,
            sampled.mpki.l1d
        );
        assert!(
            rel(full.ipc, sampled.ipc) < 0.15,
            "IPC drifts: l1d {} vs {}, ipc {} vs {}",
            full.mpki.l1d,
            sampled.mpki.l1d,
            full.ipc,
            sampled.ipc
        );
    }

    #[test]
    fn alloc_addresses_are_disjoint_and_stable() {
        let mut p1 = profiler();
        let a1 = p1.alloc("x", 1000);
        let b1 = p1.alloc("y", 1000);
        assert!(b1 >= a1 + 4096 + 4096);
        let mut p2 = profiler();
        assert_eq!(p2.alloc("x", 1000), a1);
    }

    #[test]
    fn branch_outcomes_drive_mispredicts() {
        let mut easy = profiler();
        easy.kernel(0, 1, 1, 0);
        for _ in 0..10_000 {
            easy.branch(0, true);
        }
        let easy_r = easy.finish();

        let mut hard = profiler();
        hard.kernel(0, 1, 1, 0);
        let mut x = 12345u32;
        for _ in 0..10_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            hard.branch(0, x & 4 != 0);
        }
        let hard_r = hard.finish();
        assert!(hard_r.counts.branch_mispredicts > easy_r.counts.branch_mispredicts * 5);
    }

    #[test]
    fn report_topdown_sums_to_one() {
        let mut p = profiler();
        let buf = p.alloc("b", 1 << 18);
        for u in 0..2000u64 {
            p.begin_unit(u);
            p.kernel((u % 3) as usize, 8, 10, 1);
            p.load(buf + u * 128);
            p.store(buf + u * 256 % (1 << 18));
        }
        let r = p.finish();
        assert!((r.topdown.sum() - 1.0).abs() < 1e-9);
        assert!(r.seconds > 0.0);
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn load_range_touches_every_line() {
        let mut p = profiler();
        p.kernel(0, 1, 1, 0);
        p.load_range(0x1000_0000, 256); // 4 lines
        let r = p.finish();
        assert_eq!(r.counts.loads.total(), 4);
    }

    /// A macroblock-like event stream touching every event kind.
    fn mixed_stream(p: &mut Profiler, buf: u64) {
        for unit in 0..600u64 {
            p.begin_unit(unit);
            p.kernel((unit % 3) as usize, 5, 11, 1);
            p.load(buf + (unit * 96) % (1 << 16));
            p.store(buf + (unit * 160) % (1 << 16));
            p.load_range(buf + (unit * 64) % (1 << 16), 192);
            p.store_range(buf + (unit * 32) % (1 << 16), 64);
            p.branch(1, unit % 5 < 2);
            p.straightline(7);
        }
    }

    #[test]
    fn record_replay_matches_direct_execution() {
        let mut direct = profiler();
        let buf = direct.alloc("b", 1 << 16);
        mixed_stream(&mut direct, buf);
        let want = direct.finish();

        let mut main = profiler();
        let buf2 = main.alloc("b", 1 << 16);
        assert_eq!(buf, buf2);
        let mut shard = main.recording_shard();
        assert!(shard.is_recording() && !main.is_recording());
        // By construction, not by convention: the variant a shard is has no
        // hierarchy or predictor field it could drive.
        assert!(matches!(shard.backend, Backend::Record(_)));
        mixed_stream(&mut shard, buf2);
        let events = shard.take_events();
        assert!(shard.take_events().is_empty(), "take drains the buffer");
        main.replay(&events);
        let got = main.finish();

        assert_eq!(want.counts, got.counts);
        assert_eq!(want.profile, got.profile);
        assert_eq!(want.hotspots, got.hotspots);
        assert_eq!(want.breakdown.total_cycles, got.breakdown.total_cycles);
    }

    #[test]
    fn record_replay_matches_under_sampling() {
        let run_direct = |shift: u32| {
            let mut p = profiler();
            p.set_sample_shift(shift);
            let buf = p.alloc("b", 1 << 16);
            mixed_stream(&mut p, buf);
            p.finish()
        };
        let shift = 2;
        let want = run_direct(shift);

        let mut main = profiler();
        main.set_sample_shift(shift);
        let buf = main.alloc("b", 1 << 16);
        let mut shard = main.recording_shard();
        mixed_stream(&mut shard, buf);
        let events = shard.take_events();
        // The shard filters inactive units' sampled-domain events (they
        // would be no-ops at replay), so the stream is strictly smaller than
        // the unsampled one.
        let mut unsampled = profiler().recording_shard();
        mixed_stream(&mut unsampled, buf);
        assert!(events.len() < unsampled.take_events().len());
        main.replay(&events);
        let got = main.finish();
        assert_eq!(want.counts, got.counts);
        assert_eq!(want.profile, got.profile);
    }

    #[test]
    fn shard_inherits_shift_and_plan() {
        let mut p = profiler();
        p.set_sample_shift(3);
        let plan = DataPlan {
            tile_me_window: true,
            ..DataPlan::default()
        };
        p.set_data_plan(plan);
        let mut shard = p.recording_shard();
        assert_eq!(shard.data_plan(), plan);
        // Same active/skip pattern as the parent.
        for index in [0u64, 16, 128, 129, 1024] {
            shard.begin_unit(index);
            p.begin_unit(index);
            assert_eq!(shard.active, p.active, "unit {index}");
        }
    }

    #[test]
    fn interleaved_shards_merge_in_replay_order() {
        // Two shards recording disjoint halves, replayed in unit order,
        // match one serial pass — the wavefront merge contract.
        let mut direct = profiler();
        let buf = direct.alloc("b", 1 << 16);
        for unit in 0..200u64 {
            direct.begin_unit(unit);
            direct.kernel((unit % 2) as usize, 4, 9, 0);
            direct.load(buf + unit * 64);
            direct.branch(0, unit % 3 == 0);
        }
        let want = direct.finish();

        let mut main = profiler();
        let buf = main.alloc("b", 1 << 16);
        let mut shards = [main.recording_shard(), main.recording_shard()];
        let mut per_unit: Vec<Vec<ProfEvent>> = Vec::new();
        for unit in 0..200u64 {
            let s = &mut shards[(unit % 2) as usize];
            s.begin_unit(unit);
            s.kernel((unit % 2) as usize, 4, 9, 0);
            s.load(buf + unit * 64);
            s.branch(0, unit % 3 == 0);
            per_unit.push(s.take_events());
        }
        for events in &per_unit {
            main.replay(events);
        }
        let got = main.finish();
        assert_eq!(want.counts, got.counts);
        assert_eq!(want.profile, got.profile);
    }

    #[test]
    fn deterministic_reports() {
        let run = || {
            let mut p = profiler();
            let b = p.alloc("b", 1 << 16);
            for u in 0..500u64 {
                p.begin_unit(u);
                p.kernel((u % 2) as usize, 6, 9, 1);
                p.load(b + (u * 192) % (1 << 16));
                p.branch(1, u % 5 < 2);
            }
            p.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.breakdown.total_cycles, b.breakdown.total_cycles);
    }

    /// Kernels whose code regions start at different offsets within a page
    /// and cross page boundaries, plus an empty and a one-line kernel.
    const WIDE: &[KernelDesc] = &[
        KernelDesc::new("empty", 0),
        KernelDesc::new("one_line", 40),
        KernelDesc::new("pages", 5_000),
        KernelDesc::new("mid", 3_000),
        KernelDesc::new("big", 9_000),
    ];

    fn wide_layout() -> CodeLayout {
        CodeLayout::with_order_and_gap(WIDE, &[4, 2, 0, 3, 1], 1)
    }

    /// A seeded stream of every event kind, loop-free and looping kernels,
    /// zero-byte and multi-line data ranges, over `units` units.
    fn seeded_stream(seed: u64, units: u64) -> Vec<ProfEvent> {
        let mut x = seed;
        let mut next = move |n: u64| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let mut events = Vec::new();
        for unit in 0..units {
            events.push(ProfEvent::BeginUnit(unit));
            for _ in 0..1 + next(3) {
                let k = next(WIDE.len() as u64) as usize;
                events.push(ProfEvent::Kernel(
                    k,
                    next(24) as u32,
                    1 + next(30) as u32,
                    next(3) as u32,
                ));
            }
            let site = next(8) as u32;
            let taken = if site < 3 {
                next(2) == 1
            } else {
                unit % u64::from(site + 2) != 0
            };
            events.push(ProfEvent::Branch(site, taken));
            let addr = |r: u64| DATA_BASE + r;
            events.push(ProfEvent::Load(addr(next(1 << 22))));
            events.push(ProfEvent::Store(addr(next(1 << 20))));
            events.push(ProfEvent::LoadRange(addr(next(1 << 22)), next(700)));
            events.push(ProfEvent::StoreRange(addr(next(1 << 20)), next(300)));
            events.push(ProfEvent::Straightline(next(9)));
        }
        events
    }

    /// Items a stream sends to the models when every unit is sampled.
    fn model_work(events: &[ProfEvent]) -> usize {
        events
            .iter()
            .filter(|e| match e {
                ProfEvent::Kernel(..) | ProfEvent::Branch(..) => true,
                ProfEvent::Load(_) | ProfEvent::Store(_) => true,
                ProfEvent::LoadRange(_, bytes) | ProfEvent::StoreRange(_, bytes) => *bytes > 0,
                ProfEvent::BeginUnit(_) | ProfEvent::Straightline(_) => false,
            })
            .count()
    }

    /// The threaded report and the oracle's, as `perf` digests them.
    fn both(cfg: &UarchConfig, shift: u32, events: &[ProfEvent]) -> (String, String) {
        let mut threaded = Profiler::new(cfg, WIDE, wide_layout()).unwrap();
        threaded.set_sample_shift(shift);
        threaded.replay(events);
        let mut inline = oracle::Inline::new(cfg, WIDE, wide_layout());
        inline.set_sample_shift(shift);
        inline.replay(events);
        (
            format!("{:?}", threaded.finish()),
            format!("{:?}", inline.finish()),
        )
    }

    #[test]
    fn threaded_reports_equal_the_inline_oracle() {
        let events = seeded_stream(0x5EED, 3_000);
        // More than three batches, the last one partial.
        let work = model_work(&events);
        assert!(
            work > 3 * BATCH && !work.is_multiple_of(BATCH),
            "{work} items"
        );
        for cfg in UarchConfig::table_iv() {
            for shift in [0, 1, 2, 16] {
                let (got, want) = both(&cfg, shift, &events);
                assert_eq!(got, want, "{} at shift {shift}", cfg.name);
            }
        }
    }

    #[test]
    fn empty_and_unsampled_runs_equal_the_oracle() {
        // Units 16..48 at shift 16 are all skipped: only the front counts.
        let unsampled: Vec<ProfEvent> = seeded_stream(7, 48)
            .into_iter()
            .skip_while(|e| *e != ProfEvent::BeginUnit(16))
            .collect();
        for cfg in UarchConfig::table_iv() {
            let (got, want) = both(&cfg, 0, &[]);
            assert_eq!(got, want, "{} empty", cfg.name);
            let (got, want) = both(&cfg, 16, &unsampled);
            assert_eq!(got, want, "{} unsampled", cfg.name);
        }
    }

    #[test]
    fn replayed_shards_equal_the_oracle() {
        for cfg in [UarchConfig::baseline(), UarchConfig::bs_op()] {
            let mut main =
                Profiler::new(&cfg, KERNELS, CodeLayout::default_order(KERNELS)).unwrap();
            main.set_sample_shift(2);
            let buf = main.alloc("b", 1 << 16);
            let mut shard = main.recording_shard();
            mixed_stream(&mut shard, buf);
            let events = shard.take_events();
            main.replay(&events);
            let mut inline = oracle::Inline::new(&cfg, KERNELS, CodeLayout::default_order(KERNELS));
            inline.set_sample_shift(2);
            inline.replay(&events);
            assert_eq!(
                format!("{:?}", main.finish()),
                format!("{:?}", inline.finish())
            );
        }
    }

    /// Hands the models an item that panics with `message`, then
    /// `filler` more.
    fn poison(p: &mut Profiler, message: &'static str, filler: usize) {
        let Backend::Simulate(companion) = &mut p.backend else {
            unreachable!("a new profiler simulates")
        };
        companion.push(Work::Panic(message));
        for _ in 0..filler {
            companion.push(Work::Branch {
                pc: 64,
                taken: true,
            });
        }
    }

    fn payload(outcome: std::thread::Result<impl Sized>) -> String {
        match outcome {
            Ok(_) => panic!("the model thread's panic did not resurface"),
            Err(payload) => *payload
                .downcast::<String>()
                .expect("the thread's own payload"),
        }
    }

    #[test]
    fn a_model_panic_resurfaces_with_its_payload() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // At finish, which sends the partial batch that holds it.
        let mut p = profiler();
        poison(&mut p, "at finish", 0);
        assert_eq!(
            payload(catch_unwind(AssertUnwindSafe(|| p.finish()))),
            "at finish"
        );
        // At a hand-over: the thread has hung up by the time the front
        // needs a buffer back.
        let mut p = profiler();
        let run = catch_unwind(AssertUnwindSafe(|| {
            poison(&mut p, "mid-run", (IN_FLIGHT + 2) * BATCH);
        }));
        assert_eq!(payload(run), "mid-run");
        drop(p);
        // At the drop of a profiler never finished.
        let mut p = profiler();
        poison(&mut p, "at drop", BATCH);
        assert_eq!(
            payload(catch_unwind(AssertUnwindSafe(|| drop(p)))),
            "at drop"
        );
    }
}
