//! The four workloads. Each is a fixed, seed-generated list of ops that the
//! harness runs in whole passes; an op drives one or more layers through
//! their public functions and checks what came back.

mod characterize_sweep;
mod encode_ladder;
pub(crate) mod fleet;

use vtx_codec::instr;
use vtx_core::Transcoder;
use vtx_frame::{synth, vbench};
use vtx_trace::layout::CodeLayout;
use vtx_trace::Profiler;
use vtx_uarch::config::UarchConfig;

use crate::spans::Tracer;
use crate::stats::Fnv64;

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 4] = [
    "encode_ladder",
    "characterize_sweep",
    "fleet_small",
    "fleet_xl",
];

/// The unit `work_per_s` counts for a workload.
pub fn work_unit(name: &str) -> &'static str {
    match name {
        "encode_ladder" => "frames",
        "characterize_sweep" => "Minstr",
        _ => "jobs",
    }
}

/// How much of a workload to build: the whole op list, or the short
/// reference pass a traced run of another workload uses to call this
/// workload's layers a few times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Reference,
}

/// Simulated counts of one op (zero where the op simulates nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub events: u64,
    pub instructions: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub mispredicts: u64,
}

impl SimCounts {
    pub fn add(&mut self, o: &SimCounts) {
        self.events += o.events;
        self.instructions += o.instructions;
        self.l1d_misses += o.l1d_misses;
        self.l2_misses += o.l2_misses;
        self.mispredicts += o.mispredicts;
    }
}

/// What one op produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpResult {
    /// Work done, in the workload's work unit.
    pub work: f64,
    /// FNV-1a over the op's outputs.
    pub digest: u64,
    /// Whether the op's own correctness checks held.
    pub ok: bool,
    pub sim: SimCounts,
}

impl OpResult {
    /// An op that returned an error instead of outputs.
    pub fn failed() -> Self {
        OpResult {
            work: 0.0,
            digest: 0,
            ok: false,
            sim: SimCounts::default(),
        }
    }
}

pub trait Workload {
    fn n_ops(&self) -> usize;
    /// A label for op `i`: its kind and parameters.
    fn label(&self, i: usize) -> String;
    /// Runs op `i`. With the tracer on, records a span around every call
    /// into a layer. `Err` is a layer refusing its input.
    fn try_run(&self, i: usize, tr: &mut Tracer) -> Result<OpResult, String>;

    /// Runs op `i`; an error counts as a failed op.
    fn run(&self, i: usize, tr: &mut Tracer) -> OpResult {
        self.try_run(i, tr).unwrap_or_else(|e| {
            crate::harness::complain(&format!("op {i} ({}) failed: {e}", self.label(i)));
            OpResult::failed()
        })
    }
}

/// Builds a workload's inputs from the seed. This is what `setup_s` times.
pub fn build(name: &str, seed: u64, size: Size, tr: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "encode_ladder" => Box::new(encode_ladder::EncodeLadder::build(seed, size, tr)),
        "characterize_sweep" => {
            Box::new(characterize_sweep::CharacterizeSweep::build(seed, size, tr))
        }
        "fleet_small" => Box::new(fleet::FleetWorkload::small(seed, size, tr)),
        "fleet_xl" => Box::new(fleet::FleetWorkload::xl(seed, size, tr)),
        _ => return None,
    })
}

/// The catalog clip `name` as op `op` sees it. Every op has its own rendition
/// of its clip, synthesized from a seed derived from `--seed` and the op's
/// index: a catalog clip's cost swings by a tenth and more from one seed to
/// the next (a low-entropy clip is two moving rectangles of random size), and
/// a pass over many renditions averages that out where a pass over one would
/// inherit it whole.
pub(crate) fn rendition(name: &str, seed: u64, op: usize, tr: &mut Tracer) -> Transcoder {
    tr.span("core.from_catalog", |tr| {
        let spec = vbench::by_name(name).expect("catalog clip");
        let content_seed = Fnv64::new().u64(seed).u64(op as u64).finish();
        let video = tr.span("frame.synth", |_| synth::generate(&spec, content_seed));
        Transcoder::from_video(video).expect("mezzanine encodes")
    })
}

/// A profiler over the codec's kernel table on `cfg`, default code layout.
pub(crate) fn profiler(cfg: &UarchConfig, sample_shift: u32) -> Profiler {
    let kernels = instr::kernel_table();
    let mut p = Profiler::new(cfg, kernels, CodeLayout::default_order(kernels))
        .expect("catalog uarch configs validate");
    p.set_sample_shift(sample_shift);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same seed, same op list and digests; another seed, other inputs but
    /// the same op count. Reference size keeps this quick in a debug build.
    #[test]
    fn seed_determines_inputs_but_not_the_op_count() {
        for name in NAMES {
            let pass = |seed: u64| {
                let mut tr = Tracer::off();
                let w = build(name, seed, Size::Reference, &mut tr).unwrap();
                let labels: Vec<String> = (0..w.n_ops()).map(|i| w.label(i)).collect();
                let results: Vec<OpResult> = (0..w.n_ops()).map(|i| w.run(i, &mut tr)).collect();
                (labels, results)
            };
            let (la, ra) = pass(42);
            let (lb, rb) = pass(42);
            let (lc, rc) = pass(7);
            assert_eq!(la, lb, "{name}: op list");
            assert_eq!(ra, rb, "{name}: results");
            assert_eq!(la.len(), lc.len(), "{name}: op count");
            assert!(ra.iter().all(|r| r.ok), "{name}: seed 42 ops pass");
            assert!(rc.iter().all(|r| r.ok), "{name}: seed 7 ops pass");
            let digests = |r: &[OpResult]| r.iter().map(|r| r.digest).collect::<Vec<_>>();
            assert_ne!(digests(&ra), digests(&rc), "{name}: inputs follow the seed");
        }
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(build("nope", 1, Size::Reference, &mut Tracer::off()).is_none());
    }
}
