//! uops.info-style automated port-mapping inference.
//!
//! The harness plays both sides of the experiment that Abel & Reineke run
//! against real silicon:
//!
//! * [`BlockedPortBench`] is the "machine": it holds a hidden ground-truth
//!   [`PortLayout`] and answers throughput queries for a uop class (or a
//!   whole mix) while a chosen set of ports is blocked by saturating filler
//!   uops, with a small deterministic measurement noise.
//! * [`infer`] is the "experimenter": it only calls the bench's public
//!   measurement API, never looks at the hidden layout, and recovers the
//!   port mapping from blocked-port throughput differentials. From the
//!   recovered mapping it also builds a PALMED-style conjunctive
//!   abstract-resource model: one resource per distinct port-union, where a
//!   class uses a resource iff its ports lie inside the resource's union.
//!
//! Every measurement is a pure function of `(seed, experiment identity)`,
//! so two runs with the same seed are byte-identical — the determinism CI
//! job compares full rendered reports across runs.

use vtx_rng::SplitMix64;
use vtx_uarch::config::UarchConfig;

use crate::error::PortError;
use crate::layout::{ClassMask, PortLayout, PortMask, UopClass, NUM_CLASSES};
use crate::mix::UopMix;
use crate::solver::solve;

/// One-shot hash of a seed and a discriminator into a derived seed —
/// gives every (class, blocked-mask) experiment its own stream.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Relative half-width of the multiplicative measurement noise the bench
/// injects (±1%). Inference thresholds sit far above this.
const NOISE: f64 = 0.01;

/// Synthetic measurement bench: a hidden layout probed through blocked-port
/// throughput experiments.
#[derive(Debug)]
pub struct BlockedPortBench {
    truth: PortLayout,
    seed: u64,
    experiments: std::cell::Cell<u64>,
}

impl BlockedPortBench {
    /// Wraps a ground-truth layout. `seed` drives the measurement noise.
    pub fn new(truth: PortLayout, seed: u64) -> Self {
        BlockedPortBench {
            truth,
            seed,
            experiments: std::cell::Cell::new(0),
        }
    }

    /// How many measurements have been taken so far.
    pub fn experiments(&self) -> u64 {
        self.experiments.get()
    }

    /// Number of ports the machine under test exposes (observable on real
    /// hardware from counter topology, so the experimenter may use it).
    fn num_ports(&self) -> usize {
        self.truth.num_ports()
    }

    /// Name of the machine under test (for reports).
    fn machine(&self) -> &str {
        &self.truth.name
    }

    /// Deterministic noise factor for one experiment identity.
    fn noise(&self, salt: u64) -> f64 {
        let u = (derive(self.seed, salt) >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + NOISE * (2.0 * u - 1.0)
    }

    /// Measured throughput (uops/cycle) of a single-class micro-kernel with
    /// the ports in `blocked` kept busy by filler uops. A class whose ports
    /// are all blocked measures 0.
    fn measure_class(&self, class: UopClass, blocked: PortMask) -> f64 {
        self.experiments.set(self.experiments.get() + 1);
        let free = self.truth.class_ports(class) & !blocked;
        let ideal = f64::from(free.count_ones());
        let salt = 0x10 + class.index() as u64 * 0x1_0000 + u64::from(blocked);
        ideal * self.noise(salt)
    }

    /// Measured throughput of a full mix with ports blocked. Unserved
    /// classes surface as an error just as a hung micro-benchmark would.
    fn measure_mix(&self, mix: &UopMix, blocked: PortMask) -> Result<f64, PortError> {
        self.experiments.set(self.experiments.get() + 1);
        let masked = self.masked_truth(blocked)?;
        let s = solve(&masked, mix, f64::from(u32::MAX))?;
        let mut salt_bits = 0u64;
        for f in mix.fractions() {
            salt_bits = salt_bits.wrapping_mul(31).wrapping_add((f * 1e6) as u64);
        }
        let salt = (0x9000_0000 + salt_bits) ^ u64::from(blocked);
        Ok(s.uops_per_cycle * self.noise(salt))
    }

    /// The hidden layout with blocked ports stripped.
    fn masked_truth(&self, blocked: PortMask) -> Result<PortLayout, PortError> {
        let mut classes_per_port: Vec<Vec<UopClass>> = Vec::new();
        for p in 0..self.truth.num_ports() {
            if blocked & (1 << p) as PortMask != 0 {
                classes_per_port.push(Vec::new());
                continue;
            }
            classes_per_port.push(
                UopClass::ALL
                    .into_iter()
                    .filter(|c| self.truth.allows(p, *c))
                    .collect(),
            );
        }
        let refs: Vec<&[UopClass]> = classes_per_port.iter().map(Vec::as_slice).collect();
        PortLayout::new(&self.truth.name, &refs)
    }
}

/// One abstract resource of the PALMED-style conjunctive model: classes
/// mapped to `classes` share the `ports.count_ones()` slots of `ports`.
#[derive(Debug, Clone, PartialEq)]
pub struct AbstractResource {
    /// Ports pooled by this resource.
    pub(crate) ports: PortMask,
    /// Classes that load this resource.
    pub(crate) classes: ClassMask,
    /// Slots per cycle (`ports.count_ones()`).
    pub(crate) throughput: f64,
}

/// A port mapping recovered purely from measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredModel {
    /// Recovered layout (same shape as the hidden truth when inference
    /// succeeds).
    pub layout: PortLayout,
    /// Conjunctive resources: predicted load is `max` over resources of
    /// `flow(classes) / throughput`.
    pub(crate) resources: Vec<AbstractResource>,
    /// Measurements spent.
    pub experiments: u64,
}

impl InferredModel {
    /// Predicted throughput of `mix` from the conjunctive resources alone
    /// (clamped to `width`). Mirrors PALMED: the resources compress the
    /// layout, and for mappings recovered here they reproduce the exact
    /// subset bound.
    pub fn predicted_throughput(&self, mix: &UopMix, width: f64) -> Result<f64, PortError> {
        if width <= 0.0 {
            return Err(PortError::ZeroWidth);
        }
        let flow = mix.fractions();
        let mut load = 0.0f64;
        for r in &self.resources {
            let f: f64 = UopClass::ALL
                .iter()
                .filter(|c| r.classes & (1 << c.index()) as ClassMask != 0)
                .map(|c| flow[c.index()])
                .sum();
            if f > 0.0 {
                load = load.max(f / r.throughput);
            }
        }
        // A class with flow but no resource would be unserved.
        for c in UopClass::ALL {
            if flow[c.index()] > 0.0 && self.layout.class_ports(c) == 0 {
                return Err(PortError::UnservedClass {
                    class: c,
                    layout: self.layout.name.clone(),
                });
            }
        }
        if load <= 0.0 {
            return Ok(width);
        }
        Ok(width.min(1.0 / load))
    }
}

/// Recovers the port mapping of the machine behind `bench`.
///
/// For every class, the membership probe blocks all ports but one: if the
/// class still issues (throughput > 0.5 against noise ±1%), that port
/// accepts it. An unblocked run cross-checks the recovered port count; a
/// disagreement beyond the noise budget is a conflict, not a silent guess.
///
/// # Errors
///
/// [`PortError::InferenceConflict`] when the cross-check fails (cannot
/// happen against [`BlockedPortBench`] noise, but guards future benches
/// with structural error injected).
pub fn infer(bench: &BlockedPortBench) -> Result<InferredModel, PortError> {
    let n = bench.num_ports();
    let all = ((1u32 << n) - 1) as PortMask;
    let mut recovered: Vec<Vec<UopClass>> = vec![Vec::new(); n];
    for class in UopClass::ALL {
        let mut member_ports: PortMask = 0;
        for (p, port_classes) in recovered.iter_mut().enumerate() {
            let blocked = all & !(1 << p) as PortMask;
            let t = bench.measure_class(class, blocked);
            // One free port sustains ~1 uop/cycle if it accepts the class,
            // ~0 otherwise; 0.5 splits the modes with 49σ of margin.
            if t > 0.5 {
                member_ports |= (1 << p) as PortMask;
                port_classes.push(class);
            }
        }
        // Cross-check: unblocked throughput must equal the member count.
        let unblocked = bench.measure_class(class, 0);
        let expect = f64::from(member_ports.count_ones());
        if (unblocked - expect).abs() > expect.max(1.0) * (3.0 * NOISE + 0.05) {
            return Err(PortError::InferenceConflict {
                class,
                recovered_ports: member_ports.count_ones(),
                unblocked,
            });
        }
    }
    let refs: Vec<&[UopClass]> = recovered.iter().map(Vec::as_slice).collect();
    let layout = PortLayout::new(bench.machine(), &refs)?;
    let resources = conjunctive_resources(&layout);
    Ok(InferredModel {
        layout,
        resources,
        experiments: bench.experiments(),
    })
}

/// Builds the conjunctive resource set of a layout: one resource per
/// distinct nonempty port-union over class subsets, loading exactly the
/// classes whose ports sit inside the union. This is the minimal PALMED
/// decomposition for a mapping with unit-throughput ports, and it makes the
/// abstract model reproduce the exact subset bound.
fn conjunctive_resources(layout: &PortLayout) -> Vec<AbstractResource> {
    let mut unions: Vec<PortMask> = Vec::new();
    for subset in 1u16..(1 << NUM_CLASSES) {
        let u = layout.union_ports(subset as ClassMask);
        if u != 0 && !unions.contains(&u) {
            unions.push(u);
        }
    }
    unions.sort_unstable();
    unions
        .into_iter()
        .map(|ports| {
            let classes = UopClass::ALL
                .into_iter()
                .filter(|c| {
                    let cp = layout.class_ports(*c);
                    cp != 0 && cp & !ports == 0
                })
                .fold(0, |m, c| m | (1 << c.index()) as ClassMask);
            AbstractResource {
                ports,
                classes,
                throughput: f64::from(ports.count_ones()),
            }
        })
        .filter(|r| r.classes != 0)
        .collect()
}

/// Validation of an inferred model against its bench: worst relative error
/// between predicted and measured throughput over the standard mix suite
/// (every table kernel plus the ten preset blends).
#[derive(Debug, Clone, PartialEq)]
pub struct Validation {
    /// Worst relative error across the suite.
    pub max_rel_error: f64,
    /// Mean relative error across the suite.
    pub(crate) mean_rel_error: f64,
    /// Mixes evaluated.
    pub cases: usize,
}

/// Validates `model` against `bench` over every table kernel mix and the
/// ten preset blends, at unbounded width (pure port bound).
pub fn validate(model: &InferredModel, bench: &BlockedPortBench) -> Result<Validation, PortError> {
    let width = f64::from(u32::MAX);
    let mut max_rel = 0.0f64;
    let mut sum_rel = 0.0f64;
    let mut cases = 0usize;
    let mut check = |mix: &UopMix| -> Result<(), PortError> {
        let predicted = model.predicted_throughput(mix, width)?;
        let measured = bench.measure_mix(mix, 0)?;
        let rel = (predicted - measured).abs() / measured.max(1e-9);
        max_rel = max_rel.max(rel);
        sum_rel += rel;
        cases += 1;
        Ok(())
    };
    for name in UopMix::kernel_names() {
        check(&UopMix::for_kernel(name))?;
    }
    for rank in 0..10 {
        check(&UopMix::for_preset_rank(rank))?;
    }
    Ok(Validation {
        max_rel_error: max_rel,
        mean_rel_error: sum_rel / cases as f64,
        cases,
    })
}

/// Runs the full inference experiment across every Table IV configuration
/// and renders a deterministic text report (byte-identical for identical
/// seeds — the CI determinism job compares two of these).
pub fn render_inference_report(seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "port-mapping inference (seed {seed})");
    for cfg in &UarchConfig::table_iv() {
        let truth = PortLayout::for_config(cfg);
        let bench = BlockedPortBench::new(
            truth.clone(),
            derive(
                seed,
                0xC0F + cfg.name.len() as u64 * 131 + cfg.name.bytes().map(u64::from).sum::<u64>(),
            ),
        );
        let _ = writeln!(out, "\nconfig {} ({} ports)", cfg.name, truth.num_ports());
        match infer(&bench) {
            Err(e) => {
                let _ = writeln!(out, "  inference FAILED: {e}");
            }
            Ok(model) => {
                let exact = model.layout.render() == truth.render();
                let _ = writeln!(
                    out,
                    "  recovered mapping ({} experiments, exact={})",
                    model.experiments, exact
                );
                out.push_str(&model.layout.render());
                let _ = writeln!(out, "  resources: {}", model.resources.len());
                match validate(&model, &bench) {
                    Err(e) => {
                        let _ = writeln!(out, "  validation FAILED: {e}");
                    }
                    Ok(v) => {
                        let _ = writeln!(
                            out,
                            "  validation: {} mixes, mean rel err {:.4}, max rel err {:.4}",
                            v.cases, v.mean_rel_error, v.max_rel_error
                        );
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_separates_streams() {
        assert_ne!(derive(42, 1), derive(42, 2));
        assert_ne!(derive(42, 1), derive(43, 1));
        assert_eq!(derive(42, 1), derive(42, 1));
    }

    #[test]
    fn recovers_gainestown_exactly() {
        let bench = BlockedPortBench::new(PortLayout::gainestown(), 1);
        let model = infer(&bench).unwrap();
        assert_eq!(model.layout.render(), PortLayout::gainestown().render());
        // 7 classes × (6 probes + 1 cross-check) = 49 experiments.
        assert_eq!(model.experiments, 49);
    }

    #[test]
    fn recovers_widened_exactly() {
        let bench = BlockedPortBench::new(PortLayout::widened(), 2);
        let model = infer(&bench).unwrap();
        assert_eq!(model.layout.render(), PortLayout::widened().render());
    }

    #[test]
    fn validation_within_noise() {
        for (truth, seed) in [(PortLayout::gainestown(), 3), (PortLayout::widened(), 4)] {
            let bench = BlockedPortBench::new(truth, seed);
            let model = infer(&bench).unwrap();
            let v = validate(&model, &bench).unwrap();
            assert!(v.cases > 30);
            // Exact recovery: only measurement noise (±1%) separates
            // prediction from measurement — far inside the 5% criterion.
            assert!(v.max_rel_error < 0.05, "max rel err {}", v.max_rel_error);
        }
    }

    #[test]
    fn conjunctive_model_matches_solver() {
        let truth = PortLayout::gainestown();
        let bench = BlockedPortBench::new(truth.clone(), 5);
        let model = infer(&bench).unwrap();
        for rank in 0..10 {
            let mix = UopMix::for_preset_rank(rank);
            let exact = solve(&truth, &mix, 4.0).unwrap().uops_per_cycle;
            let abstracted = model.predicted_throughput(&mix, 4.0).unwrap();
            assert!(
                (exact - abstracted).abs() < 1e-9,
                "rank {rank}: {exact} vs {abstracted}"
            );
        }
    }

    #[test]
    fn report_is_deterministic() {
        assert_eq!(render_inference_report(42), render_inference_report(42));
        assert_ne!(render_inference_report(42), render_inference_report(43));
    }

    #[test]
    fn report_covers_all_table_iv_configs() {
        let r = render_inference_report(7);
        for name in ["baseline", "fe_op", "be_op1", "be_op2", "bs_op"] {
            assert!(r.contains(name), "missing {name}:\n{r}");
        }
        assert!(!r.contains("FAILED"), "{r}");
        assert!(r.contains("exact=true"));
    }

    #[test]
    fn measurement_noise_is_bounded_and_deterministic() {
        let bench = BlockedPortBench::new(PortLayout::gainestown(), 9);
        let a = bench.measure_class(UopClass::Load, 0);
        let bench2 = BlockedPortBench::new(PortLayout::gainestown(), 9);
        let b = bench2.measure_class(UopClass::Load, 0);
        assert_eq!(a, b);
        assert!((a - 2.0).abs() < 2.0 * NOISE + 1e-9);
    }
}
