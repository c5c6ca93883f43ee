//! Saturating-flow steady-state throughput solver.
//!
//! Given a [`PortLayout`] and a [`UopMix`], the solver answers: at steady
//! state, how many uops per cycle can the execution ports sustain, and how
//! busy is each port at that rate?
//!
//! The model is the standard one behind uops.info's and PALMED's throughput
//! predictors. Issue one "unit" of the mix per cycle and classes route
//! freely among the ports that accept them. A subset `S` of classes carries
//! `f(S)` uops per unit but can only use the ports in `union_ports(S)`, so
//! the per-unit cycle cost is at least `f(S) / |union_ports(S)|` — a
//! max-flow/min-cut (Hall's theorem) bound. The binding subset gives the
//! steady-state cost
//!
//! ```text
//! L* = max over nonempty S of f(S) / |union_ports(S)|
//! ```
//!
//! and throughput `min(width, 1 / L*)` uops/cycle. With only seven classes
//! the `2^7` subset enumeration is exact and effectively free.

use crate::error::PortError;
use crate::layout::{ClassMask, PortLayout, PortMask, UopClass, NUM_CLASSES};
use crate::mix::UopMix;

/// Result of a steady-state solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputSolve {
    /// Sustained uops per cycle (already clamped to the dispatch width).
    pub uops_per_cycle: f64,
    /// Per-unit cycle cost `L*` of the binding class subset (the port
    /// bound alone, before the width clamp).
    pub(crate) bound_load: f64,
    /// Fraction of cycles each port is busy at the sustained rate,
    /// `utilization[p]` in `[0, 1]`.
    pub utilization: Vec<f64>,
    /// Ports of the binding subset — the bottleneck group.
    pub(crate) bottleneck: PortMask,
}

impl ThroughputSolve {
    /// Whether the ports (not the dispatch width) limit throughput.
    #[cfg(test)]
    fn port_limited(&self, width: f64) -> bool {
        self.bound_load > 1.0 / width + 1e-12
    }
}

/// Finds the binding class subset: max of `f(S) / |union_ports(S)|`.
/// Returns `(load, subset, ports)`. Classes with zero flow are skipped so
/// an unserved-but-unused class does not poison the solve.
fn binding_subset(
    layout: &PortLayout,
    flow: &[f64; NUM_CLASSES],
) -> Result<(f64, ClassMask, PortMask), PortError> {
    let mut best = (0.0f64, 0 as ClassMask, 0 as PortMask);
    for subset in 1u16..(1 << NUM_CLASSES) {
        let mut f = 0.0;
        for c in UopClass::ALL {
            if subset & (1 << c.index()) != 0 {
                f += flow[c.index()];
            }
        }
        if f <= 0.0 {
            continue;
        }
        let ports = layout.union_ports(subset);
        if ports == 0 {
            // Some flowing class in the subset has no port anywhere.
            let class = UopClass::ALL
                .into_iter()
                .find(|c| {
                    subset & (1 << c.index()) != 0
                        && flow[c.index()] > 0.0
                        && layout.class_ports(*c) == 0
                })
                .expect("zero port union implies an unserved flowing class");
            return Err(PortError::UnservedClass {
                class,
                layout: layout.name.clone(),
            });
        }
        let load = f / f64::from(ports.count_ones());
        if load > best.0 + 1e-15 {
            best = (load, subset, ports);
        }
    }
    Ok(best)
}

/// Splits each port's busy fraction at the sustained rate.
///
/// The binding subset's flow saturates its ports exactly; everything else
/// recurses on the residual layout (binding ports removed) with the
/// remaining flow. Each recursion level removes at least one port and one
/// class, so the decomposition terminates and every port gets a utilization
/// in `[0, 1]`.
fn fill_utilization(
    layout: &PortLayout,
    flow: &[f64; NUM_CLASSES],
    scale: f64,
    excluded_ports: PortMask,
    utilization: &mut [f64],
) {
    let mut residual = *flow;
    // Masked view of the layout: treat excluded ports as gone.
    let visible = |c: UopClass| layout.class_ports(c) & !excluded_ports;
    let any_flow = residual.iter().any(|f| *f > 1e-15);
    if !any_flow {
        return;
    }
    // Find the binding subset over visible ports only.
    let mut best: (f64, ClassMask, PortMask) = (0.0, 0, 0);
    for subset in 1u16..(1 << NUM_CLASSES) {
        let mut f = 0.0;
        let mut ports: PortMask = 0;
        for c in UopClass::ALL {
            if subset & (1 << c.index()) != 0 {
                f += residual[c.index()];
                ports |= visible(c);
            }
        }
        if f <= 1e-15 || ports == 0 {
            continue;
        }
        let load = f / f64::from(ports.count_ones());
        if load > best.0 + 1e-15 {
            best = (load, subset, ports);
        }
    }
    let (load, subset, ports) = best;
    if ports == 0 || load <= 0.0 {
        return;
    }
    // The binding group's ports share its flow evenly at the sustained
    // rate; clamp defensively against float drift.
    let busy = (load * scale).min(1.0);
    for (p, u) in utilization.iter_mut().enumerate().take(layout.num_ports()) {
        if ports & (1 << p) as PortMask != 0 {
            *u = busy;
        }
    }
    for c in UopClass::ALL {
        if subset & (1 << c.index()) != 0 {
            residual[c.index()] = 0.0;
        }
    }
    fill_utilization(
        layout,
        &residual,
        scale,
        excluded_ports | ports,
        utilization,
    );
}

/// Solves steady-state throughput for `mix` on `layout` under a dispatch
/// width of `width` uops/cycle.
///
/// # Errors
///
/// * [`PortError::ZeroWidth`] when `width <= 0`.
/// * [`PortError::UnservedClass`] when the mix sends flow to a class no
///   port accepts.
pub fn solve(layout: &PortLayout, mix: &UopMix, width: f64) -> Result<ThroughputSolve, PortError> {
    if width <= 0.0 {
        return Err(PortError::ZeroWidth);
    }
    let flow = mix.fractions();
    let (bound_load, _subset, bottleneck) = binding_subset(layout, &flow)?;
    if bound_load <= 0.0 {
        // Degenerate all-zero mix (cannot happen via UopMix, which
        // normalizes): nothing contends, width is the only limit.
        return Ok(ThroughputSolve {
            uops_per_cycle: width,
            bound_load: 0.0,
            utilization: vec![0.0; layout.num_ports()],
            bottleneck: 0,
        });
    }
    let uops_per_cycle = width.min(1.0 / bound_load);
    let mut utilization = vec![0.0; layout.num_ports()];
    // At `uops_per_cycle` units/cycle, a group carrying per-unit load L is
    // busy L × uops_per_cycle of the time.
    fill_utilization(layout, &flow, uops_per_cycle, 0, &mut utilization);
    Ok(ThroughputSolve {
        uops_per_cycle,
        bound_load,
        utilization,
        bottleneck,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix_of(pairs: &[(UopClass, f64)]) -> UopMix {
        let mut w = [0.0; NUM_CLASSES];
        for (c, f) in pairs {
            w[c.index()] = *f;
        }
        UopMix::new(w)
    }

    #[test]
    fn pure_store_mix_bottlenecks_on_the_store_port() {
        let l = PortLayout::gainestown();
        let s = solve(&l, &mix_of(&[(UopClass::Store, 1.0)]), 4.0).unwrap();
        // One store port: 1 uop/cycle, port 4 fully busy.
        assert!((s.uops_per_cycle - 1.0).abs() < 1e-9);
        assert_eq!(s.bottleneck, 0b010000);
        assert!((s.utilization[4] - 1.0).abs() < 1e-9);
        assert!(s.utilization[2] < 1e-9);
    }

    #[test]
    fn balanced_loads_split_across_both_load_ports() {
        let l = PortLayout::gainestown();
        let s = solve(&l, &mix_of(&[(UopClass::Load, 1.0)]), 4.0).unwrap();
        // Two load ports serve one class: 2 uops/cycle... clamped? width 4,
        // load = 1/2 per uop, so 2 uops/cycle.
        assert!((s.uops_per_cycle - 2.0).abs() < 1e-9);
        assert!((s.utilization[2] - 1.0).abs() < 1e-9);
        assert!((s.utilization[3] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn width_clamps_unconstrained_mixes() {
        let l = PortLayout::gainestown();
        // Alu spreads over 3 ports; at width 2 the width binds first.
        let s = solve(&l, &mix_of(&[(UopClass::Alu, 1.0)]), 2.0).unwrap();
        assert!((s.uops_per_cycle - 2.0).abs() < 1e-9);
        assert!(!s.port_limited(2.0));
        // Utilization: 2 uops/cycle over 3 ports = 2/3 each.
        assert!((s.utilization[0] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn subset_bound_beats_per_class_bounds() {
        let l = PortLayout::gainestown();
        // Simd uses {p0,p1}, Mul uses {p0}: singly Simd costs 1/2, Mul full
        // flow on one port. Together {Simd, Mul} = 0.8+0.2 over 2 ports =
        // 0.5 — same as Simd alone here, so pick flows where the union
        // binds strictly: Simd 0.9 (load .45), Mul 0.1 (load .1),
        // union load (1.0)/2 = 0.5 > both.
        let s = solve(
            &l,
            &mix_of(&[(UopClass::Simd, 0.9), (UopClass::Mul, 0.1)]),
            4.0,
        )
        .unwrap();
        assert!((s.bound_load - 0.5).abs() < 1e-9);
        assert_eq!(s.bottleneck, 0b000011);
        assert!((s.uops_per_cycle - 2.0).abs() < 1e-9);
    }

    #[test]
    fn widened_layout_raises_simd_throughput() {
        let mix = mix_of(&[(UopClass::Simd, 1.0)]);
        let narrow = solve(&PortLayout::gainestown(), &mix, 6.0).unwrap();
        let wide = solve(&PortLayout::widened(), &mix, 6.0).unwrap();
        assert!(wide.uops_per_cycle > narrow.uops_per_cycle);
    }

    #[test]
    fn zero_width_rejected() {
        let l = PortLayout::gainestown();
        assert_eq!(
            solve(&l, &UopMix::default(), 0.0),
            Err(PortError::ZeroWidth)
        );
    }

    #[test]
    fn unserved_class_rejected() {
        use UopClass::*;
        // A layout with no branch port.
        let l =
            PortLayout::new("no_branch", &[&[Alu, Simd, Mul, Shuffle], &[Load, Store]]).unwrap();
        let err = solve(&l, &mix_of(&[(Branch, 1.0)]), 4.0).unwrap_err();
        assert!(matches!(
            err,
            PortError::UnservedClass { class: Branch, .. }
        ));
    }

    #[test]
    fn utilization_bounded_for_real_mixes() {
        for rank in 0..10 {
            let mix = UopMix::for_preset_rank(rank);
            for layout in [PortLayout::gainestown(), PortLayout::widened()] {
                let s = solve(&layout, &mix, 4.0).unwrap();
                assert!(s.uops_per_cycle > 0.0);
                for (p, u) in s.utilization.iter().enumerate() {
                    assert!(
                        (0.0..=1.0 + 1e-9).contains(u),
                        "rank {rank} {} p{p} u={u}",
                        layout.name
                    );
                }
                // Bottleneck ports saturate (utilization 1) whenever the
                // ports, not the width, bind.
                if s.port_limited(4.0) {
                    let p = s.bottleneck.trailing_zeros() as usize;
                    assert!((s.utilization[p] - 1.0).abs() < 1e-6);
                }
            }
        }
    }
}
