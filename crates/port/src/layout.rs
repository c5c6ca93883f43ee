//! Issue-port layouts: which execution port accepts which uop class.
//!
//! A layout is the hardware side of the port model — the analog of the
//! per-port functional-unit tables uops.info publishes per
//! microarchitecture. Layouts are keyed to the Table IV configurations of
//! `vtx-uarch`: the baseline, `fe_op`, `be_op1` and `bs_op` columns change
//! the front end, the memory hierarchy or the predictor but leave the
//! execution core untouched, so they share the Gainestown-style six-port
//! layout; `be_op2` is the core-widened column (bigger ROB/RS,
//! issue-at-dispatch) and gets a seventh ALU/SIMD-capable port, the way a
//! real generation bump (Nehalem → Haswell) widened the issue stage.

use vtx_uarch::config::UarchConfig;

use crate::error::PortError;

/// The uop classes the model distinguishes — coarse enough to classify
/// every codec kernel, fine enough that port contention separates
/// SATD/DCT-heavy presets from motion-search-heavy ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UopClass {
    /// Scalar integer arithmetic/logic.
    Alu,
    /// Packed (SIMD) arithmetic: SAD, SATD, DCT butterflies.
    Simd,
    /// Pack/unpack/permute traffic feeding the SIMD units.
    Shuffle,
    /// Long-latency multiply/divide.
    Mul,
    /// Data loads.
    Load,
    /// Data stores.
    Store,
    /// Branches.
    Branch,
}

/// Number of distinct uop classes.
pub(crate) const NUM_CLASSES: usize = 7;

impl UopClass {
    /// All classes in index order.
    pub(crate) const ALL: [UopClass; NUM_CLASSES] = [
        UopClass::Alu,
        UopClass::Simd,
        UopClass::Shuffle,
        UopClass::Mul,
        UopClass::Load,
        UopClass::Store,
        UopClass::Branch,
    ];

    /// Stable index of this class (bit position in class masks).
    pub(crate) fn index(self) -> usize {
        match self {
            UopClass::Alu => 0,
            UopClass::Simd => 1,
            UopClass::Shuffle => 2,
            UopClass::Mul => 3,
            UopClass::Load => 4,
            UopClass::Store => 5,
            UopClass::Branch => 6,
        }
    }

    /// Short lowercase name used in reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            UopClass::Alu => "alu",
            UopClass::Simd => "simd",
            UopClass::Shuffle => "shuf",
            UopClass::Mul => "mul",
            UopClass::Load => "load",
            UopClass::Store => "store",
            UopClass::Branch => "br",
        }
    }
}

/// A set of ports as a bitmask (bit `p` = port `p`).
pub(crate) type PortMask = u16;

/// A set of uop classes as a bitmask (bit `UopClass::index`).
pub(crate) type ClassMask = u16;

/// Ports × accepted uop classes for one core generation.
#[derive(Debug, Clone, PartialEq)]
pub struct PortLayout {
    /// Layout name (shown in reports; usually the config name).
    pub(crate) name: String,
    /// `ports[p]` is the [`ClassMask`] of uop classes port `p` accepts.
    ports: Vec<ClassMask>,
}

impl PortLayout {
    /// Builds a layout from per-port class lists.
    ///
    /// # Errors
    ///
    /// Returns [`PortError::EmptyLayout`] when `ports` is empty.
    pub(crate) fn new(name: &str, ports: &[&[UopClass]]) -> Result<Self, PortError> {
        if ports.is_empty() {
            return Err(PortError::EmptyLayout);
        }
        Ok(PortLayout {
            name: name.to_owned(),
            ports: ports
                .iter()
                .map(|classes| {
                    classes
                        .iter()
                        .fold(0, |m, c| m | (1 << c.index()) as ClassMask)
                })
                .collect(),
        })
    }

    /// The Gainestown-style six-port layout used by the baseline, `fe_op`,
    /// `be_op1` and `bs_op` Table IV columns: two general ALU/SIMD ports
    /// (one with the multiplier, one with the shuffle unit), two load
    /// ports, one store port, and an ALU/branch/shuffle port.
    pub fn gainestown() -> Self {
        use UopClass::*;
        Self::new(
            "gainestown",
            &[
                &[Alu, Simd, Mul],
                &[Alu, Simd, Shuffle],
                &[Load],
                &[Load],
                &[Store],
                &[Alu, Branch, Shuffle],
            ],
        )
        .expect("static layout is nonempty")
    }

    /// The widened seven-port layout of the core-optimized `be_op2` column:
    /// Gainestown plus an extra ALU/SIMD port, matching the way its larger
    /// window and issue-at-dispatch widen the execution stage.
    pub(crate) fn widened() -> Self {
        use UopClass::*;
        Self::new(
            "widened",
            &[
                &[Alu, Simd, Mul],
                &[Alu, Simd, Shuffle],
                &[Load],
                &[Load],
                &[Store],
                &[Alu, Branch, Shuffle],
                &[Alu, Simd],
            ],
        )
        .expect("static layout is nonempty")
    }

    /// The layout for a Table IV configuration name (`be_op2` → widened,
    /// everything else → Gainestown). The returned layout is renamed after
    /// the config so reports show which column it models.
    fn for_config_name(name: &str) -> Self {
        let mut layout = if name == "be_op2" {
            Self::widened()
        } else {
            Self::gainestown()
        };
        layout.name = name.to_owned();
        layout
    }

    /// The layout for a Table IV configuration.
    pub fn for_config(cfg: &UarchConfig) -> Self {
        Self::for_config_name(&cfg.name)
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Mask of the ports that accept class `c`.
    pub(crate) fn class_ports(&self, c: UopClass) -> PortMask {
        let bit = (1 << c.index()) as ClassMask;
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, m)| *m & bit != 0)
            .fold(0, |mask, (p, _)| mask | (1 << p) as PortMask)
    }

    /// Union of the ports accepting any class in `classes`.
    pub(crate) fn union_ports(&self, classes: ClassMask) -> PortMask {
        UopClass::ALL
            .iter()
            .filter(|c| classes & (1 << c.index()) as ClassMask != 0)
            .fold(0, |mask, c| mask | self.class_ports(*c))
    }

    /// One line per port: `p0: alu simd mul`, deterministic order.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (p, mask) in self.ports.iter().enumerate() {
            let names: Vec<&str> = UopClass::ALL
                .iter()
                .filter(|c| mask & (1 << c.index()) as ClassMask != 0)
                .map(|c| c.name())
                .collect();
            let _ = writeln!(out, "  p{p}: {}", names.join(" "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gainestown_geometry() {
        let l = PortLayout::gainestown();
        assert_eq!(l.num_ports(), 6);
        assert_ne!(l.class_ports(UopClass::Mul) & 1, 0);
        assert_eq!(l.class_ports(UopClass::Load), 0b001100);
        assert_eq!(l.class_ports(UopClass::Store), 0b010000);
        assert_eq!(l.class_ports(UopClass::Branch), 0b100000);
        assert_eq!(l.class_ports(UopClass::Alu), 0b100011);
    }

    #[test]
    fn widened_adds_a_port() {
        let g = PortLayout::gainestown();
        let w = PortLayout::widened();
        assert_eq!(w.num_ports(), g.num_ports() + 1);
        assert_ne!(w.class_ports(UopClass::Simd) & 1 << 6, 0);
        assert_eq!(w.class_ports(UopClass::Load) & 1 << 6, 0);
    }

    #[test]
    fn config_keying_matches_table_iv() {
        for cfg in UarchConfig::table_iv() {
            let l = PortLayout::for_config(&cfg);
            assert_eq!(l.name, cfg.name);
            let want = if cfg.name == "be_op2" { 7 } else { 6 };
            assert_eq!(l.num_ports(), want, "{}", cfg.name);
        }
    }

    #[test]
    fn union_ports_unions() {
        let l = PortLayout::gainestown();
        let classes = (1 << UopClass::Load.index()) | (1 << UopClass::Store.index());
        assert_eq!(l.union_ports(classes as ClassMask), 0b011100);
        assert_eq!(l.union_ports(0), 0);
    }

    #[test]
    fn empty_layout_rejected() {
        assert_eq!(PortLayout::new("x", &[]), Err(PortError::EmptyLayout));
    }

    #[test]
    fn every_class_served_by_both_layouts() {
        for layout in [PortLayout::gainestown(), PortLayout::widened()] {
            for c in UopClass::ALL {
                assert_ne!(layout.class_ports(c), 0, "{:?} in {}", c, layout.name);
            }
        }
    }

    #[test]
    fn render_is_stable() {
        let text = PortLayout::gainestown().render();
        assert!(text.starts_with("  p0: alu simd mul\n"));
        assert_eq!(text.lines().count(), 6);
    }
}
