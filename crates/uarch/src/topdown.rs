//! VTune-style Top-down pipeline-slot accounting.
//!
//! The Top-down Microarchitecture Analysis Method (Yasin, ISPASS'14 — the
//! methodology VTune implements and the paper profiles with) divides every
//! pipeline *slot* (one uop issue opportunity: `dispatch_width x cycles`)
//! into four categories: **retiring** (useful work), **front-end bound**
//! (fetch/decode starved), **bad speculation** (work thrown away after
//! mispredicts), and **back-end bound** (execution resources or memory
//! blocked), with back-end further split into *memory bound* and *core
//! bound*.

/// Fractional Top-down breakdown; the five fields sum to 1.0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopDown {
    /// Slots that retired useful uops.
    pub retiring: f64,
    /// Slots lost to instruction fetch/decode starvation.
    pub frontend: f64,
    /// Slots lost to branch mispredictions (wasted + refill).
    pub bad_speculation: f64,
    /// Back-end slots lost waiting for data (cache/DRAM).
    pub backend_memory: f64,
    /// Back-end slots lost to execution-resource shortage.
    pub backend_core: f64,
}

impl TopDown {
    /// Total back-end bound fraction (memory + core).
    pub fn backend(&self) -> f64 {
        self.backend_memory + self.backend_core
    }

    /// Sum of all categories (should be 1.0 up to rounding).
    pub fn sum(&self) -> f64 {
        self.retiring + self.frontend + self.bad_speculation + self.backend()
    }

    /// The dominant non-retiring bottleneck category.
    pub fn bottleneck(&self) -> Bottleneck {
        let fe = self.frontend;
        let bs = self.bad_speculation;
        let be = self.backend();
        if fe >= bs && fe >= be {
            Bottleneck::FrontEnd
        } else if bs >= be {
            Bottleneck::BadSpeculation
        } else if self.backend_memory >= self.backend_core {
            Bottleneck::BackEndMemory
        } else {
            Bottleneck::BackEndCore
        }
    }
}

/// The dominant bottleneck class — what the smart scheduler keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bottleneck {
    /// Fetch/decode limited: bigger L1i / iTLB helps (`fe_op`).
    FrontEnd,
    /// Mispredict limited: a better predictor helps (`bs_op`).
    BadSpeculation,
    /// Data-access limited: bigger data caches help (`be_op1`).
    BackEndMemory,
    /// Execution-window limited: bigger ROB/RS helps (`be_op2`).
    BackEndCore,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn td(r: f64, f: f64, b: f64, m: f64, c: f64) -> TopDown {
        TopDown {
            retiring: r,
            frontend: f,
            bad_speculation: b,
            backend_memory: m,
            backend_core: c,
        }
    }

    #[test]
    fn sums_and_backend() {
        let t = td(0.4, 0.1, 0.1, 0.3, 0.1);
        assert!((t.sum() - 1.0).abs() < 1e-12);
        assert!((t.backend() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_selection() {
        assert_eq!(
            td(0.4, 0.3, 0.1, 0.1, 0.1).bottleneck(),
            Bottleneck::FrontEnd
        );
        assert_eq!(
            td(0.4, 0.1, 0.3, 0.1, 0.1).bottleneck(),
            Bottleneck::BadSpeculation
        );
        assert_eq!(
            td(0.3, 0.1, 0.1, 0.4, 0.1).bottleneck(),
            Bottleneck::BackEndMemory
        );
        assert_eq!(
            td(0.3, 0.1, 0.1, 0.1, 0.4).bottleneck(),
            Bottleneck::BackEndCore
        );
    }
}
