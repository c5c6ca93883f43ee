//! "Compiled binary" variants — the three FFmpeg builds of Figure 8.
//!
//! The paper benchmarks a stock FFmpeg, an AutoFDO-recompiled FFmpeg, and a
//! Graphite-recompiled FFmpeg. In this workspace a "binary" is the pair of
//! (code layout, data plan) the profiler executes under; [`compile`]
//! produces each variant.

use std::error::Error;
use std::fmt;

use vtx_trace::kernel::{KernelDesc, KernelProfile};
use vtx_trace::layout::CodeLayout;
use vtx_trace::plan::DataPlan;
use vtx_uarch::config::UarchConfig;

use crate::autofdo;
use crate::graphite;

/// Which compiler pipeline built the binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryVariant {
    /// Stock compile: linker-order layout, canonical loops.
    Baseline,
    /// AutoFDO: profile-guided layout, canonical loops.
    AutoFdo,
    /// Graphite: linker-order layout, transformed loops.
    Graphite,
}

impl BinaryVariant {
    /// All variants in Figure 8 order.
    pub const ALL: [BinaryVariant; 3] = [
        BinaryVariant::Baseline,
        BinaryVariant::AutoFdo,
        BinaryVariant::Graphite,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BinaryVariant::Baseline => "baseline",
            BinaryVariant::AutoFdo => "autofdo",
            BinaryVariant::Graphite => "graphite",
        }
    }
}

/// A compiled-binary model: what to run the workload under.
#[derive(Debug, Clone)]
pub struct CompiledBinary {
    /// Code layout for the profiler.
    pub layout: CodeLayout,
    /// Loop-transformation plan for the instrumentation.
    pub plan: DataPlan,
}

/// Error returned when a variant's inputs are missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingProfile;

impl fmt::Display for MissingProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "autofdo requires a training profile")
    }
}

impl Error for MissingProfile {}

/// Builds a binary variant for a kernel table.
///
/// AutoFDO needs a `profile` from a previous (baseline) run — exactly like
/// the real tool, which recompiles using `perf` data.
///
/// # Errors
///
/// Returns [`MissingProfile`] if `variant` is [`BinaryVariant::AutoFdo`] and
/// no profile is supplied.
pub fn compile(
    variant: BinaryVariant,
    kernels: &[KernelDesc],
    profile: Option<&KernelProfile>,
    cfg: &UarchConfig,
) -> Result<CompiledBinary, MissingProfile> {
    let binary = match variant {
        BinaryVariant::Baseline => CompiledBinary {
            layout: CodeLayout::default_order(kernels),
            plan: DataPlan::canonical(),
        },
        BinaryVariant::AutoFdo => {
            let profile = profile.ok_or(MissingProfile)?;
            CompiledBinary {
                layout: autofdo::optimized_layout(kernels, profile),
                plan: DataPlan::canonical(),
            }
        }
        BinaryVariant::Graphite => CompiledBinary {
            layout: CodeLayout::default_order(kernels),
            plan: graphite::derive_plan(cfg),
        },
    };
    Ok(binary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNELS: &[KernelDesc] = &[
        KernelDesc::new("a", 4096),
        KernelDesc::new("b", 2048),
        KernelDesc::new("c", 8192),
    ];

    #[test]
    fn baseline_is_canonical() {
        let b = compile(
            BinaryVariant::Baseline,
            KERNELS,
            None,
            &UarchConfig::baseline(),
        )
        .unwrap();
        assert_eq!(b.plan, DataPlan::canonical());
        assert_eq!(b.layout, CodeLayout::default_order(KERNELS));
    }

    #[test]
    fn autofdo_requires_profile() {
        assert_eq!(
            compile(
                BinaryVariant::AutoFdo,
                KERNELS,
                None,
                &UarchConfig::baseline()
            )
            .unwrap_err(),
            MissingProfile
        );
        let mut p = KernelProfile::new(3);
        p.pairs[0][2] = 10;
        let b = compile(
            BinaryVariant::AutoFdo,
            KERNELS,
            Some(&p),
            &UarchConfig::baseline(),
        )
        .unwrap();
        assert!(b.layout.span_bytes() < CodeLayout::default_order(KERNELS).span_bytes());
        assert_eq!(b.plan, DataPlan::canonical());
    }

    #[test]
    fn graphite_transforms_loops_not_layout() {
        let b = compile(
            BinaryVariant::Graphite,
            KERNELS,
            None,
            &UarchConfig::baseline(),
        )
        .unwrap();
        assert!(b.plan.enabled_count() > 0);
        assert_eq!(b.layout, CodeLayout::default_order(KERNELS));
    }

    #[test]
    fn variant_names() {
        assert_eq!(BinaryVariant::AutoFdo.name(), "autofdo");
        assert_eq!(BinaryVariant::ALL.len(), 3);
    }
}
