//! Per-kernel uop-mix descriptors.
//!
//! A [`UopMix`] says what fraction of a kernel's dynamic uops falls into
//! each [`UopClass`](crate::layout::UopClass) — the workload side of the
//! port model. Mixes come from three places:
//!
//! * a static per-kernel table ([`UopMix::for_kernel`]) keyed by the kernel
//!   names `vtx-codec` declares in its instrumentation table, sized after
//!   the instruction mixes of the corresponding x264/FFmpeg routines;
//! * a profiled run ([`UopMix::from_hotspots`]): the per-kernel instruction
//!   attribution of a `vtx-trace` report weights the static mixes into one
//!   aggregate mix;
//! * a preset rank ([`UopMix::for_preset_rank`]): the dominant kernels of
//!   each x264 preset (Figure 6's speed ladder) blended without profiling,
//!   for callers that must price a task before running it.

use crate::layout::NUM_CLASSES;

/// Fractions of dynamic uops per [`UopClass`](crate::layout::UopClass); always sums to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UopMix {
    fractions: [f64; NUM_CLASSES],
}

/// Fallback mix for kernels the table does not know: the aggregate shape of
/// scalar control code (ALU/load dominated, some branches).
const DEFAULT_MIX: [f64; NUM_CLASSES] = [0.30, 0.15, 0.05, 0.05, 0.25, 0.10, 0.10];

/// Static mix table: `(kernel name, [alu, simd, shuf, mul, load, store, br])`.
///
/// Names match `vtx_codec::instr::kernel_table()`; rows are grouped the way
/// the codec groups its kernels.
const KERNEL_MIXES: &[(&str, [f64; NUM_CLASSES])] = &[
    // Control / bookkeeping.
    ("lookahead", [0.30, 0.20, 0.05, 0.05, 0.20, 0.05, 0.15]),
    ("ratecontrol", [0.40, 0.00, 0.00, 0.20, 0.15, 0.10, 0.15]),
    ("mbenc_ctrl", [0.45, 0.05, 0.00, 0.05, 0.20, 0.05, 0.20]),
    ("header", [0.50, 0.00, 0.00, 0.00, 0.20, 0.20, 0.10]),
    // Intra prediction.
    ("intra_pred16", [0.20, 0.40, 0.15, 0.00, 0.15, 0.05, 0.05]),
    ("intra_pred4", [0.20, 0.40, 0.15, 0.00, 0.15, 0.05, 0.05]),
    ("intra_decide", [0.30, 0.25, 0.05, 0.05, 0.15, 0.00, 0.20]),
    // Motion search: pointer chasing + compare-heavy control.
    ("me_dia", [0.25, 0.20, 0.05, 0.00, 0.30, 0.00, 0.20]),
    ("me_hex", [0.25, 0.20, 0.05, 0.00, 0.30, 0.00, 0.20]),
    ("me_umh", [0.25, 0.20, 0.05, 0.00, 0.30, 0.00, 0.20]),
    ("me_esa", [0.20, 0.25, 0.05, 0.00, 0.35, 0.00, 0.15]),
    // Pixel metrics: dense SIMD.
    ("sad", [0.10, 0.55, 0.05, 0.00, 0.25, 0.00, 0.05]),
    ("satd", [0.10, 0.50, 0.15, 0.00, 0.20, 0.00, 0.05]),
    // Interpolation / compensation.
    ("hpel_interp", [0.10, 0.45, 0.20, 0.00, 0.15, 0.10, 0.00]),
    ("mc", [0.10, 0.35, 0.10, 0.00, 0.25, 0.20, 0.00]),
    // Transforms and quantization.
    ("dct4x4", [0.15, 0.45, 0.20, 0.00, 0.10, 0.10, 0.00]),
    ("idct4x4", [0.15, 0.45, 0.20, 0.00, 0.10, 0.10, 0.00]),
    ("quant", [0.15, 0.25, 0.05, 0.35, 0.10, 0.10, 0.00]),
    ("dequant", [0.15, 0.25, 0.05, 0.35, 0.10, 0.10, 0.00]),
    ("trellis", [0.30, 0.10, 0.00, 0.25, 0.15, 0.05, 0.15]),
    // Entropy coding: serial scalar + branchy.
    ("cavlc", [0.45, 0.00, 0.00, 0.05, 0.20, 0.10, 0.20]),
    ("cabac", [0.50, 0.00, 0.00, 0.05, 0.15, 0.05, 0.25]),
    // Reconstruction path.
    ("recon", [0.20, 0.30, 0.05, 0.00, 0.20, 0.25, 0.00]),
    ("deblock", [0.25, 0.20, 0.05, 0.00, 0.25, 0.15, 0.10]),
    // Decoder.
    ("dec_parse", [0.50, 0.00, 0.00, 0.05, 0.20, 0.05, 0.20]),
    ("dec_pred", [0.15, 0.35, 0.10, 0.00, 0.25, 0.15, 0.00]),
    ("dec_recon", [0.20, 0.35, 0.10, 0.00, 0.15, 0.20, 0.00]),
    ("dec_deblock", [0.25, 0.20, 0.05, 0.00, 0.25, 0.15, 0.10]),
];

/// Dominant kernels per preset speed rank (0 = ultrafast … 9 = placebo),
/// with blend weights. Fast presets live in SAD + diamond search + CAVLC;
/// slow presets shift into SATD/trellis/UMH/CABAC — exactly the shift that
/// moves pressure between the SIMD ports and the scalar/branch ports.
const PRESET_KERNELS: [&[(&str, f64)]; 10] = [
    &[("sad", 3.0), ("me_dia", 2.0), ("cavlc", 2.0), ("mc", 1.0)],
    &[
        ("sad", 3.0),
        ("me_dia", 2.0),
        ("cavlc", 2.0),
        ("dct4x4", 1.0),
    ],
    &[
        ("sad", 2.5),
        ("me_hex", 2.0),
        ("cavlc", 1.5),
        ("dct4x4", 1.0),
    ],
    &[
        ("sad", 2.0),
        ("me_hex", 2.0),
        ("cabac", 1.5),
        ("dct4x4", 1.0),
    ],
    &[
        ("satd", 2.0),
        ("me_hex", 2.0),
        ("cabac", 1.5),
        ("dct4x4", 1.0),
    ],
    &[
        ("satd", 2.5),
        ("me_hex", 2.0),
        ("cabac", 1.5),
        ("hpel_interp", 1.0),
    ],
    &[
        ("satd", 2.5),
        ("me_umh", 2.0),
        ("cabac", 1.5),
        ("trellis", 1.0),
    ],
    &[
        ("satd", 3.0),
        ("me_umh", 2.5),
        ("trellis", 1.5),
        ("cabac", 1.5),
    ],
    &[
        ("satd", 3.0),
        ("me_umh", 3.0),
        ("trellis", 2.0),
        ("cabac", 1.5),
    ],
    &[
        ("satd", 3.0),
        ("me_esa", 3.5),
        ("trellis", 2.5),
        ("cabac", 1.5),
    ],
];

impl UopMix {
    /// Builds a mix from raw per-class weights, normalizing to sum 1.
    /// All-zero (or negative-total) weights fall back to the default mix.
    pub(crate) fn new(weights: [f64; NUM_CLASSES]) -> Self {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            // Normalize the fallback through the same path so it compares
            // equal to `UopMix::new(DEFAULT_MIX)` bit-for-bit.
            return UopMix::new(DEFAULT_MIX);
        }
        let mut fractions = [0.0; NUM_CLASSES];
        for (f, w) in fractions.iter_mut().zip(weights) {
            *f = w.max(0.0) / total;
        }
        UopMix { fractions }
    }

    /// The fraction of uops in class `c`.
    #[cfg(test)]
    fn fraction(&self, c: crate::layout::UopClass) -> f64 {
        self.fractions[c.index()]
    }

    /// All fractions, [`UopClass::ALL`](crate::layout::UopClass::ALL) order.
    pub(crate) fn fractions(&self) -> [f64; NUM_CLASSES] {
        self.fractions
    }

    /// The static mix for a kernel name (the default mix when unknown).
    pub fn for_kernel(name: &str) -> Self {
        let weights = KERNEL_MIXES
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(DEFAULT_MIX, |(_, m)| *m);
        UopMix::new(weights)
    }

    /// Whether the static table knows this kernel name.
    #[cfg(test)]
    fn knows_kernel(name: &str) -> bool {
        KERNEL_MIXES.iter().any(|(n, _)| *n == name)
    }

    /// Every kernel name in the static table, table order.
    pub(crate) fn kernel_names() -> impl Iterator<Item = &'static str> {
        KERNEL_MIXES.iter().map(|(n, _)| *n)
    }

    /// Blends weighted mixes into one (weights need not sum to 1; non-
    /// positive total falls back to the default mix).
    fn blend(parts: &[(UopMix, f64)]) -> Self {
        let mut weights = [0.0; NUM_CLASSES];
        for (mix, w) in parts {
            for (acc, f) in weights.iter_mut().zip(mix.fractions) {
                *acc += f * w.max(0.0);
            }
        }
        UopMix::new(weights)
    }

    /// The aggregate mix of a profiled run, weighting each hotspot's static
    /// kernel mix by its attributed instruction count. Empty hotspot lists
    /// yield the default mix.
    pub fn from_hotspots(hotspots: &[(String, u64)]) -> Self {
        let parts: Vec<(UopMix, f64)> = hotspots
            .iter()
            .map(|(name, insns)| (UopMix::for_kernel(name), *insns as f64))
            .collect();
        UopMix::blend(&parts)
    }

    /// The aggregate mix of a `KernelProfile` given its descriptor table.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is shorter than the profile (a profile always
    /// matches the descriptor table it was collected against).
    #[cfg(test)]
    fn from_profile(
        profile: &vtx_trace::kernel::KernelProfile,
        kernels: &[vtx_trace::KernelDesc],
    ) -> Self {
        assert!(
            kernels.len() >= profile.len(),
            "kernel table shorter than profile"
        );
        let parts: Vec<(UopMix, f64)> = profile
            .instructions
            .iter()
            .enumerate()
            .map(|(k, insns)| (UopMix::for_kernel(kernels[k].name), *insns as f64))
            .collect();
        UopMix::blend(&parts)
    }

    /// The pre-profiling mix for a preset speed rank (0 = ultrafast …
    /// 9 = placebo; out-of-range ranks clamp to the slowest).
    pub fn for_preset_rank(rank: usize) -> Self {
        let kernels = PRESET_KERNELS[rank.min(PRESET_KERNELS.len() - 1)];
        let parts: Vec<(UopMix, f64)> = kernels
            .iter()
            .map(|(name, w)| (UopMix::for_kernel(name), *w))
            .collect();
        UopMix::blend(&parts)
    }

    /// Compact rendering: `alu 0.30 simd 0.15 ...` (fixed precision, stable
    /// across runs — safe to byte-compare).
    #[cfg(test)]
    fn render(&self) -> String {
        crate::layout::UopClass::ALL
            .iter()
            .map(|c| format!("{} {:.4}", c.name(), self.fraction(*c)))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl Default for UopMix {
    fn default() -> Self {
        UopMix::new(DEFAULT_MIX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::UopClass;
    use vtx_trace::kernel::KernelProfile;
    use vtx_trace::KernelDesc;

    fn assert_sums_to_one(mix: &UopMix) {
        let sum: f64 = mix.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum = {sum}");
    }

    #[test]
    fn every_table_mix_normalizes() {
        for (name, _) in KERNEL_MIXES {
            assert_sums_to_one(&UopMix::for_kernel(name));
        }
        assert_sums_to_one(&UopMix::default());
    }

    #[test]
    fn unknown_kernel_gets_default() {
        assert_eq!(UopMix::for_kernel("not_a_kernel"), UopMix::default());
        assert!(!UopMix::knows_kernel("not_a_kernel"));
        assert!(UopMix::knows_kernel("satd"));
    }

    #[test]
    fn sad_is_simd_dominated_cabac_is_not() {
        let sad = UopMix::for_kernel("sad");
        let cabac = UopMix::for_kernel("cabac");
        assert!(sad.fraction(UopClass::Simd) > 0.5);
        assert!(cabac.fraction(UopClass::Simd) < 0.01);
        assert!(cabac.fraction(UopClass::Branch) > sad.fraction(UopClass::Branch));
    }

    #[test]
    fn hotspot_weighting_tracks_dominant_kernel() {
        let hot = vec![("sad".to_owned(), 900u64), ("cabac".to_owned(), 100u64)];
        let mix = UopMix::from_hotspots(&hot);
        assert_sums_to_one(&mix);
        // 90% sad: the blend must sit close to sad's SIMD share.
        assert!(mix.fraction(UopClass::Simd) > 0.4);
        assert_eq!(UopMix::from_hotspots(&[]), UopMix::default());
    }

    #[test]
    fn profile_weighting_matches_hotspot_weighting() {
        let kernels = [KernelDesc::new("sad", 1024), KernelDesc::new("cabac", 4096)];
        let mut p = KernelProfile::new(2);
        p.instructions = vec![900, 100];
        let from_profile = UopMix::from_profile(&p, &kernels);
        let from_hot = UopMix::from_hotspots(&[("sad".to_owned(), 900), ("cabac".to_owned(), 100)]);
        assert_eq!(from_profile, from_hot);
    }

    #[test]
    fn preset_ranks_shift_toward_simd() {
        let fast = UopMix::for_preset_rank(0);
        let slow = UopMix::for_preset_rank(9);
        assert_sums_to_one(&fast);
        assert_sums_to_one(&slow);
        // Slow presets do more SATD/trellis; rank 9 clamps out of range too.
        assert_eq!(UopMix::for_preset_rank(99), slow);
        assert!(slow.fraction(UopClass::Mul) > fast.fraction(UopClass::Mul));
    }

    #[test]
    fn zero_weights_fall_back() {
        assert_eq!(UopMix::new([0.0; NUM_CLASSES]), UopMix::default());
        assert_eq!(UopMix::blend(&[]), UopMix::default());
    }

    #[test]
    fn render_is_fixed_width() {
        let text = UopMix::default().render();
        assert!(text.starts_with("alu 0.3"));
        assert_eq!(text.split(' ').count(), NUM_CLASSES * 2);
    }
}
