//! Synthetic code address space layout.
//!
//! Binaries place functions wherever the linker put them; hot loops end up
//! scattered across the text section with cold code between them, which is
//! precisely why profile-guided layout (AutoFDO) wins. [`CodeLayout`] models
//! this: every kernel owns a half-open byte range, and the *gap factor*
//! controls how much cold code separates consecutive kernels.
//!
//! * [`CodeLayout::default_order`] — linker-like layout: registration order
//!   with a generous cold-code gap (the baseline binary).
//! * [`CodeLayout::packed`] — a given order, hot parts packed back to back
//!   (what Pettis–Hansen clustering in `vtx-opt` produces).

use crate::kernel::{KernelDesc, KernelId};

/// Cold-code multiplier used by the default (unoptimized) layout: for every
/// byte of hot kernel code, this many bytes of cold code follow it before
/// the next hot kernel. Chosen so that the transcoder's hot working set
/// spans more instruction pages than the baseline 128-entry iTLB covers,
/// matching the front-end pressure the paper observes on the real binary.
pub const DEFAULT_GAP_FACTOR: u32 = 7;

/// Base address of the synthetic text section (arbitrary, page aligned).
pub const TEXT_BASE: u64 = 0x40_0000;

/// An assignment of code address ranges to kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeLayout {
    /// `bases[k]` is the first byte address of kernel `k`'s hot region.
    bases: Vec<u64>,
    /// Hot region size in bytes per kernel (copied from descriptors).
    sizes: Vec<u32>,
    /// Total span of the layout in bytes (for reporting).
    span: u64,
}

impl CodeLayout {
    /// Linker-like layout: kernels in declaration order, each followed by
    /// `DEFAULT_GAP_FACTOR` times its size of cold code.
    pub fn default_order(kernels: &[KernelDesc]) -> Self {
        Self::with_order_and_gap(
            kernels,
            &(0..kernels.len()).collect::<Vec<_>>(),
            DEFAULT_GAP_FACTOR,
        )
    }

    /// Packed layout in the given order: hot regions placed back to back
    /// (64-byte aligned), no cold gaps — the result of profile-guided
    /// function reordering.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..kernels.len()`.
    pub fn packed(kernels: &[KernelDesc], order: &[KernelId]) -> Self {
        Self::with_order_and_gap(kernels, order, 0)
    }

    /// General constructor: place kernels in `order` with `gap_factor` bytes
    /// of cold code per hot byte between consecutive kernels.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..kernels.len()`.
    pub fn with_order_and_gap(kernels: &[KernelDesc], order: &[KernelId], gap_factor: u32) -> Self {
        assert_eq!(order.len(), kernels.len(), "order must cover all kernels");
        let mut seen = vec![false; kernels.len()];
        for &k in order {
            assert!(k < kernels.len() && !seen[k], "order must be a permutation");
            seen[k] = true;
        }

        let mut bases = vec![0u64; kernels.len()];
        let mut sizes = vec![0u32; kernels.len()];
        let mut cursor = TEXT_BASE;
        for &k in order {
            let hot = u64::from(kernels[k].code_lines()) * 64;
            bases[k] = cursor;
            sizes[k] = kernels[k].code_bytes;
            cursor += hot + hot * u64::from(gap_factor);
        }
        CodeLayout {
            bases,
            sizes,
            span: cursor - TEXT_BASE,
        }
    }

    /// First byte address of a kernel's hot region.
    pub fn base(&self, k: KernelId) -> u64 {
        self.bases[k]
    }

    /// Cache-line numbers (address / 64) spanned by a kernel's hot region.
    pub fn lines(&self, k: KernelId) -> std::ops::Range<u64> {
        let start = self.bases[k] / 64;
        start..start + u64::from(self.sizes[k].div_ceil(64))
    }

    /// Synthetic PC for a branch site within a kernel (sites are spaced 8
    /// bytes apart inside the hot region so different sites rarely alias).
    pub fn branch_pc(&self, k: KernelId, site: u32) -> u64 {
        self.bases[k] + 16 + u64::from(site) * 8
    }

    /// Total text-section span covered by this layout, in bytes.
    pub fn span_bytes(&self) -> u64 {
        self.span
    }

    /// Number of kernels laid out.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the layout is empty.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: &[KernelDesc] = &[
        KernelDesc::new("a", 1000),
        KernelDesc::new("b", 2000),
        KernelDesc::new("c", 500),
    ];

    #[test]
    fn default_layout_has_gaps() {
        let l = CodeLayout::default_order(K);
        let packed = CodeLayout::packed(K, &[0, 1, 2]);
        assert!(l.span_bytes() > packed.span_bytes() * 4);
    }

    #[test]
    fn regions_do_not_overlap() {
        let l = CodeLayout::default_order(K);
        let mut ranges: Vec<_> = (0..K.len()).map(|k| l.lines(k)).collect();
        ranges.sort_by_key(|r| r.start);
        for w in ranges.windows(2) {
            assert!(w[0].end <= w[1].start, "{:?} overlaps {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn packed_respects_order() {
        let l = CodeLayout::packed(K, &[2, 0, 1]);
        assert!(l.base(2) < l.base(0));
        assert!(l.base(0) < l.base(1));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn duplicate_order_panics() {
        let _ = CodeLayout::packed(K, &[0, 0, 1]);
    }

    #[test]
    fn branch_pcs_unique_within_kernel() {
        let l = CodeLayout::default_order(K);
        assert_ne!(l.branch_pc(0, 0), l.branch_pc(0, 1));
        assert_ne!(l.branch_pc(0, 0), l.branch_pc(1, 0));
    }

    #[test]
    fn lines_cover_code_bytes() {
        let l = CodeLayout::packed(K, &[0, 1, 2]);
        let r = l.lines(1);
        assert_eq!(r.end - r.start, 2000u64.div_ceil(64));
    }
}
