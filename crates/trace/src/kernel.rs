//! Kernel descriptors — the instrumented "functions" of a workload.
//!
//! A workload (the transcoder) declares its hot kernels once as a static
//! table of [`KernelDesc`]s; the [`crate::layout::CodeLayout`] assigns each a
//! region of the synthetic code address space, and every
//! [`crate::Profiler::kernel`] call charges instructions and instruction
//! fetches to that region.

/// Index of a kernel within its workload's descriptor table.
pub type KernelId = usize;

/// Static description of one instrumented kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDesc {
    /// Function name (shown in hotspot reports).
    pub name: &'static str,
    /// Hot code footprint in bytes (loop body + prologue); determines how
    /// many instruction-cache lines an invocation touches.
    pub code_bytes: u32,
}

impl KernelDesc {
    /// Creates a descriptor.
    ///
    /// `code_bytes` is rounded up to a whole cache line at layout time; zero
    /// is allowed and means the kernel contributes no fetch traffic (useful
    /// for pure accounting markers).
    pub const fn new(name: &'static str, code_bytes: u32) -> Self {
        KernelDesc { name, code_bytes }
    }

    /// Number of 64-byte instruction lines this kernel spans.
    pub fn code_lines(&self) -> u32 {
        self.code_bytes.div_ceil(64)
    }
}

/// Per-kernel execution profile collected by the profiler — the input that
/// the AutoFDO-style optimizer consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelProfile {
    /// Invocation count per kernel.
    pub invocations: Vec<u64>,
    /// Retired instructions attributed to each kernel.
    pub instructions: Vec<u64>,
    /// Directed call-pair transition counts: `pairs[from][to]` increments
    /// whenever kernel `to` runs immediately after kernel `from`.
    pub pairs: Vec<Vec<u64>>,
}

impl KernelProfile {
    /// Creates an empty profile for `n` kernels.
    pub fn new(n: usize) -> Self {
        KernelProfile {
            invocations: vec![0; n],
            instructions: vec![0; n],
            pairs: vec![vec![0; n]; n],
        }
    }

    /// Number of kernels covered.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// Whether the profile covers zero kernels.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Undirected affinity between two kernels (sum of both transition
    /// directions) — the edge weight for layout clustering.
    pub fn affinity(&self, a: KernelId, b: KernelId) -> u64 {
        self.pairs[a][b] + self.pairs[b][a]
    }

    /// Accumulates another profile (e.g. from a second training run) into
    /// this one.
    ///
    /// # Panics
    ///
    /// Panics if the profiles cover different kernel counts.
    pub fn merge(&mut self, other: &KernelProfile) {
        assert_eq!(self.len(), other.len(), "kernel count mismatch");
        for (a, b) in self.invocations.iter_mut().zip(&other.invocations) {
            *a += b;
        }
        for (a, b) in self.instructions.iter_mut().zip(&other.instructions) {
            *a += b;
        }
        for (row_a, row_b) in self.pairs.iter_mut().zip(&other.pairs) {
            for (a, b) in row_a.iter_mut().zip(row_b) {
                *a += b;
            }
        }
    }

    /// Kernels sorted by attributed instruction count, descending — the
    /// hotspot list.
    pub fn hotspots(&self) -> Vec<(KernelId, u64)> {
        let mut v: Vec<(KernelId, u64)> = self.instructions.iter().copied().enumerate().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_round_up() {
        assert_eq!(KernelDesc::new("a", 0).code_lines(), 0);
        assert_eq!(KernelDesc::new("a", 1).code_lines(), 1);
        assert_eq!(KernelDesc::new("a", 64).code_lines(), 1);
        assert_eq!(KernelDesc::new("a", 65).code_lines(), 2);
        assert_eq!(KernelDesc::new("a", 4096).code_lines(), 64);
    }

    #[test]
    fn profile_affinity_is_symmetric() {
        let mut p = KernelProfile::new(3);
        p.pairs[0][1] = 5;
        p.pairs[1][0] = 2;
        assert_eq!(p.affinity(0, 1), 7);
        assert_eq!(p.affinity(1, 0), 7);
    }

    #[test]
    fn hotspots_sorted_descending() {
        let mut p = KernelProfile::new(3);
        p.instructions = vec![10, 300, 20];
        let h = p.hotspots();
        assert_eq!(h[0], (1, 300));
        assert_eq!(h[1], (2, 20));
        assert_eq!(h[2], (0, 10));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KernelProfile::new(2);
        a.invocations[0] = 1;
        a.pairs[0][1] = 3;
        let mut b = KernelProfile::new(2);
        b.invocations[0] = 2;
        b.instructions[1] = 7;
        b.pairs[0][1] = 4;
        a.merge(&b);
        assert_eq!(a.invocations[0], 3);
        assert_eq!(a.instructions[1], 7);
        assert_eq!(a.pairs[0][1], 7);
    }

    #[test]
    fn empty_profile() {
        let p = KernelProfile::new(0);
        assert!(p.is_empty());
        assert_eq!(p.hotspots(), vec![]);
    }
}
