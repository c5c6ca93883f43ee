//! Data-access plans: the loop-transformation decisions a polyhedral
//! optimizer (the workspace's Graphite analog in `vtx-opt`) makes about the
//! workload's data traversal loops.
//!
//! The instrumented workload consults the active [`DataPlan`] when emitting
//! memory events, so enabling a transformation changes the *actual address
//! stream* fed to the cache simulation — the optimization's effect on cache
//! misses emerges from simulation rather than being asserted.

/// Loop transformations applied to the workload's data-traversal loops.
///
/// The default plan is fully canonical (no transformation) — what an
/// unoptimized compile produces. `vtx-opt`'s Graphite analog derives an
/// optimized plan by running legality-checked loop transformations over
/// models of these loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPlan {
    /// Fuse the in-loop deblocking filter into the macroblock loop instead
    /// of a separate whole-frame sweep (loop fusion): the filtered lines are
    /// still resident when touched, so the extra cold sweep disappears.
    pub fuse_deblock: bool,
    /// Tile the motion-search window loads so that only the columns newly
    /// exposed by the sliding window are fetched per macroblock (loop
    /// tiling / invariant hoisting over the x dimension).
    pub tile_me_window: bool,
    /// Fuse the transform/quantize/reconstruct passes over the residual
    /// scratch buffer into one sweep (loop fusion over the 4x4 block loops).
    pub fuse_residual: bool,
}

impl DataPlan {
    /// The canonical (untransformed) plan.
    pub fn canonical() -> Self {
        DataPlan::default()
    }

    /// Every supported transformation enabled — what the Graphite analog
    /// converges to for this workload when all legality checks pass.
    pub fn fully_blocked() -> Self {
        DataPlan {
            fuse_deblock: true,
            tile_me_window: true,
            fuse_residual: true,
        }
    }

    /// Number of transformations enabled.
    pub fn enabled_count(&self) -> u32 {
        u32::from(self.fuse_deblock)
            + u32::from(self.tile_me_window)
            + u32::from(self.fuse_residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_canonical() {
        let p = DataPlan::default();
        assert!(!p.fuse_deblock && !p.tile_me_window && !p.fuse_residual);
        assert_eq!(p.enabled_count(), 0);
        assert_eq!(p, DataPlan::canonical());
    }

    #[test]
    fn fully_blocked_enables_all() {
        assert_eq!(DataPlan::fully_blocked().enabled_count(), 3);
    }
}
