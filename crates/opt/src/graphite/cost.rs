//! Cache-replay cost model: scores a loop nest by simulating its address
//! stream against a cache of the target geometry.

use vtx_uarch::cache::{Cache, CacheParams};

use super::nest::LoopNest;

/// Result of replaying a nest against a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReplayCost {
    /// Total accesses replayed.
    pub(crate) accesses: u64,
    /// Misses observed.
    pub(crate) misses: u64,
}

impl ReplayCost {
    /// Miss ratio in [0, 1].
    fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Replays the nest's address stream through a freshly-initialized cache of
/// the given geometry and reports access/miss counts.
///
/// # Panics
///
/// Panics if `params` describes an invalid cache geometry (programming
/// error in the cost-model caller).
fn replay(nest: &LoopNest, params: CacheParams) -> ReplayCost {
    let mut cache = Cache::new(params).expect("valid cache geometry");
    let line = u64::from(params.line_bytes);
    let mut accesses = 0;
    for (addr, _) in nest.address_stream() {
        cache.access_line(addr / line);
        accesses += 1;
    }
    ReplayCost {
        accesses,
        misses: cache.stats().misses,
    }
}

/// Picks the candidate with the fewest misses under the given cache; ties go
/// to the earliest candidate (the untransformed nest should be first so that
/// transformations must strictly win).
fn best_candidate(candidates: &[LoopNest], params: CacheParams) -> usize {
    let mut best = 0;
    let mut best_misses = u64::MAX;
    for (i, c) in candidates.iter().enumerate() {
        let cost = replay(c, params);
        if cost.misses < best_misses {
            best_misses = cost.misses;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphite::nest::Access;

    /// Column-major traversal of a 256 KiB array: pathological for a small
    /// cache; its interchange is row-major and nearly miss-free after cold
    /// misses.
    fn column_major() -> LoopNest {
        LoopNest::new(
            "colmajor",
            vec![512, 128], // i: columns, j: rows
            vec![Access {
                base: 0,
                strides: vec![1, 2048], // addr = i + j*2048
                is_store: false,
            }],
            vec![],
        )
    }

    fn tiny_cache() -> CacheParams {
        CacheParams::new(4, 4, 1) // 4 KiB
    }

    #[test]
    fn interchange_reduces_misses_on_strided_nest() {
        let bad = column_major();
        let good = bad.interchange(0, 1).unwrap();
        let bad_cost = replay(&bad, tiny_cache());
        let good_cost = replay(&good, tiny_cache());
        assert!(
            good_cost.misses * 10 < bad_cost.misses,
            "interchange should slash misses: {} vs {}",
            good_cost.misses,
            bad_cost.misses
        );
        assert_eq!(bad_cost.accesses, good_cost.accesses);
    }

    #[test]
    fn best_candidate_prefers_fewer_misses() {
        let bad = column_major();
        let good = bad.interchange(0, 1).unwrap();
        assert_eq!(
            best_candidate(&[bad.clone(), good.clone()], tiny_cache()),
            1
        );
        assert_eq!(best_candidate(&[good, bad], tiny_cache()), 0);
    }

    #[test]
    fn ties_go_to_first() {
        let n = column_major();
        assert_eq!(best_candidate(&[n.clone(), n.clone()], tiny_cache()), 0);
    }

    #[test]
    fn miss_ratio_bounds() {
        let n = column_major();
        let c = replay(&n, tiny_cache());
        let r = c.miss_ratio();
        assert!((0.0..=1.0).contains(&r));
        assert!(c.accesses == n.iterations());
    }
}
