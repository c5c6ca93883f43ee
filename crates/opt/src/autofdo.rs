//! AutoFDO analog: profile-guided code layout.
//!
//! Two transformations, both standard in FDO toolchains:
//!
//! 1. **Pettis–Hansen function ordering**: kernels that frequently execute
//!    back-to-back (high call-pair affinity) are placed adjacently, so one
//!    fetch stream covers both and they share iTLB pages.
//! 2. **Hot/cold splitting**: within each kernel, rarely-executed basic
//!    blocks are moved out of line, shrinking the hot footprint that the
//!    front end actually streams (modelled as a fixed hot fraction, like
//!    `-freorder-blocks-and-partition`).
//!
//! The output is a packed [`CodeLayout`]; all cache/TLB/branch effects come
//! from re-simulating under it.

use vtx_trace::kernel::{KernelDesc, KernelProfile};
use vtx_trace::layout::CodeLayout;

/// Fraction of each kernel's code that stays in the hot section after
/// profile-guided basic-block reordering (the rest is moved to a cold
/// section that the front end no longer streams).
const HOT_FRACTION_PERCENT: u32 = 70;

/// Computes a Pettis–Hansen kernel ordering from call-pair affinities.
///
/// Classic greedy chain coalescing: every kernel starts as its own chain;
/// edges are visited by descending affinity and chains are merged end-to-end
/// in the orientation that keeps the connected kernels adjacent. Chains are
/// finally emitted by descending total weight (hottest code first).
fn pettis_hansen_order(profile: &KernelProfile) -> Vec<usize> {
    let n = profile.len();
    if n == 0 {
        return Vec::new();
    }

    // Collect undirected edges.
    let mut edges: Vec<(u64, usize, usize)> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let w = profile.affinity(a, b);
            if w > 0 {
                edges.push((w, a, b));
            }
        }
    }
    edges.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));

    // Each kernel starts as a singleton chain.
    let mut chain_of: Vec<usize> = (0..n).collect();
    let mut chains: Vec<Vec<usize>> = (0..n).map(|k| vec![k]).collect();

    for (_, a, b) in edges {
        let ca = chain_of[a];
        let cb = chain_of[b];
        if ca == cb {
            continue;
        }
        // Merge so that a and b become adjacent where possible: the four
        // end-to-end orientations are tried in order of preference.
        let (left, right) = (chains[ca].clone(), chains[cb].clone());
        let merged: Vec<usize> = if left.last() == Some(&a) && right.first() == Some(&b) {
            left.iter().chain(right.iter()).copied().collect()
        } else if right.last() == Some(&b) && left.first() == Some(&a) {
            right.iter().chain(left.iter()).copied().collect()
        } else if left.first() == Some(&a) && right.first() == Some(&b) {
            left.iter().rev().chain(right.iter()).copied().collect()
        } else if left.last() == Some(&a) && right.last() == Some(&b) {
            left.iter().chain(right.iter().rev()).copied().collect()
        } else {
            // Interior nodes: append whole chains (adjacency not achievable).
            left.iter().chain(right.iter()).copied().collect()
        };
        chains[ca] = merged;
        chains[cb] = Vec::new();
        for &k in &chains[ca] {
            chain_of[k] = ca;
        }
    }

    // Order surviving chains by total instruction weight, hottest first.
    let mut keyed: Vec<(u64, Vec<usize>)> = chains
        .into_iter()
        .filter(|c| !c.is_empty())
        .map(|c| {
            let w: u64 = c.iter().map(|&k| profile.instructions[k]).sum();
            (w, c)
        })
        .collect();
    keyed.sort_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)));

    keyed.into_iter().flat_map(|(_, c)| c).collect()
}

/// Applies hot/cold splitting to the kernel descriptors: each hot footprint
/// shrinks to [`HOT_FRACTION_PERCENT`] of its original size.
fn split_hot_cold(kernels: &[KernelDesc]) -> Vec<KernelDesc> {
    kernels
        .iter()
        .map(|k| KernelDesc::new(k.name, (k.code_bytes * HOT_FRACTION_PERCENT / 100).max(64)))
        .collect()
}

/// Produces the AutoFDO-optimized layout for a kernel table given a profile
/// collected from a previous run.
///
/// # Panics
///
/// Panics if `profile` does not cover exactly `kernels.len()` kernels.
pub(crate) fn optimized_layout(kernels: &[KernelDesc], profile: &KernelProfile) -> CodeLayout {
    assert_eq!(
        profile.len(),
        kernels.len(),
        "profile must cover the kernel table"
    );
    let order = pettis_hansen_order(profile);
    let shrunk = split_hot_cold(kernels);
    CodeLayout::packed(&shrunk, &order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize) -> Vec<KernelDesc> {
        const NAMES: &[&str] = &["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"];
        (0..n).map(|i| KernelDesc::new(NAMES[i], 4096)).collect()
    }

    fn profile_with_pairs(n: usize, pairs: &[(usize, usize, u64)]) -> KernelProfile {
        let mut p = KernelProfile::new(n);
        for &(a, b, w) in pairs {
            p.pairs[a][b] = w;
            p.instructions[a] += w * 10;
            p.instructions[b] += w * 10;
        }
        p
    }

    #[test]
    fn order_is_a_permutation() {
        let p = profile_with_pairs(6, &[(0, 3, 100), (3, 1, 50), (2, 4, 10)]);
        let order = pettis_hansen_order(&p);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn high_affinity_kernels_adjacent() {
        let p = profile_with_pairs(5, &[(0, 3, 1000), (1, 4, 900), (2, 0, 5)]);
        let order = pettis_hansen_order(&p);
        let pos: Vec<usize> = {
            let mut v = vec![0; 5];
            for (i, &k) in order.iter().enumerate() {
                v[k] = i;
            }
            v
        };
        assert_eq!(pos[0].abs_diff(pos[3]), 1, "order {order:?}");
        assert_eq!(pos[1].abs_diff(pos[4]), 1, "order {order:?}");
    }

    #[test]
    fn hottest_chain_comes_first() {
        let p = profile_with_pairs(4, &[(0, 1, 5), (2, 3, 5000)]);
        let order = pettis_hansen_order(&p);
        // The (2,3) chain carries far more weight, so it leads.
        assert!(order[0] == 2 || order[0] == 3, "order {order:?}");
    }

    #[test]
    fn optimized_layout_is_far_denser_than_default() {
        let kernels = table(8);
        let mut p = KernelProfile::new(8);
        for i in 0..7 {
            p.pairs[i][i + 1] = 100;
            p.instructions[i] = 1000;
        }
        let opt = optimized_layout(&kernels, &p);
        let base = CodeLayout::default_order(&kernels);
        assert!(
            opt.span_bytes() * 4 < base.span_bytes(),
            "opt {} vs base {}",
            opt.span_bytes(),
            base.span_bytes()
        );
    }

    #[test]
    fn hot_cold_split_shrinks_but_not_to_zero() {
        let shrunk = split_hot_cold(&table(3));
        for (s, k) in shrunk.iter().zip(table(3).iter()) {
            assert!(s.code_bytes < k.code_bytes);
            assert!(s.code_bytes >= 64);
        }
    }

    #[test]
    fn layout_is_deterministic() {
        let kernels = table(6);
        let p = profile_with_pairs(6, &[(0, 3, 100), (3, 1, 50), (2, 4, 10), (4, 5, 9)]);
        let a = optimized_layout(&kernels, &p);
        let b = optimized_layout(&kernels, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_profile_yields_identity_ish_order() {
        let p = KernelProfile::new(4);
        let order = pettis_hansen_order(&p);
        assert_eq!(order.len(), 4);
    }
}
