//! Flamegraph collapsed-stack writer.
//!
//! Emits the `frame;frame;frame weight` line format consumed by
//! `flamegraph.pl` and `inferno-flamegraph`. Weights are arbitrary `u64`
//! units — the vtx pipeline feeds simulated instruction counts from
//! `KernelProfile` hotspots, so the rendered flamegraph shows where the
//! *simulated* machine spent its instructions.

use std::collections::BTreeMap;

/// Accumulates `(stack, weight)` samples and renders collapsed-stack text.
///
/// Identical stacks are merged (weights summed), and output lines are sorted
/// lexicographically so the result is deterministic.
#[derive(Debug, Default)]
pub struct CollapsedStacks {
    totals: BTreeMap<String, u64>,
}

impl CollapsedStacks {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `weight` under the stack `frames` (root first). Semicolons in
    /// frame names are replaced with ':' to keep the format unambiguous;
    /// empty stacks and zero weights are ignored.
    pub fn add<S: AsRef<str>>(&mut self, frames: &[S], weight: u64) {
        if frames.is_empty() || weight == 0 {
            return;
        }
        let key = frames
            .iter()
            .map(|f| f.as_ref().replace([';', '\n'], ":"))
            .collect::<Vec<_>>()
            .join(";");
        *self.totals.entry(key).or_insert(0) += weight;
    }

    /// Renders the collapsed-stack text, one `stack weight` line per entry.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (stack, weight) in &self.totals {
            let _ = writeln!(out, "{stack} {weight}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_identical_stacks() {
        let mut cs = CollapsedStacks::new();
        cs.add(&["transcode", "encode", "me_sad"], 100);
        cs.add(&["transcode", "encode", "me_sad"], 50);
        cs.add(&["transcode", "decode", "idct"], 25);
        assert_eq!(cs.totals.len(), 2);
        let text = cs.render();
        assert!(text.contains("transcode;encode;me_sad 150\n"));
        assert!(text.contains("transcode;decode;idct 25\n"));
    }

    #[test]
    fn sanitizes_separator_characters() {
        let mut cs = CollapsedStacks::new();
        cs.add(&["a;b", "c\nd"], 1);
        assert_eq!(cs.render(), "a:b;c:d 1\n");
    }

    #[test]
    fn ignores_empty_and_zero() {
        let mut cs = CollapsedStacks::new();
        cs.add::<&str>(&[], 10);
        cs.add(&["x"], 0);
        assert!(cs.totals.is_empty());
        assert_eq!(cs.render(), "");
    }

    #[test]
    fn output_is_sorted_and_deterministic() {
        let mut cs = CollapsedStacks::new();
        cs.add(&["b"], 1);
        cs.add(&["a"], 2);
        assert_eq!(cs.render(), "a 2\nb 1\n");
    }
}
