//! Hardware prefetcher models (extension beyond the paper's Table IV).
//!
//! The paper's configurations do not vary prefetching, so the hierarchy
//! default is *no* prefetcher — but transcoding's reference-window streams
//! are classic prefetcher fodder, making this the natural "future work"
//! ablation. Two models are provided:
//!
//! * [`PrefetcherKind::NextLine`] — always fetch `line + 1` on a demand miss;
//! * [`PrefetcherKind::Stream`] — a small table of stream detectors that
//!   lock onto constant-stride sequences and run ahead of them.

/// Selectable prefetcher model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching (the paper's implicit setting).
    #[default]
    None,
    /// Next-line prefetch on demand miss.
    NextLine,
    /// Multi-stream stride detection.
    Stream,
}

/// Prefetch issue statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetches issued to the hierarchy.
    pub issued: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Stream {
    last: u64,
    stride: i64,
    confidence: u8,
    lru: u8,
}

const NO_PREFETCH: ([u64; 2], usize) = ([0; 2], 0);

/// A stream prefetcher: observes the demand-miss line sequence and emits
/// lines to fetch ahead.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    kind: PrefetcherKind,
    streams: [Stream; 8],
    stats: PrefetchStats,
}

impl Prefetcher {
    /// Creates a prefetcher of the given kind.
    pub fn new(kind: PrefetcherKind) -> Self {
        Prefetcher {
            kind,
            streams: [Stream::default(); 8],
            stats: PrefetchStats::default(),
        }
    }

    /// The model in use.
    pub fn kind(&self) -> PrefetcherKind {
        self.kind
    }

    /// Statistics so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Observes a demand access on `line` (`missed` = it left the L1) and
    /// returns the lines to prefetch as `(lines, n)`: the first `n` (at most
    /// 2) entries of `lines` are valid.
    ///
    /// Stream detectors train on *all* accesses — hits keep a stream's
    /// position current so run-ahead continues once the stream is covered
    /// by its own prefetches.
    pub fn on_access(&mut self, line: u64, missed: bool) -> ([u64; 2], usize) {
        let out = match self.kind {
            PrefetcherKind::None => NO_PREFETCH,
            PrefetcherKind::NextLine if missed => ([line + 1, 0], 1),
            PrefetcherKind::NextLine => NO_PREFETCH,
            PrefetcherKind::Stream => self.observe_stream(line),
        };
        self.stats.issued += out.1 as u64;
        out
    }

    fn observe_stream(&mut self, line: u64) -> ([u64; 2], usize) {
        // Age every stream; reset on use.
        for s in &mut self.streams {
            s.lru = s.lru.saturating_add(1);
        }
        // A stream matches if the new line continues its stride.
        for s in &mut self.streams {
            if s.stride != 0 && line as i64 == s.last as i64 + s.stride {
                s.last = line;
                s.lru = 0;
                s.confidence = (s.confidence + 1).min(4);
                if s.confidence >= 2 {
                    // Run ahead: degree 2 once confident.
                    let p1 = (line as i64 + s.stride).max(0) as u64;
                    let p2 = (line as i64 + 2 * s.stride).max(0) as u64;
                    return ([p1, p2], 2);
                }
                return NO_PREFETCH;
            }
        }
        // Try to pair the miss with an existing stream head to learn a stride.
        for s in &mut self.streams {
            if s.stride == 0 && s.last != 0 {
                let stride = line as i64 - s.last as i64;
                if stride != 0 && stride.abs() <= 64 {
                    s.stride = stride;
                    s.last = line;
                    s.lru = 0;
                    s.confidence = 1;
                    return NO_PREFETCH;
                }
            }
        }
        // Allocate the LRU slot as a new stream head.
        let victim = self
            .streams
            .iter_mut()
            .max_by_key(|s| s.lru)
            .expect("nonempty");
        *victim = Stream {
            last: line,
            stride: 0,
            confidence: 0,
            lru: 0,
        };
        NO_PREFETCH
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The issued lines as a `Vec`, for comparing against literals.
    fn on_access(p: &mut Prefetcher, line: u64, missed: bool) -> Vec<u64> {
        let (lines, n) = p.on_access(line, missed);
        lines[..n].to_vec()
    }

    #[test]
    fn none_never_prefetches() {
        let mut p = Prefetcher::new(PrefetcherKind::None);
        assert!(on_access(&mut p, 10, true).is_empty());
        assert_eq!(p.stats().issued, 0);
    }

    #[test]
    fn next_line_fetches_successor_on_miss_only() {
        let mut p = Prefetcher::new(PrefetcherKind::NextLine);
        assert_eq!(on_access(&mut p, 10, true), vec![11]);
        assert!(on_access(&mut p, 11, false).is_empty());
        assert_eq!(p.stats().issued, 1);
    }

    #[test]
    fn stream_locks_onto_unit_stride() {
        let mut p = Prefetcher::new(PrefetcherKind::Stream);
        assert!(on_access(&mut p, 100, true).is_empty()); // head
        assert!(on_access(&mut p, 101, true).is_empty()); // stride learned
        let pf = on_access(&mut p, 102, true); // confidence reached
        assert_eq!(pf, vec![103, 104], "confident stream runs ahead");
        // Hits keep the stream current.
        let pf = on_access(&mut p, 103, false);
        assert_eq!(pf, vec![104, 105]);
    }

    #[test]
    fn stream_locks_onto_large_stride() {
        // Row-stride access pattern (every 20 lines, a 1280-byte stride).
        let mut p = Prefetcher::new(PrefetcherKind::Stream);
        let mut got = Vec::new();
        for i in 0..6u64 {
            got = on_access(&mut p, 1000 + i * 20, true);
        }
        assert_eq!(got, vec![1120, 1140]);
    }

    #[test]
    fn random_misses_do_not_trigger() {
        let mut p = Prefetcher::new(PrefetcherKind::Stream);
        let mut issued = 0;
        let mut x: u64 = 0x9E37_79B9;
        for _ in 0..200 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            issued += on_access(&mut p, (x >> 20) & 0xFFFF, true).len();
        }
        assert!(
            issued < 40,
            "random stream should rarely trigger: {issued} prefetches"
        );
    }

    #[test]
    fn tracks_multiple_streams() {
        let mut p = Prefetcher::new(PrefetcherKind::Stream);
        // Interleave two unit-stride streams far apart.
        let mut fetched = 0;
        for i in 0..8u64 {
            fetched += on_access(&mut p, 1000 + i, true).len();
            fetched += on_access(&mut p, 900_000 + i, true).len();
        }
        assert!(fetched >= 8, "both streams should trigger: {fetched}");
    }
}
