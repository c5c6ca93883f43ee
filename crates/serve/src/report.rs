//! Serving reports: exact tail-latency statistics and a byte-deterministic
//! text rendering.
//!
//! Fig 9 of the paper compares schedulers on *makespan*; a serving system is
//! judged on the distribution of per-job sojourn time (arrival → completion)
//! and on what it sheds. Quantiles here are exact over the collected
//! samples (rank = ⌈q·n⌉), not histogram-bucketed, so two runs with the same
//! seed render identical bytes.

use std::fmt::Write;

use vtx_cache::CacheStats;
use vtx_obs::{milli, wall_clock_enabled, TrajectoryRow};

use crate::queue::ShedReason;
use crate::workload::Priority;

/// Exact order statistics of a latency sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: u64,
    /// Mean (µs, rounded).
    pub mean_us: u64,
    /// Minimum (µs).
    pub(crate) min_us: u64,
    /// Exact p50 (µs).
    pub p50_us: u64,
    /// Exact p90 (µs).
    pub p90_us: u64,
    /// Exact p99 (µs).
    pub p99_us: u64,
    /// Maximum (µs).
    pub(crate) max_us: u64,
}

impl LatencyStats {
    /// Computes stats from unsorted samples.
    ///
    /// # Empty input
    ///
    /// An empty slice yields the all-zero stats block (`count == 0`,
    /// every quantile 0) rather than a panic or sentinel — the same
    /// contract as `vtx_obs::QuantileSketch::quantile_permille`. Renderers
    /// and the bench trajectory rely on this: a class that served no jobs
    /// prints a zero row and stays byte-deterministic.
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return LatencyStats {
                count: 0,
                mean_us: 0,
                min_us: 0,
                p50_us: 0,
                p90_us: 0,
                p99_us: 0,
                max_us: 0,
            };
        }
        let mut s = samples.to_vec();
        s.sort_unstable();
        let n = s.len();
        let sum: u128 = s.iter().map(|&v| u128::from(v)).sum();
        let q = |q: f64| -> u64 {
            // Nearest-rank: smallest value with cumulative share >= q.
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            s[rank - 1]
        };
        LatencyStats {
            count: n as u64,
            mean_us: (sum / n as u128) as u64,
            min_us: s[0],
            p50_us: q(0.50),
            p90_us: q(0.90),
            p99_us: q(0.99),
            max_us: s[n - 1],
        }
    }
}

/// Per-server accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Server name.
    pub(crate) name: String,
    /// Jobs completed on this server.
    pub jobs: u64,
    /// Busy time (µs).
    pub busy_us: u64,
    /// Busy fraction of the run's makespan (0..=1).
    pub(crate) utilization: f64,
}

/// What the chaos layer injected and what recovery did about it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultAccounting {
    /// Fail-stop crashes scheduled by the plan.
    pub crashes: u64,
    /// Fail-slow slowdown windows scheduled by the plan.
    pub slowdowns: u64,
    /// Transient stalls scheduled by the plan.
    pub(crate) stalls: u64,
    /// In-flight jobs requeued off servers declared down.
    pub requeued: u64,
    /// Hedged duplicate dispatches launched.
    pub hedges_launched: u64,
    /// Hedges that finished first (the duplicate won).
    pub hedges_won: u64,
    /// Hedge copies whose work was discarded (the other copy won or both
    /// attempts timed out).
    pub(crate) hedges_wasted: u64,
    /// Dispatches whose preset the degradation ladder stepped down.
    pub degraded_jobs: u64,
    /// Highest ladder level reached during the run.
    pub peak_degrade_level: u8,
}

/// Segment-granular accounting for a run whose dispatch units are
/// per-(segment, rung) pieces of catalog jobs (see [`crate::segment`]).
/// `None` on whole-clip runs, so legacy reports render byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Catalog jobs the workload described.
    pub parents: u64,
    /// Parents whose manifest is assemblable: every (segment, rung) unit
    /// of the job completed.
    pub parents_complete: u64,
    /// Parents serving a *degraded* manifest: at least one rung finished
    /// every segment, but not all rungs did (see
    /// [`crate::segment::SegmentPlan::manifests_partial`]).
    pub(crate) parents_degraded: u64,
    /// Dispatch units offered (Σ segments × rungs over parents).
    pub units: u64,
    /// Units that completed.
    pub units_complete: u64,
    /// Per-rung `(name, units, completed)`, ladder order.
    pub(crate) per_rung: Vec<(String, u64, u64)>,
    /// Per-segment-index `(units, completed)`; index = position in clip.
    pub(crate) per_segment: Vec<(u64, u64)>,
}

/// Everything a serving run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Dispatch policy name.
    pub policy: String,
    /// Workload seed.
    pub(crate) seed: u64,
    /// Jobs offered by the load generator.
    pub offered: u64,
    /// Jobs completed (possibly after retry, possibly past deadline).
    pub completed: u64,
    /// Completions that finished after their deadline.
    pub slo_violations: u64,
    /// Jobs shed, by [`crate::queue::ShedReason`] order
    /// (queue_full, displaced, expired, retries_exhausted, throttled).
    pub shed: [u64; 5],
    /// Dispatch attempts beyond the first, summed over jobs.
    pub retries: u64,
    /// Last event timestamp (µs).
    pub(crate) makespan_us: u64,
    /// Completed jobs per second of makespan.
    pub throughput_jps: f64,
    /// Fraction of server-time the fleet was actually alive: 1.0 with no
    /// crashes; a server that dies at 30% of the run contributes 0.3.
    pub availability: f64,
    /// *Useful* completions (completed minus SLO violations) per second of
    /// makespan — throughput that counts only work the SLO got value from.
    pub goodput_jps: f64,
    /// Mean time-to-recovery: over every requeued in-flight job, the time
    /// from its (doomed) dispatch to its requeue off the dead server.
    /// Dominated by detection latency; 0 when nothing was ever lost.
    pub mttr_us: u64,
    /// Fault-injection and recovery accounting (all zero when no chaos).
    pub faults: FaultAccounting,
    /// Sojourn time (arrival → completion) over all completed jobs.
    pub sojourn: LatencyStats,
    /// Sojourn time per service class, [`Priority::ALL`] order.
    pub sojourn_by_class: [LatencyStats; 3],
    /// Per-server accounting, fleet order.
    pub servers: Vec<ServerStats>,
    /// Segment-granular accounting; `None` on whole-clip runs (the driver
    /// fills this in from the segment plan after the run).
    pub segments: Option<SegmentStats>,
    /// Segment-cache accounting; `None` when no cache was configured, so
    /// legacy reports render byte-identically.
    pub cache: Option<vtx_cache::CacheStats>,
    /// Shed counts by ladder rung index (0 = `hi`); empty when the run had
    /// no per-unit rung table ([`crate::service::ServeConfig::unit_rungs`]).
    pub shed_by_rung: Vec<u64>,
    /// Shed counts by tenant index; empty when the run had no tenant
    /// admission config ([`crate::service::ServeConfig::tenants`]), so
    /// legacy reports render byte-identically.
    pub shed_by_tenant: Vec<u64>,
    /// Autoscaler accounting; `None` when autoscaling was disabled.
    pub scale: Option<ScaleStats>,
}

/// What the deterministic autoscaler did over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScaleStats {
    /// Scale-out decisions committed (servers launched into warm-up).
    pub scale_outs: u64,
    /// Scale-in decisions committed (servers deactivated).
    pub scale_ins: u64,
    /// Peak provisioned capacity over the run, speed units × 1000.
    pub peak_capacity_milli: u64,
    /// Time-averaged provisioned capacity (∫cap dt / makespan), × 1000.
    pub served_capacity_milli: u64,
    /// Σ per-server active time (µs) — the cost-of-capacity integral.
    pub(crate) active_server_us: u64,
}

impl ServingReport {
    /// Total shed count.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().sum()
    }

    /// Shed fraction of offered load.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed_total() as f64 / self.offered as f64
        }
    }

    /// SLO-violation fraction of completed jobs.
    pub fn violation_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.completed as f64
        }
    }

    /// Flattens the run into one bench-trajectory row — every field
    /// integral, so the artifact byte-compares across runs. The report does
    /// not know the scenario's label, the fleet's size and cell count, how
    /// many dispatch units a segmented plan offered, or how many alert
    /// transitions the obs plane saw; `wall_ms` is recorded only under
    /// `VTX_TRAJ_WALL=1`, so committed trajectories stay deterministic.
    pub fn trajectory_row(
        &self,
        scenario: &str,
        servers: u64,
        cells: u64,
        segments: u64,
        alerts: u64,
        wall_ms: u64,
    ) -> TrajectoryRow {
        TrajectoryRow {
            scenario: scenario.to_owned(),
            policy: self.policy.clone(),
            seed: self.seed,
            servers,
            cells,
            segments,
            offered: self.offered,
            completed: self.completed,
            slo_violations: self.slo_violations,
            shed: self.shed_total(),
            shed_rung: self.shed_by_rung.first().copied().unwrap_or(0),
            shed_tenant: self.shed[ShedReason::Throttled as usize],
            p50_sojourn_us: self.sojourn.p50_us,
            p99_sojourn_us: self.sojourn.p99_us,
            throughput_milli_jps: milli(self.throughput_jps),
            goodput_milli_jps: milli(self.goodput_jps),
            availability_milli: milli(self.availability),
            cache_hit_milli: self.cache.as_ref().map_or(0, CacheStats::hit_milli),
            peak_capacity_milli: self.scale.map_or(0, |s| s.peak_capacity_milli),
            served_capacity_milli: self.scale.map_or(0, |s| s.served_capacity_milli),
            alerts,
            makespan_us: self.makespan_us,
            wall_ms: if wall_clock_enabled() { wall_ms } else { 0 },
        }
    }

    /// Renders the report as deterministic plain text (fixed field order,
    /// fixed float formatting — byte-identical across identical runs).
    pub fn render(&self) -> String {
        // A server line is 66 bytes unless a field outgrows its column.
        let mut out = String::with_capacity(1024 + 72 * self.servers.len());
        self.render_head(&mut out);
        for s in &self.servers {
            // Writing to a `String` cannot fail.
            let _ = writeln!(
                out,
                "  server {:<12} jobs={:<4} busy_us={:<12} util={:.4}",
                s.name, s.jobs, s.busy_us, s.utilization
            );
        }
        out
    }

    /// Renders the report without the per-server block: at XL fleet sizes
    /// (10k servers) the per-server lines dwarf everything else, and a
    /// fleet-wide utilization summary says more. Identical to [`render`]
    /// above that line, still fully deterministic.
    ///
    /// [`render`]: ServingReport::render
    pub fn render_compact(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.render_head(&mut out);
        let (jobs, busy_us) = self
            .servers
            .iter()
            .fold((0u64, 0u64), |(j, b), s| (j + s.jobs, b + s.busy_us));
        let mean_util = if self.servers.is_empty() {
            0.0
        } else {
            self.servers.iter().map(|s| s.utilization).sum::<f64>() / self.servers.len() as f64
        };
        let _ = writeln!(
            out,
            "  fleet: servers={} jobs={} busy_us={} mean_util={:.4}",
            self.servers.len(),
            jobs,
            busy_us,
            mean_util
        );
        out
    }

    /// Appends everything [`render`] writes above the per-server block.
    ///
    /// [`render`]: ServingReport::render
    fn render_head(&self, out: &mut String) {
        // Writing to a `String` cannot fail: every `writeln!` result below
        // is `Ok`.
        let _ = writeln!(
            out,
            "serving report: policy={} seed={}",
            self.policy, self.seed
        );
        let _ = writeln!(
            out,
            "  offered={} completed={} violations={} retries={}",
            self.offered, self.completed, self.slo_violations, self.retries
        );
        let _ = write!(
            out,
            "  shed: total={} queue_full={} displaced={} expired={} retries_exhausted={}",
            self.shed_total(),
            self.shed[0],
            self.shed[1],
            self.shed[2],
            self.shed[3],
        );
        // The throttled column appends only when non-zero so legacy runs
        // (no tenant admission) keep their exact historical bytes.
        if self.shed[4] > 0 {
            let _ = write!(out, " throttled={}", self.shed[4]);
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "  makespan_us={} throughput_jps={:.4} shed_rate={:.4} violation_rate={:.4}",
            self.makespan_us,
            self.throughput_jps,
            self.shed_rate(),
            self.violation_rate()
        );
        let _ = writeln!(
            out,
            "  availability={:.4} goodput_jps={:.4} mttr_us={}",
            self.availability, self.goodput_jps, self.mttr_us
        );
        let f = &self.faults;
        let _ = writeln!(
            out,
            "  faults: crashes={} slowdowns={} stalls={} requeued={} hedges={}/{}/{} degraded={} peak_level={}",
            f.crashes,
            f.slowdowns,
            f.stalls,
            f.requeued,
            f.hedges_launched,
            f.hedges_won,
            f.hedges_wasted,
            f.degraded_jobs,
            f.peak_degrade_level
        );
        if let Some(c) = &self.cache {
            let _ = writeln!(
                out,
                "  cache: hits={} misses={} hit_milli={} evictions={} inserted={} rejected={} occupancy={}/{} entries={}",
                c.hits,
                c.misses,
                c.hit_milli(),
                c.evictions,
                c.inserted,
                c.rejected,
                c.occupancy_bytes,
                c.capacity_bytes,
                c.entries
            );
        }
        if !self.shed_by_rung.is_empty() {
            out.push_str("  shed_by_rung:");
            for (i, n) in self.shed_by_rung.iter().enumerate() {
                let _ = write!(out, " r{i}={n}");
            }
            out.push('\n');
        }
        if !self.shed_by_tenant.is_empty() {
            out.push_str("  shed_by_tenant:");
            for (i, n) in self.shed_by_tenant.iter().enumerate() {
                let _ = write!(out, " t{i}={n}");
            }
            out.push('\n');
        }
        if let Some(sc) = &self.scale {
            let _ = writeln!(
                out,
                "  scale: outs={} ins={} peak_capacity_milli={} served_capacity_milli={} active_server_us={}",
                sc.scale_outs,
                sc.scale_ins,
                sc.peak_capacity_milli,
                sc.served_capacity_milli,
                sc.active_server_us
            );
        }
        if let Some(seg) = &self.segments {
            let _ = write!(
                out,
                "  segments: parents={}/{} units={}/{}",
                seg.parents_complete, seg.parents, seg.units_complete, seg.units
            );
            if seg.parents_degraded > 0 {
                let _ = write!(out, " degraded={}", seg.parents_degraded);
            }
            out.push('\n');
            for (name, units, done) in &seg.per_rung {
                let _ = writeln!(
                    out,
                    "  rung {:<12} units={:<5} completed={}",
                    name, units, done
                );
            }
            for (i, (units, done)) in seg.per_segment.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  seg  {:<12} units={:<5} completed={}",
                    i, units, done
                );
            }
        }
        render_latency(out, "sojourn(all)", &self.sojourn);
        for (p, stats) in Priority::ALL.iter().zip(self.sojourn_by_class.iter()) {
            render_latency(out, p.name(), stats);
        }
    }
}

fn render_latency(out: &mut String, label: &str, s: &LatencyStats) {
    let _ = writeln!(
        out,
        "  {:<14} n={:<5} mean={:<10} p50={:<10} p90={:<10} p99={:<10} max={}",
        label, s.count, s.mean_us, s.p50_us, s.p90_us, s.p99_us, s.max_us
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_all_zero() {
        let s = LatencyStats::from_samples(&[]);
        assert_eq!(
            s,
            LatencyStats {
                count: 0,
                mean_us: 0,
                min_us: 0,
                p50_us: 0,
                p90_us: 0,
                p99_us: 0,
                max_us: 0,
            },
            "empty input must yield the all-zero block, field by field"
        );
    }

    #[test]
    fn empty_stats_render_without_panicking() {
        // A class that served nothing must still produce a stable line.
        let mut out = String::new();
        render_latency(&mut out, "empty", &LatencyStats::from_samples(&[]));
        assert!(out.contains("n=0"));
        assert!(out.contains("p99=0"));
        let mut again = String::new();
        render_latency(&mut again, "empty", &LatencyStats::from_samples(&[]));
        assert_eq!(out, again);
    }

    #[test]
    fn single_sample_dominates() {
        let s = LatencyStats::from_samples(&[77]);
        assert_eq!(
            (s.min_us, s.p50_us, s.p90_us, s.p99_us, s.max_us),
            (77, 77, 77, 77, 77)
        );
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.p50_us, 50);
        assert_eq!(s.p90_us, 90);
        assert_eq!(s.p99_us, 99);
        assert_eq!(s.min_us, 1);
        assert_eq!(s.max_us, 100);
        assert_eq!(s.mean_us, 50); // 50.5 truncated
    }

    #[test]
    fn order_does_not_matter() {
        let a = LatencyStats::from_samples(&[5, 1, 9, 3]);
        let b = LatencyStats::from_samples(&[9, 3, 5, 1]);
        assert_eq!(a, b);
    }

    fn dummy_report() -> ServingReport {
        ServingReport {
            policy: "smart".into(),
            seed: 42,
            offered: 10,
            completed: 8,
            slo_violations: 1,
            shed: [1, 0, 1, 0, 0],
            retries: 2,
            makespan_us: 2_000_000,
            throughput_jps: 4.0,
            availability: 0.875,
            goodput_jps: 3.5,
            mttr_us: 500_000,
            faults: FaultAccounting {
                crashes: 1,
                requeued: 2,
                ..FaultAccounting::default()
            },
            sojourn: LatencyStats::from_samples(&[100, 200, 300]),
            sojourn_by_class: [
                LatencyStats::from_samples(&[100]),
                LatencyStats::from_samples(&[200]),
                LatencyStats::from_samples(&[300]),
            ],
            servers: vec![ServerStats {
                name: "baseline-0".into(),
                jobs: 8,
                busy_us: 1_500_000,
                utilization: 0.75,
            }],
            segments: None,
            cache: None,
            shed_by_rung: Vec::new(),
            shed_by_tenant: Vec::new(),
            scale: None,
        }
    }

    /// A report with every optional section present and `n` servers.
    fn full_report(n: usize) -> ServingReport {
        let mut r = dummy_report();
        r.shed = [4, 1, 2, 0, 3];
        r.faults.hedges_launched = 5;
        r.faults.hedges_won = 2;
        r.cache = Some(vtx_cache::CacheStats {
            hits: 30,
            misses: 12,
            evictions: 4,
            inserted: 12,
            ..Default::default()
        });
        r.shed_by_rung = vec![2, 0, 1];
        r.shed_by_tenant = vec![3, 0];
        r.scale = Some(ScaleStats {
            scale_outs: 2,
            scale_ins: 1,
            peak_capacity_milli: 8_150,
            served_capacity_milli: 6_020,
            active_server_us: 41_000_000,
        });
        r.segments = Some(SegmentStats {
            parents: 4,
            parents_complete: 3,
            parents_degraded: 1,
            units: 24,
            units_complete: 21,
            per_rung: vec![
                ("hi".into(), 8, 6),
                ("mid".into(), 8, 8),
                ("lo".into(), 8, 7),
            ],
            per_segment: vec![(12, 11), (12, 10)],
        });
        r.servers = (0..n)
            .map(|i| ServerStats {
                name: format!("cfg{}-{}", i % 5, i / 5),
                jobs: (i as u64 * 7) % 13,
                busy_us: 1_000 * i as u64 + 17,
                utilization: (i as f64 + 0.5) / (n as f64 + 1.0),
            })
            .collect();
        r
    }

    /// The pinned bytes [`full_report`] renders above its first server line,
    /// every optional line present.
    const FULL_HEAD: &str = concat!(
        "serving report: policy=smart seed=42\n",
        "  offered=10 completed=8 violations=1 retries=2\n",
        "  shed: total=10 queue_full=4 displaced=1 expired=2 retries_exhausted=0 throttled=3\n",
        "  makespan_us=2000000 throughput_jps=4.0000 shed_rate=1.0000 violation_rate=0.1250\n",
        "  availability=0.8750 goodput_jps=3.5000 mttr_us=500000\n",
        "  faults: crashes=1 slowdowns=0 stalls=0 requeued=2 hedges=5/2/0 degraded=0 peak_level=0\n",
        "  cache: hits=30 misses=12 hit_milli=714 evictions=4 inserted=12 rejected=0 occupancy=0/0 entries=0\n",
        "  shed_by_rung: r0=2 r1=0 r2=1\n",
        "  shed_by_tenant: t0=3 t1=0\n",
        "  scale: outs=2 ins=1 peak_capacity_milli=8150 served_capacity_milli=6020 active_server_us=41000000\n",
        "  segments: parents=3/4 units=21/24 degraded=1\n",
        "  rung hi           units=8     completed=6\n",
        "  rung mid          units=8     completed=8\n",
        "  rung lo           units=8     completed=7\n",
        "  seg  0            units=12    completed=11\n",
        "  seg  1            units=12    completed=10\n",
        "  sojourn(all)   n=3     mean=200        p50=200        p90=300        p99=300        max=300\n",
        "  interactive    n=1     mean=100        p50=100        p90=100        p99=100        max=100\n",
        "  standard       n=1     mean=200        p50=200        p90=200        p99=200        max=200\n",
        "  batch          n=1     mean=300        p50=300        p90=300        p99=300        max=300\n",
    );

    #[test]
    fn renderings_keep_their_bytes_at_8_and_500_servers() {
        let small = full_report(8);
        let servers = concat!(
            "  server cfg0-0       jobs=0    busy_us=17           util=0.0556\n",
            "  server cfg1-0       jobs=7    busy_us=1017         util=0.1667\n",
            "  server cfg2-0       jobs=1    busy_us=2017         util=0.2778\n",
            "  server cfg3-0       jobs=8    busy_us=3017         util=0.3889\n",
            "  server cfg4-0       jobs=2    busy_us=4017         util=0.5000\n",
            "  server cfg0-1       jobs=9    busy_us=5017         util=0.6111\n",
            "  server cfg1-1       jobs=3    busy_us=6017         util=0.7222\n",
            "  server cfg2-1       jobs=10   busy_us=7017         util=0.8333\n",
        );
        assert_eq!(small.render(), [FULL_HEAD, servers].concat());
        let fleet = "  fleet: servers=8 jobs=40 busy_us=28136 mean_util=0.4444\n";
        assert_eq!(small.render_compact(), [FULL_HEAD, fleet].concat());
        let big = full_report(500);
        let fleet = "  fleet: servers=500 jobs=2991 busy_us=124758500 mean_util=0.4990\n";
        assert_eq!(big.render_compact(), [FULL_HEAD, fleet].concat());
        let full = big.render();
        assert!(full.starts_with(FULL_HEAD));
        assert_eq!(full.lines().count(), FULL_HEAD.lines().count() + 500);
        assert_eq!(
            full.lines().last(),
            Some("  server cfg4-99      jobs=9    busy_us=499017       util=0.9970")
        );
    }

    #[test]
    fn cache_and_rung_lines_render_only_when_present() {
        let base = dummy_report().render();
        assert!(!base.contains("cache:"));
        assert!(!base.contains("shed_by_rung"));
        let mut r = dummy_report();
        r.cache = Some(vtx_cache::CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        });
        r.shed_by_rung = vec![2, 0, 1];
        let text = r.render();
        assert!(text.contains("cache: hits=3 misses=1 hit_milli=750"));
        assert!(text.contains("shed_by_rung: r0=2 r1=0 r2=1"));
    }

    #[test]
    fn surge_lines_render_only_when_present() {
        let base = dummy_report().render();
        assert!(!base.contains("throttled="));
        assert!(!base.contains("shed_by_tenant"));
        assert!(!base.contains("scale:"));
        let mut r = dummy_report();
        r.shed[4] = 3;
        r.shed_by_tenant = vec![2, 1, 0];
        r.scale = Some(ScaleStats {
            scale_outs: 4,
            scale_ins: 2,
            peak_capacity_milli: 5_100,
            served_capacity_milli: 2_750,
            active_server_us: 9_000_000,
        });
        let text = r.render();
        assert!(text.contains("retries_exhausted=0 throttled=3"));
        assert!(text.contains("shed_by_tenant: t0=2 t1=1 t2=0"));
        assert!(text.contains(
            "scale: outs=4 ins=2 peak_capacity_milli=5100 served_capacity_milli=2750 active_server_us=9000000"
        ));
        // shed_total must include the throttled column.
        assert_eq!(r.shed_total(), 5);
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let mut r = dummy_report();
        r.offered = 0;
        r.completed = 0;
        assert_eq!(r.shed_rate(), 0.0);
        assert_eq!(r.violation_rate(), 0.0);
    }

    #[test]
    fn render_is_deterministic_and_complete() {
        let r = dummy_report();
        assert_eq!(r.render(), r.render());
        let text = r.render();
        assert!(text.contains("policy=smart"));
        assert!(text.contains("queue_full=1"));
        assert!(text.contains("interactive"));
        assert!(text.contains("server baseline-0"));
        assert!(text.contains("shed_rate=0.2000"));
        assert!(text.contains("availability=0.8750"));
        assert!(text.contains("goodput_jps=3.5000"));
        assert!(text.contains("mttr_us=500000"));
        assert!(text.contains("faults: crashes=1"));
        assert!(text.contains("requeued=2"));
    }
}
