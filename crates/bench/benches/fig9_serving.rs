//! Figure 9, extended from makespan to tail latency — the online serving
//! restatement of the scheduler comparison: random / round-robin / smart /
//! port-informed dispatch, judged on p50/p90/p99 sojourn time, shed rate
//! and SLO violations. The engine bills the port-refined cost, so the
//! `port` policy optimizes the true objective while `smart` optimizes a
//! port-blind approximation of it.
//!
//! One table of scenarios (name, fleet, trace, config, policies) defines
//! every row of `BENCH_serving.json`, and one pass runs it and writes the
//! file:
//!
//! * **baseline / faulted / segmented / cached**: the bundled open-loop
//!   workload on the Table IV fleet, then on an 8-way fleet that loses two
//!   servers at 30% of the run beside a 3x straggler, then cut into
//!   per-(segment, rung) units, then with Zipf popularity and a segment
//!   cache in front of the transcode path.
//! * **xl_smoke**: 500 servers / 20k jobs, the two-level cell dispatch the
//!   model-driven policies switch to at
//!   [`vtx_serve::cells::XL_FLEET_THRESHOLD`] servers and above.
//! * **surge_\***: a 12x flash crowd with and without the deterministic
//!   autoscaler, the same spike while servers die, a three-tenant mix held
//!   to per-tenant admission quotas, and the cost-of-capacity frontier
//!   over the autoscaler ceiling.
//!
//! The `fig9_xl` bench runs the 10k-server / 1M-job tier on its own.

use vtx_cache::{CacheSpec, EvictPolicy};
use vtx_obs::{BenchTrajectory, ObsConfig};
use vtx_serve::cells::{CellPlan, XL_FLEET_THRESHOLD};
use vtx_serve::chaos::{BreakerConfig, ChaosConfig};
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::queue::ShedReason;
use vtx_serve::report::{LatencyStats, ServingReport};
use vtx_serve::segment::{SegmentOptions, SegmentPlan};
use vtx_serve::service::{render_event_log, EventRecord, ServeConfig, TenantAdmissionConfig};
use vtx_serve::sim::{simulate_trace, SimOutcome};
use vtx_serve::workload::{JobSpec, WorkloadSpec};
use vtx_serve::ServeError;

const SEED: u64 = vtx_bench::SEED;
const ALL: &[&str] = &["random", "round_robin", "smart", "port"];
const SMART: &[&str] = &["smart"];

/// One pinned family of `BENCH_serving.json` rows: a trace on a fleet
/// under one config, run once per policy.
struct Scenario<'a> {
    name: String,
    fleet: Fleet,
    jobs: &'a [JobSpec],
    cfg: ServeConfig,
    policies: &'a [&'a str],
    /// The plan `jobs` are the units of, for segment stats.
    plan: Option<&'a SegmentPlan>,
}

impl<'a> Scenario<'a> {
    fn new(name: &str, fleet: Fleet, jobs: &'a [JobSpec], cfg: ServeConfig) -> Self {
        Scenario {
            name: name.to_owned(),
            fleet,
            jobs,
            cfg,
            policies: SMART,
            plan: None,
        }
    }

    fn all_policies(self) -> Self {
        Scenario {
            policies: ALL,
            ..self
        }
    }

    /// A scenario over `plan`'s units.
    fn on_plan(name: &str, fleet: Fleet, plan: &'a SegmentPlan, cfg: ServeConfig) -> Self {
        Scenario {
            plan: Some(plan),
            ..Scenario::new(name, fleet, &plan.units, cfg)
        }
    }

    /// One run per policy, in policy order.
    fn run(&self) -> Result<Vec<Run>, ServeError> {
        self.policies
            .iter()
            .map(|policy| {
                let start = std::time::Instant::now();
                let out = self.simulate(policy)?;
                let wall_ms = start.elapsed().as_millis() as u64;
                Ok(Run { out, wall_ms })
            })
            .collect()
    }

    fn simulate(&self, policy: &str) -> Result<SimOutcome, ServeError> {
        let policy = policy_by_name(policy, SEED).expect("known policy");
        let mut out = simulate_trace(
            self.jobs,
            SEED,
            self.fleet.clone(),
            policy,
            self.cfg.clone(),
        )?;
        if let Some(plan) = self.plan {
            out.report.segments = Some(plan.stats(&out.event_log));
        }
        Ok(out)
    }
}

/// One scenario × policy run with its wall time.
struct Run {
    out: SimOutcome,
    wall_ms: u64,
}

/// The last arrival of a trace (at least 1 µs): the horizon fault plans
/// place their crashes against.
fn horizon(jobs: &[JobSpec]) -> u64 {
    jobs.iter().map(|j| j.arrival_us).max().unwrap_or(0).max(1)
}

/// Kill two of eight at 30% of `jobs`' horizon plus one 3x straggler.
fn kill_two(jobs: &[JobSpec]) -> ChaosConfig {
    ChaosConfig::kill_two_straggle_one(SEED, 8, horizon(jobs))
}

/// The first 60 jobs of `spec`'s trace cut into ~100 ms units across the
/// standard 3-rung ladder.
fn plan_60(spec: &WorkloadSpec) -> Result<SegmentPlan, Box<dyn std::error::Error>> {
    let opts = SegmentOptions {
        target_ms: 100,
        ..SegmentOptions::default()
    };
    Ok(SegmentPlan::expand(&spec.generate()?[..60], &opts)?)
}

/// A cached segmented run's config: the plan's units under [`kill_two`],
/// all four unit tables filled, `cache` in front of the transcode path.
fn cached_cfg(plan: &SegmentPlan, cache: Option<CacheSpec>) -> ServeConfig {
    let mut cfg = ServeConfig {
        chaos: kill_two(&plan.units),
        cache,
        ..ServeConfig::default()
    };
    plan.fill_unit_tables(&mut cfg);
    cfg
}

fn cache(capacity_bytes: u64, policy: EvictPolicy) -> Option<CacheSpec> {
    Some(CacheSpec {
        capacity_bytes,
        policy,
        lookup_us: 250,
    })
}

/// Bytes of the distinct artifacts a plan's trace requests — the "hot set"
/// a perfectly sized cache would hold exactly once. Distinctness matches
/// the cache key: (video, preset, crf, refs, rung, seg).
fn hot_set_bytes(plan: &SegmentPlan, unit_bytes: &[u64]) -> u64 {
    let mut uniq: std::collections::BTreeMap<(String, String, u8, u8, u64, u64), u64> =
        std::collections::BTreeMap::new();
    for (i, u) in plan.units.iter().enumerate() {
        uniq.insert(
            (
                u.task.video.to_string(),
                u.task.preset.name().to_owned(),
                u.task.crf,
                u.task.refs,
                plan.meta[i].rung as u64,
                plan.meta[i].seg as u64,
            ),
            unit_bytes[i],
        );
    }
    uniq.values().sum()
}

/// Sojourns of completed jobs whose *arrival* fell in `[from_us, to_us)`,
/// read off the deterministic event log.
fn sojourns_by_arrival(out: &SimOutcome, arrivals: &[u64], from_us: u64, to_us: u64) -> Vec<u64> {
    out.event_log
        .iter()
        .filter_map(|e| match e {
            EventRecord::Complete { id, sojourn_us, .. } => {
                let arr = arrivals[*id as usize];
                (arr >= from_us && arr < to_us).then_some(*sojourn_us)
            }
            _ => None,
        })
        .collect()
}

fn p99(samples: &[u64]) -> u64 {
    LatencyStats::from_samples(samples).p99_us
}

/// The earliest post-spike arrival instant from which completed-job p99
/// stays within `limit_milli`/1000 of the pre-spike p99 — the trace's
/// time-to-recover. `None` when the tail never gets back under the bar.
fn recovery_point(
    out: &SimOutcome,
    arrivals: &[u64],
    spike_end_us: u64,
    pre_p99_us: u64,
    limit_milli: u64,
) -> Option<u64> {
    let bar = pre_p99_us.saturating_mul(limit_milli) / 1000;
    let mut candidates: Vec<u64> = arrivals
        .iter()
        .copied()
        .filter(|&a| a >= spike_end_us)
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    candidates.into_iter().find(|&t| {
        let tail = sojourns_by_arrival(out, arrivals, t, u64::MAX);
        !tail.is_empty() && p99(&tail) <= bar
    })
}

fn reports(runs: &[Run]) -> Vec<&ServingReport> {
    runs.iter().map(|r| &r.out.report).collect()
}

fn pct(a: u64, b: u64) -> f64 {
    (a as f64 / b as f64 - 1.0) * 100.0
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- traces and plans ---------------------------------------------
    let workload = WorkloadSpec::bundled(SEED);
    let jobs = workload.generate()?;
    let plan = plan_60(&workload)?;
    let cplan = plan_60(&WorkloadSpec::bundled(SEED).with_popularity(1.0, 0.3))?;
    let unit_bytes = cplan.unit_bytes()?;
    let offered_bytes: u64 = unit_bytes.iter().sum();
    let capacity = offered_bytes / 10;
    let xl_spec = WorkloadSpec::xl_smoke(SEED);
    let xl_jobs = xl_spec.generate()?;
    // The flash crowd: the bundled 12x spike shape, but 400 jobs so ~100
    // of them arrive in the quiet tail after the spike — enough post-spike
    // mass to measure recovery, not just survival.
    let flash = WorkloadSpec {
        jobs: 400,
        ..WorkloadSpec::flash_crowd(SEED)
    };
    let flash_jobs = flash.generate()?;
    let tenant_workload = WorkloadSpec::multi_tenant(SEED);
    let tenant_jobs = tenant_workload.generate()?;

    // ---- the table: every BENCH_serving.json row ----------------------
    let overload = |min, max| ServeConfig {
        chaos: ChaosConfig::default().with_overload(min, max),
        ..ServeConfig::default()
    };
    let mut scenarios = vec![
        Scenario::new("baseline", Fleet::table_iv(), &jobs, ServeConfig::default()).all_policies(),
        Scenario::new(
            "faulted",
            Fleet::sized(8)?,
            &jobs,
            ServeConfig {
                chaos: kill_two(&jobs),
                ..ServeConfig::default()
            },
        )
        .all_policies(),
        Scenario::on_plan(
            "segmented",
            Fleet::sized(8)?,
            &plan,
            ServeConfig {
                chaos: kill_two(&plan.units),
                unit_frames: plan.unit_frames(),
                ..ServeConfig::default()
            },
        )
        .all_policies(),
        Scenario::on_plan(
            "cached",
            Fleet::sized(8)?,
            &cplan,
            cached_cfg(&cplan, cache(capacity, EvictPolicy::Gdsf)),
        )
        .all_policies(),
        Scenario::new("xl_smoke", Fleet::sized(500)?, &xl_jobs, ServeConfig::xl()).all_policies(),
        // The flash fleet is 10 Table IV servers (two grades of each
        // config). At the 2 Hz base rate, 4 servers run ~85% utilized — the
        // autoscaler's rest state. The static controls bracket it: what
        // you paid for at rest, crushed by the spike, and the always-on
        // overprovisioned upper bound.
        Scenario::new(
            "surge_flash_static",
            Fleet::sized(4)?,
            &flash_jobs,
            ServeConfig::default(),
        ),
        Scenario::new(
            "surge_flash_full",
            Fleet::sized(10)?,
            &flash_jobs,
            ServeConfig::default(),
        ),
        Scenario::new(
            "surge_flash_auto",
            Fleet::sized(10)?,
            &flash_jobs,
            overload(4, 10),
        ),
        Scenario::new(
            "surge_faults",
            Fleet::sized(8)?,
            &flash_jobs,
            ServeConfig {
                chaos: ChaosConfig {
                    breaker: BreakerConfig {
                        enabled: true,
                        ..BreakerConfig::default()
                    },
                    ..kill_two(&flash_jobs)
                }
                .with_overload(4, 8),
                ..ServeConfig::default()
            },
        ),
        Scenario::new(
            "surge_tenants",
            Fleet::table_iv(),
            &tenant_jobs,
            ServeConfig {
                tenants: TenantAdmissionConfig::for_workload(&tenant_workload),
                ..ServeConfig::default()
            },
        ),
    ];
    // The frontier reads only the reports, so its runs drop the
    // observability plane.
    const CEILINGS: [usize; 4] = [4, 6, 8, 10];
    for max in CEILINGS {
        let cfg = ServeConfig {
            obs: ObsConfig::disabled(),
            ..overload(4, max)
        };
        let name = format!("surge_cap{max}");
        scenarios.push(Scenario::new(&name, Fleet::sized(10)?, &flash_jobs, cfg));
    }
    let table = scenarios
        .into_iter()
        .map(|s| Ok((s.run()?, s)))
        .collect::<Result<Vec<_>, ServeError>>()?;
    let find = |name: &str| -> (&[Run], &Scenario) {
        let (runs, s) = table
            .iter()
            .find(|(_, s)| s.name == name)
            .expect("scenario in the table");
        (runs, s)
    };
    let runs_of = |name: &str| find(name).0;
    // The outcome of a one-policy scenario.
    let smart_of = |name: &str| &find(name).0[0].out;

    // ---- baseline -----------------------------------------------------
    vtx_bench::banner("Figure 9 (serving): dispatch policies on tail latency");
    println!(
        "workload: {} jobs, {} Hz open-loop arrivals, {} videos, Table IV fleet\n",
        workload.jobs,
        workload.arrival_rate_hz,
        workload.videos.len()
    );
    let baseline = reports(runs_of("baseline"));
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "policy", "p50_ms", "p90_ms", "p99_ms", "tput", "shed%", "viol%"
    );
    for r in &baseline {
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>8.2} {:>8.2} {:>8.2}",
            r.policy,
            r.sojourn.p50_us as f64 / 1e3,
            r.sojourn.p90_us as f64 / 1e3,
            r.sojourn.p99_us as f64 / 1e3,
            r.throughput_jps,
            r.shed_rate() * 100.0,
            r.violation_rate() * 100.0
        );
    }
    let (random, smart, port) = (baseline[0], baseline[2], baseline[3]);
    println!(
        "\nsmart over random: p99 {:+.1} %, mean {:+.1} %",
        pct(smart.sojourn.p99_us, random.sojourn.p99_us),
        pct(smart.sojourn.mean_us, random.sojourn.mean_us)
    );
    println!(
        "port over smart:  p99 {:+.1} %, mean {:+.1} %",
        pct(port.sojourn.p99_us, smart.sojourn.p99_us),
        pct(port.sojourn.mean_us, smart.sojourn.mean_us)
    );
    assert!(
        smart.sojourn.p99_us < random.sojourn.p99_us,
        "characterization-driven dispatch must beat random on p99 sojourn"
    );
    assert!(
        port.sojourn.p99_us <= smart.sojourn.p99_us,
        "port-informed dispatch must be no worse than smart on p99 sojourn \
         ({} vs {})",
        port.sojourn.p99_us,
        smart.sojourn.p99_us
    );

    // ---- faulted: kill 2 of 8 + straggler -----------------------------
    // The placement claim must survive fault injection, and the chaos
    // columns (availability / goodput / MTTR) must be a pure function of
    // the seed.
    vtx_bench::banner("Figure 9 (serving, faulted): kill 2 of 8 + straggler");
    let faulted = reports(runs_of("faulted"));
    println!(
        "{:<12} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "policy", "p99_ms", "tput", "goodput", "avail%", "requeue", "mttr_ms"
    );
    for r in &faulted {
        println!(
            "{:<12} {:>10.1} {:>8.2} {:>8.2} {:>8.2} {:>8} {:>10.1}",
            r.policy,
            r.sojourn.p99_us as f64 / 1e3,
            r.throughput_jps,
            r.goodput_jps,
            r.availability * 100.0,
            r.faults.requeued,
            r.mttr_us as f64 / 1e3
        );
    }
    let (f_random, f_smart) = (faulted[0], faulted[2]);
    println!(
        "\nsmart over random (faulted): p99 {:+.1} %",
        pct(f_smart.sojourn.p99_us, f_random.sojourn.p99_us)
    );
    assert!(
        f_smart.sojourn.p99_us < f_random.sojourn.p99_us,
        "health-aware smart dispatch must beat random on p99 even under \
         faults ({} vs {})",
        f_smart.sojourn.p99_us,
        f_random.sojourn.p99_us
    );
    for r in &faulted {
        assert_eq!(
            r.completed + r.shed_total(),
            r.offered,
            "{}: every admitted job must reach exactly one terminal state",
            r.policy
        );
        assert_eq!(r.faults.crashes, 2, "{}: two crashes injected", r.policy);
    }

    // ---- segmented: per-(segment, rung) units under the same faults ---
    // Losing a server now requeues ~one segment's worth of work instead of
    // whole clips, so the faulted tail shrinks.
    vtx_bench::banner("Figure 9 (serving, segmented): per-(segment, rung) units under faults");
    println!(
        "{} catalog jobs -> {} units ({} rungs, target {} ms)\n",
        plan.parents.len(),
        plan.units.len(),
        plan.ladder.rungs.len(),
        plan.target_ms
    );
    let segmented = reports(runs_of("segmented"));
    println!(
        "{:<12} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "policy", "p99_ms", "requeue", "units", "manifests", "avail%"
    );
    for r in &segmented {
        let s = r.segments.as_ref().expect("segment stats attached");
        println!(
            "{:<12} {:>10.1} {:>8} {:>7}/{:<3} {:>6}/{:<3} {:>8.2}",
            r.policy,
            r.sojourn.p99_us as f64 / 1e3,
            r.faults.requeued,
            s.units_complete,
            s.units,
            s.parents_complete,
            s.parents,
            r.availability * 100.0
        );
    }
    for r in &segmented {
        let s = r.segments.as_ref().expect("segment stats attached");
        assert_eq!(
            r.completed + r.shed_total(),
            r.offered,
            "{}: segmented conservation — every unit reaches one terminal state",
            r.policy
        );
        assert_eq!(s.units, r.offered, "{}: every unit was offered", r.policy);
        assert!(
            s.parents_complete > 0,
            "{}: some manifests must assemble even under faults",
            r.policy
        );
    }

    // ---- cached: popularity-aware segment cache -----------------------
    // Arrivals follow a Zipf(1.0) popularity model over the catalog (hot
    // videos repeat, live requests pin the fast knob vector) and a
    // byte-bounded segment cache fronts the transcode path. Capacity is
    // ~10% of the offered bytes, so eviction policy actually matters. The
    // economics claim: at Zipf skew, a small cache converts repeat
    // transcodes into sub-millisecond lookups, and smart dispatch with a
    // cache strictly beats the same uncached faulted run on both p99
    // sojourn and goodput.
    vtx_bench::banner("Figure 9 (serving, cached): popularity-aware segment cache");
    println!(
        "{} Zipf(1.0) jobs -> {} units, hot set {} KiB of {} KiB offered, \
         cache {} KiB (~10% of offered)\n",
        cplan.parents.len(),
        cplan.units.len(),
        hot_set_bytes(&cplan, &unit_bytes) >> 10,
        offered_bytes >> 10,
        capacity >> 10
    );
    // The uncached control: identical trace, faults and unit tables.
    let uncached_cfg = cached_cfg(&cplan, None);
    let uncached = Scenario::on_plan("uncached", Fleet::sized(8)?, &cplan, uncached_cfg)
        .simulate("smart")?
        .report;
    let cached = reports(runs_of("cached"));
    println!(
        "{:<12} {:>8} {:>10} {:>8} {:>8} {:>10}",
        "policy", "hit%", "p99_ms", "goodput", "evict", "shed_rung0"
    );
    for r in &cached {
        let c = r.cache.as_ref().expect("cache stats attached");
        println!(
            "{:<12} {:>8.1} {:>10.1} {:>8.2} {:>8} {:>10}",
            r.policy,
            c.hit_milli() as f64 / 10.0,
            r.sojourn.p99_us as f64 / 1e3,
            r.goodput_jps,
            c.evictions,
            r.shed_by_rung.first().copied().unwrap_or(0)
        );
    }
    let c_smart = cached[2];
    let c_stats = c_smart.cache.as_ref().expect("cache stats attached");
    println!(
        "\nsmart cached vs uncached: p99 {:+.1} %, goodput {:+.1} %, hit rate {:.1} %",
        pct(c_smart.sojourn.p99_us, uncached.sojourn.p99_us),
        (c_smart.goodput_jps / uncached.goodput_jps - 1.0) * 100.0,
        c_stats.hit_milli() as f64 / 10.0
    );
    assert!(
        c_stats.hit_milli() >= 400,
        "Zipf(1.0) at ~10% hot-set capacity must land >= 40% hits, got {} milli",
        c_stats.hit_milli()
    );
    assert!(
        c_smart.sojourn.p99_us < uncached.sojourn.p99_us,
        "cached smart must strictly beat the uncached faulted baseline on \
         p99 sojourn ({} vs {})",
        c_smart.sojourn.p99_us,
        uncached.sojourn.p99_us
    );
    assert!(
        c_smart.goodput_jps > uncached.goodput_jps,
        "cached smart must strictly beat the uncached faulted baseline on \
         goodput ({} vs {})",
        c_smart.goodput_jps,
        uncached.goodput_jps
    );
    for r in &cached {
        assert_eq!(
            r.completed + r.shed_total(),
            r.offered,
            "{}: cached conservation — hits and transcodes both terminate",
            r.policy
        );
    }

    // Cache-economics sweep: Zipf skew × capacity × eviction policy under
    // smart dispatch. Hit rate rises with skew and capacity; GDSF protects
    // costly-to-recompute artifacts when capacity is scarce.
    vtx_bench::banner("Cache economics: Zipf skew x capacity x eviction policy");
    println!(
        "{:>6} {:>6} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "zipf", "cap%", "policy", "hit%", "p99_ms", "goodput", "evict"
    );
    for &s in &[0.8, 1.0, 1.2] {
        let splan = plan_60(&WorkloadSpec::bundled(SEED).with_popularity(s, 0.3))?;
        let offered: u64 = splan.unit_bytes()?.iter().sum();
        for &cap_pct in &[5u64, 10, 20] {
            for evict in EvictPolicy::ALL {
                let cfg = cached_cfg(&splan, cache(offered * cap_pct / 100, evict));
                let r = Scenario::on_plan("sweep", Fleet::sized(8)?, &splan, cfg)
                    .simulate("smart")?
                    .report;
                let c = r.cache.as_ref().expect("cache stats");
                println!(
                    "{:>6.1} {:>6} {:>8} {:>8.1} {:>8.1} {:>10.2} {:>8}",
                    s,
                    cap_pct,
                    evict.name(),
                    c.hit_milli() as f64 / 10.0,
                    r.sojourn.p99_us as f64 / 1e3,
                    r.goodput_jps,
                    c.evictions
                );
            }
        }
    }
    vtx_bench::save_artifact("fig9_serving", &baseline);
    vtx_bench::save_artifact("fig9_serving_faulted", &faulted);
    vtx_bench::save_artifact("fig9_serving_segmented", &segmented);
    vtx_bench::save_artifact("fig9_serving_cached", &cached);

    // ---- xl_smoke: two-level cell dispatch at 500 servers -------------
    vtx_bench::banner("Figure 9 (serving, XL): two-level cell dispatch at fleet scale");
    let (smoke, xl) = find("xl_smoke");
    println!(
        "xl_smoke: {} jobs, {} Hz arrivals, {} servers, {} cells\n",
        xl_spec.jobs,
        xl_spec.arrival_rate_hz,
        xl.fleet.len(),
        CellPlan::build(xl.fleet.len(), 0, SEED).n_cells()
    );
    vtx_bench::print_xl_table(smoke.iter().map(|r| (&r.out.report, r.wall_ms)));
    let (random, smart) = (&smoke[0].out.report, &smoke[2].out.report);
    assert!(
        smart.sojourn.p99_us < random.sojourn.p99_us,
        "two-level cell dispatch must beat random on p99 at XL scale \
         ({} vs {})",
        smart.sojourn.p99_us,
        random.sojourn.p99_us
    );
    for r in reports(smoke) {
        assert_eq!(
            r.completed + r.shed_total(),
            r.offered,
            "{}: XL conservation — every job reaches one terminal state",
            r.policy
        );
    }
    // Same-seed rerun of the smart scenario: the serving engine is meant
    // to be byte-deterministic, so the two reports must match exactly.
    let rerun = xl.simulate("smart")?;
    assert_eq!(
        format!("{:?}", smart),
        format!("{:?}", rerun.report),
        "same-seed xl_smoke reruns must print identically"
    );
    println!("\n[determinism] smart xl_smoke rerun is byte-identical");

    // ---- surge: flash crowd, static controls vs autoscaled ------------
    vtx_bench::banner("Figure 9 (surge): flash crowd, overload control, autoscaling");
    let arrivals: Vec<u64> = flash_jobs.iter().map(|j| j.arrival_us).collect();
    let (spike_start, spike_end) = flash
        .scenario
        .as_ref()
        .expect("flash scenario attached")
        .shape
        .flash_window_us()
        .expect("flash shape");
    let in_spike = arrivals
        .iter()
        .filter(|&&a| a >= spike_start && a < spike_end)
        .count();
    println!(
        "workload: {} jobs, 12x spike {:.0}-{:.0} s ({} jobs in spike), Table IV fleet\n",
        flash_jobs.len(),
        spike_start as f64 / 1e6,
        spike_end as f64 / 1e6,
        in_spike
    );
    assert!(in_spike >= 200, "the spike must carry >= 200 jobs");
    let flash_runs = [
        ("flash_static4", smart_of("surge_flash_static")),
        ("flash_static10", smart_of("surge_flash_full")),
        ("flash_autoscaled", smart_of("surge_flash_auto")),
    ];
    let [(_, static_min), (_, control), (_, auto)] = flash_runs;
    println!(
        "{:<18} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scenario", "p99_ms", "done", "shed", "avail%", "goodput", "scale"
    );
    for (name, out) in flash_runs {
        let r = &out.report;
        println!(
            "{:<18} {:>10.1} {:>8} {:>8} {:>8.2} {:>8.2} {:>8}",
            name,
            r.sojourn.p99_us as f64 / 1e3,
            r.completed,
            r.shed_total(),
            r.availability * 100.0,
            r.goodput_jps,
            r.scale.map_or("static".to_owned(), |s| format!(
                "+{}/-{}",
                s.scale_outs, s.scale_ins
            )),
        );
    }
    for (name, out) in flash_runs {
        let r = &out.report;
        assert_eq!(
            r.completed + r.shed_total(),
            r.offered,
            "{name}: every job reaches exactly one terminal state"
        );
        let stats = out.obs.tracker().check_conservation()?;
        assert_eq!(stats.arrived, r.offered, "{name}: trace-level conservation");
        assert_eq!(stats.completed, r.completed, "{name}");
    }
    assert!(
        auto.report.availability >= control.report.availability,
        "autoscaled flash crowd must keep availability >= the static control \
         ({} vs {})",
        auto.report.availability,
        control.report.availability
    );
    assert!(
        auto.report.completed > static_min.report.completed,
        "growing past the rest-state fleet must complete more of the spike \
         ({} vs {})",
        auto.report.completed,
        static_min.report.completed
    );
    let scale = auto.report.scale.expect("autoscale stats exported");
    assert!(scale.scale_outs > 0, "a 12x spike must trigger scale-out");

    // Recovery: p99 of completed jobs arriving after the spike must come
    // back within 1.5x of the pre-spike p99 somewhere inside the trace.
    let pre_p99 = p99(&sojourns_by_arrival(auto, &arrivals, 0, spike_start));
    let recovered_at = recovery_point(auto, &arrivals, spike_end, pre_p99, 1_500)
        .expect("autoscaled p99 must recover to within 1.5x of pre-spike inside the trace");
    println!(
        "\npre-spike p99 {:.1} ms; autoscaled tail p99 back under 1.5x at t={:.1} s \
         (time-to-recover {:.1} s after spike end)",
        pre_p99 as f64 / 1e3,
        recovered_at as f64 / 1e6,
        recovered_at.saturating_sub(spike_end) as f64 / 1e6
    );

    // Same-seed rerun of the autoscaled scenario: byte-identical, event
    // log included — a cheap in-process check ahead of CI's two-run cmp.
    let rerun = find("surge_flash_auto").1.simulate("smart")?;
    assert_eq!(
        format!("{:?}", auto.report),
        format!("{:?}", rerun.report),
        "same-seed autoscaled reruns must print identically"
    );
    assert_eq!(
        render_event_log(&auto.event_log),
        render_event_log(&rerun.event_log),
        "same-seed autoscaled reruns must log identically"
    );
    println!("[determinism] autoscaled flash rerun is byte-identical");

    // ---- surge x faults: the spike lands while servers die ------------
    vtx_bench::banner("Figure 9 (surge x faults): flash crowd + kill 2 of 8");
    let surge_faulted = smart_of("surge_faults");
    let r = &surge_faulted.report;
    println!(
        "p99 {:.1} ms, completed {}/{}, shed {}, avail {:.2}%, requeued {}, \
         scale +{}/-{}",
        r.sojourn.p99_us as f64 / 1e3,
        r.completed,
        r.offered,
        r.shed_total(),
        r.availability * 100.0,
        r.faults.requeued,
        r.scale.map_or(0, |s| s.scale_outs),
        r.scale.map_or(0, |s| s.scale_ins),
    );
    assert_eq!(r.completed + r.shed_total(), r.offered);
    assert_eq!(r.faults.crashes, 2, "two crashes injected");
    // Exactly-once under surge x faults, proven from the obs trace.
    let stats = surge_faulted.obs.tracker().check_conservation()?;
    assert_eq!(stats.arrived, r.offered);
    assert_eq!(stats.completed, r.completed);
    assert!(
        r.completed > 0,
        "the fleet keeps serving through spike + crashes"
    );
    let rerun = find("surge_faults").1.simulate("smart")?;
    assert_eq!(
        format!("{:?}", r),
        format!("{:?}", rerun.report),
        "same-seed surge x faults reruns must print identically"
    );
    println!("[determinism] surge x faults rerun is byte-identical");

    // ---- multi-tenant quotas: fair shedding by token bucket -----------
    vtx_bench::banner("Figure 9 (surge, tenants): 3-tenant mix under admission quotas");
    let r = &smart_of("surge_tenants").report;
    let n_tenants = tenant_workload
        .scenario
        .as_ref()
        .map_or(0, |s| s.tenants.len());
    let throttled = r.shed[ShedReason::Throttled as usize];
    println!(
        "offered {} over {} tenants: throttled {}, shed_by_tenant {:?}",
        r.offered, n_tenants, throttled, r.shed_by_tenant
    );
    assert_eq!(r.completed + r.shed_total(), r.offered);
    assert!(
        throttled > 0,
        "tenant 0 offers 1.2 Hz against a 0.8 Hz quota — the bucket must bite"
    );
    assert_eq!(r.shed_by_tenant.len(), n_tenants);
    let max_shed = r.shed_by_tenant.iter().copied().max().unwrap_or(0);
    assert_eq!(
        r.shed_by_tenant.first().copied().unwrap_or(0),
        max_shed,
        "the over-quota tenant must absorb the most shedding"
    );

    // ---- cost of capacity: autoscaler ceiling vs SLO attainment -------
    vtx_bench::banner("Cost of capacity: autoscaler ceiling on the flash crowd");
    println!(
        "{:>4} {:>10} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "max", "p99_ms", "done", "shed", "attain%", "peak_cap", "served_cap"
    );
    let frontier: Vec<&ServingReport> = CEILINGS
        .iter()
        .map(|max| &smart_of(&format!("surge_cap{max}")).report)
        .collect();
    for (max, r) in CEILINGS.iter().zip(&frontier) {
        let s = r.scale.expect("autoscale stats");
        let attained = r.completed.saturating_sub(r.slo_violations);
        println!(
            "{:>4} {:>10.1} {:>8} {:>8} {:>10.2} {:>10} {:>10}",
            max,
            r.sojourn.p99_us as f64 / 1e3,
            r.completed,
            r.shed_total(),
            attained as f64 * 100.0 / r.offered as f64,
            s.peak_capacity_milli,
            s.served_capacity_milli,
        );
    }
    // More headroom never costs completions, and paid-for (served)
    // capacity grows with the ceiling — the frontier is real.
    for w in frontier.windows(2) {
        assert!(
            w[1].completed >= w[0].completed,
            "raising the autoscale ceiling must not lose completions"
        );
    }
    let served = |r: &ServingReport| r.scale.map(|s| s.served_capacity_milli);
    assert!(
        served(frontier[CEILINGS.len() - 1]) > served(frontier[0]),
        "a taller ceiling must serve more capacity-time"
    );
    vtx_bench::save_artifact(
        "fig9_surge_flash",
        &[&static_min.report, &control.report, &auto.report],
    );
    vtx_bench::save_artifact("fig9_surge_frontier", &frontier);

    // ---- the trajectory: one row per (scenario, policy) ---------------
    // Every field integral, schema-validated before it is written. CI
    // regenerates this file and byte-compares it against the committed
    // BENCH_serving.json.
    let mut traj = BenchTrajectory::new("fig9_serving");
    for (runs, s) in &table {
        let n = s.fleet.len();
        let cells = if n >= XL_FLEET_THRESHOLD {
            CellPlan::build(n, s.cfg.cells, SEED).n_cells() as u64
        } else {
            0
        };
        let segments = s.plan.map_or(0, |p| p.units.len() as u64);
        for run in runs {
            let alerts = run.out.obs.alerts().len() as u64;
            traj.push(run.out.report.trajectory_row(
                &s.name,
                n as u64,
                cells,
                segments,
                alerts,
                run.wall_ms,
            ));
        }
    }
    let json = traj.to_json();
    BenchTrajectory::validate_str(&json).expect("trajectory validates against its own schema");
    let path = vtx_bench::results_dir().join("BENCH_serving.json");
    std::fs::write(&path, &json)?;
    println!("\n[artifact] {}", path.display());
    Ok(())
}
