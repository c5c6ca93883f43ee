//! Figure 9, extended from makespan to tail latency — the online serving
//! restatement of the scheduler comparison: random / round-robin / smart /
//! port-informed dispatch over the bundled open-loop workload on the
//! Table IV fleet, judged on p50/p90/p99 sojourn time, shed rate and SLO
//! violations. The engine bills the port-refined cost, so the `port`
//! policy optimizes the true objective while `smart` optimizes a
//! port-blind approximation of it.

use vtx_obs::BenchTrajectory;
use vtx_serve::chaos::ChaosConfig;
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::report::ServingReport;
use vtx_serve::segment::{SegmentOptions, SegmentPlan};
use vtx_serve::service::ServeConfig;
use vtx_serve::sim::{simulate, simulate_trace};
use vtx_serve::workload::WorkloadSpec;

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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Figure 9 (serving): dispatch policies on tail latency");
    let workload = WorkloadSpec::bundled(vtx_bench::SEED);
    println!(
        "workload: {} jobs, {} Hz open-loop arrivals, {} videos, Table IV fleet\n",
        workload.jobs,
        workload.arrival_rate_hz,
        workload.videos.len()
    );

    let mut reports: Vec<ServingReport> = Vec::new();
    let mut alert_counts: Vec<u64> = Vec::new();
    let mut walls: Vec<u64> = Vec::new();
    for name in ["random", "round_robin", "smart", "port"] {
        let policy = policy_by_name(name, workload.seed).expect("known policy");
        let start = std::time::Instant::now();
        let out = simulate(&workload, Fleet::table_iv(), policy, ServeConfig::default())?;
        walls.push(start.elapsed().as_millis() as u64);
        alert_counts.push(out.obs.alerts().len() as u64);
        reports.push(out.report);
    }

    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "policy", "p50_ms", "p90_ms", "p99_ms", "tput", "shed%", "viol%"
    );
    for r in &reports {
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

    let random = &reports[0];
    let smart = &reports[2];
    let port = &reports[3];
    println!(
        "\nsmart over random: p99 {:+.1} %, mean {:+.1} %",
        (smart.sojourn.p99_us as f64 / random.sojourn.p99_us as f64 - 1.0) * 100.0,
        (smart.sojourn.mean_us as f64 / random.sojourn.mean_us as f64 - 1.0) * 100.0
    );
    println!(
        "port over smart:  p99 {:+.1} %, mean {:+.1} %",
        (port.sojourn.p99_us as f64 / smart.sojourn.p99_us as f64 - 1.0) * 100.0,
        (port.sojourn.mean_us as f64 / smart.sojourn.mean_us as f64 - 1.0) * 100.0
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

    // Faulted restatement: same policies, 8-way fleet, two servers killed
    // at 30% of the run plus one 3x fail-slow straggler. The placement
    // claim must survive fault injection, and the chaos columns
    // (availability / goodput / MTTR) must be a pure function of the seed.
    vtx_bench::banner("Figure 9 (serving, faulted): kill 2 of 8 + straggler");
    let jobs = workload.generate()?;
    let horizon = jobs.iter().map(|j| j.arrival_us).max().unwrap_or(0);
    let mut faulted: Vec<ServingReport> = Vec::new();
    let mut f_alert_counts: Vec<u64> = Vec::new();
    let mut f_walls: Vec<u64> = Vec::new();
    for name in ["random", "round_robin", "smart", "port"] {
        let policy = policy_by_name(name, workload.seed).expect("known policy");
        let cfg = ServeConfig {
            chaos: ChaosConfig::kill_two_straggle_one(workload.seed, 8, horizon),
            ..ServeConfig::default()
        };
        let start = std::time::Instant::now();
        let out = simulate_trace(&jobs, workload.seed, Fleet::sized(8)?, policy, cfg)?;
        f_walls.push(start.elapsed().as_millis() as u64);
        f_alert_counts.push(out.obs.alerts().len() as u64);
        faulted.push(out.report);
    }

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

    let f_random = &faulted[0];
    let f_smart = &faulted[2];
    println!(
        "\nsmart over random (faulted): p99 {:+.1} %",
        (f_smart.sojourn.p99_us as f64 / f_random.sojourn.p99_us as f64 - 1.0) * 100.0
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

    // Segmented restatement: the same faulted fleet and fault plan, but the
    // first 60 catalog jobs decompose into per-(segment, rung) dispatch
    // units across the standard 3-rung ladder. The comparison the paper's
    // workload motivates: losing a server now requeues ~one segment's worth
    // of work instead of whole clips, so the faulted tail shrinks.
    vtx_bench::banner("Figure 9 (serving, segmented): per-(segment, rung) units under faults");
    let parents: Vec<_> = jobs.iter().take(60).cloned().collect();
    let seg_opts = SegmentOptions {
        target_ms: 100,
        ..SegmentOptions::default()
    };
    let plan = SegmentPlan::expand(&parents, &seg_opts)?;
    let seg_horizon = plan
        .units
        .iter()
        .map(|u| u.arrival_us)
        .max()
        .unwrap_or(0)
        .max(1);
    println!(
        "{} catalog jobs -> {} units ({} rungs, target {} ms)\n",
        plan.parents.len(),
        plan.units.len(),
        plan.ladder.rungs.len(),
        plan.target_ms
    );
    let mut segmented: Vec<ServingReport> = Vec::new();
    let mut s_alert_counts: Vec<u64> = Vec::new();
    let mut s_walls: Vec<u64> = Vec::new();
    for name in ["random", "round_robin", "smart", "port"] {
        let policy = policy_by_name(name, workload.seed).expect("known policy");
        let cfg = ServeConfig {
            chaos: ChaosConfig::kill_two_straggle_one(workload.seed, 8, seg_horizon),
            unit_frames: plan.unit_frames(),
            ..ServeConfig::default()
        };
        let start = std::time::Instant::now();
        let out = simulate_trace(&plan.units, workload.seed, Fleet::sized(8)?, policy, cfg)?;
        s_walls.push(start.elapsed().as_millis() as u64);
        s_alert_counts.push(out.obs.alerts().len() as u64);
        let mut report = out.report;
        report.segments = Some(plan.stats(&out.event_log));
        segmented.push(report);
    }

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

    // Cached restatement: the same faulted segmented fleet, but arrivals
    // follow a Zipf(1.0) popularity model over the catalog (hot videos
    // repeat, live requests pin the fast knob vector) and a byte-bounded
    // segment cache fronts the transcode path. Capacity is ~10% of the
    // hot set (the bytes of the distinct artifacts the trace requests),
    // so eviction policy actually matters. The economics claim: at Zipf
    // skew, a small cache converts repeat transcodes into sub-millisecond
    // lookups, and smart dispatch with a cache strictly beats the same
    // uncached faulted run on both p99 sojourn and goodput.
    vtx_bench::banner("Figure 9 (serving, cached): popularity-aware segment cache");
    let pop_workload = WorkloadSpec::bundled(workload.seed).with_popularity(1.0, 0.3);
    let pop_jobs = pop_workload.generate()?;
    let pop_parents: Vec<_> = pop_jobs.iter().take(60).cloned().collect();
    let cplan = SegmentPlan::expand(&pop_parents, &seg_opts)?;
    let c_horizon = cplan
        .units
        .iter()
        .map(|u| u.arrival_us)
        .max()
        .unwrap_or(0)
        .max(1);
    let unit_bytes = cplan.unit_bytes()?;
    let hot_bytes = hot_set_bytes(&cplan, &unit_bytes);
    let offered_bytes: u64 = unit_bytes.iter().sum();
    let capacity = offered_bytes / 10;
    println!(
        "{} Zipf(1.0) jobs -> {} units, hot set {} KiB of {} KiB offered, \
         cache {} KiB (~10% of offered)\n",
        cplan.parents.len(),
        cplan.units.len(),
        hot_bytes >> 10,
        offered_bytes >> 10,
        capacity >> 10
    );

    let cached_cfg = |cache: Option<vtx_cache::CacheSpec>| ServeConfig {
        chaos: ChaosConfig::kill_two_straggle_one(workload.seed, 8, c_horizon),
        unit_frames: cplan.unit_frames(),
        unit_rungs: cplan.unit_rungs(),
        unit_segs: cplan.unit_segs(),
        unit_bytes: unit_bytes.clone(),
        cache,
        ..ServeConfig::default()
    };
    // The uncached control: identical trace, faults and unit tables.
    let uncached_smart = simulate_trace(
        &cplan.units,
        workload.seed,
        Fleet::sized(8)?,
        policy_by_name("smart", workload.seed).expect("known policy"),
        cached_cfg(None),
    )?;

    let mut cached: Vec<ServingReport> = Vec::new();
    let mut c_alert_counts: Vec<u64> = Vec::new();
    let mut c_walls: Vec<u64> = Vec::new();
    for name in ["random", "round_robin", "smart", "port"] {
        let policy = policy_by_name(name, workload.seed).expect("known policy");
        let cfg = cached_cfg(Some(vtx_cache::CacheSpec {
            capacity_bytes: capacity,
            policy: vtx_cache::EvictPolicy::Gdsf,
            lookup_us: 250,
        }));
        let start = std::time::Instant::now();
        let out = simulate_trace(&cplan.units, workload.seed, Fleet::sized(8)?, policy, cfg)?;
        c_walls.push(start.elapsed().as_millis() as u64);
        c_alert_counts.push(out.obs.alerts().len() as u64);
        let mut report = out.report;
        report.segments = Some(cplan.stats(&out.event_log));
        cached.push(report);
    }

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

    let c_smart = &cached[2];
    let c_stats = c_smart.cache.as_ref().expect("cache stats attached");
    println!(
        "\nsmart cached vs uncached: p99 {:+.1} %, goodput {:+.1} %, hit rate {:.1} %",
        (c_smart.sojourn.p99_us as f64 / uncached_smart.report.sojourn.p99_us as f64 - 1.0) * 100.0,
        (c_smart.goodput_jps / uncached_smart.report.goodput_jps - 1.0) * 100.0,
        c_stats.hit_milli() as f64 / 10.0
    );
    assert!(
        c_stats.hit_milli() >= 400,
        "Zipf(1.0) at ~10% hot-set capacity must land >= 40% hits, got {} milli",
        c_stats.hit_milli()
    );
    assert!(
        c_smart.sojourn.p99_us < uncached_smart.report.sojourn.p99_us,
        "cached smart must strictly beat the uncached faulted baseline on \
         p99 sojourn ({} vs {})",
        c_smart.sojourn.p99_us,
        uncached_smart.report.sojourn.p99_us
    );
    assert!(
        c_smart.goodput_jps > uncached_smart.report.goodput_jps,
        "cached smart must strictly beat the uncached faulted baseline on \
         goodput ({} vs {})",
        c_smart.goodput_jps,
        uncached_smart.report.goodput_jps
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
        let sw = WorkloadSpec::bundled(workload.seed).with_popularity(s, 0.3);
        let sj = sw.generate()?;
        let sp: Vec<_> = sj.iter().take(60).cloned().collect();
        let splan = SegmentPlan::expand(&sp, &seg_opts)?;
        let sh = splan
            .units
            .iter()
            .map(|u| u.arrival_us)
            .max()
            .unwrap_or(0)
            .max(1);
        let sb = splan.unit_bytes()?;
        let shot: u64 = sb.iter().sum();
        for &cap_pct in &[5u64, 10, 20] {
            for evict in vtx_cache::EvictPolicy::ALL {
                let cfg = ServeConfig {
                    chaos: ChaosConfig::kill_two_straggle_one(workload.seed, 8, sh),
                    unit_frames: splan.unit_frames(),
                    unit_rungs: splan.unit_rungs(),
                    unit_segs: splan.unit_segs(),
                    unit_bytes: sb.clone(),
                    cache: Some(vtx_cache::CacheSpec {
                        capacity_bytes: shot * cap_pct / 100,
                        policy: evict,
                        lookup_us: 250,
                    }),
                    ..ServeConfig::default()
                };
                let out = simulate_trace(
                    &splan.units,
                    workload.seed,
                    Fleet::sized(8)?,
                    policy_by_name("smart", workload.seed).expect("known policy"),
                    cfg,
                )?;
                let c = out.report.cache.as_ref().expect("cache stats");
                println!(
                    "{:>6.1} {:>6} {:>8} {:>8.1} {:>8.1} {:>10.2} {:>8}",
                    s,
                    cap_pct,
                    evict.name(),
                    c.hit_milli() as f64 / 10.0,
                    out.report.sojourn.p99_us as f64 / 1e3,
                    out.report.goodput_jps,
                    c.evictions
                );
            }
        }
    }

    vtx_bench::save_artifact("fig9_serving", &reports);
    vtx_bench::save_artifact("fig9_serving_faulted", &faulted);
    vtx_bench::save_artifact("fig9_serving_segmented", &segmented);
    vtx_bench::save_artifact("fig9_serving_cached", &cached);

    // Machine-readable trajectory: one row per (scenario, policy), every
    // field integral, schema-validated before it is written. CI regenerates
    // this file and byte-compares it against the committed BENCH_serving.json.
    let mut traj = BenchTrajectory::new("fig9_serving");
    for (i, r) in reports.iter().enumerate() {
        traj.push(r.trajectory_row("baseline", 5, 0, 0, alert_counts[i], walls[i]));
    }
    for (i, r) in faulted.iter().enumerate() {
        traj.push(r.trajectory_row("faulted", 8, 0, 0, f_alert_counts[i], f_walls[i]));
    }
    for (i, r) in segmented.iter().enumerate() {
        traj.push(r.trajectory_row(
            "segmented",
            8,
            0,
            plan.units.len() as u64,
            s_alert_counts[i],
            s_walls[i],
        ));
    }
    for (i, r) in cached.iter().enumerate() {
        traj.push(r.trajectory_row(
            "cached",
            8,
            0,
            cplan.units.len() as u64,
            c_alert_counts[i],
            c_walls[i],
        ));
    }
    let json = traj.to_json();
    BenchTrajectory::validate_str(&json).expect("trajectory validates against its own schema");
    let path = vtx_bench::results_dir().join("BENCH_serving.json");
    std::fs::write(&path, &json)?;
    println!("[artifact] {}", path.display());
    Ok(())
}
