//! Figure 9, surge restatement — the overload/elasticity composition the
//! paper's fixed-fleet framing leaves open: a flash crowd (12x arrival
//! spike) against the Table IV fleet, with and without the deterministic
//! autoscaler; the same spike landing while a FaultPlan kills servers;
//! a three-tenant mix held to per-tenant admission quotas; and the
//! cost-of-capacity frontier (served capacity vs SLO attainment) swept
//! over the autoscaler ceiling. Every run is byte-deterministic per seed
//! and the surge rows merge into the `BENCH_serving.json` trajectory.

use vtx_obs::BenchTrajectory;
use vtx_serve::chaos::{AutoscaleConfig, BackoffConfig, BreakerConfig, ChaosConfig};
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::queue::ShedReason;
use vtx_serve::report::ServingReport;
use vtx_serve::service::{ServeConfig, TenantAdmissionConfig};
use vtx_serve::sim::{simulate, SimOutcome};
use vtx_serve::workload::WorkloadSpec;

/// The flash-crowd trace for this bench: the bundled 12x spike shape, but
/// 400 jobs so ~100 of them arrive in the quiet tail after the spike —
/// enough post-spike mass to measure recovery, not just survival.
fn flash_workload(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        jobs: 400,
        ..WorkloadSpec::flash_crowd(seed)
    }
}

/// Backoff + autoscaler overload config: `min` servers active at rest
/// (sized to carry the base rate comfortably), growing to `max` against
/// backlog per detected-up capacity.
fn surge_cfg(min_servers: usize, max_servers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.chaos.backoff = BackoffConfig {
        base_us: 50_000,
        cap_us: 2_000_000,
        jitter_milli: 500,
    };
    cfg.chaos.autoscale = AutoscaleConfig {
        enabled: true,
        min_servers,
        max_servers,
        eval_every_us: 500_000,
        warmup_us: 2_000_000,
        warmup_jitter_milli: 250,
        backlog_high: 3.0,
        backlog_low: 1.0,
        step: 1,
    };
    cfg
}

/// Exact nearest-rank p99 (max for tiny samples), matching the exact —
/// not sketched — quantile convention of `LatencyStats`.
fn p99(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = (v.len() as f64 * 0.99).ceil() as usize;
    v[rank.max(1) - 1]
}

/// Sojourns of completed jobs whose *arrival* fell in `[from_us, to_us)`,
/// read off the deterministic event log.
fn sojourns_by_arrival(out: &SimOutcome, arrivals: &[u64], from_us: u64, to_us: u64) -> Vec<u64> {
    out.event_log
        .iter()
        .filter_map(|e| match e {
            vtx_serve::service::EventRecord::Complete { id, sojourn_us, .. } => {
                let arr = arrivals[*id as usize];
                (arr >= from_us && arr < to_us).then_some(*sojourn_us)
            }
            _ => None,
        })
        .collect()
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
        !tail.is_empty() && p99(tail) <= bar
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    vtx_bench::banner("Figure 9 (surge): flash crowd, overload control, autoscaling");
    let seed = vtx_bench::SEED;
    let workload = flash_workload(seed);
    let jobs = workload.generate()?;
    let arrivals: Vec<u64> = jobs.iter().map(|j| j.arrival_us).collect();
    let (spike_start, spike_end) = workload
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
        jobs.len(),
        spike_start as f64 / 1e6,
        spike_end as f64 / 1e6,
        in_spike
    );
    assert!(in_spike >= 200, "the spike must carry >= 200 jobs");

    // ---- flash crowd: static controls vs autoscaled --------------------
    // The fleet is 10 Table IV servers (two grades of each config). At the
    // 2 Hz base rate, 4 servers run ~85% utilized — the autoscaler's rest
    // state. The controls bracket it: a static 4-server fleet (what you
    // paid for at rest, crushed by the spike) and the full static 10 (the
    // always-on overprovisioned upper bound).
    let policy = |s| policy_by_name("smart", s).expect("known policy");
    let static_min = simulate(
        &workload,
        Fleet::sized(4)?,
        policy(seed),
        ServeConfig::default(),
    )?;
    let control = simulate(
        &workload,
        Fleet::sized(10)?,
        policy(seed),
        ServeConfig::default(),
    )?;
    let auto = simulate(&workload, Fleet::sized(10)?, policy(seed), surge_cfg(4, 10))?;

    println!(
        "{:<18} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scenario", "p99_ms", "done", "shed", "avail%", "goodput", "scale"
    );
    for (name, out) in [
        ("flash_static4", &static_min),
        ("flash_static10", &control),
        ("flash_autoscaled", &auto),
    ] {
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
    for (name, out) in [
        ("flash_static4", &static_min),
        ("flash_static10", &control),
        ("flash_autoscaled", &auto),
    ] {
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
    let pre = sojourns_by_arrival(&auto, &arrivals, 0, spike_start);
    let pre_p99 = p99(pre);
    let recovered_at = recovery_point(&auto, &arrivals, spike_end, pre_p99, 1_500)
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
    let rerun = simulate(&workload, Fleet::sized(10)?, policy(seed), surge_cfg(4, 10))?;
    assert_eq!(
        format!("{:?}", auto.report),
        format!("{:?}", rerun.report),
        "same-seed autoscaled reruns must print identically"
    );
    assert_eq!(
        vtx_serve::service::render_event_log(&auto.event_log),
        vtx_serve::service::render_event_log(&rerun.event_log),
        "same-seed autoscaled reruns must log identically"
    );
    println!("[determinism] autoscaled flash rerun is byte-identical");

    // ---- surge x faults: the spike lands while servers die -------------
    vtx_bench::banner("Figure 9 (surge x faults): flash crowd + kill 2 of 8");
    let horizon = arrivals.iter().copied().max().unwrap_or(0).max(1);
    let faulted_cfg = || {
        let mut cfg = surge_cfg(4, 8);
        let faults = ChaosConfig::kill_two_straggle_one(seed, 8, horizon);
        cfg.chaos.plan = faults.plan;
        cfg.chaos.detector = faults.detector;
        cfg.chaos.breaker = BreakerConfig {
            enabled: true,
            failures: 3,
            open_us: 2_000_000,
        };
        cfg
    };
    let faulted =
        vtx_serve::sim::simulate_trace(&jobs, seed, Fleet::sized(8)?, policy(seed), faulted_cfg())?;
    {
        let r = &faulted.report;
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
        let stats = faulted.obs.tracker().check_conservation()?;
        assert_eq!(stats.arrived, r.offered);
        assert_eq!(stats.completed, r.completed);
        assert!(
            r.completed > 0,
            "the fleet keeps serving through spike + crashes"
        );
    }
    let f_rerun =
        vtx_serve::sim::simulate_trace(&jobs, seed, Fleet::sized(8)?, policy(seed), faulted_cfg())?;
    assert_eq!(
        format!("{:?}", faulted.report),
        format!("{:?}", f_rerun.report),
        "same-seed surge x faults reruns must print identically"
    );
    println!("[determinism] surge x faults rerun is byte-identical");

    // ---- multi-tenant quotas: fair shedding by token bucket ------------
    vtx_bench::banner("Figure 9 (surge, tenants): 3-tenant mix under admission quotas");
    let tenant_workload = WorkloadSpec::multi_tenant(seed);
    let tenant_specs = tenant_workload
        .scenario
        .as_ref()
        .expect("tenant scenario attached")
        .tenants
        .clone();
    let tenant_cfg = ServeConfig {
        tenants: Some(TenantAdmissionConfig::from_tenants(&tenant_specs)),
        ..ServeConfig::default()
    };
    let tenants = simulate(
        &tenant_workload,
        Fleet::table_iv(),
        policy(seed),
        tenant_cfg,
    )?;
    {
        let r = &tenants.report;
        let throttled = r.shed[ShedReason::Throttled as usize];
        println!(
            "offered {} over {} tenants: throttled {}, shed_by_tenant {:?}",
            r.offered,
            tenant_specs.len(),
            throttled,
            r.shed_by_tenant
        );
        assert_eq!(r.completed + r.shed_total(), r.offered);
        assert!(
            throttled > 0,
            "tenant 0 offers 1.2 Hz against a 0.8 Hz quota — the bucket must bite"
        );
        assert_eq!(r.shed_by_tenant.len(), tenant_specs.len());
        let max_shed = r.shed_by_tenant.iter().copied().max().unwrap_or(0);
        assert_eq!(
            r.shed_by_tenant.first().copied().unwrap_or(0),
            max_shed,
            "the over-quota tenant must absorb the most shedding"
        );
    }

    // ---- cost of capacity: autoscaler ceiling vs SLO attainment --------
    vtx_bench::banner("Cost of capacity: autoscaler ceiling on the flash crowd");
    println!(
        "{:>4} {:>10} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "max", "p99_ms", "done", "shed", "attain%", "peak_cap", "served_cap"
    );
    let mut frontier: Vec<ServingReport> = Vec::new();
    let mut served_caps: Vec<u64> = Vec::new();
    for max in [4usize, 6, 8, 10] {
        let out = simulate(
            &workload,
            Fleet::sized(10)?,
            policy(seed),
            surge_cfg(4, max),
        )?;
        let r = out.report;
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
        served_caps.push(s.served_capacity_milli);
        frontier.push(r);
    }
    // More headroom never costs completions, and paid-for (served)
    // capacity grows with the ceiling — the frontier is real.
    for w in frontier.windows(2) {
        assert!(
            w[1].completed >= w[0].completed,
            "raising the autoscale ceiling must not lose completions"
        );
    }
    assert!(
        served_caps.last() > served_caps.first(),
        "a taller ceiling must serve more capacity-time"
    );

    // ---- merge surge rows into the fig9_serving trajectory -------------
    let path = vtx_bench::results_dir().join("BENCH_serving.json");
    let mut traj = if path.exists() {
        let text = std::fs::read_to_string(&path)?;
        BenchTrajectory::validate_str(&text).map_err(|e| {
            format!(
                "existing {} is not schema-valid ({e}); re-run the fig9_serving bench first",
                path.display()
            )
        })?
    } else {
        BenchTrajectory::new("fig9_serving")
    };
    traj.rows.retain(|r| !r.scenario.starts_with("surge"));
    for (scenario, out, servers) in [
        ("surge_flash_static", &static_min, 4),
        ("surge_flash_full", &control, 10),
        ("surge_flash_auto", &auto, 10),
        ("surge_faults", &faulted, 8),
        ("surge_tenants", &tenants, 5),
    ] {
        let alerts = out.obs.alerts().len() as u64;
        traj.push(
            out.report
                .trajectory_row(scenario, servers, 0, 0, alerts, 0),
        );
    }
    for (max, r) in [4usize, 6, 8, 10].into_iter().zip(&frontier) {
        traj.push(r.trajectory_row(&format!("surge_cap{max}"), 10, 0, 0, 0, 0));
    }
    let json = traj.to_json();
    BenchTrajectory::validate_str(&json).expect("trajectory validates against its own schema");
    std::fs::write(&path, &json)?;
    println!("\n[artifact] {} (+9 surge rows)", path.display());

    vtx_bench::save_artifact(
        "fig9_surge_flash",
        &[&static_min.report, &control.report, &auto.report],
    );
    vtx_bench::save_artifact("fig9_surge_frontier", &frontier);
    Ok(())
}
