//! Online serving on a heterogeneous fleet: admission control,
//! deadline-aware dispatch and load shedding over the Table IV configs.
//!
//! Simulated mode (default) is fully deterministic: two runs with the same
//! seed print byte-identical output, and each line of the root `PINS`
//! manifest pins one simulated run's digest (`cargo test -p vtx-examples
//! --test pins`). `--real` drives actual `vtx_core::Transcoder` jobs on
//! worker threads through the same service core (wall-clock, so not
//! byte-reproducible).
//!
//! `--xl` runs the fleet-scale restatement: 500 servers (20k jobs) by
//! default, `--xl --full` for 10 000 servers and a million jobs. XL runs
//! take the two-level dispatch path (consistent-hash cells, the exact
//! solve per cell) and print the compact per-fleet report instead of 10k
//! per-server lines; `--cells N` overrides the auto-sized cell count.
//! Still byte-deterministic per seed. `--xl` is simulated only.
//!
//! Both transports run the same config: only the default workload
//! (`--real` replays a small trace), the `--faults` plan and the driver
//! call differ.
//!
//! `--faults` switches on the chaos study: an 8-way fleet where two
//! servers are killed at 30% of the run and a third is a 3× fail-slow
//! straggler, with hedged re-dispatch and the graceful-degradation ladder
//! armed. Still a pure function of the seed.
//!
//! `--segments MS` switches on segmented ABR serving: every catalog job
//! decomposes into per-(segment, rung) dispatch units (GOP-aligned ~MS-
//! millisecond segments × the `--ladder` rungs, default
//! `hi=medium:20,mid=veryfast:26,lo=ultrafast:32`) that flow through the
//! same admission/dispatch/chaos machinery; the report gains per-rung and
//! per-segment completion counts and a job finishes only when its manifest
//! assembles from all rung segments. `--manifest-out DIR` then writes the
//! HLS playlists plus the actual muxed CMAF init/media segments — byte-
//! deterministic per seed in both `--real` and simulated modes.
//!
//! `--cache-mb N` arms the popularity-aware segment cache: a repeated
//! (video, knobs, rung, segment) request hits the cache, skips the
//! transcode and bills only the lookup cost. `--evict {lru,lfu,gdsf}`
//! selects the eviction policy (default `lru`). `--zipf S` skews the
//! request trace so a Zipf(S)-popular head of the catalog is requested
//! repeatedly, and `--live-frac F` routes the given fraction of requests
//! to the live (interactive) class. Cached runs stay byte-deterministic
//! per seed in simulated mode. With `--segments`, manifests are written
//! via partial delivery: finished rungs are served and jobs missing rungs
//! are flagged degraded instead of dropped.
//!
//! `--surge flash|diurnal|tenants` swaps the stationary arrival process
//! for a surge scenario: a 12x flash crowd with ramps, a 60 s diurnal
//! sinusoid, or a three-tenant Zipf mix with per-tenant admission quotas
//! (token buckets armed, fair shedding by tenant). `--autoscale N` arms
//! the deterministic autoscaler: the fleet rests at 2 active servers and
//! grows to N against backlog per detected-up capacity, with seeded
//! warm-up on scale-out, drain-via-requeue on scale-in, and seeded
//! backoff+jitter on every requeue. Both stay byte-deterministic per
//! seed.
//!
//! Observability exports: `--metrics-out FILE` writes the run's Prometheus
//! exposition (per-class completion counters, sojourn quantile summaries,
//! alert gauges); `--job-trace FILE` writes the per-job lifecycle trace —
//! Chrome trace-event JSON when the path ends in `.json` (one track per
//! job: queued span, attempt/hedge spans, shed/requeue instants), plain
//! text otherwise. With `--policy all`, the policy name is inserted before
//! the extension so runs don't clobber each other.
//!
//! ```text
//! cargo run --release --bin serve_fleet -- [--seed N] [--smoke]
//!     [--xl [--full]] [--cells N]
//!     [--policy random|rr|smart|port|all] [--real] [--faults]
//!     [--surge flash|diurnal|tenants] [--autoscale N]
//!     [--segments MS] [--ladder SPEC] [--manifest-out DIR]
//!     [--cache-mb N] [--evict lru|lfu|gdsf] [--zipf S] [--live-frac F]
//!     [--trace-out FILE] [--dump-trace FILE]
//!     [--metrics-out FILE] [--job-trace FILE]
//! ```

use vtx_cache::{CacheSpec, EvictPolicy};
use vtx_container::Ladder;
use vtx_core::trace_export;
use vtx_obs::ObsPlane;
use vtx_serve::chaos::{ChaosConfig, FaultPlan};
use vtx_serve::exec::{run_real, run_real_segmented, ExecConfig};
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::segment::{SegmentOptions, SegmentPlan};
use vtx_serve::service::{render_event_log, EventRecord, ServeConfig, TenantAdmissionConfig};
use vtx_serve::sim::simulate_trace;
use vtx_serve::workload::{render_trace, WorkloadSpec};
use vtx_serve::CLASS_NAMES;
use vtx_telemetry::chrome::ChromeTrace;
use vtx_telemetry::Collector;

/// Insert the policy name before the extension when several policies run,
/// so `--policy all` doesn't overwrite one file four times.
fn per_policy_path(base: &str, policy: &str, multi: bool) -> String {
    if !multi {
        return base.to_owned();
    }
    match base.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{policy}.{ext}"),
        _ => format!("{base}.{policy}"),
    }
}

/// Write the observability exports requested on the command line.
fn write_obs_outputs(
    obs: &ObsPlane,
    metrics_out: Option<&str>,
    job_trace: Option<&str>,
    policy: &str,
    multi: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(base) = metrics_out {
        let path = per_policy_path(base, policy, multi);
        std::fs::write(&path, obs.render_prometheus(&CLASS_NAMES))?;
        println!("wrote Prometheus metrics to {path}");
    }
    if let Some(base) = job_trace {
        let path = per_policy_path(base, policy, multi);
        let body = if path.ends_with(".json") {
            let mut trace = ChromeTrace::new();
            obs.tracker().add_chrome_tracks(&mut trace, &CLASS_NAMES);
            trace.to_json()
        } else {
            obs.tracker().render_text(&CLASS_NAMES)
        };
        std::fs::write(&path, body)?;
        println!("wrote job lifecycle trace to {path}");
    }
    Ok(())
}

/// Build the segmentation options from `--segments MS` and an optional
/// `--ladder SPEC` (defaults to the standard 3-rung ABR ladder).
fn segment_opts(
    target_ms: u32,
    ladder_spec: Option<&str>,
) -> Result<SegmentOptions, Box<dyn std::error::Error>> {
    let mut opts = SegmentOptions {
        target_ms,
        ..SegmentOptions::default()
    };
    if let Some(spec) = ladder_spec {
        opts.ladder = Ladder::parse(spec)?;
    }
    Ok(opts)
}

/// Dump the run's HLS playlists plus the actual muxed CMAF segments under
/// `dir` (per-policy subdir when several policies run). Delivery is
/// partial: a job with every rung complete gets the full master playlist,
/// while a job missing rungs gets a degraded-flagged master listing only
/// its finished rungs. The `segments` and `cache_seg_*` lines of `PINS`
/// pin every file of a same-seed dump.
fn write_manifest_artifacts(
    base: &str,
    policy: &str,
    multi: bool,
    plan: &SegmentPlan,
    seed: u64,
    log: &[EventRecord],
) -> Result<(), Box<dyn std::error::Error>> {
    let dir = if multi {
        std::path::PathBuf::from(base).join(policy)
    } else {
        std::path::PathBuf::from(base)
    };
    let manifests = plan.manifests_partial(log);
    let artifacts = plan.materialize(seed, log)?;
    let mut files = 0usize;
    for (rel, body) in manifests
        .iter()
        .map(|(r, b)| (r, b.as_bytes()))
        .chain(artifacts.iter().map(|(r, b)| (r, b.as_slice())))
    {
        let path = dir.join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, body)?;
        files += 1;
    }
    let served = manifests
        .iter()
        .filter(|(rel, _)| rel.ends_with("master.m3u8"))
        .count();
    let complete = plan.complete_parents(log).len();
    println!(
        "wrote {files} playlist/segment files ({complete} complete jobs, {} degraded) to {}",
        served - complete,
        dir.display()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut trace_out = trace_export::init_from_env();
    let mut seed = 42u64;
    let mut smoke = false;
    let mut xl = false;
    let mut xl_full = false;
    let mut cells = 0usize;
    let mut real = false;
    let mut faults = false;
    let mut policy_arg = "all".to_owned();
    let mut segments_ms: Option<u32> = None;
    let mut ladder_spec: Option<String> = None;
    let mut manifest_out: Option<String> = None;
    let mut dump_trace: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut job_trace: Option<String> = None;
    let mut cache_mb = 0u64;
    let mut evict = "lru".to_owned();
    let mut zipf: Option<f64> = None;
    let mut live_frac: Option<f64> = None;
    let mut surge: Option<String> = None;
    let mut autoscale_max = 0usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args.next().ok_or("--seed needs a value")?.parse::<u64>()?;
            }
            "--smoke" => smoke = true,
            "--xl" => xl = true,
            "--full" => xl_full = true,
            "--cells" => {
                cells = args
                    .next()
                    .ok_or("--cells needs a value")?
                    .parse::<usize>()?;
            }
            "--real" => real = true,
            "--faults" => faults = true,
            "--policy" => {
                policy_arg = args.next().ok_or("--policy needs a value")?;
            }
            "--segments" => {
                segments_ms = Some(
                    args.next()
                        .ok_or("--segments needs a target duration in ms")?
                        .parse::<u32>()?,
                );
            }
            "--ladder" => {
                ladder_spec = Some(args.next().ok_or("--ladder needs a spec")?);
            }
            "--manifest-out" => {
                manifest_out = Some(args.next().ok_or("--manifest-out needs a directory")?);
            }
            "--dump-trace" => {
                dump_trace = Some(args.next().ok_or("--dump-trace needs a file path")?);
            }
            "--metrics-out" => {
                metrics_out = Some(args.next().ok_or("--metrics-out needs a file path")?);
            }
            "--job-trace" => {
                job_trace = Some(args.next().ok_or("--job-trace needs a file path")?);
            }
            "--cache-mb" => {
                cache_mb = args
                    .next()
                    .ok_or("--cache-mb needs a capacity in MiB")?
                    .parse::<u64>()?;
            }
            "--evict" => {
                evict = args.next().ok_or("--evict needs a policy name")?;
            }
            "--zipf" => {
                zipf = Some(
                    args.next()
                        .ok_or("--zipf needs a skew exponent")?
                        .parse::<f64>()?,
                );
            }
            "--live-frac" => {
                live_frac = Some(
                    args.next()
                        .ok_or("--live-frac needs a fraction in [0,1]")?
                        .parse::<f64>()?,
                );
            }
            "--surge" => {
                surge = Some(args.next().ok_or("--surge needs a scenario name")?);
            }
            "--autoscale" => {
                autoscale_max = args
                    .next()
                    .ok_or("--autoscale needs a max server count")?
                    .parse::<usize>()?;
            }
            "--trace-out" => {
                let path = args.next().ok_or("--trace-out needs a file path")?;
                Collector::enable();
                trace_out = Some(path);
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }

    if xl && real {
        return Err("--xl is a simulated mode; it does not combine with --real".into());
    }
    if xl && segments_ms.is_some() {
        return Err("--segments is a catalog-scale mode; it does not combine with --xl".into());
    }
    if segments_ms.is_none() && (ladder_spec.is_some() || manifest_out.is_some()) {
        return Err("--ladder and --manifest-out require --segments".into());
    }

    if xl && (surge.is_some() || autoscale_max > 0) {
        return Err(
            "--surge/--autoscale are catalog-scale modes; they do not combine with --xl".into(),
        );
    }
    if let Some(kind) = &surge {
        if !matches!(kind.as_str(), "flash" | "diurnal" | "tenants") {
            return Err(
                format!("unknown surge scenario: {kind} (want flash|diurnal|tenants)").into(),
            );
        }
    }

    if xl && (cache_mb > 0 || zipf.is_some() || live_frac.is_some()) {
        return Err(
            "--cache-mb/--zipf/--live-frac are catalog-scale modes; they do not combine with --xl"
                .into(),
        );
    }
    let cache_spec = if cache_mb > 0 {
        let policy = EvictPolicy::from_name(&evict)
            .ok_or_else(|| format!("unknown eviction policy: {evict} (want lru|lfu|gdsf)"))?;
        Some(CacheSpec {
            capacity_bytes: cache_mb
                .checked_mul(1 << 20)
                .ok_or("--cache-mb is too large: the capacity overflows 64-bit bytes")?,
            policy,
            ..CacheSpec::default()
        })
    } else {
        None
    };
    let popularity = (zipf.is_some() || live_frac.is_some())
        .then(|| (zipf.unwrap_or(1.0), live_frac.unwrap_or(0.0)));

    let policies: Vec<&str> = match policy_arg.as_str() {
        "all" => vec!["random", "round_robin", "smart", "port"],
        name => vec![name],
    };
    let multi = policies.len() > 1;

    let surge_workload = surge.as_deref().map(|kind| match kind {
        "flash" => WorkloadSpec::flash_crowd(seed),
        "diurnal" => WorkloadSpec::diurnal(seed),
        _ => WorkloadSpec::multi_tenant(seed),
    });
    let mut workload = if real {
        // The real executor replays a small trace with actual transcodes;
        // arrivals are compressed so the run takes seconds, not minutes.
        let smoke = WorkloadSpec::real_smoke(seed);
        match surge_workload.and_then(|w| w.scenario) {
            Some(scenario) => smoke.with_scenario(scenario),
            None => smoke,
        }
    } else if xl && xl_full {
        WorkloadSpec::xl(seed)
    } else if xl {
        WorkloadSpec::xl_smoke(seed)
    } else if let Some(w) = surge_workload {
        w
    } else if smoke {
        WorkloadSpec::smoke(seed)
    } else {
        WorkloadSpec::bundled(seed)
    };
    if let Some(kind) = &surge {
        println!("surge: {kind} scenario ({} jobs)", workload.jobs);
    }
    if let Some((s, live)) = popularity {
        workload = workload.with_popularity(s, live);
        println!("popularity: zipf(s={s}) request trace, live fraction {live}");
    }
    let fleet = if xl && xl_full {
        Fleet::sized(10_000)?
    } else if xl {
        Fleet::sized(500)?
    } else if faults && !real {
        Fleet::sized(8)?
    } else {
        Fleet::table_iv()
    };
    if real {
        println!(
            "real executor: {} jobs over {} videos, fleet = Table IV ({} servers)",
            workload.jobs,
            workload.videos.len(),
            fleet.len()
        );
    } else {
        println!(
            "simulated fleet: {} jobs at {} Hz over {} videos, {} servers{}",
            workload.jobs,
            workload.arrival_rate_hz,
            workload.videos.len(),
            fleet.len(),
            if faults {
                " — kill 2 at 30% + one 3x straggler, hedging + degradation armed"
            } else {
                " (Table IV)"
            }
        );
    }
    if autoscale_max > fleet.len() {
        return Err(format!(
            "--autoscale {autoscale_max} exceeds the {}-server fleet",
            fleet.len()
        )
        .into());
    }
    let jobs = workload.generate()?;
    if let Some(path) = &dump_trace {
        std::fs::write(path, render_trace(&jobs))?;
        println!("wrote {} trace lines to {path}", jobs.len());
    }
    let plan = match segments_ms {
        Some(ms) => {
            let plan = SegmentPlan::expand(&jobs, &segment_opts(ms, ladder_spec.as_deref())?)?;
            println!(
                "segmented: {} jobs -> {} units ({} rungs, target {} ms)",
                plan.parents.len(),
                plan.units.len(),
                plan.ladder.rungs.len(),
                plan.target_ms
            );
            Some(plan)
        }
        None => None,
    };
    let sim_jobs = plan.as_ref().map_or(&jobs[..], |p| &p.units[..]);

    let mut cfg = if xl {
        ServeConfig::xl()
    } else {
        ServeConfig::default()
    };
    cfg.cells = cells;
    if faults && real {
        // Kill one real worker thread early: the detector notices the
        // missing heartbeats and the service requeues its lost work.
        cfg.chaos.plan = FaultPlan::none(fleet.len()).with_crash(2, 40_000)?;
        println!("faults: worker 2 killed 40 ms into the run");
    } else if faults {
        let horizon = sim_jobs.iter().map(|j| j.arrival_us).max().unwrap_or(0);
        cfg.chaos = ChaosConfig::hedged_kill_two_straggle_one(seed, fleet.len(), horizon);
    }
    cfg.tenants = TenantAdmissionConfig::for_workload(&workload);
    if cfg.tenants.is_some() {
        println!(
            "admission quotas: {} tenants, token buckets armed",
            workload.scenario.as_ref().map_or(0, |s| s.tenants.len())
        );
    }
    if autoscale_max > 0 {
        let min = autoscale_max.min(2);
        cfg.chaos = cfg.chaos.with_overload(min, autoscale_max);
        println!(
            "autoscale: {min}..{autoscale_max} servers, 500 ms ticks, seeded warmup; backoff+jitter armed"
        );
    }
    if let Some(spec) = &cache_spec {
        cfg.cache = Some(spec.clone());
        println!(
            "segment cache: {} MiB, {} eviction",
            spec.capacity_bytes >> 20,
            spec.policy.name()
        );
    }
    // The real executor fills a plan's unit tables itself.
    if let (Some(plan), false) = (&plan, real) {
        plan.fill_unit_tables(&mut cfg);
    }
    let exec = ExecConfig {
        serve: cfg.clone(),
        arrival_compression: 20,
    };

    for name in policies {
        let policy = policy_by_name(name, seed).ok_or_else(|| format!("unknown policy: {name}"))?;
        let mut out = match &plan {
            Some(plan) if real => run_real_segmented(plan, seed, fleet.clone(), policy, &exec)?,
            None if real => run_real(&workload, fleet.clone(), policy, &exec)?,
            _ => simulate_trace(sim_jobs, seed, fleet.clone(), policy, cfg.clone())?,
        };
        if let Some(plan) = &plan {
            out.report.segments = Some(plan.stats(&out.event_log));
        }
        if xl {
            println!("\n{}", out.report.render_compact());
        } else {
            println!("\n{}", out.report.render());
        }
        if let (Some(plan), Some(dir)) = (&plan, &manifest_out) {
            write_manifest_artifacts(dir, name, multi, plan, seed, &out.event_log)?;
        }
        if !real && (smoke || surge.is_some()) {
            // The smoke/surge event log is small enough to print whole;
            // the CI determinism checks byte-compare it across runs.
            println!("event log ({} events):", out.event_log.len());
            print!("{}", render_event_log(&out.event_log));
        }
        if !out.obs.alerts().is_empty() {
            println!("alert transitions ({}):", out.obs.alerts().len());
            print!("{}", out.obs.render_alerts(&CLASS_NAMES));
        }
        write_obs_outputs(
            &out.obs,
            metrics_out.as_deref(),
            job_trace.as_deref(),
            name,
            multi,
        )?;
    }

    if let Some(path) = trace_out {
        trace_export::write_chrome_trace(&path)?;
        println!("\nwrote telemetry trace to {path}");
    }
    Ok(())
}
