//! The two fleet workloads: the same `ServiceCore` used with both planes
//! writing (`fleet_small`) and read-mostly at scale (`fleet_xl`).
//!
//! `fleet_small` mirrors the families pinned in `BENCH_serving.json` on at
//! most eight servers, event log and observability plane on: the sub-64-server
//! dispatch path (Hungarian) with every off-by-default mechanism exercised.
//!
//! `fleet_xl` runs 500 servers with the log and the plane off, the `fig9_xl`
//! configuration: calendar queue, cell plan and idle index, ε-scaling auction
//! and the health-epoch cost cache do all the work.

use vtx_cache::{CacheSpec, EvictPolicy};
use vtx_obs::ObsConfig;
use vtx_serve::cells::XL_FLEET_THRESHOLD;
use vtx_serve::chaos::{AutoscaleConfig, BackoffConfig, BreakerConfig, ChaosConfig, DegradeConfig};
use vtx_serve::rng::derive;
use vtx_serve::sim::simulate_trace;
use vtx_serve::{
    policy_by_name, Fleet, JobSpec, SegmentOptions, SegmentPlan, ServeConfig,
    TenantAdmissionConfig, WorkloadSpec, CLASS_NAMES,
};

use super::{OpResult, SimCounts, Size, Workload};
use crate::spans::Tracer;
use crate::stats::Fnv64;

/// One `simulate_trace` call and what to check afterwards.
struct FleetOp {
    label: String,
    /// Span around the simulation: `serve.simulate.<family>`.
    span: &'static str,
    policy: &'static str,
    seed: u64,
    /// Index into the workload's traces, fleets and segment plans.
    trace: usize,
    fleet: usize,
    plan: Option<usize>,
    cfg: ServeConfig,
}

pub struct FleetWorkload {
    traces: Vec<Vec<JobSpec>>,
    fleets: Vec<Fleet>,
    plans: Vec<SegmentPlan>,
    ops: Vec<FleetOp>,
}

impl Workload for FleetWorkload {
    fn n_ops(&self) -> usize {
        self.ops.len()
    }

    fn label(&self, i: usize) -> String {
        self.ops[i].label.clone()
    }

    fn try_run(&self, i: usize, tr: &mut Tracer) -> Result<OpResult, String> {
        let op = &self.ops[i];
        let jobs = &self.traces[op.trace];
        let out = tr
            .span_n(op.span, |_| {
                let policy = policy_by_name(op.policy, op.seed).expect("known policy");
                let out = simulate_trace(
                    jobs,
                    op.seed,
                    self.fleets[op.fleet].clone(),
                    policy,
                    op.cfg.clone(),
                );
                let events = out.as_ref().map_or(0, |o| o.event_log.len() as u64);
                (out, events)
            })
            .map_err(|e| e.to_string())?;
        let r = &out.report;
        let mut ok = r.completed + r.shed_total() == r.offered && r.offered == jobs.len() as u64;
        let mut digest = Fnv64::new();

        if op.cfg.obs.enabled {
            let stats = tr
                .span("obs.conservation", |_| {
                    out.obs.tracker().check_conservation()
                })
                .map_err(|e| format!("conservation: {e}"))?;
            ok &= stats.arrived == r.offered && stats.completed == r.completed;
            digest.str(&tr.span("obs.prometheus", |_| {
                out.obs.render_prometheus(&CLASS_NAMES)
            }));
        }
        digest.str(&tr.span("serve.report_render", |_| r.render()));
        if let Some(p) = op.plan {
            let plan = &self.plans[p];
            let (stats, manifests) = tr.span("serve.segment_stats", |_| {
                (
                    plan.stats(&out.event_log),
                    plan.manifests_partial(&out.event_log),
                )
            });
            ok &= stats.units == r.offered;
            digest.str(&format!("{stats:?}"));
            for (path, text) in &manifests {
                digest.str(path).str(text);
            }
        }
        for &(id, server) in &out.assignments {
            digest.u64(id).u64(server as u64);
        }
        digest.u64(out.event_log.len() as u64);

        Ok(OpResult {
            work: r.offered as f64,
            digest: digest.finish(),
            ok,
            sim: SimCounts::default(),
        })
    }
}

fn generate(spec: &WorkloadSpec, tr: &mut Tracer) -> Vec<JobSpec> {
    tr.span_n("serve.generate", |_| {
        let jobs = spec.generate().expect("bundled workloads generate");
        let n = jobs.len() as u64;
        (jobs, n)
    })
}

fn sized(n: usize, tr: &mut Tracer) -> Fleet {
    tr.span("serve.fleet_build", |_| {
        Fleet::sized(n).expect("non-empty fleet")
    })
}

fn horizon(jobs: &[JobSpec]) -> u64 {
    jobs.iter().map(|j| j.arrival_us).max().unwrap_or(0).max(1)
}

/// `serve_fleet --faults`: kill two of eight at 30 % plus one 3× straggler,
/// hedging and the degradation ladder armed.
fn faulted_chaos(seed: u64, horizon_us: u64) -> ChaosConfig {
    ChaosConfig {
        hedge_after: 0.5,
        degrade: DegradeConfig {
            enabled: true,
            ..DegradeConfig::default()
        },
        ..ChaosConfig::kill_two_straggle_one(seed, 8, horizon_us)
    }
}

/// `fig9_surge`'s overload configuration: backoff plus the autoscaler.
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

/// The `fig9_xl` configuration: at fleet scale the event log and the
/// observability plane are overhead, so both are off.
pub(crate) fn xl_config() -> ServeConfig {
    ServeConfig {
        collect_event_log: false,
        obs: ObsConfig::disabled(),
        ..ServeConfig::default()
    }
}

fn segmented_cfg(plan: &SegmentPlan, chaos: ChaosConfig, cache: Option<CacheSpec>) -> ServeConfig {
    ServeConfig {
        chaos,
        unit_frames: plan.unit_frames(),
        unit_rungs: plan.unit_rungs(),
        unit_segs: plan.unit_segs(),
        unit_bytes: plan.unit_bytes().expect("catalog clips have geometry"),
        cache,
        ..ServeConfig::default()
    }
}

impl FleetWorkload {
    pub fn small(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        const TABLE_IV: usize = 0;
        const EIGHT: usize = 1;
        let fleets = vec![
            tr.span("serve.fleet_build", |_| Fleet::table_iv()),
            sized(8, tr),
        ];

        let bundled = generate(&WorkloadSpec::bundled(seed), tr);
        let popular = generate(&WorkloadSpec::bundled(seed).with_popularity(1.0, 0.3), tr);
        let flash = generate(
            &WorkloadSpec {
                jobs: 400,
                ..WorkloadSpec::flash_crowd(seed)
            },
            tr,
        );
        let tenant_spec = WorkloadSpec::multi_tenant(seed);
        let tenants = generate(&tenant_spec, tr);

        let seg_opts = SegmentOptions {
            target_ms: 100,
            ..SegmentOptions::default()
        };
        let expand = |parents: &[JobSpec], tr: &mut Tracer| {
            tr.span_n("serve.expand", |_| {
                let plan = SegmentPlan::expand(&parents[..60], &seg_opts).expect("plan expands");
                let units = plan.units.len() as u64;
                (plan, units)
            })
        };
        let plans = vec![expand(&bundled, tr), expand(&popular, tr)];
        let traces = vec![
            bundled,
            plans[0].units.clone(),
            plans[1].units.clone(),
            flash,
            tenants,
        ];
        const BUNDLED: usize = 0;
        const SEGMENTED: usize = 1;
        const CACHED: usize = 2;
        const FLASH: usize = 3;
        const TENANTS: usize = 4;

        let all_policies = ["smart", "port", "random", "round_robin"];
        let two_policies = ["smart", "random"];
        let (whole, pair): (&[&'static str], &[&'static str]) = match size {
            Size::Full => (&all_policies, &two_policies),
            Size::Reference => (&all_policies[..1], &two_policies[..1]),
        };
        let mut ops = Vec::new();
        let mut push = |family: &str,
                        span: &'static str,
                        policy: &'static str,
                        trace: usize,
                        fleet: usize,
                        plan: Option<usize>,
                        cfg: ServeConfig| {
            ops.push(FleetOp {
                label: format!("{family} {policy}"),
                span,
                policy,
                seed,
                trace,
                fleet,
                plan,
                cfg,
            });
        };

        for &p in whole {
            push(
                "baseline",
                "serve.simulate.baseline",
                p,
                BUNDLED,
                TABLE_IV,
                None,
                ServeConfig::default(),
            );
        }
        for &p in whole {
            let cfg = ServeConfig {
                chaos: faulted_chaos(seed, horizon(&traces[BUNDLED])),
                ..ServeConfig::default()
            };
            push(
                "faulted",
                "serve.simulate.faulted",
                p,
                BUNDLED,
                EIGHT,
                None,
                cfg,
            );
        }
        let kill = |t: usize| ChaosConfig::kill_two_straggle_one(seed, 8, horizon(&traces[t]));
        for &p in pair {
            let cfg = segmented_cfg(&plans[0], kill(SEGMENTED), None);
            push(
                "segmented",
                "serve.simulate.segmented",
                p,
                SEGMENTED,
                EIGHT,
                Some(0),
                cfg,
            );
        }
        // Capacity ~10 % of the bytes the trace offers, as in `fig9_serving`.
        let offered: u64 = plans[1].unit_bytes().expect("geometry").iter().sum();
        for evict in [EvictPolicy::Lru, EvictPolicy::Gdsf] {
            for &p in pair {
                let cache = CacheSpec {
                    capacity_bytes: offered / 10,
                    policy: evict,
                    lookup_us: 250,
                };
                let cfg = segmented_cfg(&plans[1], kill(CACHED), Some(cache));
                let family = format!("cached {}", evict.name());
                push(
                    &family,
                    "serve.simulate.cached",
                    p,
                    CACHED,
                    EIGHT,
                    Some(1),
                    cfg,
                );
            }
        }
        push(
            "surge_flash_auto",
            "serve.simulate.surge",
            "smart",
            FLASH,
            EIGHT,
            None,
            {
                let mut cfg = surge_cfg(4, 8);
                cfg.chaos.breaker = BreakerConfig {
                    enabled: true,
                    failures: 3,
                    open_us: 2_000_000,
                };
                cfg
            },
        );
        push(
            "surge_tenants",
            "serve.simulate.surge",
            "smart",
            TENANTS,
            TABLE_IV,
            None,
            {
                let specs = &tenant_spec
                    .scenario
                    .as_ref()
                    .expect("tenant scenario")
                    .tenants;
                ServeConfig {
                    tenants: Some(TenantAdmissionConfig::from_tenants(specs)),
                    ..ServeConfig::default()
                }
            },
        );
        push(
            "surge_faults",
            "serve.simulate.surge",
            "smart",
            FLASH,
            EIGHT,
            None,
            {
                let mut cfg = surge_cfg(4, 8);
                let faults = kill(FLASH);
                cfg.chaos.plan = faults.plan;
                cfg.chaos.detector = faults.detector;
                cfg.chaos.breaker = BreakerConfig {
                    enabled: true,
                    failures: 3,
                    open_us: 2_000_000,
                };
                cfg
            },
        );

        FleetWorkload {
            traces,
            fleets,
            plans,
            ops,
        }
    }
}

/// Jobs per `fleet_xl` op, at `xl_smoke`'s 150 Hz.
const XL_JOBS: usize = 1_000;
const XL_SERVERS: usize = 500;
/// Traces per pass, each from its own derived seed.
const XL_SEEDS: u64 = 5;

impl FleetWorkload {
    pub fn xl(seed: u64, size: Size, tr: &mut Tracer) -> Self {
        let fleet = sized(XL_SERVERS, tr);
        assert!(
            fleet.len() >= XL_FLEET_THRESHOLD,
            "fleet_xl must take the indexed dispatch path"
        );
        let n = match size {
            Size::Full => XL_SEEDS,
            Size::Reference => 2,
        };
        let mut traces = Vec::new();
        let mut ops = Vec::new();
        for k in 0..n {
            let trace_seed = derive(seed, k);
            traces.push(generate(
                &WorkloadSpec {
                    jobs: XL_JOBS,
                    ..WorkloadSpec::xl_smoke(trace_seed)
                },
                tr,
            ));
            let policy = ["smart", "port"][k as usize % 2];
            ops.push(FleetOp {
                label: format!("xl {policy} trace{k}"),
                span: "serve.simulate.xl",
                policy,
                seed: trace_seed,
                trace: k as usize,
                fleet: 0,
                plan: None,
                cfg: xl_config(),
            });
        }
        FleetWorkload {
            traces,
            fleets: vec![fleet],
            plans: Vec::new(),
            ops,
        }
    }
}
