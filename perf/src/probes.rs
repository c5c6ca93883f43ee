//! Probes: fixed-count loops over one public function each, on seeded inputs.
//! They run once in every traced run, after the spans are recorded, and are
//! timed from outside like everything else here. A probe's number is the time
//! of a whole loop over its call count, or the median of a few such loops.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use vtx_cache::{CacheKey, CacheSpec, EvictPolicy, SegmentCache, ZipfSampler};
use vtx_chaos::{DetectorConfig, FailureDetector, FaultPlan};
use vtx_codec::entropy::cabac::CabacWriter;
use vtx_codec::entropy::EntropyWriter;
use vtx_codec::quant::quant4x4;
use vtx_codec::transform::{dct4x4, sad, satd4x4, Block4x4};
use vtx_codec::trellis::trellis_quant;
use vtx_codec::{encode_video, Preset, Qp};
use vtx_frame::{synth, vbench};
use vtx_obs::{BenchTrajectory, ObsConfig, QuantileSketch, TrajectoryRow};
use vtx_port::{solve, PortLayout, UopMix};
use vtx_sched::{auction, hungarian};
use vtx_serve::calendar::CalendarQueue;
use vtx_serve::cells::{CellPlan, IdleIndex};
use vtx_serve::cost::CostModel;
use vtx_serve::rng::SplitMix64;
use vtx_serve::sim::simulate_trace;
use vtx_serve::workload::{parse_trace, render_trace};
use vtx_serve::{policy_by_name, Fleet, JobSpec, ServeConfig, WorkloadSpec};
use vtx_telemetry::metrics::Histogram;
use vtx_telemetry::{Collector, Span};
use vtx_uarch::branch::{BranchPredictor, PentiumM, Tage};
use vtx_uarch::config::UarchConfig;
use vtx_uarch::hierarchy::MemoryHierarchy;

use crate::stats::median;
use crate::workloads::fleet::xl_config;
use crate::workloads::profiler;

type Out = BTreeMap<String, f64>;

/// Nanoseconds per call of `f` over `n` calls.
fn ns_per(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Seconds one call of `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median over `reps` calls of `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

fn jobs_for(seed: u64, jobs: usize, rate_hz: f64) -> Vec<JobSpec> {
    WorkloadSpec {
        jobs,
        arrival_rate_hz: rate_hz,
        ..WorkloadSpec::bundled(seed)
    }
    .generate()
    .expect("bundled workload generates")
}

fn simulate(jobs: &[JobSpec], seed: u64, fleet: &Fleet, cfg: &ServeConfig) {
    let policy = policy_by_name("smart", seed).expect("known policy");
    black_box(
        simulate_trace(jobs, seed, fleet.clone(), policy, cfg.clone()).expect("probe trace runs"),
    );
}

fn codec(seed: u64, out: &mut Out) {
    let mut rng = SplitMix64::new(seed ^ 0xC0DEC);
    let mut bytes = |n: usize| -> Vec<u8> { (0..n).map(|_| rng.next_u64() as u8).collect() };
    let (a, b) = (bytes(256), bytes(256));
    out.insert(
        "codec.kernel.sad16_ns".into(),
        ns_per(400_000, |_| {
            black_box(sad(black_box(&a), black_box(&b)));
        }),
    );
    out.insert(
        "codec.kernel.satd4_ns".into(),
        ns_per(1_000_000, |_| {
            black_box(satd4x4(black_box(&a[..16]), black_box(&b[..16])));
        }),
    );
    let residual: Block4x4 = std::array::from_fn(|i| i32::from(a[i]) - i32::from(b[i]));
    out.insert(
        "codec.kernel.dct4_ns".into(),
        ns_per(1_000_000, |_| {
            let mut blk = black_box(residual);
            dct4x4(&mut blk);
            black_box(blk);
        }),
    );
    let mut coefs = residual;
    dct4x4(&mut coefs);
    let qp = Qp::new(26);
    out.insert(
        "codec.kernel.quant4_ns".into(),
        ns_per(1_000_000, |_| {
            let mut blk = black_box(coefs);
            black_box(quant4x4(&mut blk, qp, false));
        }),
    );
    out.insert(
        "codec.kernel.trellis_ns".into(),
        ns_per(200_000, |_| {
            let mut blk = black_box(coefs);
            black_box(trellis_quant(&mut blk, qp, false, qp.lambda(), 2));
        }),
    );
    let bins = 2_000_000u64;
    let mut w = CabacWriter::new();
    let ns = ns_per(bins, |i| {
        let x = (i as u32).wrapping_mul(2_654_435_761);
        w.put_bit(x >> 29, x & 0x10000 != 0);
    });
    black_box(w.finish());
    out.insert("codec.kernel.cabac_bin_ns".into(), ns);

    // Wavefront encode on two threads over the serial encode, same clip and
    // preset. Noisy on a shared two-core machine; it has no end-to-end
    // metric and exists so that a serial gain that costs the
    // record-and-replay path shows.
    let spec = vbench::by_name("bike").expect("catalog clip");
    let video = synth::generate(&spec, seed);
    let encode = |threads: u32| {
        let cfg = Preset::Medium.config().with_threads(threads);
        let mut prof = profiler(&UarchConfig::baseline(), 16);
        secs(|| {
            black_box(encode_video(&video, &cfg, &mut prof).expect("probe encode"));
        })
    };
    let mut serial = Vec::new();
    let mut wavefront = Vec::new();
    for _ in 0..5 {
        serial.push(encode(1));
        wavefront.push(encode(2));
    }
    out.insert(
        "codec.wavefront2_ratio".into(),
        median(&wavefront) / median(&serial),
    );
}

fn trace_and_uarch(seed: u64, out: &mut Out) {
    let cfg = UarchConfig::baseline();
    out.insert(
        "trace.profiler_new_finish_us".into(),
        ns_per(300, |_| {
            black_box(profiler(&cfg, 1).finish());
        }) / 1e3,
    );

    // A fixed pseudo-random line stream over 4 MiB: far beyond the modelled L2.
    const LINES: u64 = 1 << 16;
    let mut rng = SplitMix64::new(seed ^ 0xCACE);
    let stream: Vec<u64> = (0..1_000_000).map(|_| rng.next_range(LINES)).collect();
    let mut loads = MemoryHierarchy::new(&cfg).expect("baseline validates");
    out.insert(
        "uarch.load_line_ns".into(),
        ns_per(stream.len() as u64, |i| {
            black_box(loads.load_line(stream[i as usize]));
        }),
    );
    let mut fetches = MemoryHierarchy::new(&cfg).expect("baseline validates");
    out.insert(
        "uarch.fetch_line_ns".into(),
        ns_per(stream.len() as u64, |i| {
            black_box(fetches.fetch_line(stream[i as usize]));
        }),
    );

    // 512 branch sites; a third follow a short loop pattern, the rest are
    // data-dependent coin flips.
    let outcomes: Vec<(u64, bool)> = (0..1_000_000u64)
        .map(|i| {
            let pc = rng.next_range(512);
            let taken = if pc.is_multiple_of(3) {
                i % 8 != 7
            } else {
                rng.next_u64() & 1 == 1
            };
            (pc, taken)
        })
        .collect();
    let observe = |p: &mut dyn BranchPredictor| {
        ns_per(outcomes.len() as u64, |i| {
            let (pc, taken) = outcomes[i as usize];
            black_box(p.observe(pc, taken));
        })
    };
    out.insert(
        "uarch.branch_ns.pentium_m".into(),
        observe(&mut PentiumM::new()),
    );
    out.insert("uarch.branch_ns.tage".into(), observe(&mut Tage::new()));

    let layout = PortLayout::for_config(&cfg);
    let mix = UopMix::for_preset_rank(5);
    out.insert(
        "port.solve_us".into(),
        ns_per(3_000, |_| {
            black_box(solve(&layout, &mix, f64::from(cfg.dispatch_width)).expect("solves"));
        }) / 1e3,
    );
}

fn telemetry(out: &mut Out) {
    Collector::disable();
    out.insert(
        "telemetry.span_off_ns".into(),
        ns_per(2_000_000, |_| {
            drop(black_box(Span::enter("perf/probe")));
        }),
    );
    Collector::enable();
    let on = ns_per(200_000, |_| {
        drop(black_box(Span::enter("perf/probe")));
    });
    Collector::disable();
    black_box(Collector::drain());
    out.insert("telemetry.span_on_ns".into(), on);
    let hist = Histogram::new();
    out.insert(
        "telemetry.hist_record_ns".into(),
        ns_per(2_000_000, |i| {
            hist.record(i.wrapping_mul(0x9E37_79B9) >> 40)
        }),
    );
    black_box(hist.count());
}

fn serve(seed: u64, out: &mut Out) {
    out.insert(
        "serve.fleet_build_ms.n10000".into(),
        median_of(3, || {
            secs(|| {
                black_box(Fleet::sized(10_000).expect("non-empty"));
            }) * 1e3
        }),
    );
    out.insert(
        "serve.cellplan_build_ms.n10000".into(),
        median_of(5, || {
            secs(|| {
                black_box(CellPlan::build(10_000, 0, seed));
            }) * 1e3
        }),
    );

    // One simulation per fleet size, log and plane off, 0.3 Hz of arrivals
    // per server (the per-server load of `WorkloadSpec::xl`).
    for (n, jobs) in [
        (8, 2_000),
        (64, 2_000),
        (500, 2_000),
        (2_000, 2_000),
        (10_000, 4_000),
    ] {
        let trace = jobs_for(seed, jobs, 0.3 * n as f64);
        let fleet = Fleet::sized(n).expect("non-empty");
        let s = secs(|| simulate(&trace, seed, &fleet, &xl_config()));
        out.insert(format!("serve.sim_us_per_job.n{n}"), s * 1e6 / jobs as f64);
    }

    // The hold model: pop the earliest event, schedule one a random
    // increment later, with the pending count constant.
    let mut rng = SplitMix64::new(seed ^ 0xCA1);
    for (label, pending) in [("p1k", 1_000u64), ("p100k", 100_000)] {
        let horizon = pending * 1_000;
        let mut q: CalendarQueue<u32> = CalendarQueue::new(horizon, pending as usize);
        for seq in 0..pending {
            q.push(rng.next_range(horizon), seq, 0);
        }
        let holds = 400_000u64;
        let ns = ns_per(holds, |i| {
            let (t, _, ev) = q.pop().expect("pending events");
            q.push(t + 1 + rng.next_range(horizon), pending + i, ev);
        });
        out.insert(format!("serve.calendar_ns_per_op.{label}"), ns / 2.0);
    }

    let mut idle = IdleIndex::new(CellPlan::build(10_000, 0, seed));
    let cycles = 500_000u64;
    let ns = ns_per(cycles, |_| {
        let s = rng.next_range(10_000) as usize;
        idle.set_busy(s);
        black_box(idle.nth_idle(rng.next_range(9_000) as usize));
        idle.set_idle(s);
    });
    out.insert("serve.idle_index_ns".into(), ns / 3.0);

    let model = CostModel::new(seed);
    let bundled = jobs_for(seed, 400, 2.4);
    let fleet = Fleet::table_iv();
    let calls = (bundled.len() * fleet.len() * 20) as f64;
    let predict = secs(|| {
        for _ in 0..20 {
            for j in &bundled {
                for s in fleet.servers() {
                    black_box(model.predicted_us(j, s));
                }
            }
        }
    });
    out.insert("serve.cost_predict_ns".into(), predict * 1e9 / calls);
    let truth = secs(|| {
        for _ in 0..20 {
            for j in &bundled {
                for (i, s) in fleet.servers().iter().enumerate() {
                    black_box(model.true_us(j, i, s));
                }
            }
        }
    });
    out.insert("serve.cost_true_ns".into(), truth * 1e9 / calls);

    let text = render_trace(&jobs_for(seed, 20_000, 150.0));
    let s = median_of(5, || {
        secs(|| {
            black_box(parse_trace(&text).expect("own rendering parses"));
        })
    });
    out.insert(
        "serve.trace_parse_mb_per_s".into(),
        text.len() as f64 / 1e6 / s,
    );

    // The same trace with the event log off, and with the plane off, against
    // both on: the share of the run that each costs.
    let both = ServeConfig::default();
    let no_log = ServeConfig {
        collect_event_log: false,
        ..ServeConfig::default()
    };
    let no_obs = ServeConfig {
        obs: ObsConfig::disabled(),
        ..ServeConfig::default()
    };
    let mut times: [Vec<f64>; 3] = Default::default();
    for _ in 0..25 {
        for (t, cfg) in times.iter_mut().zip([&both, &no_log, &no_obs]) {
            t.push(secs(|| simulate(&bundled, seed, &fleet, cfg)));
        }
    }
    let [both, no_log, no_obs] = times.map(|t| median(&t));
    out.insert("serve.log_overhead_share".into(), 1.0 - no_log / both);
    out.insert("obs.overhead_share".into(), 1.0 - no_obs / both);
}

fn sched(seed: u64, out: &mut Out) {
    let model = CostModel::new(seed);
    for (n, reps) in [(8usize, 2_000usize), (64, 30), (500, 1)] {
        let jobs = jobs_for(seed, n, 2.4);
        let fleet = Fleet::sized(n).expect("non-empty");
        let int: Vec<Vec<u64>> = jobs
            .iter()
            .map(|j| {
                fleet
                    .servers()
                    .iter()
                    .map(|s| model.predicted_us(j, s))
                    .collect()
            })
            .collect();
        let float: Vec<Vec<f64>> = int
            .iter()
            .map(|row| row.iter().map(|&c| c as f64).collect())
            .collect();
        let us = |f: &mut dyn FnMut()| {
            secs(|| {
                for _ in 0..reps {
                    f();
                }
            }) * 1e6
                / reps as f64
        };
        out.insert(
            format!("sched.hungarian_us.n{n}"),
            us(&mut || {
                black_box(hungarian::solve_padded(&float).expect("square matrix"));
            }),
        );
        out.insert(
            format!("sched.auction_us.n{n}"),
            us(&mut || {
                black_box(auction::solve_padded(&int).expect("square matrix"));
            }),
        );
        if n == 64 {
            // Re-solving with the prices the previous solve left behind.
            let mut prices = vec![0i64; n];
            auction::solve_padded_warm(&int, &mut prices).expect("square matrix");
            out.insert(
                "sched.auction_warm_us.n64".into(),
                us(&mut || {
                    black_box(auction::solve_padded_warm(&int, &mut prices).expect("square"));
                }),
            );
        }
    }
}

fn cache(seed: u64, out: &mut Out) {
    // Zipf(1.0) over 10k keys of equal size; capacity 10 % of the working set.
    const KEYS: usize = 10_000;
    const BYTES: u64 = 1_000;
    let key = |i: usize| CacheKey {
        video: format!("v{}", i / 16),
        preset: "medium".into(),
        crf: 23,
        refs: 3,
        rung: (i % 4) as u32,
        seg: ((i / 4) % 4) as u32,
    };
    let keys: Vec<CacheKey> = (0..KEYS).map(key).collect();
    let zipf = ZipfSampler::new(KEYS, 1.0);
    let mut rng = SplitMix64::new(seed ^ 0x21BF);
    out.insert(
        "cache.zipf_sample_ns".into(),
        ns_per(2_000_000, |_| {
            black_box(zipf.sample(rng.next_f64()));
        }),
    );
    let requests: Vec<usize> = (0..300_000).map(|_| zipf.sample(rng.next_f64())).collect();
    for policy in EvictPolicy::ALL {
        let mut c = SegmentCache::new(CacheSpec {
            capacity_bytes: KEYS as u64 * BYTES / 10,
            policy,
            lookup_us: 250,
        });
        for &r in &requests {
            if !c.lookup(&keys[r]) {
                c.insert(keys[r].clone(), BYTES, 1_000 + r as u64);
            }
        }
        if policy == EvictPolicy::Lru {
            let s = c.stats();
            out.insert(
                "cache.hit_share".into(),
                s.hits as f64 / (s.hits + s.misses) as f64,
            );
        }
        out.insert(
            format!("cache.lookup_ns.{}", policy.name()),
            ns_per(requests.len() as u64, |i| {
                black_box(c.lookup(&keys[requests[i as usize]]));
            }),
        );
        // Keys the cache has never seen, into a full cache: each evicts.
        let fresh: Vec<CacheKey> = (KEYS..KEYS + 20_000).map(key).collect();
        let mut fresh = fresh.into_iter();
        out.insert(
            format!("cache.insert_evict_ns.{}", policy.name()),
            ns_per(20_000, |i| {
                black_box(c.insert(fresh.next().expect("one key per call"), BYTES, 1_000 + i));
            }),
        );
    }
}

fn chaos(seed: u64, out: &mut Out) {
    const SERVERS: usize = 64;
    const HORIZON_US: u64 = 60_000_000;
    out.insert(
        "chaos.storm_plan_us".into(),
        ns_per(2_000, |i| {
            black_box(FaultPlan::storm(seed.wrapping_add(i), SERVERS, HORIZON_US));
        }) / 1e3,
    );
    let mut detector = FailureDetector::new(DetectorConfig::default(), SERVERS);
    for s in (0..SERVERS).step_by(4) {
        detector.stop_beats(s, (s as u64 + 1) * 500_000);
    }
    let mut rng = SplitMix64::new(seed ^ 0xC405);
    out.insert(
        "chaos.classify_ns".into(),
        ns_per(2_000_000, |_| {
            let s = rng.next_range(SERVERS as u64) as usize;
            black_box(detector.classify(s, rng.next_range(HORIZON_US)));
        }),
    );
    let plan = FaultPlan::storm(seed, SERVERS, HORIZON_US);
    out.insert(
        "chaos.inflate_ns".into(),
        ns_per(2_000_000, |_| {
            let s = rng.next_range(SERVERS as u64) as usize;
            black_box(plan.inflate(s, rng.next_range(HORIZON_US), 1 + rng.next_range(5_000_000)));
        }),
    );
}

/// A trajectory of `rows` rows shaped like the committed `BENCH_serving.json`
/// (which has 29), made here so the probe reads no file outside `perf/`.
fn trajectory(seed: u64, rows: usize) -> String {
    let mut rng = SplitMix64::new(seed ^ 0x7247);
    let mut t = BenchTrajectory::new("perf_probe");
    for i in 0..rows {
        let offered = 300 + rng.next_range(20_000);
        let shed = rng.next_range(100);
        let p50 = rng.next_range(2_000_000);
        let peak = rng.next_range(12_000);
        t.push(TrajectoryRow {
            scenario: [
                "baseline",
                "faulted",
                "segmented",
                "cached",
                "surge_flash_auto",
            ][i % 5]
                .into(),
            policy: ["random", "round_robin", "smart", "port"][i % 4].into(),
            seed,
            servers: 5 + rng.next_range(500),
            cells: rng.next_range(8),
            segments: rng.next_range(1_000),
            offered,
            completed: offered - shed,
            slo_violations: rng.next_range(50),
            shed,
            shed_rung: shed / 2,
            shed_tenant: shed / 3,
            p50_sojourn_us: p50,
            p99_sojourn_us: p50 + rng.next_range(30_000_000),
            throughput_milli_jps: rng.next_range(200_000),
            goodput_milli_jps: rng.next_range(200_000),
            availability_milli: 900 + rng.next_range(100),
            cache_hit_milli: rng.next_range(1_000),
            peak_capacity_milli: peak,
            served_capacity_milli: peak / 2,
            alerts: rng.next_range(6),
            makespan_us: rng.next_range(300_000_000),
            wall_ms: 0,
        });
    }
    t.to_json()
}

fn obs(seed: u64, out: &mut Out) {
    let mut rng = SplitMix64::new(seed ^ 0x0B5);
    let mut sketch = QuantileSketch::new();
    out.insert(
        "obs.sketch_record_ns".into(),
        ns_per(2_000_000, |_| sketch.record(rng.next_range(30_000_000))),
    );
    out.insert(
        "obs.sketch_quantile_ns".into(),
        ns_per(200_000, |i| {
            black_box(sketch.quantile_permille(500 + (i % 500) as u32));
        }),
    );
    let big = trajectory(seed, 290);
    let s = median_of(5, || {
        secs(|| {
            black_box(vtx_obs::json::parse(&big).expect("own rendering parses"));
        })
    });
    out.insert("obs.json_parse_mb_per_s".into(), big.len() as f64 / 1e6 / s);
    let committed_size = trajectory(seed, 29);
    out.insert(
        "obs.trajectory_validate_us".into(),
        ns_per(200, |_| {
            black_box(BenchTrajectory::validate_str(&committed_size).expect("validates"));
        }) / 1e3,
    );
}

/// Runs every probe and adds its metrics to `out`.
pub fn run(seed: u64, out: &mut Out) {
    let t = Instant::now();
    codec(seed, out);
    trace_and_uarch(seed, out);
    telemetry(out);
    serve(seed, out);
    sched(seed, out);
    cache(seed, out);
    chaos(seed, out);
    obs(seed, out);
    eprintln!("probes took {:.2} s", t.elapsed().as_secs_f64());
}
