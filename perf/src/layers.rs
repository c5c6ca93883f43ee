//! The per-layer metrics: their names, and the ones derived from spans.
//!
//! Layers are the crate names. A span-derived time is the layer's self time
//! (duration minus what child spans cover), as the median over the ops that
//! called it, summed within an op; set-up spans count per call. A rate is the
//! spans' summed count over their summed self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::harness::Metrics;
use crate::spans::{self_times, SpanRec, OP_SPAN, SETUP_OP};
use crate::stats::median;
use crate::workloads::SimCounts;

/// Every per-layer metric a traced run prints: name, unit, better. The
/// `per_layer` list of `BENCHMARK.json` is this table (a unit test compares
/// them).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("frame.synth_ms", "ms", "lower"),
    ("frame.psnr_ms", "ms", "lower"),
    ("core.from_catalog_ms", "ms", "lower"),
    ("core.transcode_ms", "ms", "lower"),
    ("opt.compile_ms", "ms", "lower"),
    ("codec.encode_ms", "ms", "lower"),
    ("codec.decode_ms", "ms", "lower"),
    ("codec.record_ms", "ms", "lower"),
    ("codec.encode_fps.ultrafast", "1/s", "higher"),
    ("codec.encode_fps.veryfast", "1/s", "higher"),
    ("codec.encode_fps.medium", "1/s", "higher"),
    ("codec.encode_fps.slow", "1/s", "higher"),
    ("codec.decode_fps", "1/s", "higher"),
    ("codec.kernel.sad16_ns", "ns", "lower"),
    ("codec.kernel.satd4_ns", "ns", "lower"),
    ("codec.kernel.dct4_ns", "ns", "lower"),
    ("codec.kernel.quant4_ns", "ns", "lower"),
    ("codec.kernel.trellis_ns", "ns", "lower"),
    ("codec.kernel.cabac_bin_ns", "ns", "lower"),
    ("codec.wavefront2_ratio", "ratio", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.replay_ms", "ms", "lower"),
    ("trace.replay_mevents_per_s", "Mevents/s", "higher"),
    ("trace.profiler_new_finish_us", "us", "lower"),
    ("uarch.load_line_ns", "ns", "lower"),
    ("uarch.fetch_line_ns", "ns", "lower"),
    ("uarch.branch_ns.pentium_m", "ns", "lower"),
    ("uarch.branch_ns.tage", "ns", "lower"),
    ("uarch.sim_instructions", "count", "lower"),
    ("uarch.sim_l1d_misses", "count", "lower"),
    ("uarch.sim_l2_misses", "count", "lower"),
    ("uarch.sim_mispredicts", "count", "lower"),
    ("port.solve_us", "us", "lower"),
    ("port.refine_us", "us", "lower"),
    ("telemetry.span_off_ns", "ns", "lower"),
    ("telemetry.span_on_ns", "ns", "lower"),
    ("telemetry.hist_record_ns", "ns", "lower"),
    ("container.package_ms", "ms", "lower"),
    ("container.demux_ms", "ms", "lower"),
    ("container.mux_mb_per_s", "MB/s", "higher"),
    ("container.manifest_us", "us", "lower"),
    ("serve.generate_ms", "ms", "lower"),
    ("serve.expand_ms", "ms", "lower"),
    ("serve.fleet_build_ms.n10000", "ms", "lower"),
    ("serve.cellplan_build_ms.n10000", "ms", "lower"),
    ("serve.simulate_ms.baseline", "ms", "lower"),
    ("serve.simulate_ms.faulted", "ms", "lower"),
    ("serve.simulate_ms.segmented", "ms", "lower"),
    ("serve.simulate_ms.cached", "ms", "lower"),
    ("serve.simulate_ms.surge", "ms", "lower"),
    ("serve.simulate_ms.xl", "ms", "lower"),
    ("serve.events_per_s", "1/s", "higher"),
    ("serve.sim_us_per_job.n8", "us", "lower"),
    ("serve.sim_us_per_job.n64", "us", "lower"),
    ("serve.sim_us_per_job.n500", "us", "lower"),
    ("serve.sim_us_per_job.n2000", "us", "lower"),
    ("serve.sim_us_per_job.n10000", "us", "lower"),
    ("serve.calendar_ns_per_op.p1k", "ns", "lower"),
    ("serve.calendar_ns_per_op.p100k", "ns", "lower"),
    ("serve.idle_index_ns", "ns", "lower"),
    ("serve.cost_predict_ns", "ns", "lower"),
    ("serve.cost_true_ns", "ns", "lower"),
    ("serve.trace_parse_mb_per_s", "MB/s", "higher"),
    ("serve.report_render_us", "us", "lower"),
    ("serve.log_overhead_share", "share", "lower"),
    ("sched.hungarian_us.n8", "us", "lower"),
    ("sched.hungarian_us.n64", "us", "lower"),
    ("sched.hungarian_us.n500", "us", "lower"),
    ("sched.auction_us.n8", "us", "lower"),
    ("sched.auction_us.n64", "us", "lower"),
    ("sched.auction_us.n500", "us", "lower"),
    ("sched.auction_warm_us.n64", "us", "lower"),
    ("cache.lookup_ns.lru", "ns", "lower"),
    ("cache.lookup_ns.lfu", "ns", "lower"),
    ("cache.lookup_ns.gdsf", "ns", "lower"),
    ("cache.insert_evict_ns.lru", "ns", "lower"),
    ("cache.insert_evict_ns.lfu", "ns", "lower"),
    ("cache.insert_evict_ns.gdsf", "ns", "lower"),
    ("cache.zipf_sample_ns", "ns", "lower"),
    ("cache.hit_share", "share", "higher"),
    ("chaos.storm_plan_us", "us", "lower"),
    ("chaos.classify_ns", "ns", "lower"),
    ("chaos.inflate_ns", "ns", "lower"),
    ("obs.overhead_share", "share", "lower"),
    ("obs.conservation_us", "us", "lower"),
    ("obs.prometheus_us", "us", "lower"),
    ("obs.sketch_record_ns", "ns", "lower"),
    ("obs.sketch_quantile_ns", "ns", "lower"),
    ("obs.json_parse_mb_per_s", "MB/s", "higher"),
    ("obs.trajectory_validate_us", "us", "lower"),
    ("perf.trace_overhead_share", "share", "lower"),
    ("perf.span_coverage", "share", "higher"),
];

/// Span-derived times: metric name, span-name prefix, milliseconds → unit.
const SPAN_TIMES: &[(&str, &str, f64)] = &[
    ("frame.synth_ms", "frame.synth", 1.0),
    ("frame.psnr_ms", "frame.psnr", 1.0),
    ("core.from_catalog_ms", "core.from_catalog", 1.0),
    ("opt.compile_ms", "opt.compile", 1.0),
    ("codec.encode_ms", "codec.encode.", 1.0),
    ("codec.decode_ms", "codec.decode", 1.0),
    ("codec.record_ms", "codec.record", 1.0),
    ("trace.replay_ms", "trace.replay", 1.0),
    ("port.refine_us", "port.refine", 1e3),
    ("container.package_ms", "container.package", 1.0),
    ("container.demux_ms", "container.demux", 1.0),
    ("container.manifest_us", "container.manifest", 1e3),
    ("serve.generate_ms", "serve.generate", 1.0),
    ("serve.expand_ms", "serve.expand", 1.0),
    ("serve.simulate_ms.baseline", "serve.simulate.baseline", 1.0),
    ("serve.simulate_ms.faulted", "serve.simulate.faulted", 1.0),
    (
        "serve.simulate_ms.segmented",
        "serve.simulate.segmented",
        1.0,
    ),
    ("serve.simulate_ms.cached", "serve.simulate.cached", 1.0),
    ("serve.simulate_ms.surge", "serve.simulate.surge", 1.0),
    ("serve.simulate_ms.xl", "serve.simulate.xl", 1.0),
    ("serve.report_render_us", "serve.report_render", 1e3),
    ("obs.conservation_us", "obs.conservation", 1e3),
    ("obs.prometheus_us", "obs.prometheus", 1e3),
];

/// Span-derived rates: metric name, span-name prefix, count/s → unit.
const SPAN_RATES: &[(&str, &str, f64)] = &[
    ("codec.encode_fps.ultrafast", "codec.encode.ultrafast", 1.0),
    ("codec.encode_fps.veryfast", "codec.encode.veryfast", 1.0),
    ("codec.encode_fps.medium", "codec.encode.medium", 1.0),
    ("codec.encode_fps.slow", "codec.encode.slow", 1.0),
    ("codec.decode_fps", "codec.decode", 1.0),
    ("trace.replay_mevents_per_s", "trace.replay", 1e-6),
    ("container.mux_mb_per_s", "container.package", 1e-6),
    ("serve.events_per_s", "serve.simulate.", 1.0),
];

/// Median over ops of the self time, in ms, of the spans whose name starts
/// with `prefix`, summed within each op; a set-up span is its own group.
fn median_self_ms(spans: &[SpanRec], selfs: &[u64], prefix: &str) -> Option<f64> {
    let mut groups: BTreeMap<(u32, usize), u64> = BTreeMap::new();
    for (i, (s, &ns)) in spans.iter().zip(selfs).enumerate() {
        if s.name.starts_with(prefix) {
            let call = if s.op == SETUP_OP { i } else { 0 };
            *groups.entry((s.op, call)).or_default() += ns;
        }
    }
    let ms: Vec<f64> = groups.values().map(|&ns| ns as f64 / 1e6).collect();
    (!ms.is_empty()).then(|| median(&ms))
}

/// Summed count over summed self seconds of the counting spans whose name
/// starts with `prefix`.
fn rate_per_s(spans: &[SpanRec], selfs: &[u64], prefix: &str) -> Option<f64> {
    let (mut count, mut ns) = (0u64, 0u64);
    for (s, &self_ns) in spans.iter().zip(selfs) {
        if s.count > 0 && s.name.starts_with(prefix) {
            count += s.count;
            ns += self_ns;
        }
    }
    (ns > 0).then(|| count as f64 / (ns as f64 / 1e9))
}

/// Adds every span-derived per-layer metric.
pub fn from_spans(spans: &[SpanRec], out: &mut BTreeMap<String, f64>) {
    let selfs = self_times(spans);
    let mut put = |name: &str, v: Option<f64>| {
        let v = v.unwrap_or_else(|| {
            eprintln!("warning: no span feeds {name}");
            0.0
        });
        out.insert(name.to_string(), v);
    };
    for &(name, prefix, scale) in SPAN_TIMES {
        put(
            name,
            median_self_ms(spans, &selfs, prefix).map(|ms| ms * scale),
        );
    }
    for &(name, prefix, scale) in SPAN_RATES {
        put(name, rate_per_s(spans, &selfs, prefix).map(|r| r * scale));
    }
    // The whole-op span: its duration, children included.
    let whole: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.transcode")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    put(
        "core.transcode_ms",
        (!whole.is_empty()).then(|| median(&whole)),
    );
}

/// Adds the exact simulated counts of the `characterize_sweep` reference pass.
pub fn sim_counts(sim: &SimCounts, out: &mut BTreeMap<String, f64>) {
    out.insert("trace.events".into(), sim.events as f64);
    out.insert("uarch.sim_instructions".into(), sim.instructions as f64);
    out.insert("uarch.sim_l1d_misses".into(), sim.l1d_misses as f64);
    out.insert("uarch.sim_l2_misses".into(), sim.l2_misses as f64);
    out.insert("uarch.sim_mispredicts".into(), sim.mispredicts as f64);
}

/// The metrics in `PER_LAYER` order with their units. A name the table has
/// and the run lacks is a bug in the harness.
pub fn ordered(metrics: &BTreeMap<String, f64>) -> Metrics {
    for name in metrics.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| n == name),
            "{name} is measured but not in PER_LAYER"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let v = *metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} is in PER_LAYER but was not measured"));
            (name.to_string(), v, unit)
        })
        .collect()
}

/// Per layer (the span name up to its first dot), and for the harness's own
/// time (`perf`), the share of op time that is the layer's self time. Also
/// the share of single spans the acceptance criteria name.
pub fn share_table(spans: &[SpanRec]) -> Vec<(String, f64)> {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    let mut total = 0u64;
    for (s, &ns) in spans.iter().zip(&selfs) {
        if s.op == SETUP_OP {
            continue;
        }
        let key = if s.name == OP_SPAN {
            total += s.end_ns - s.start_ns;
            "perf".to_string()
        } else {
            s.name.split('.').next().unwrap_or(s.name).to_string()
        };
        *by_layer.entry(key).or_default() += ns;
        for single in ["trace.replay", "serve.simulate."] {
            if s.name.starts_with(single) {
                *by_layer
                    .entry(single.trim_end_matches('.').to_string())
                    .or_default() += ns;
            }
        }
    }
    let mut rows: Vec<(String, f64)> = by_layer
        .into_iter()
        .map(|(k, ns)| (k, ns as f64 / total.max(1) as f64))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

pub fn render_shares(workload: &str, shares: &[(String, f64)]) -> String {
    let mut out = format!("share of op time by layer, {workload} (self time / op time):\n");
    for (layer, share) in shares {
        let _ = writeln!(out, "  {layer:<16} {:>6.2} %", share * 100.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{NO_PARENT, SETUP_SPAN};

    fn rec(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op: u32,
        count: u64,
    ) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            count,
        }
    }

    fn sample() -> Vec<SpanRec> {
        vec![
            rec(OP_SPAN, 0, 10_000_000, NO_PARENT, 0, 0),
            rec("codec.encode.slow", 0, 4_000_000, 0, 0, 10),
            rec("codec.encode.medium", 4_000_000, 6_000_000, 0, 0, 10),
            rec(OP_SPAN, 10_000_000, 20_000_000, NO_PARENT, 1, 0),
            rec("codec.encode.slow", 10_000_000, 18_000_000, 3, 1, 10),
            rec(SETUP_SPAN, 20_000_000, 30_000_000, NO_PARENT, SETUP_OP, 0),
            rec("frame.synth", 20_000_000, 21_000_000, 5, SETUP_OP, 0),
            rec("frame.synth", 21_000_000, 24_000_000, 5, SETUP_OP, 0),
            rec("frame.synth", 24_000_000, 26_000_000, 5, SETUP_OP, 0),
        ]
    }

    #[test]
    fn times_sum_within_an_op_and_setup_spans_count_per_call() {
        let spans = sample();
        let selfs = self_times(&spans);
        // op 0: 4 + 2 = 6 ms, op 1: 8 ms; nearest-rank median of {6, 8} is 6
        assert_eq!(median_self_ms(&spans, &selfs, "codec.encode."), Some(6.0));
        assert_eq!(
            median_self_ms(&spans, &selfs, "codec.encode.slow"),
            Some(4.0)
        );
        // three calls of 1, 3 and 2 ms
        assert_eq!(median_self_ms(&spans, &selfs, "frame.synth"), Some(2.0));
        assert_eq!(median_self_ms(&spans, &selfs, "nope"), None);
    }

    #[test]
    fn rates_are_count_over_self_time() {
        let spans = sample();
        let selfs = self_times(&spans);
        // 20 frames in 12 ms
        let fps = rate_per_s(&spans, &selfs, "codec.encode.slow").unwrap();
        assert!((fps - 20.0 / 0.012).abs() < 1e-6);
        assert_eq!(rate_per_s(&spans, &selfs, "frame.synth"), None);
    }

    #[test]
    fn shares_are_of_op_time_only() {
        let shares: BTreeMap<String, f64> = share_table(&sample()).into_iter().collect();
        assert!((shares["codec"] - 0.7).abs() < 1e-12);
        assert!((shares["perf"] - 0.3).abs() < 1e-12);
        assert!(!shares.contains_key("frame"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        assert!(PER_LAYER.len() <= 128);
        for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
            assert!(matches!(*better, "higher" | "lower"), "{name}");
            assert!(
                !PER_LAYER[..i].iter().any(|(n, _, _)| n == name),
                "{name} twice"
            );
        }
        for (name, _, _) in SPAN_TIMES.iter().chain(SPAN_RATES) {
            assert!(PER_LAYER.iter().any(|(n, _, _)| n == name), "{name}");
        }
    }
}
