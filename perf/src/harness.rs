//! The closed loop: one client on one thread, ops back to back, whole passes
//! over a workload's fixed op list.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::layers;
use crate::probes;
use crate::spans::{self, Tracer, OP_SPAN, SETUP_OP, SETUP_SPAN};
use crate::stats::{highest_supported_percentile, median, percentile, Fnv64};
use crate::workloads::{self, SimCounts, Size, Workload};

/// An untraced run sets up at least this many times and until set-up has
/// taken `SETUP_BUDGET_S` in all (at most `SETUP_MAX_REPS` times); `setup_s`
/// is the median. Short set-ups repeat often, which steadies their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.0;
/// Spans pre-allocated for a traced run.
const SPAN_CAPACITY: usize = 1 << 18;

/// Prints the first few complaints about failed ops to standard error, so a
/// workload that fails on every op does not bury its result.
pub fn complain(message: &str) {
    static PRINTED: AtomicUsize = AtomicUsize::new(0);
    match PRINTED.fetch_add(1, Ordering::Relaxed) {
        0..=7 => eprintln!("{message}"),
        8 => eprintln!("(further failed ops are counted, not printed)"),
        _ => {}
    }
}

/// A named value with its unit, in the order it is printed.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// What a run of one workload produced, end-to-end or per layer.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Ops in one pass, and measured passes.
    pub ops_per_pass: usize,
    pub passes: usize,
    /// Ops attempted and failed, warm-up pass included.
    pub attempted: u64,
    pub failed: u64,
    /// Work in one pass, in `work_unit`; the same in every pass.
    pub work_per_pass: f64,
    pub work_unit: &'static str,
    /// FNV-1a over the per-op digests of one pass; the same in every pass.
    pub digest: u64,
    /// Per op of the list, its median time over the measured passes (empty in
    /// a traced run). `op_p50_ms` and `op_p90_ms` are percentiles of these.
    pub op_median_ms: Vec<f64>,
    pub metrics: Metrics,
}

/// One pass over the op list.
struct Pass {
    op_ms: Vec<f64>,
    digests: Vec<u64>,
    work: f64,
    failed: u64,
    sim: SimCounts,
    wall_s: f64,
}

/// Runs every op once. An op fails if its own checks fail or, given the
/// warm-up pass's digests, if its outputs differ from them.
fn run_pass(w: &dyn Workload, tr: &mut Tracer, first_op_id: u32, expect: Option<&[u64]>) -> Pass {
    let n = w.n_ops();
    let mut pass = Pass {
        op_ms: Vec::with_capacity(n),
        digests: Vec::with_capacity(n),
        work: 0.0,
        failed: 0,
        sim: SimCounts::default(),
        wall_s: 0.0,
    };
    let start = Instant::now();
    for i in 0..n {
        tr.set_op(first_op_id + i as u32);
        let t = Instant::now();
        let r = tr.span(OP_SPAN, |tr| w.run(i, tr));
        pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let same = expect.is_none_or(|e| e[i] == r.digest);
        if !(r.ok && same) {
            if r.ok {
                complain(&format!(
                    "op {i} ({}): outputs differ from the warm-up pass",
                    w.label(i)
                ));
            }
            pass.failed += 1;
        }
        pass.digests.push(r.digest);
        pass.work += r.work;
        pass.sim.add(&r.sim);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Each op's median time over the passes (`op_ms[pass][op]`). Percentiles of
/// these, not of the pooled samples, describe the op list: a stretch of
/// interference that slows a few passes moves a pooled p90 of like-cost ops
/// by its full factor, and leaves every op's median where it was.
fn op_medians(op_ms: &[Vec<f64>]) -> Vec<f64> {
    (0..op_ms[0].len())
        .map(|i| median(&op_ms.iter().map(|pass| pass[i]).collect::<Vec<_>>()))
        .collect()
}

fn pass_digest(digests: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    for &d in digests {
        h.u64(d);
    }
    h.finish()
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn build(name: &str, seed: u64, size: Size, tr: &mut Tracer) -> Box<dyn Workload> {
    workloads::build(name, seed, size, tr).unwrap_or_else(|| panic!("unknown workload {name}"))
}

/// Whether one more pass still fits a budget of `budget_s`, given the time
/// used so far and what the last pass took: it does if at most half of it
/// would run over, so a run ends at the whole pass nearest to its budget.
fn fits(used_s: f64, last_pass_s: f64, budget_s: f64) -> bool {
    used_s + last_pass_s / 2.0 < budget_s
}

/// The untraced run: set-up several times, one warm-up pass, then whole
/// passes for about `seconds`. Every end-to-end metric comes from here.
pub fn run_end_to_end(name: &str, seed: u64, seconds: f64) -> RunResult {
    let mut off = Tracer::off();
    let mut setup_s = Vec::new();
    let mut w = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Free the previous inputs first so peak memory is that of one set.
        drop(w.take());
        let t = Instant::now();
        w = Some(build(name, seed, Size::Full, &mut off));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let w = w.expect("set-up ran");

    let warm = run_pass(w.as_ref(), &mut off, 0, None);
    let mut op_ms = Vec::new();
    let mut pass_s = Vec::new();
    let mut failed = warm.failed;
    let start = Instant::now();
    loop {
        let p = run_pass(w.as_ref(), &mut off, 0, Some(&warm.digests));
        op_ms.push(p.op_ms);
        pass_s.push(p.wall_s);
        failed += p.failed;
        if !fits(start.elapsed().as_secs_f64(), p.wall_s, seconds) {
            break;
        }
    }
    let passes = pass_s.len();
    let n = passes * w.n_ops();
    if highest_supported_percentile(n).is_none_or(|p| p < 90.0) {
        eprintln!("warning: n = {n} ops leaves fewer than ten samples beyond p90; run longer");
    }
    let op_median_ms = op_medians(&op_ms);
    let mut sorted = op_median_ms.clone();
    sorted.sort_by(f64::total_cmp);

    let metrics = vec![
        ("setup_s".to_string(), median(&setup_s), "s"),
        // Every pass does the same work, so the median pass gives the rate:
        // a burst of interference moves a mean, and leaves a median alone.
        ("work_per_s".to_string(), warm.work / median(&pass_s), "1/s"),
        ("op_p50_ms".to_string(), percentile(&sorted, 50.0), "ms"),
        ("op_p90_ms".to_string(), percentile(&sorted, 90.0), "ms"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"),
    ];
    RunResult {
        workload: name.to_string(),
        seed,
        traced: false,
        ops_per_pass: w.n_ops(),
        passes,
        attempted: (n + w.n_ops()) as u64,
        failed,
        work_per_pass: warm.work,
        work_unit: workloads::work_unit(name),
        digest: pass_digest(&warm.digests),
        op_median_ms,
        metrics,
    }
}

/// The traced run: pairs of an untraced and a traced pass for about half of
/// `seconds`, then a short traced reference pass of every workload (so each
/// layer is called in every traced run), then the probes. Every per-layer
/// metric comes from here; the spans go to `out/trace-<workload>.json`.
pub fn run_traced(name: &str, seed: u64, seconds: f64, out_dir: &std::path::Path) -> RunResult {
    let mut off = Tracer::off();
    let mut tr = Tracer::on(SPAN_CAPACITY);
    let traced_build = |name: &str, size: Size, tr: &mut Tracer| {
        tr.set_op(SETUP_OP);
        tr.span(SETUP_SPAN, |tr| build(name, seed, size, tr))
    };

    let w = traced_build(name, Size::Full, &mut tr);
    let n = w.n_ops() as u32;
    let warm = run_pass(w.as_ref(), &mut off, 0, None);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut failed = warm.failed;
    let mut next_op = 0;
    let start = Instant::now();
    loop {
        let p = run_pass(w.as_ref(), &mut off, 0, Some(&warm.digests));
        let t = run_pass(w.as_ref(), &mut tr, next_op, Some(&warm.digests));
        next_op += n;
        plain_s.push(p.wall_s);
        traced_s.push(t.wall_s);
        failed += p.failed + t.failed;
        if !fits(
            start.elapsed().as_secs_f64(),
            p.wall_s + t.wall_s,
            seconds / 2.0,
        ) {
            break;
        }
    }
    let pairs = plain_s.len();
    let mut attempted = u64::from(n) * (1 + 2 * pairs as u64);

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    metrics.insert(
        "perf.trace_overhead_share".into(),
        1.0 - median(&plain_s) / median(&traced_s),
    );
    metrics.insert("perf.span_coverage".into(), spans::coverage(tr.spans()));
    let shares = layers::share_table(tr.spans());
    drop(w);

    for v in workloads::NAMES {
        let r = traced_build(v, Size::Reference, &mut tr);
        let p = run_pass(r.as_ref(), &mut tr, next_op, None);
        next_op += r.n_ops() as u32;
        failed += p.failed;
        attempted += r.n_ops() as u64;
        if v == "characterize_sweep" {
            layers::sim_counts(&p.sim, &mut metrics);
        }
    }
    layers::from_spans(tr.spans(), &mut metrics);
    probes::run(seed, &mut metrics);

    std::fs::create_dir_all(out_dir).expect("create out dir");
    let path = out_dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, spans::chrome_json(tr.spans())).expect("write chrome trace");
    eprintln!("{} spans -> {}", tr.spans().len(), path.display());
    eprintln!("{}", layers::render_shares(name, &shares));

    RunResult {
        workload: name.to_string(),
        seed,
        traced: true,
        ops_per_pass: n as usize,
        passes: pairs,
        attempted,
        failed,
        work_per_pass: warm.work,
        work_unit: workloads::work_unit(name),
        digest: pass_digest(&warm.digests),
        op_median_ms: Vec::new(),
        metrics: layers::ordered(&metrics),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_ends_at_the_whole_pass_nearest_its_budget() {
        // 7 passes of 2.7 s are 18.9 s: an eighth would end 1.6 s over, more
        // than half a pass. After 6 passes (16.2 s) a seventh still fits.
        assert!(fits(16.2, 2.7, 20.0));
        assert!(!fits(18.9, 2.7, 20.0));
        assert!(!fits(5.0, 5.0, 1.0));
    }

    #[test]
    fn a_slow_pass_leaves_op_medians_alone() {
        let calm = vec![vec![10.0, 20.0, 30.0]; 4];
        let mut disturbed = calm.clone();
        disturbed.push(vec![15.0, 30.0, 45.0]);
        assert_eq!(op_medians(&calm), vec![10.0, 20.0, 30.0]);
        assert_eq!(op_medians(&disturbed), vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn pass_digest_follows_order() {
        assert_ne!(pass_digest(&[1, 2]), pass_digest(&[2, 1]));
        assert_eq!(pass_digest(&[1, 2]), pass_digest(&[1, 2]));
    }
}
