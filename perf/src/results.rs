//! Results as JSON (written by hand, read back through `vtx_obs::json`), the
//! bounds of `BENCHMARK.json`, and `--compare`.

use std::fmt::Write as _;

use vtx_obs::json::{self, JsonValue};

use crate::harness::RunResult;

/// The benchmark's contract, embedded so the binary and the file cannot
/// drift apart unnoticed (a unit test compares the names).
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `setup_s` counts as worse only if it is also worse by this many seconds:
/// set-up is short, and a quarter of little is scheduler noise.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the base by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
        }
    }
}

impl Bound {
    /// Judges `new` against `base`: worse if it moved the wrong way by more
    /// than the bound (and, for `setup_s`, by more than the absolute floor),
    /// better if it moved the right way by more than the bound.
    pub fn verdict(&self, base: f64, new: f64) -> Verdict {
        let gain = if self.higher_is_better {
            new - base
        } else {
            base - new
        };
        let margin = self.bound * base.abs();
        let floor = if self.name == "setup_s" {
            SETUP_FLOOR_S
        } else {
            0.0
        };
        if -gain > margin && -gain > floor {
            Verdict::Worse
        } else if gain > margin && gain > floor {
            Verdict::Better
        } else {
            Verdict::Within
        }
    }
}

fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing \"{key}\""))
}

fn text(v: &JsonValue, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("\"{key}\" is not a string"))
}

fn number(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("\"{key}\" is not a number"))
}

/// The `end_to_end` list of a `BENCHMARK.json`.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    field(&doc, "end_to_end")?
        .as_array()
        .ok_or("\"end_to_end\" is not an array")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: text(m, "name")?,
                higher_is_better: text(m, "better")? == "higher",
                bound: number(m, "bound")?,
            })
        })
        .collect()
}

/// `run_seconds` of a `BENCHMARK.json`.
pub fn run_seconds(benchmark_json: &str) -> Result<f64, String> {
    number(&json::parse(benchmark_json)?, "run_seconds")
}

/// Names under `key` (`workloads`, `end_to_end` or `per_layer`) with, where
/// present, unit and direction.
#[cfg(test)]
fn declared(benchmark_json: &str, key: &str) -> Result<Vec<(String, String, String)>, String> {
    let doc = json::parse(benchmark_json)?;
    field(&doc, key)?
        .as_array()
        .ok_or_else(|| format!("\"{key}\" is not an array"))?
        .iter()
        .map(|m| {
            Ok((
                text(m, "name")?,
                text(m, "unit").unwrap_or_default(),
                text(m, "better").unwrap_or_default(),
            ))
        })
        .collect()
}

fn json_number(v: f64) -> String {
    // `{:?}` prints the shortest decimal that reads back as the same f64.
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(run: &RunResult) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in run.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    out.push('}');
    out
}

/// The last line of standard output the benchmark's contract asks for.
pub fn driver_line(run: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics_json(run)
    )
}

/// One run with everything `--compare` needs.
pub fn run_json(run: &RunResult) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"ops_per_pass\": {}, \"passes\": {}, \
         \"attempted\": {}, \"failed\": {}, \"work_per_pass\": {}, \"work_unit\": \"{}\", \
         \"digest\": \"{:#018x}\", \"op_median_ms\": [{}], \"metrics\": {}}}",
        run.workload,
        run.seed,
        run.traced,
        run.ops_per_pass,
        run.passes,
        run.attempted,
        run.failed,
        json_number(run.work_per_pass),
        run.work_unit,
        run.digest,
        run.op_median_ms
            .iter()
            .map(|&v| json_number(v))
            .collect::<Vec<_>>()
            .join(", "),
        metrics_json(run)
    )
}

/// What `--compare` reads back of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    pub workload: String,
    pub traced: bool,
    pub ops_per_pass: u64,
    pub failed: u64,
    pub work_per_pass: f64,
    pub digest: String,
    /// (name, value, unit), in file order of the name.
    pub metrics: Vec<(String, f64, String)>,
}

pub fn parse_run(v: &JsonValue) -> Result<StoredRun, String> {
    let metrics = match field(v, "metrics")? {
        JsonValue::Object(m) => m
            .iter()
            .map(|(name, m)| Ok((name.clone(), number(m, "value")?, text(m, "unit")?)))
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("\"metrics\" is not an object".into()),
    };
    Ok(StoredRun {
        workload: text(v, "workload")?,
        traced: field(v, "traced")?
            .as_bool()
            .ok_or("\"traced\" is not a boolean")?,
        ops_per_pass: number(v, "ops_per_pass")? as u64,
        failed: number(v, "failed")? as u64,
        work_per_pass: number(v, "work_per_pass")?,
        digest: text(v, "digest")?,
        metrics,
    })
}

/// The runs of a results file written by `--all`.
pub fn parse_results(text: &str) -> Result<Vec<StoredRun>, String> {
    let doc = json::parse(text)?;
    field(&doc, "runs")?
        .as_array()
        .ok_or("\"runs\" is not an array")?
        .iter()
        .map(parse_run)
        .collect()
}

/// A results file: a header describing the machine and the build, and runs.
pub fn results_json(header: &[(&str, String)], runs: &[String]) -> String {
    let mut out = String::from("{\n  \"header\": {");
    for (i, (k, v)) in header.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let mut esc = String::new();
        json::escape_into(&mut esc, v);
        let _ = write!(out, "{sep}\"{k}\": \"{esc}\"");
    }
    out.push_str("},\n  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(out, "    {r}{sep}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Compares two results files. Prints one row per (end-to-end metric,
/// workload) with both values, the ratio and its base, and a verdict; and a
/// line per workload whose ops, work, digest or exact counts differ. Returns
/// whether any row is worse.
pub fn compare(a: &[StoredRun], b: &[StoredRun], bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<20} {:<12} {:>14} {:>14} {:>9}  {:<6} verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.traced == ra.traced)
        else {
            let _ = writeln!(out, "{:<20} missing from B", ra.workload);
            continue;
        };
        if !ra.traced {
            for bound in bounds {
                let value =
                    |r: &StoredRun| r.metrics.iter().find(|m| m.0 == bound.name).map(|m| m.1);
                let (Some(va), Some(vb)) = (value(ra), value(rb)) else {
                    continue;
                };
                let verdict = bound.verdict(va, vb);
                any_worse |= verdict == Verdict::Worse;
                let _ = writeln!(
                    out,
                    "{:<20} {:<12} {:>14.4} {:>14.4} {:>9.4}  {:<6} {}",
                    ra.workload,
                    bound.name,
                    va,
                    vb,
                    vb / va,
                    format!("{:.0}%", bound.bound * 100.0),
                    verdict.name()
                );
            }
            if ra.failed + rb.failed > 0 {
                any_worse = true;
                let _ = writeln!(
                    out,
                    "{:<20} failed ops: A {} B {}",
                    ra.workload, ra.failed, rb.failed
                );
            }
        }
        let mut differ = Vec::new();
        if ra.ops_per_pass != rb.ops_per_pass {
            differ.push(format!("ops {} vs {}", ra.ops_per_pass, rb.ops_per_pass));
        }
        if ra.work_per_pass != rb.work_per_pass {
            differ.push(format!("work {} vs {}", ra.work_per_pass, rb.work_per_pass));
        }
        if ra.digest != rb.digest {
            differ.push(format!("digest {} vs {}", ra.digest, rb.digest));
        }
        for (name, va, unit) in &ra.metrics {
            if unit == "count" {
                if let Some((_, vb, _)) = rb.metrics.iter().find(|m| &m.0 == name) {
                    if va != vb {
                        differ.push(format!("{name} {va} vs {vb}"));
                    }
                }
            }
        }
        if !differ.is_empty() {
            let kind = if ra.traced { "traced" } else { "untraced" };
            let _ = writeln!(
                out,
                "{:<20} {kind} DIFFERS: {}",
                ra.workload,
                differ.join("; ")
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;
    use crate::workloads::NAMES;

    fn sample_run() -> RunResult {
        RunResult {
            workload: "fleet_xl".into(),
            seed: 42,
            traced: false,
            ops_per_pass: 5,
            passes: 3,
            attempted: 20,
            failed: 0,
            work_per_pass: 5000.0,
            work_unit: "jobs",
            digest: 0xfedc_ba98_7654_3210,
            op_median_ms: vec![61.5, 60.25],
            metrics: vec![
                ("setup_s".into(), 0.123_456_789_012_345_67, "s"),
                ("work_per_s".into(), 16_234.567_8, "1/s"),
                ("op_p50_ms".into(), 61.5, "ms"),
            ],
        }
    }

    #[test]
    fn results_round_trip_through_the_obs_parser() {
        let run = sample_run();
        let file = results_json(
            &[
                ("rustc", "rustc 1.95 \"quoted\"".into()),
                ("nproc", "2".into()),
            ],
            &[run_json(&run)],
        );
        let back = parse_results(&file).expect("parses");
        assert_eq!(back.len(), 1);
        let r = &back[0];
        assert_eq!(r.workload, "fleet_xl");
        assert_eq!(r.digest, "0xfedcba9876543210");
        assert_eq!((r.ops_per_pass, r.failed, r.work_per_pass), (5, 0, 5000.0));
        for (name, value, unit) in &run.metrics {
            let m = r.metrics.iter().find(|m| &m.0 == name).expect(name);
            assert_eq!(
                (m.1, m.2.as_str()),
                (*value, *unit),
                "{name} keeps all its digits"
            );
        }

        let line = json::parse(&driver_line(&run)).expect("driver line parses");
        assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(JsonValue::as_u64), Some(20));
        assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
        let JsonValue::Object(keys) = &line else {
            panic!("object")
        };
        assert_eq!(keys.len(), 4);
    }

    fn bound(name: &str, higher: bool, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let wps = bound("work_per_s", true, 0.08);
        assert_eq!(wps.verdict(100.0, 91.0), Verdict::Worse);
        assert_eq!(wps.verdict(100.0, 93.0), Verdict::Within);
        assert_eq!(wps.verdict(100.0, 107.0), Verdict::Within);
        assert_eq!(wps.verdict(100.0, 109.0), Verdict::Better);
        let p50 = bound("op_p50_ms", false, 0.08);
        assert_eq!(p50.verdict(10.0, 10.9), Verdict::Worse);
        assert_eq!(p50.verdict(10.0, 10.7), Verdict::Within);
        assert_eq!(p50.verdict(10.0, 9.1), Verdict::Better);
    }

    #[test]
    fn setup_needs_the_share_and_the_absolute_floor() {
        let setup = bound("setup_s", false, 0.25);
        // +50 % but only +0.04 s: under the floor
        assert_eq!(setup.verdict(0.08, 0.12), Verdict::Within);
        // +0.06 s but only +6 %: under the share
        assert_eq!(setup.verdict(1.0, 1.06), Verdict::Within);
        // both
        assert_eq!(setup.verdict(0.2, 0.3), Verdict::Worse);
        assert_eq!(setup.verdict(0.3, 0.2), Verdict::Better);
    }

    #[test]
    fn compare_flags_worse_rows_and_differing_digests() {
        let bounds = vec![bound("work_per_s", true, 0.08)];
        let a = parse_results(&results_json(&[], &[run_json(&sample_run())])).unwrap();
        let mut slow = sample_run();
        slow.metrics[1].1 *= 0.8;
        slow.digest ^= 1;
        let b = parse_results(&results_json(&[], &[run_json(&slow)])).unwrap();
        let (same, worse) = compare(&a, &a, &bounds);
        assert!(!worse && !same.contains("DIFFERS"), "{same}");
        let (text, worse) = compare(&a, &b, &bounds);
        assert!(
            worse && text.contains("worse") && text.contains("digest"),
            "{text}"
        );
    }

    #[test]
    fn benchmark_json_declares_what_the_code_measures() {
        let workloads = declared(BENCHMARK_JSON, "workloads").unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| w.0.as_str()).collect();
        assert_eq!(names, NAMES);

        let per_layer = declared(BENCHMARK_JSON, "per_layer").unwrap();
        let table: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(per_layer, table);

        let e2e: Vec<String> = bounds(BENCHMARK_JSON)
            .unwrap()
            .into_iter()
            .map(|b| b.name)
            .collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "work_per_s",
                "op_p50_ms",
                "op_p90_ms",
                "peak_rss_mb"
            ]
        );
        assert!(bounds(BENCHMARK_JSON)
            .unwrap()
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
        assert!(run_seconds(BENCHMARK_JSON).unwrap() >= 1.0);
    }
}
