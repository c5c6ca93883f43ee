//! `perf`: the vtx repo's own speed, end to end and layer by layer.
//!
//! ```text
//! perf --workload W [--seed N] [--seconds S] [--trace 0|1]   one run, result as the last line
//! perf --all [--trace] [--seed N] [--seconds S] [--out FILE] every workload, one child process each
//! perf --compare A.json B.json                               two results files against the bounds
//! ```
//!
//! See `perf/README.md`.

mod harness;
mod layers;
mod probes;
mod results;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::RunResult;

const DEFAULT_SEED: u64 = 42;

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = Some(value(&mut it, a)?),
            "--seed" => {
                args.seed = Some(
                    value(&mut it, a)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                args.seconds = Some(
                    value(&mut it, a)?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--out" => args.out = Some(value(&mut it, a)?),
            "--all" => args.all = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => args.compare = Some((value(&mut it, a)?, value(&mut it, a)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn print_run(run: &RunResult) {
    let w = &run.workload;
    for (name, value, unit) in &run.metrics {
        let unit = if name == "work_per_s" {
            format!("{}/s", run.work_unit)
        } else {
            unit.to_string()
        };
        println!("{w} {name} {value} {unit}");
    }
    if !run.traced {
        let share = run.failed as f64 / run.attempted.max(1) as f64;
        println!("{w} failed_share {share} ops/ops");
    }
    println!("{w} ops {} per-pass", run.ops_per_pass);
    println!("{w} passes {} measured", run.passes);
    println!("{w} n {} ops", run.ops_per_pass * run.passes);
    println!("{w} work {} {}/pass", run.work_per_pass, run.work_unit);
    println!("{w} digest {:#018x} fnv1a", run.digest);
}

/// One workload in this process. The last line printed is the result.
fn run_one(name: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    if !workloads::NAMES.contains(&name) {
        eprintln!("unknown workload {name}; one of {:?}", workloads::NAMES);
        return ExitCode::from(2);
    }
    let run = if trace {
        harness::run_traced(name, seed, seconds, &out_dir())
    } else {
        harness::run_end_to_end(name, seed, seconds)
    };
    let kind = if trace { "layers" } else { "e2e" };
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create out dir");
    std::fs::write(
        dir.join(format!("{name}.{kind}.json")),
        results::run_json(&run) + "\n",
    )
    .expect("write run file");
    print_run(&run);
    println!("{}", results::driver_line(&run));
    ExitCode::SUCCESS
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, each in a child process so that `peak_rss_mb` is its own.
fn run_all(seed: u64, seconds: f64, trace: bool, out: Option<&str>) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let header = [
        ("nproc", nproc.to_string()),
        ("loadavg", loadavg.trim().to_string()),
        ("rustc", command_line("rustc", &["-V"])),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("traced", trace.to_string()),
    ];
    for (k, v) in &header {
        println!("# {k}: {v}");
    }
    let exe = std::env::current_exe().expect("own path");
    let kind = if trace { "layers" } else { "e2e" };
    let mut runs = Vec::new();
    let mut any_failed = false;
    for name in workloads::NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .status()
            .expect("spawn child");
        if !status.success() {
            eprintln!("{name}: child exited with {status}");
            return ExitCode::FAILURE;
        }
        let path = out_dir().join(format!("{name}.{kind}.json"));
        let text = std::fs::read_to_string(&path).expect("child wrote its run file");
        let stored = vtx_obs::json::parse(&text)
            .and_then(|v| results::parse_run(&v))
            .expect("run file parses");
        any_failed |= stored.failed > 0;
        runs.push(text.trim().to_string());
    }
    let default_out = out_dir().join(if trace {
        "results-layers.json"
    } else {
        "results.json"
    });
    let path = out.map_or(default_out, PathBuf::from);
    std::fs::write(&path, results::results_json(&header, &runs)).expect("write results");
    println!("# results: {}", path.display());
    if any_failed {
        eprintln!("some ops failed: failed_share > 0");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| results::parse_results(&t))
            .map_err(|e| format!("{p}: {e}"))
    };
    let bounds = results::bounds(results::BENCHMARK_JSON).expect("embedded BENCHMARK.json");
    match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => {
            let (text, any_worse) = results::compare(&ra, &rb, &bounds);
            print!("{text}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: perf --workload W | --all | --compare A B");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    if cfg!(debug_assertions) {
        eprintln!("perf refuses to time a debug build: build with --release");
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or_else(|| {
        results::run_seconds(results::BENCHMARK_JSON).expect("embedded BENCHMARK.json")
    });
    match (&args.workload, args.all) {
        (Some(w), false) => run_one(w, seed, seconds, args.trace),
        (None, true) => run_all(seed, seconds, args.trace, args.out.as_deref()),
        _ => {
            eprintln!("give exactly one of --workload W and --all");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_shorthand_forms_of_trace() {
        let a = args("--workload fleet_xl --seed 7 --seconds 3 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("fleet_xl"), Some(7), Some(3.0), false)
        );
        assert!(args("--workload fleet_xl --trace 1").unwrap().trace);
        assert!(args("--all --trace").unwrap().trace);
        assert!(args("--trace --all").unwrap().all);
        assert!(args("--bogus").is_err());
        assert!(args("--seed").is_err());
        let c = args("--compare a.json b.json").unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }
}
