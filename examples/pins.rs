//! Runs every line of the root `PINS` manifest against the built
//! `serve_fleet` and checks its digest: FNV-1a 64 over the exit code, stdout
//! and stderr (the run's output directory written `{out}`), then every file
//! under that directory in sorted order (relative path, length, bytes).
//!
//! Prints `held <name>` or `moved <name> <digest>` per pin and fails if any
//! pin moved. A pin moved on purpose is re-pinned by pasting the printed
//! digest into its `PINS` line.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use vtx_tests::Fnv;

fn field(h: &mut Fnv, data: &[u8]) {
    h.u64(data.len() as u64);
    h.bytes(data);
}

fn files_under(dir: &Path, found: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files_under(&path, found);
        } else {
            found.push(path);
        }
    }
}

/// Runs `serve_fleet` with `args` and an empty environment in the empty
/// directory `out`, and digests what it leaves.
fn digest(args: &[&str], out: &Path) -> u64 {
    let dir = out.to_str().unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_serve_fleet"))
        .args(args.iter().map(|a| a.replace("{out}", dir)))
        .env_clear()
        .current_dir(out)
        .output()
        .unwrap();
    let mut h = Fnv::default();
    h.bytes(&run.status.code().unwrap_or(-1).to_le_bytes());
    for text in [&run.stdout, &run.stderr] {
        let text = String::from_utf8_lossy(text).replace(dir, "{out}");
        field(&mut h, text.as_bytes());
    }
    let mut files = Vec::new();
    files_under(out, &mut files);
    files.sort();
    for path in files {
        let name = path.strip_prefix(out).unwrap().to_str().unwrap();
        field(&mut h, name.as_bytes());
        field(&mut h, &fs::read(&path).unwrap());
    }
    h.0
}

#[test]
fn every_pin_holds() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("pins-{}", std::process::id()));
    let (mut pins, mut moved) = (0, Vec::new());
    for line in include_str!("../PINS").lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let (name, want) = (words.next().unwrap(), words.next().unwrap());
        let args: Vec<&str> = words.collect();
        let out = root.join(name);
        fs::create_dir_all(&out).unwrap();
        let got = format!("{:#018x}", digest(&args, &out));
        pins += 1;
        if got == want {
            println!("held {name}");
        } else {
            println!("moved {name} {got}");
            moved.push(name);
        }
    }
    fs::remove_dir_all(&root).unwrap();
    assert!(pins > 0, "PINS holds no pin");
    assert!(moved.is_empty(), "moved: {moved:?}");
}
