#!/bin/sh
# The A/A test: the same build measured twice, compared against the bounds
# of BENCHMARK.json. Two sets of runs of the same code must agree within the
# bounds on every (end-to-end metric, workload) pair, with identical ops,
# work and digest. Extra arguments (e.g. --seed 7) go to both runs.
set -eu
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --offline --manifest-path perf/Cargo.toml
perf="$target/release/perf"
"$perf" --all "$@" --out perf/out/selfcheck-a.json
"$perf" --all "$@" --out perf/out/selfcheck-b.json
"$perf" --compare perf/out/selfcheck-a.json perf/out/selfcheck-b.json
