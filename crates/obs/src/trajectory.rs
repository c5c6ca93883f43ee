//! Machine-readable bench trajectory.
//!
//! A [`BenchTrajectory`] collects one [`TrajectoryRow`] per benchmark
//! scenario × policy and serializes them into `BENCH_serving.json` — a
//! small, schema-versioned document meant to be committed next to the code
//! so performance trajectories are diffable across PRs.
//!
//! Determinism rules:
//! * all metrics are integers (micro­seconds, milli-units, counts) — no
//!   floats in the document;
//! * fields are written in a fixed order by a hand-rolled writer;
//! * the only wall-clock field, `wall_ms`, is 0 unless the run opts in via
//!   `VTX_TRAJ_WALL=1`, so committed documents are byte-identical per seed.
//!
//! [`BenchTrajectory::validate_str`] re-parses a document with the crate's
//! own [`crate::json`] reader and checks the schema, which is what the CI
//! `bench-trajectory` job runs against the committed file.

use crate::json::{self, JsonValue};

/// Schema version written to and required from `BENCH_serving.json`.
/// Version 2 added the fleet-shape columns `servers` and `cells`;
/// version 3 added `segments` (per-(segment, rung) dispatch units offered,
/// 0 for whole-clip scenarios); version 4 added the segment-cache columns
/// `shed_rung` (units shed from the highest ladder rung) and
/// `cache_hit_milli` (cache hit rate in milli-units, 0 when uncached);
/// version 5 added the surge columns `shed_tenant` (sheds charged to
/// tenant admission throttling) and the autoscaler capacity columns
/// `peak_capacity_milli` / `served_capacity_milli` (0 when static).
const SCHEMA_VERSION: u64 = 5;

/// Fields every row must carry, in serialization order.
const ROW_FIELDS: [&str; 23] = [
    "scenario",
    "policy",
    "seed",
    "servers",
    "cells",
    "segments",
    "offered",
    "completed",
    "slo_violations",
    "shed",
    "shed_rung",
    "shed_tenant",
    "p50_sojourn_us",
    "p99_sojourn_us",
    "throughput_milli_jps",
    "goodput_milli_jps",
    "availability_milli",
    "cache_hit_milli",
    "peak_capacity_milli",
    "served_capacity_milli",
    "alerts",
    "makespan_us",
    "wall_ms",
];

/// One benchmark scenario × policy result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryRow {
    /// Scenario label (e.g. `baseline`, `faulted`).
    pub scenario: String,
    /// Dispatch policy name.
    pub policy: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Fleet size the scenario ran against.
    pub servers: u64,
    /// Dispatch cells (0 = single-level exact dispatch, no cells).
    pub cells: u64,
    /// Per-(segment, rung) dispatch units offered when the scenario ran
    /// segmented ABR serving; 0 = whole-clip jobs.
    pub segments: u64,
    /// Jobs offered.
    pub offered: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Completed jobs that missed their deadline.
    pub slo_violations: u64,
    /// Jobs shed (all causes).
    pub shed: u64,
    /// Shed units belonging to the highest ladder rung (rung 0). Under
    /// rung-ordered displacement pressure sheds the `hi` rung before
    /// whole jobs; 0 for whole-clip scenarios.
    pub shed_rung: u64,
    /// Sheds charged to per-tenant admission throttling (token-bucket
    /// refusals); 0 when the scenario ran without tenant quotas.
    pub shed_tenant: u64,
    /// Median end-to-end sojourn, microseconds.
    pub p50_sojourn_us: u64,
    /// p99 end-to-end sojourn, microseconds.
    pub p99_sojourn_us: u64,
    /// Completed jobs per second, milli-units (1234 = 1.234 jobs/s).
    pub throughput_milli_jps: u64,
    /// In-deadline completions per second, milli-units.
    pub goodput_milli_jps: u64,
    /// Fraction of offered jobs completed, milli-units (997 = 99.7%).
    pub availability_milli: u64,
    /// Segment-cache hit rate, milli-units (400 = 40% of lookups hit);
    /// 0 when the scenario ran without a cache.
    pub cache_hit_milli: u64,
    /// Peak provisioned capacity under the autoscaler, speed units ×
    /// 1000; 0 when the fleet was static.
    pub peak_capacity_milli: u64,
    /// Time-averaged provisioned capacity (∫cap dt / makespan) × 1000;
    /// 0 when the fleet was static. Never exceeds the peak.
    pub served_capacity_milli: u64,
    /// SLO burn-rate alert transitions during the run.
    pub alerts: u64,
    /// Simulated makespan, microseconds.
    pub makespan_us: u64,
    /// Wall-clock duration of the run, ms — 0 unless `VTX_TRAJ_WALL=1`.
    pub wall_ms: u64,
}

/// Converts a fraction (e.g. availability 0.997) to integer milli-units.
pub fn milli(fraction: f64) -> u64 {
    if !fraction.is_finite() || fraction <= 0.0 {
        return 0;
    }
    (fraction * 1000.0).round() as u64
}

/// Whether rows should carry real wall-clock timings (`VTX_TRAJ_WALL=1`).
/// Off by default so committed trajectories stay byte-deterministic.
pub fn wall_clock_enabled() -> bool {
    std::env::var("VTX_TRAJ_WALL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// An ordered collection of rows, serializable to `BENCH_serving.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchTrajectory {
    /// Benchmark name (e.g. `fig9_serving`).
    pub bench: String,
    /// Rows in insertion order.
    pub rows: Vec<TrajectoryRow>,
}

impl BenchTrajectory {
    /// An empty trajectory for `bench`.
    pub fn new(bench: &str) -> Self {
        BenchTrajectory {
            bench: bench.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: TrajectoryRow) {
        self.rows.push(row);
    }

    /// Serializes the document: 2-space pretty JSON, fixed field order.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.rows.len() * 512);
        out.push_str("{\n  \"schema\": ");
        let _ = write!(out, "{SCHEMA_VERSION}");
        out.push_str(",\n  \"bench\": \"");
        json::escape_into(&mut out, &self.bench);
        out.push_str("\",\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            let field = |out: &mut String, name: &str, val: &str, last: bool| {
                let _ = write!(out, "      \"{name}\": {val}");
                out.push_str(if last { "\n" } else { ",\n" });
            };
            let mut s = String::new();
            s.push('"');
            json::escape_into(&mut s, &row.scenario);
            s.push('"');
            field(&mut out, "scenario", &s, false);
            s.clear();
            s.push('"');
            json::escape_into(&mut s, &row.policy);
            s.push('"');
            field(&mut out, "policy", &s, false);
            field(&mut out, "seed", &row.seed.to_string(), false);
            field(&mut out, "servers", &row.servers.to_string(), false);
            field(&mut out, "cells", &row.cells.to_string(), false);
            field(&mut out, "segments", &row.segments.to_string(), false);
            field(&mut out, "offered", &row.offered.to_string(), false);
            field(&mut out, "completed", &row.completed.to_string(), false);
            field(
                &mut out,
                "slo_violations",
                &row.slo_violations.to_string(),
                false,
            );
            field(&mut out, "shed", &row.shed.to_string(), false);
            field(&mut out, "shed_rung", &row.shed_rung.to_string(), false);
            field(&mut out, "shed_tenant", &row.shed_tenant.to_string(), false);
            field(
                &mut out,
                "p50_sojourn_us",
                &row.p50_sojourn_us.to_string(),
                false,
            );
            field(
                &mut out,
                "p99_sojourn_us",
                &row.p99_sojourn_us.to_string(),
                false,
            );
            field(
                &mut out,
                "throughput_milli_jps",
                &row.throughput_milli_jps.to_string(),
                false,
            );
            field(
                &mut out,
                "goodput_milli_jps",
                &row.goodput_milli_jps.to_string(),
                false,
            );
            field(
                &mut out,
                "availability_milli",
                &row.availability_milli.to_string(),
                false,
            );
            field(
                &mut out,
                "cache_hit_milli",
                &row.cache_hit_milli.to_string(),
                false,
            );
            field(
                &mut out,
                "peak_capacity_milli",
                &row.peak_capacity_milli.to_string(),
                false,
            );
            field(
                &mut out,
                "served_capacity_milli",
                &row.served_capacity_milli.to_string(),
                false,
            );
            field(&mut out, "alerts", &row.alerts.to_string(), false);
            field(&mut out, "makespan_us", &row.makespan_us.to_string(), false);
            field(&mut out, "wall_ms", &row.wall_ms.to_string(), true);
            out.push_str("    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses and schema-checks a serialized trajectory document.
    ///
    /// Checks: top-level `schema == 3`, `bench` is a string, `rows` is a
    /// non-empty array, every row carries every field in `ROW_FIELDS`
    /// with the right type, and basic metric sanity (`completed + shed ≤
    /// offered` would be wrong — hedges never over-complete, so
    /// `completed ≤ offered` and `availability_milli ≤ 1000`).
    pub fn validate_str(text: &str) -> Result<BenchTrajectory, String> {
        let doc = json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or("missing integer field 'schema'")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema}, expected {SCHEMA_VERSION}"
            ));
        }
        let bench = doc
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field 'bench'")?
            .to_string();
        let rows_json = doc
            .get("rows")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field 'rows'")?;
        if rows_json.is_empty() {
            return Err("'rows' is empty".to_string());
        }
        let mut rows = Vec::with_capacity(rows_json.len());
        for (i, row) in rows_json.iter().enumerate() {
            let str_field = |name: &str| -> Result<String, String> {
                row.get(name)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or(format!("row {i}: missing string field '{name}'"))
            };
            let u64_field = |name: &str| -> Result<u64, String> {
                row.get(name)
                    .and_then(JsonValue::as_u64)
                    .ok_or(format!("row {i}: missing integer field '{name}'"))
            };
            for name in ROW_FIELDS {
                if row.get(name).is_none() {
                    return Err(format!("row {i}: missing field '{name}'"));
                }
            }
            let parsed = TrajectoryRow {
                scenario: str_field("scenario")?,
                policy: str_field("policy")?,
                seed: u64_field("seed")?,
                servers: u64_field("servers")?,
                cells: u64_field("cells")?,
                segments: u64_field("segments")?,
                offered: u64_field("offered")?,
                completed: u64_field("completed")?,
                slo_violations: u64_field("slo_violations")?,
                shed: u64_field("shed")?,
                shed_rung: u64_field("shed_rung")?,
                shed_tenant: u64_field("shed_tenant")?,
                p50_sojourn_us: u64_field("p50_sojourn_us")?,
                p99_sojourn_us: u64_field("p99_sojourn_us")?,
                throughput_milli_jps: u64_field("throughput_milli_jps")?,
                goodput_milli_jps: u64_field("goodput_milli_jps")?,
                availability_milli: u64_field("availability_milli")?,
                cache_hit_milli: u64_field("cache_hit_milli")?,
                peak_capacity_milli: u64_field("peak_capacity_milli")?,
                served_capacity_milli: u64_field("served_capacity_milli")?,
                alerts: u64_field("alerts")?,
                makespan_us: u64_field("makespan_us")?,
                wall_ms: u64_field("wall_ms")?,
            };
            if parsed.completed > parsed.offered {
                return Err(format!(
                    "row {i}: completed {} > offered {}",
                    parsed.completed, parsed.offered
                ));
            }
            if parsed.availability_milli > 1000 {
                return Err(format!(
                    "row {i}: availability_milli {} > 1000",
                    parsed.availability_milli
                ));
            }
            if parsed.cache_hit_milli > 1000 {
                return Err(format!(
                    "row {i}: cache_hit_milli {} > 1000",
                    parsed.cache_hit_milli
                ));
            }
            if parsed.shed_rung > parsed.shed {
                return Err(format!(
                    "row {i}: shed_rung {} > shed {}",
                    parsed.shed_rung, parsed.shed
                ));
            }
            if parsed.shed_tenant > parsed.shed {
                return Err(format!(
                    "row {i}: shed_tenant {} > shed {}",
                    parsed.shed_tenant, parsed.shed
                ));
            }
            if parsed.served_capacity_milli > parsed.peak_capacity_milli {
                return Err(format!(
                    "row {i}: served_capacity_milli {} > peak_capacity_milli {}",
                    parsed.served_capacity_milli, parsed.peak_capacity_milli
                ));
            }
            if parsed.p50_sojourn_us > parsed.p99_sojourn_us {
                return Err(format!(
                    "row {i}: p50 {} > p99 {}",
                    parsed.p50_sojourn_us, parsed.p99_sojourn_us
                ));
            }
            rows.push(parsed);
        }
        Ok(BenchTrajectory { bench, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(scenario: &str, policy: &str) -> TrajectoryRow {
        TrajectoryRow {
            scenario: scenario.to_string(),
            policy: policy.to_string(),
            seed: 42,
            servers: 5,
            cells: 0,
            segments: 0,
            offered: 240,
            completed: 238,
            slo_violations: 3,
            shed: 2,
            shed_rung: 1,
            shed_tenant: 1,
            p50_sojourn_us: 41_000,
            p99_sojourn_us: 180_000,
            throughput_milli_jps: 12_345,
            goodput_milli_jps: 12_100,
            availability_milli: 991,
            cache_hit_milli: 425,
            peak_capacity_milli: 5_100,
            served_capacity_milli: 3_200,
            alerts: 2,
            makespan_us: 19_000_000,
            wall_ms: 0,
        }
    }

    #[test]
    fn roundtrip_through_own_parser() {
        let mut t = BenchTrajectory::new("fig9_serving");
        t.push(row("baseline", "smart"));
        t.push(row("faulted", "port"));
        let json = t.to_json();
        let parsed = BenchTrajectory::validate_str(&json).expect("validates");
        assert_eq!(parsed, t);
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        let build = || {
            let mut t = BenchTrajectory::new("fig9_serving");
            t.push(row("baseline", "random"));
            t.to_json()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn fields_appear_in_fixed_order() {
        let mut t = BenchTrajectory::new("b");
        t.push(row("baseline", "smart"));
        let json = t.to_json();
        let mut last = 0;
        for name in super::ROW_FIELDS {
            let pos = json
                .find(&format!("\"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(pos > last, "field {name} out of order");
            last = pos;
        }
    }

    #[test]
    fn validation_rejects_missing_fields_and_bad_metrics() {
        let mut t = BenchTrajectory::new("b");
        t.push(row("baseline", "smart"));
        let json = t.to_json();
        let err =
            BenchTrajectory::validate_str(&json.replace("\"alerts\"", "\"alurts\"")).unwrap_err();
        assert!(err.contains("alerts"), "{err}");
        let err = BenchTrajectory::validate_str(
            &json.replace("\"completed\": 238", "\"completed\": 500"),
        )
        .unwrap_err();
        assert!(err.contains("completed"), "{err}");
        let err = BenchTrajectory::validate_str(&json.replace(
            "\"availability_milli\": 991",
            "\"availability_milli\": 1500",
        ))
        .unwrap_err();
        assert!(err.contains("availability"), "{err}");
        let err = BenchTrajectory::validate_str(
            &json.replace("\"cache_hit_milli\": 425", "\"cache_hit_milli\": 1500"),
        )
        .unwrap_err();
        assert!(err.contains("cache_hit_milli"), "{err}");
        let err =
            BenchTrajectory::validate_str(&json.replace("\"shed_rung\": 1", "\"shed_rung\": 99"))
                .unwrap_err();
        assert!(err.contains("shed_rung"), "{err}");
        let err = BenchTrajectory::validate_str(
            &json.replace("\"shed_tenant\": 1", "\"shed_tenant\": 99"),
        )
        .unwrap_err();
        assert!(err.contains("shed_tenant"), "{err}");
        let err = BenchTrajectory::validate_str(&json.replace(
            "\"served_capacity_milli\": 3200",
            "\"served_capacity_milli\": 9200",
        ))
        .unwrap_err();
        assert!(err.contains("served_capacity_milli"), "{err}");
        assert!(BenchTrajectory::validate_str("{}").is_err());
        assert!(BenchTrajectory::validate_str("not json").is_err());
    }

    #[test]
    fn empty_rows_are_rejected() {
        let t = BenchTrajectory::new("b");
        assert!(BenchTrajectory::validate_str(&t.to_json()).is_err());
    }

    #[test]
    fn milli_conversion_clamps_and_rounds() {
        assert_eq!(milli(0.997), 997);
        assert_eq!(milli(1.0), 1000);
        assert_eq!(milli(0.0), 0);
        assert_eq!(milli(-1.0), 0);
        assert_eq!(milli(f64::NAN), 0);
    }
}
