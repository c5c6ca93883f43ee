//! Integration tests for the vtx-serve online serving layer: determinism
//! of the discrete-event engine, the smart-beats-random tail-latency claim,
//! shedding under pressure, and the real threaded executor driving actual
//! transcodes through the same service core.

use vtx_sched::{auction, hungarian};
use vtx_serve::exec::{run_real, ExecConfig};
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::queue::QueueConfig;
use vtx_serve::service::{render_event_log, ServeConfig};
use vtx_serve::sim::{simulate, simulate_trace, SimOutcome};
use vtx_serve::workload::{parse_trace, render_trace, WorkloadSpec};

fn sim(workload: &WorkloadSpec, policy: &str) -> SimOutcome {
    simulate(
        workload,
        Fleet::table_iv(),
        policy_by_name(policy, workload.seed).unwrap(),
        ServeConfig::default(),
    )
    .unwrap()
}

#[test]
fn engine_is_deterministic_across_policies() {
    // The acceptance bar: identical seed + workload ⇒ identical event log,
    // assignment sequence and rendered report — for every policy.
    let w = WorkloadSpec::smoke(42);
    for policy in ["random", "round_robin", "smart"] {
        let a = sim(&w, policy);
        let b = sim(&w, policy);
        assert_eq!(a.assignments, b.assignments, "{policy}: assignments");
        assert_eq!(
            render_event_log(&a.event_log),
            render_event_log(&b.event_log),
            "{policy}: event log"
        );
        assert_eq!(a.report.render(), b.report.render(), "{policy}: report");
    }
}

#[test]
fn policies_actually_differ() {
    let w = WorkloadSpec::smoke(42);
    let random = sim(&w, "random");
    let smart = sim(&w, "smart");
    assert_ne!(
        random.assignments, smart.assignments,
        "policies must produce different placements on a heterogeneous fleet"
    );
}

#[test]
fn smart_beats_random_on_p99_sojourn() {
    // The serving-layer restatement of Fig 9: characterization-driven
    // placement wins not just on makespan but on tail latency.
    let w = WorkloadSpec::bundled(42);
    let random = sim(&w, "random");
    let smart = sim(&w, "smart");
    assert!(
        smart.report.sojourn.p99_us < random.report.sojourn.p99_us,
        "smart p99 {} should beat random p99 {}",
        smart.report.sojourn.p99_us,
        random.report.sojourn.p99_us
    );
    assert!(
        smart.report.sojourn.mean_us < random.report.sojourn.mean_us,
        "smart mean {} should beat random mean {}",
        smart.report.sojourn.mean_us,
        random.report.sojourn.mean_us
    );
}

#[test]
fn tiny_queues_shed_and_interactive_survives() {
    let w = WorkloadSpec::bundled(42);
    let cfg = ServeConfig {
        queue: QueueConfig {
            per_class_cap: [2, 2, 2],
        },
        ..ServeConfig::default()
    };
    let out = simulate(
        &w,
        Fleet::table_iv(),
        policy_by_name("smart", w.seed).unwrap(),
        cfg,
    )
    .unwrap();
    let r = &out.report;
    assert_eq!(r.completed + r.shed_total(), r.offered, "conservation");
    assert!(r.shed_total() > 0, "2-deep queues under 2.4 Hz must shed");
    // Priority shedding: interactive jobs displace batch, never vice versa,
    // so the interactive completion rate stays above the batch rate.
    let frac = |class: usize| {
        let done = r.sojourn_by_class[class].count as f64;
        done / (done + 1.0) // avoid 0/0; comparison only
    };
    assert!(
        r.sojourn_by_class[0].count > 0,
        "interactive traffic must get through"
    );
    assert!(frac(0) > 0.0 && frac(2) > 0.0);
}

#[test]
fn timeouts_retry_deterministically() {
    // Clamp every timeout low enough that long encodes get killed: the
    // retry/shed path must be exercised and stay byte-deterministic.
    let w = WorkloadSpec::smoke(7);
    let mut jobs = w.generate().unwrap();
    for j in &mut jobs {
        j.timeout_us = 1_500_000;
    }
    let run = || {
        simulate_trace(
            &jobs,
            w.seed,
            Fleet::table_iv(),
            policy_by_name("round_robin", w.seed).unwrap(),
            ServeConfig {
                max_retries: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.report, b.report);
    assert_eq!(
        render_event_log(&a.event_log),
        render_event_log(&b.event_log)
    );
    assert!(a.report.retries > 0, "tight timeouts must trigger retries");
    assert!(
        a.report.shed[3] > 0,
        "some jobs must exhaust the retry budget (shed={:?})",
        a.report.shed
    );
    assert_eq!(
        a.report.completed + a.report.shed_total(),
        a.report.offered,
        "conservation holds through the retry path"
    );
}

#[test]
fn arrival_trace_roundtrips_through_text() {
    let w = WorkloadSpec::smoke(42);
    let jobs = w.generate().unwrap();
    let parsed = parse_trace(&render_trace(&jobs)).unwrap();
    assert_eq!(jobs, parsed);
    // A parsed trace replays to the same outcome as the in-memory one.
    let a = simulate_trace(
        &jobs,
        w.seed,
        Fleet::table_iv(),
        policy_by_name("smart", w.seed).unwrap(),
        ServeConfig::default(),
    )
    .unwrap();
    let b = simulate_trace(
        &parsed,
        w.seed,
        Fleet::table_iv(),
        policy_by_name("smart", w.seed).unwrap(),
        ServeConfig::default(),
    )
    .unwrap();
    assert_eq!(a.report.render(), b.report.render());
}

#[test]
fn real_executor_accounts_for_every_job() {
    // The real path: actual Transcoder jobs on per-server worker threads,
    // driven through the same ServiceCore as the simulation. Wall-clock
    // runs are not byte-reproducible; what must hold is conservation and
    // that real work got done. CI runs this under RUST_TEST_THREADS=1.
    let w = WorkloadSpec::real_smoke(42);
    let cfg = ExecConfig {
        arrival_compression: 50,
        ..ExecConfig::default()
    };
    let out = run_real(
        &w,
        Fleet::table_iv(),
        policy_by_name("smart", w.seed).unwrap(),
        &cfg,
    )
    .unwrap();
    let r = &out.report;
    assert_eq!(r.offered, w.jobs as u64);
    assert_eq!(
        r.completed + r.shed_total(),
        r.offered,
        "every job completes or is shed: {r:?}"
    );
    assert!(r.completed > 0, "tiny transcodes must actually complete");
    assert_eq!(r.sojourn.count, r.completed);
    assert_eq!(
        out.assignments.len() as u64,
        r.completed + r.retries + r.shed[3],
        "one assignment per dispatch attempt"
    );
    let busy: u64 = r.servers.iter().map(|s| s.busy_us).sum();
    assert!(busy > 0, "servers must have accumulated busy time");
}

/// The fleet-scale config ([`ServeConfig::xl`]) at `cells` cells.
fn xl_config(cells: usize) -> ServeConfig {
    ServeConfig {
        cells,
        ..ServeConfig::xl()
    }
}

#[test]
fn auction_matches_hungarian_on_fig9_sized_matrices() {
    // Dispatch solves every round with the f64 Hungarian; the ε-scaling
    // auction is its integer oracle. On fig9-sized problems (≤ 8 jobs × 8
    // servers) both must find an assignment of identical total cost: the
    // auction scales costs internally so its final ε guarantees exact
    // optimality on integer inputs.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % 30_000_000
    };
    for trial in 0..200usize {
        let m = 1 + trial % 8; // jobs
        let n = 1 + (trial / 8) % 8; // servers
        let cost_u: Vec<Vec<u64>> = (0..m).map(|_| (0..n).map(|_| next()).collect()).collect();
        let cost_f: Vec<Vec<f64>> = cost_u
            .iter()
            .map(|row| row.iter().map(|&c| c as f64).collect())
            .collect();
        let a = auction::solve_padded(&cost_u).expect("auction solves");
        let h = hungarian::solve_padded(&cost_f).expect("hungarian solves");
        let assigned = |sol: &[Option<usize>]| sol.iter().flatten().count();
        assert_eq!(
            assigned(&a),
            assigned(&h),
            "trial {trial}: both must assign min(jobs, servers) = {}",
            m.min(n)
        );
        let auction_total = auction::assignment_cost(&cost_u, &a);
        let hungarian_total: u64 = h
            .iter()
            .enumerate()
            .filter_map(|(j, s)| s.map(|s| cost_u[j][s]))
            .sum();
        assert_eq!(
            auction_total, hungarian_total,
            "trial {trial} ({m}x{n}): auction total must equal the Hungarian optimum"
        );
    }
}

#[test]
fn hungarian_matches_auction_oracle_on_dispatch_shaped_matrices() {
    // The shapes dispatch really produces: at most the candidate window (8)
    // jobs against up to a cell's worth (≤ 72) of idle servers, and the
    // transposed backlog case, with servers priced by class — five classes,
    // so most of a row is exact ties — and a few suspects at ×64.
    let mut state = 0x0D15_9A7C_4ED5_EED5u64;
    let mut next = move |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    for trial in 0..120usize {
        let r = 1 + next(8) as usize;
        let c = 1 + next(72) as usize;
        let suspect: Vec<bool> = (0..c).map(|_| next(10) == 0).collect();
        let wide: Vec<Vec<u64>> = (0..r)
            .map(|_| {
                let by_class: Vec<u64> = (0..5).map(|_| 1 + next(30_000_000)).collect();
                (0..c)
                    .map(|s| by_class[s % 5] * if suspect[s] { 64 } else { 1 })
                    .collect()
            })
            .collect();
        let tall: Vec<Vec<u64>> = (0..c)
            .map(|s| (0..r).map(|j| wide[j][s]).collect())
            .collect();
        for cost_u in [wide, tall] {
            let cost_f: Vec<Vec<f64>> = cost_u
                .iter()
                .map(|row| row.iter().map(|&c| c as f64).collect())
                .collect();
            let h = hungarian::solve_padded(&cost_f).expect("hungarian solves");
            let a = auction::solve_padded(&cost_u).expect("auction solves");
            let mut cols_seen = vec![false; cost_u[0].len()];
            for col in h.iter().flatten() {
                assert!(!cols_seen[*col], "trial {trial}: column {col} twice");
                cols_seen[*col] = true;
            }
            assert_eq!(h.iter().flatten().count(), r.min(c), "trial {trial}");
            assert_eq!(
                auction::assignment_cost(&cost_u, &h),
                auction::assignment_cost(&cost_u, &a),
                "trial {trial} ({}x{}): Hungarian total must equal the integer optimum",
                cost_u.len(),
                cost_u[0].len()
            );
        }
    }
}

#[test]
fn xl_smoke_is_byte_deterministic_and_conserves_jobs() {
    // Scaled-down XL (500 servers / 20k jobs) through the two-level
    // cell dispatch path: two same-seed runs must agree exactly,
    // and every admitted job must reach exactly one terminal state.
    let w = WorkloadSpec::xl_smoke(42);
    let run = || {
        simulate(
            &w,
            Fleet::sized(500).unwrap(),
            policy_by_name("smart", w.seed).unwrap(),
            xl_config(0),
        )
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.assignments, b.assignments, "xl: assignments");
    assert_eq!(a.report, b.report, "xl: report");
    assert_eq!(a.report.render(), b.report.render(), "xl: rendered report");
    let r = &a.report;
    assert_eq!(r.offered, w.jobs as u64, "xl: all jobs offered");
    assert_eq!(
        r.completed + r.shed_total(),
        r.offered,
        "xl: conservation through the cell path"
    );
    assert_eq!(
        r.sojourn.count, r.completed,
        "xl: one sojourn per completion"
    );
    let per_server: u64 = r.servers.iter().map(|s| s.jobs).sum();
    assert_eq!(
        per_server, r.completed,
        "xl: per-server completions sum to the fleet total (no double billing)"
    );
}

#[test]
fn cell_rebalance_conserves_jobs() {
    // Forcing a different cell plan moves jobs between cells but must
    // never lose or double-bill one. An odd, non-divisor cell count
    // exercises uneven cells; assignments must stay inside the fleet.
    let w = WorkloadSpec::xl_smoke(7);
    let n_servers = 500usize;
    let out = simulate(
        &w,
        Fleet::sized(n_servers).unwrap(),
        policy_by_name("smart", w.seed).unwrap(),
        xl_config(7),
    )
    .unwrap();
    let r = &out.report;
    assert_eq!(r.completed + r.shed_total(), r.offered, "conservation");
    assert!(r.completed > 0, "cells must still serve traffic");
    assert!(
        out.assignments.iter().all(|&(_, s)| s < n_servers),
        "every assignment lands on a real server"
    );
    let per_server: u64 = r.servers.iter().map(|s| s.jobs).sum();
    assert_eq!(per_server, r.completed, "per-server sums match completions");
}
