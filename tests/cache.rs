//! Cross-crate integration tests for the vtx-cache segment cache wired
//! through the serving stack: byte-determinism of cached simulated runs,
//! exactly-once job conservation when hits skip the transcode, real-
//! executor common-subset artifact determinism, and partial-manifest
//! delivery when a rung's units never complete.

use vtx_cache::{CacheSpec, EvictPolicy};
use vtx_container::manifest::DEGRADED_TAG;
use vtx_serve::exec::{run_real_segmented, ExecConfig};
use vtx_serve::fleet::Fleet;
use vtx_serve::policy::policy_by_name;
use vtx_serve::segment::{SegmentOptions, SegmentPlan};
use vtx_serve::service::{render_event_log, EventRecord, ServeConfig};
use vtx_serve::sim::{simulate_trace, SimOutcome};
use vtx_serve::workload::WorkloadSpec;

/// 32 MiB cache spec with the given eviction policy and the default
/// lookup cost.
fn spec(policy: EvictPolicy) -> CacheSpec {
    CacheSpec {
        capacity_bytes: 32 << 20,
        policy,
        ..CacheSpec::default()
    }
}

/// A segmented, popularity-skewed simulated run with the cache armed:
/// the full integration path (Zipf trace -> segment plan -> unit tables
/// -> cached dispatch).
fn cached_segmented_sim(seed: u64, policy: EvictPolicy) -> (SegmentPlan, SimOutcome) {
    let workload = WorkloadSpec::bundled(seed).with_popularity(1.0, 0.25);
    let jobs = workload.generate().expect("trace generates");
    let opts = SegmentOptions {
        target_ms: 500,
        ..SegmentOptions::default()
    };
    let plan = SegmentPlan::expand(&jobs, &opts).expect("plan expands");
    let mut cfg = ServeConfig {
        cache: Some(spec(policy)),
        ..ServeConfig::default()
    };
    plan.fill_unit_tables(&mut cfg);
    let pol = policy_by_name("smart", seed).expect("policy exists");
    let out =
        simulate_trace(&plan.units, seed, Fleet::table_iv(), pol, cfg).expect("simulation runs");
    (plan, out)
}

#[test]
fn cached_segmented_sim_is_byte_identical_per_eviction_policy() {
    for policy in EvictPolicy::ALL {
        let (_, a) = cached_segmented_sim(19, policy);
        let (_, b) = cached_segmented_sim(19, policy);
        assert_eq!(
            render_event_log(&a.event_log),
            render_event_log(&b.event_log),
            "{}: same-seed cached event logs must be byte-identical",
            policy.name()
        );
        let (sa, sb) = (a.report.cache.unwrap(), b.report.cache.unwrap());
        assert_eq!(sa, sb, "{}: cache stats must replay exactly", policy.name());
        assert!(
            sa.hits > 0,
            "{}: a Zipf(1.0) trace must produce repeat hits",
            policy.name()
        );
        assert_eq!(a.report.shed_by_rung, b.report.shed_by_rung);
    }
}

#[test]
fn cache_hits_complete_each_unit_exactly_once() {
    let (plan, out) = cached_segmented_sim(7, EvictPolicy::Gdsf);
    let r = &out.report;
    assert_eq!(
        r.offered,
        r.completed + r.shed_total(),
        "every offered unit is either completed or shed"
    );

    // Exactly-once at the event level: no unit id may complete twice,
    // whether it was transcoded or served from cache.
    let mut completes = vec![0u32; plan.units.len()];
    let mut hits = 0u64;
    for ev in &out.event_log {
        match ev {
            EventRecord::Complete { id, .. } => completes[*id as usize] += 1,
            EventRecord::CacheHit { .. } => hits += 1,
            _ => {}
        }
    }
    assert!(
        completes.iter().all(|&c| c <= 1),
        "a unit completed more than once"
    );
    assert_eq!(
        completes.iter().map(|&c| u64::from(c)).sum::<u64>(),
        r.completed,
        "report completion count must match the event log"
    );
    let stats = r.cache.as_ref().expect("cache stats present");
    assert_eq!(hits, stats.hits, "CacheHit events must match cache stats");
    assert!(stats.hits > 0, "the hot head of the catalog must hit");
}

#[test]
fn cached_real_runs_agree_on_artifacts() {
    // Wall-clock scheduling makes per-run hit/miss counts racy in real
    // mode, so the determinism contract is common-subset: same completed
    // units -> byte-identical manifests and muxed segments.
    let seed = 7u64;
    let workload = WorkloadSpec::real_smoke(seed).with_popularity(1.0, 0.2);
    let parents = workload.generate().expect("trace generates");
    let opts = SegmentOptions {
        target_ms: 500,
        ..SegmentOptions::default()
    };
    let plan = SegmentPlan::expand(&parents, &opts).expect("plan expands");
    let mut cfg = ExecConfig {
        arrival_compression: 20,
        ..ExecConfig::default()
    };
    cfg.serve.cache = Some(spec(EvictPolicy::Gdsf));

    let run = |seed| {
        let pol = policy_by_name("smart", seed).expect("policy exists");
        run_real_segmented(&plan, seed, Fleet::table_iv(), pol, &cfg).expect("real run")
    };
    let (a, b) = (run(seed), run(seed));
    for out in [&a, &b] {
        let r = &out.report;
        assert_eq!(r.offered, r.completed + r.shed_total());
        assert_eq!(
            r.shed_by_rung.len(),
            plan.ladder.rungs.len(),
            "the executor fills the plan's rung table: one shed slot per rung"
        );
        let stats = r.cache.as_ref().expect("cache stats present");
        assert!(
            stats.hits + stats.misses >= r.completed,
            "every completed unit did at least one cache lookup (retries re-probe)"
        );
    }
    assert_eq!(
        plan.manifests_partial(&a.event_log),
        plan.manifests_partial(&b.event_log),
        "common-subset manifests must agree across real runs"
    );
    assert_eq!(
        plan.materialize(seed, &a.event_log).expect("mux a"),
        plan.materialize(seed, &b.event_log).expect("mux b"),
        "common-subset muxed artifacts must agree across real runs"
    );
}

#[test]
fn partial_manifests_flag_missing_rungs_degraded() {
    let (plan, out) = cached_segmented_sim(3, EvictPolicy::Lru);

    // Pick one parent and drop every `hi`-rung (rung 0) completion from
    // its log: delivery should fall back to a degraded master that still
    // lists the finished rungs.
    let victim_parent = plan.meta[0].parent_job;
    let truncated: Vec<EventRecord> = out
        .event_log
        .iter()
        .filter(|ev| {
            !matches!(ev, EventRecord::Complete { id, .. }
                if plan.meta[*id as usize].parent_job == victim_parent
                    && plan.meta[*id as usize].rung == 0)
        })
        .cloned()
        .collect();

    let full = plan.manifests(&truncated);
    let partial = plan.manifests_partial(&truncated);
    let master = format!("job{victim_parent}/master.m3u8");
    assert!(
        !full.iter().any(|(rel, _)| *rel == master),
        "all-or-nothing delivery drops the parent entirely"
    );
    let (_, body) = partial
        .iter()
        .find(|(rel, _)| *rel == master)
        .expect("partial delivery still serves the parent");
    assert!(
        body.contains(DEGRADED_TAG),
        "served master must carry the degraded tag"
    );
    assert!(
        partial.len() > full.len(),
        "partial delivery serves strictly more files on a degraded run"
    );
}
