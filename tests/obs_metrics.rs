//! Observability-layer integration tests.
//!
//! Pins the arithmetic the `/metrics` endpoint and `--metrics-json`
//! reports are built on — histogram bucket boundaries, quantile
//! interpolation, snapshot merge associativity — and the determinism
//! contract: two identical explorations scrub to byte-identical snapshot
//! JSON. The cross-crate counters (replay, fuzz, crash safety) are
//! exercised end to end.

use lazylocks::obs::{ids, MetricValue, MetricsHandle};
use lazylocks::{ExploreConfig, ExploreSession, MetricsSnapshot};
use lazylocks_fuzz::{default_oracle_specs, run_fuzz, FuzzConfig, ShapeProfile};
use lazylocks_model::ProgramBuilder;
use lazylocks_trace::{replay_embedded, TraceArtifact};
use std::sync::Arc;

/// The built-in histogram the arithmetic is checked on; its bucket
/// bounds are 4, 8, 16, …, 512.
const DEPTH: &str = "lazylocks_schedule_depth";

/// A fresh registry's snapshot after observing `values` on [`DEPTH`].
fn record(values: &[u64]) -> MetricsSnapshot {
    let handle = MetricsHandle::enabled();
    for &v in values {
        handle.observe(ids::SCHEDULE_DEPTH, v);
    }
    handle.snapshot().unwrap()
}

#[test]
fn histogram_buckets_are_inclusive_upper_bounds() {
    let snap = record(&[4, 5, 8, 512, 513]);
    match &snap.get(DEPTH).unwrap().total {
        MetricValue::Histogram { counts, count, sum } => {
            // `le` bounds are inclusive: 4 lands in le=4, 5 and 8 in
            // le=8, 513 only in the implicit +Inf bucket.
            assert_eq!(counts, &[1, 2, 0, 0, 0, 0, 0, 1]);
            assert_eq!(*count, 5);
            assert_eq!(*sum, 4 + 5 + 8 + 512 + 513);
        }
        other => panic!("expected a histogram, got {other:?}"),
    }
    // The Prometheus rendering is cumulative and ends at +Inf == count.
    let text = snap.to_prometheus_text();
    for line in [
        "lazylocks_schedule_depth_bucket{le=\"4\"} 1",
        "lazylocks_schedule_depth_bucket{le=\"8\"} 3",
        "lazylocks_schedule_depth_bucket{le=\"256\"} 3",
        "lazylocks_schedule_depth_bucket{le=\"512\"} 4",
        "lazylocks_schedule_depth_bucket{le=\"+Inf\"} 5",
        "lazylocks_schedule_depth_count 5",
    ] {
        assert!(text.contains(line), "{line} missing from\n{text}");
    }
}

#[test]
fn quantiles_interpolate_within_buckets() {
    // Empty histograms have no quantiles.
    assert_eq!(record(&[]).get(DEPTH).unwrap().quantile(0.5), None);

    let values: Vec<u64> = (1..=100).collect();
    let snap = record(&values);
    let hist = snap.get(DEPTH).unwrap();
    // 64 of 100 samples are ≤ 64; the median interpolates inside the
    // (32, 64] bucket, and every quantile is monotone and within range.
    let q50 = hist.quantile(0.5).unwrap();
    assert!((32.0..=64.0).contains(&q50), "median {q50}");
    let q10 = hist.quantile(0.1).unwrap();
    let q99 = hist.quantile(0.99).unwrap();
    assert!(q10 <= q50 && q50 <= q99, "{q10} / {q50} / {q99}");
    assert!(q99 <= 128.0);
}

#[test]
fn snapshot_merge_is_associative() {
    let (a, b, c) = (record(&[1, 20]), record(&[300]), record(&[4000, 7]));

    let mut left = MetricsSnapshot::default();
    left.merge(&a);
    left.merge(&b);
    left.merge(&c);

    let mut bc = MetricsSnapshot::default();
    bc.merge(&b);
    bc.merge(&c);
    let mut right = a.clone();
    right.merge(&bc);

    assert_eq!(left, right);
    assert_eq!(left.get(DEPTH).unwrap().total.count(), 5);
    assert_eq!(left, record(&[1, 20, 300, 4000, 7]));
}

#[test]
fn identical_explorations_scrub_to_byte_identical_json() {
    let bench = lazylocks_suite::by_name("philosophers-naive-3").expect("bench exists");
    let explore = || {
        let handle = MetricsHandle::enabled();
        let outcome = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(500).with_metrics(handle.clone()))
            .run_spec("dpor(sleep=true)")
            .unwrap();
        (outcome.stats.schedules, handle.snapshot().unwrap())
    };
    let (schedules_a, a) = explore();
    let (schedules_b, b) = explore();
    assert_eq!(schedules_a, schedules_b);
    assert!(a.value("lazylocks_schedules_total") > 0);
    assert_eq!(
        a.value("lazylocks_schedules_total") as usize,
        schedules_a,
        "live schedules counter mirrors ExploreStats"
    );
    // The raw snapshots carry wall-clock phase timings and may differ;
    // the scrubbed snapshots must not.
    assert_eq!(a.scrubbed().to_json_string(), b.scrubbed().to_json_string());
    // Scrubbing zeroes exactly the time-based families.
    let scrubbed = a.scrubbed();
    assert_eq!(scrubbed.value("lazylocks_phase_executor_step_ns"), 0);
    assert_eq!(
        scrubbed.value("lazylocks_schedule_depth"),
        a.value("lazylocks_schedule_depth")
    );
}

#[test]
fn replay_records_attempts_and_event_volume() {
    let mut b = ProgramBuilder::new("abba-obs");
    let l0 = b.mutex("l0");
    let l1 = b.mutex("l1");
    b.thread("T1", |t| {
        t.lock(l0);
        t.lock(l1);
        t.unlock(l1);
        t.unlock(l0);
    });
    b.thread("T2", |t| {
        t.lock(l1);
        t.lock(l0);
        t.unlock(l0);
        t.unlock(l1);
    });
    let program = b.build();
    let bug = ExploreSession::new(&program)
        .with_config(ExploreConfig::with_limit(10_000).stopping_on_bug())
        .run_spec("dpor")
        .unwrap()
        .bugs
        .first()
        .cloned()
        .expect("abba deadlocks");
    let artifact = TraceArtifact::from_bug(&program, "dpor", 1, &bug);

    let handle = MetricsHandle::enabled();
    let report = replay_embedded(&artifact, &handle).unwrap();
    assert!(report.reproduced());
    let snap = handle.snapshot().unwrap();
    assert_eq!(snap.value("lazylocks_replays_total"), 1);
    assert!(snap.value("lazylocks_replay_events_total") > 0);
}

#[test]
fn fuzz_counts_cases_without_touching_the_report() {
    let oracle = default_oracle_specs();
    let config = FuzzConfig {
        profiles: ShapeProfile::ALL.to_vec(),
        cases: 5,
        seed: 42,
        budget: 5_000,
        max_size: 2,
    };
    let cancel = lazylocks::CancelToken::new();

    let handle = MetricsHandle::enabled();
    let instrumented = run_fuzz(&config, &oracle, None, &cancel, &handle, |_| {});
    let plain = run_fuzz(
        &config,
        &oracle,
        None,
        &cancel,
        &MetricsHandle::disabled(),
        |_| {},
    );

    let snap = handle.snapshot().unwrap();
    assert_eq!(snap.value("lazylocks_fuzz_cases_total"), 5);
    // Determinism contract: the report is identical with metrics on.
    assert_eq!(instrumented.cases.len(), plain.cases.len());
    for (x, y) in instrumented.cases.iter().zip(&plain.cases) {
        assert_eq!(x.fingerprint, y.fingerprint);
        assert_eq!(x.status, y.status);
        assert_eq!(x.dfs, y.dfs);
    }
}

#[test]
fn crash_safety_counters_flow_through_the_builtin_registry() {
    use lazylocks::obs::ids;
    use lazylocks_trace::{load_checkpoint, CheckpointWriter};
    use std::path::PathBuf;

    let dir: PathBuf =
        std::env::temp_dir().join(format!("lazylocks-obs-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bench = lazylocks_suite::by_name("paper-figure1").expect("bench exists");
    let program = &bench.program;
    const SPEC: &str = "dpor(sleep=true)";

    // A checkpointing run counts every written generation and its bytes.
    let handle = MetricsHandle::enabled();
    let writer = CheckpointWriter::new(&dir, program, SPEC, 1)
        .unwrap()
        .with_metrics(&handle);
    let outcome = ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(1)
                .checkpointing_every(1)
                .with_metrics(handle.clone()),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(SPEC)
        .unwrap();
    let snap = handle.snapshot().unwrap();
    assert_eq!(
        snap.value("lazylocks_checkpoints_written_total") as usize,
        outcome.stats.schedules,
        "one generation per schedule at cadence 1"
    );
    assert!(snap.value("lazylocks_checkpoint_bytes_total") > 0);

    // Resuming restores frames and counts each one.
    let doc = load_checkpoint(&dir).unwrap().unwrap();
    let resume_handle = MetricsHandle::enabled();
    ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(1)
                .resuming_from(Arc::new(doc.state))
                .with_metrics(resume_handle.clone()),
        )
        .run_spec(SPEC)
        .unwrap();
    let snap = resume_handle.snapshot().unwrap();
    assert!(
        snap.value("lazylocks_resume_frames_restored_total") > 0,
        "the restored frontier was counted"
    );

    // The daemon-side recovery counter resolves through the same builtin
    // catalogue, so `GET /metrics` renders it by name.
    let recovery = MetricsHandle::enabled();
    recovery.add(ids::JOBS_RECOVERED, 2);
    let snap = recovery.snapshot().unwrap();
    assert_eq!(snap.value("lazylocks_jobs_recovered_total"), 2);
    assert!(snap
        .to_prometheus_text()
        .contains("lazylocks_jobs_recovered_total 2"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The exploration counter families and the [`lazylocks::ExploreStats`]
/// field each one counts.
fn counted_families(s: &lazylocks::ExploreStats) -> [(&'static str, u64); 10] {
    [
        ("lazylocks_schedules_total", s.schedules as u64),
        ("lazylocks_events_total", s.events),
        ("lazylocks_deadlocks_total", s.deadlocks as u64),
        ("lazylocks_faults_total", s.faulted_schedules as u64),
        ("lazylocks_truncated_runs_total", s.truncated_runs as u64),
        ("lazylocks_sleep_prunes_total", s.sleep_prunes as u64),
        ("lazylocks_cache_prunes_total", s.cache_prunes as u64),
        ("lazylocks_bound_prunes_total", s.bound_prunes as u64),
        ("lazylocks_events_compared_total", s.events_compared),
        ("lazylocks_frames_pooled_total", s.frames_pooled),
    ]
}

#[test]
fn exploration_families_agree_with_stats_for_every_configuration() {
    use lazylocks::{HbrCaching, IterativeBounding, ProfileHandle};

    // The nine registry configurations. Both bounded ones run through
    // `IterativeBounding::run` so the per-wave stats are visible.
    const CONFIGURATIONS: [&str; 9] = [
        "dfs",
        "random",
        "dpor",
        "dpor(deps=lazy-locks)",
        "caching(mode=regular)",
        "caching(mode=lazy)",
        "lazy-dpor",
        "bounded(mode=regular)",
        "bounded(mode=lazy)",
    ];
    // (bench, schedule limit, preemption bound, run-length cap): deadlocks
    // and sleep prunes, faults, cache and bound prunes, truncated runs.
    let cases: [(&str, usize, Option<u32>, usize); 4] = [
        ("philosophers-naive-3", 2_000, None, 10_000),
        ("dekker", 300, None, 10_000),
        ("rw-r2-w1", 300, Some(1), 10_000),
        ("philosophers-naive-3", 300, None, 12),
    ];
    let mut seen = std::collections::BTreeSet::new();
    for (name, limit, bound, cap) in cases {
        let bench = lazylocks_suite::by_name(name).expect("bench exists");
        for spec in CONFIGURATIONS {
            let metrics = MetricsHandle::enabled();
            let profile = ProfileHandle::enabled();
            let mut config = ExploreConfig::with_limit(limit)
                .with_metrics(metrics.clone())
                .with_profile(profile.clone());
            config.preemption_bound = bound;
            config.max_run_length = cap;
            // The counters count the work this run did: for the bounded
            // strategies that is every wave, not just the final one.
            let work: Vec<lazylocks::ExploreStats> = match spec {
                "bounded(mode=regular)" | "bounded(mode=lazy)" => {
                    let caching = if spec.contains("regular") {
                        HbrCaching::regular()
                    } else {
                        HbrCaching::lazy()
                    };
                    IterativeBounding {
                        caching,
                        ..IterativeBounding::default()
                    }
                    .run(&bench.program, &config)
                    .waves
                    .into_iter()
                    .map(|(_, stats)| stats)
                    .collect()
                }
                _ => vec![
                    ExploreSession::new(&bench.program)
                        .with_config(config)
                        .run_spec(spec)
                        .unwrap()
                        .stats,
                ],
            };
            let snap = metrics.snapshot().unwrap();
            let cell = format!("{name} (limit {limit}, bound {bound:?}, cap {cap}) / {spec}");
            let mut expected = counted_families(&lazylocks::ExploreStats::default());
            for stats in &work {
                for (slot, (_, n)) in expected.iter_mut().zip(counted_families(stats)) {
                    slot.1 += n;
                }
            }
            for (family, n) in expected {
                assert_eq!(snap.value(family), n, "{cell}: {family}");
                if n > 0 {
                    seen.insert(family);
                }
            }
            let (schedules, events) = (expected[0].1, expected[1].1);
            let depth = &snap.get("lazylocks_schedule_depth").unwrap().total;
            assert_eq!(depth.count(), schedules, "{cell}: depth count");
            assert_eq!(depth.sum(), events, "{cell}: depth sum");
            let prof = profile.snapshot().unwrap();
            assert_eq!(prof.schedules, schedules, "{cell}: profile schedules");
            assert_eq!(prof.events, events, "{cell}: profile events");
        }
    }
    // Every family was non-zero somewhere, so no equality above is 0 = 0
    // by construction.
    assert_eq!(seen.len(), 10, "families never exercised: {seen:?}");
}
