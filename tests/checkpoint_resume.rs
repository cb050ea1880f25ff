//! Crash-safe checkpoint/resume, full stack: engine → `CheckpointWriter`
//! → disk → `load_checkpoint` → a resumed session, compared against an
//! uninterrupted exploration of the same program.
//!
//! The core engine pins the in-memory parity (`dpor.rs` unit tests);
//! these tests pin the *durable* round trip — the serialized document on
//! disk carries everything a fresh process needs to finish the search
//! with identical statistics.

use lazylocks::{ExploreConfig, ExploreSession, ExploreStats};
use lazylocks_trace::{load_checkpoint, CheckpointWriter, CHECKPOINT_FILE};
use std::path::PathBuf;
use std::sync::Arc;

const SPEC: &str = "dpor(sleep=true)";
const SEED: u64 = 7;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lazylocks-checkpoint-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every deterministic field must survive the interruption; only
/// `wall_time` is clock-dependent and exempt by design (the checkpoint's
/// pool length makes even `frames_pooled` exact).
fn assert_stats_match(resumed: &ExploreStats, full: &ExploreStats) {
    assert_eq!(resumed.schedules, full.schedules);
    assert_eq!(resumed.events, full.events);
    assert_eq!(resumed.unique_states, full.unique_states);
    assert_eq!(resumed.unique_hbrs, full.unique_hbrs);
    assert_eq!(resumed.unique_lazy_hbrs, full.unique_lazy_hbrs);
    assert_eq!(resumed.max_depth, full.max_depth);
    assert_eq!(resumed.deadlocks, full.deadlocks);
    assert_eq!(resumed.faulted_schedules, full.faulted_schedules);
    assert_eq!(resumed.sleep_prunes, full.sleep_prunes);
    assert_eq!(resumed.events_compared, full.events_compared);
    assert_eq!(resumed.frames_pooled, full.frames_pooled);
    assert!(!resumed.limit_hit && !resumed.cancelled);
}

#[test]
fn resuming_a_limit_interrupted_run_matches_the_uninterrupted_stats() {
    let bench = lazylocks_suite::by_name("rw-r2-w1").expect("bench exists");
    let program = &bench.program;

    let full = ExploreSession::new(program)
        .with_config(ExploreConfig::with_limit(1_000_000).seeded(SEED))
        .run_spec(SPEC)
        .unwrap()
        .stats;
    assert!(
        full.schedules > 50 && !full.limit_hit,
        "bench too shallow for an interruption test: {} schedules",
        full.schedules
    );

    // Interrupt mid-search by exhausting a half-sized budget while a
    // CheckpointWriter persists the frontier every 10 schedules — the
    // in-process stand-in for a crash.
    let dir = temp_dir("parity");
    let writer = CheckpointWriter::new(&dir, program, SPEC, SEED).unwrap();
    let interrupted = ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(full.schedules / 2)
                .seeded(SEED)
                .checkpointing_every(10),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(SPEC)
        .unwrap()
        .stats;
    assert!(interrupted.limit_hit);
    assert!(dir.join(CHECKPOINT_FILE).is_file());

    // A fresh process loads the document, refuses mismatches, resumes.
    let doc = load_checkpoint(&dir).unwrap().unwrap();
    doc.check_matches(program, SPEC, SEED).unwrap();
    assert!(doc.state.stats.schedules <= interrupted.schedules);
    assert!(doc.state.stats.schedules > 0, "at least one checkpoint hit");

    let resumed = ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(SEED)
                .resuming_from(Arc::new(doc.state)),
        )
        .run_spec(SPEC)
        .unwrap()
        .stats;
    assert_stats_match(&resumed, &full);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_checkpoint_generation_resumes_to_the_same_answer() {
    // Overwrite-in-place means only the newest generation is on disk at
    // any moment; this test replays the run once per cadence point and
    // resumes from each, so a crash at *any* moment is covered.
    let bench = lazylocks_suite::by_name("philosophers-naive-3").expect("bench exists");
    let program = &bench.program;
    let full = ExploreSession::new(program)
        .with_config(ExploreConfig::with_limit(1_000_000).seeded(SEED))
        .run_spec(SPEC)
        .unwrap()
        .stats;
    assert!(full.schedules >= 4 && !full.limit_hit);

    let dir = temp_dir("generations");
    for cut in 1..full.schedules {
        let writer = CheckpointWriter::new(&dir, program, SPEC, SEED).unwrap();
        // The engine stops *at* the limit before checkpointing that
        // schedule, so a budget of cut+1 leaves generation `cut` on disk.
        let interrupted = ExploreSession::new(program)
            .with_config(
                ExploreConfig::with_limit(cut + 1)
                    .seeded(SEED)
                    .checkpointing_every(1),
            )
            .observe_arc(Arc::new(writer))
            .run_spec(SPEC)
            .unwrap()
            .stats;
        assert!(interrupted.limit_hit, "cut {cut} did not interrupt");

        let doc = load_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(doc.state.stats.schedules, cut);
        let resumed = ExploreSession::new(program)
            .with_config(
                ExploreConfig::with_limit(1_000_000)
                    .seeded(SEED)
                    .resuming_from(Arc::new(doc.state)),
            )
            .run_spec(SPEC)
            .unwrap()
            .stats;
        assert_stats_match(&resumed, &full);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_foreign_checkpoint() {
    let fig1 = lazylocks_suite::by_name("paper-figure1").expect("bench exists");
    let dir = temp_dir("foreign");
    let writer = CheckpointWriter::new(&dir, &fig1.program, SPEC, SEED).unwrap();
    ExploreSession::new(&fig1.program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(SEED)
                .checkpointing_every(1),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(SPEC)
        .unwrap();

    let doc = load_checkpoint(&dir).unwrap().unwrap();
    let other = lazylocks_suite::by_name("store-buffer").expect("bench exists");
    let err = doc.check_matches(&other.program, SPEC, SEED).unwrap_err();
    assert!(err.contains("program"), "{err}");
    let err = doc.check_matches(&fig1.program, "dfs", SEED).unwrap_err();
    assert!(err.contains("strategy"), "{err}");
    let err = doc
        .check_matches(&fig1.program, SPEC, SEED + 1)
        .unwrap_err();
    assert!(err.contains("seed"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_resumed_process_counts_only_the_work_after_its_checkpoint() {
    use lazylocks::MetricsHandle;

    // rw-r2-w1 under `dpor` sleep-prunes on both sides of the cut, so
    // every exploration family moves before and after the checkpoint.
    const DPOR: &str = "dpor";
    let bench = lazylocks_suite::by_name("rw-r2-w1").expect("bench exists");
    let program = &bench.program;
    let full = ExploreSession::new(program)
        .with_config(ExploreConfig::with_limit(1_000_000).seeded(SEED))
        .run_spec(DPOR)
        .unwrap()
        .stats;

    let dir = temp_dir("ledger");
    let writer = CheckpointWriter::new(&dir, program, DPOR, SEED).unwrap();
    ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(full.schedules / 2)
                .seeded(SEED)
                .checkpointing_every(10),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(DPOR)
        .unwrap();
    let doc = load_checkpoint(&dir).unwrap().unwrap();
    let at_cut = doc.state.stats.clone();
    assert!(
        0 < at_cut.sleep_prunes && at_cut.sleep_prunes < full.sleep_prunes,
        "sleep prunes must straddle the cut: {} of {}",
        at_cut.sleep_prunes,
        full.sleep_prunes
    );

    let metrics = MetricsHandle::enabled();
    let resumed = ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(SEED)
                .resuming_from(Arc::new(doc.state))
                .with_metrics(metrics.clone()),
        )
        .run_spec(DPOR)
        .unwrap()
        .stats;
    assert_stats_match(&resumed, &full);

    let snap = metrics.snapshot().unwrap();
    let count = |s: &ExploreStats| -> [(&str, u64); 10] {
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
    };
    for ((family, total), (_, before)) in count(&full).into_iter().zip(count(&at_cut)) {
        assert_eq!(snap.value(family), total - before, "{family}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_checkpoint_listing_regular_classes_resumes_and_the_next_one_drops_them() {
    // Sound `dpor` counts its regular classes, so its checkpoints carry
    // `"hbrs": []`. Older versions wrote every class seen so far; such a
    // document must still resume to the uninterrupted stats, and the
    // resumed run must not carry the stale list into its own checkpoints.
    const DPOR: &str = "dpor";
    const CUT: usize = 20;
    let bench = lazylocks_suite::by_name("rw-r2-w1").expect("bench exists");
    let program = &bench.program;
    let full = ExploreSession::new(program)
        .with_config(ExploreConfig::with_limit(1_000_000).seeded(SEED))
        .run_spec(DPOR)
        .unwrap()
        .stats;
    assert!(full.schedules > 2 * CUT, "{} schedules", full.schedules);

    // The classes of the first CUT leaves: one new class per leaf.
    let mut witnessed = ExploreConfig::with_limit(CUT).seeded(SEED);
    witnessed.collect_state_witnesses = true;
    let prefix = ExploreSession::new(program)
        .with_config(witnessed)
        .run_spec(DPOR)
        .unwrap()
        .stats;
    let mut classes: Vec<u128> = prefix.hbr_witnesses.iter().map(|&(fp, _)| fp).collect();
    classes.sort_unstable();
    classes.dedup();
    assert_eq!(classes.len(), CUT);

    // A budget of CUT+1 leaves generation CUT on disk.
    let dir = temp_dir("regular-list");
    let writer = CheckpointWriter::new(&dir, program, DPOR, SEED).unwrap();
    ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(CUT + 1)
                .seeded(SEED)
                .checkpointing_every(1),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(DPOR)
        .unwrap();
    let mut doc = load_checkpoint(&dir).unwrap().unwrap();
    assert_eq!(doc.state.stats.schedules, CUT);
    assert!(doc.state.hbrs.is_empty(), "derived runs write no list");
    assert_eq!(doc.state.stats.unique_hbrs, CUT);

    // Rewrite it as an older version did, with the list populated.
    doc.state.hbrs = classes;
    let path = dir.join(CHECKPOINT_FILE);
    std::fs::write(&path, doc.to_json_string()).unwrap();
    let old = load_checkpoint(&dir).unwrap().unwrap();
    assert_eq!(old.state.hbrs.len(), CUT);

    let writer = CheckpointWriter::new(&dir, program, DPOR, SEED).unwrap();
    let resumed = ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(SEED)
                .checkpointing_every(10)
                .resuming_from(Arc::new(old.state)),
        )
        .observe_arc(Arc::new(writer))
        .run_spec(DPOR)
        .unwrap()
        .stats;
    assert_stats_match(&resumed, &full);

    let next = load_checkpoint(&dir).unwrap().unwrap();
    assert!(next.state.stats.schedules > CUT, "no later checkpoint");
    assert!(next.state.hbrs.is_empty(), "{:?}", next.state.hbrs);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"hbrs\": []"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
