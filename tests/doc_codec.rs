//! Golden bytes of every versioned document lazylocks writes.
//!
//! Each document kind is built from fixed, deterministic inputs and
//! compared byte for byte against a committed file under
//! `tests/golden/docs/`. The goldens pin the wire format: a codec
//! refactor must reproduce them exactly, and decoding a golden and
//! encoding it again must give the same bytes back.

use lazylocks::checkpoint::{CheckpointState, FrameSets};
use lazylocks::model::{MutexId, Program, ProgramBuilder, Reg, ThreadId};
use lazylocks::obs::{
    ids, site, ClassSnap, DepthSnap, ObjSnap, ProfileObj, SiteSnap, SpanSnap, PROFILE_DEPTH_BUCKETS,
};
use lazylocks::runtime::{Fault, FaultKind};
use lazylocks::{
    BugKind, BugReport, ExploreConfig, ExploreSession, ExploreStats, HbrCaching, IterativeBounding,
    MetricsHandle, ProfileHandle, ProfileSnapshot,
};
use lazylocks_fuzz::{
    run_fuzz, Agreement, CaseReport, CaseStatus, DfsSummary, Disagreement, DisagreementKind,
    FuzzConfig, Repro, ShapeProfile,
};
use lazylocks_trace::{
    drive, outcome_json, CheckpointDoc, CheckpointWriter, DriveRequest, Json, ProfileDoc,
    TraceArtifact,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden/docs")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `encoded` must equal the golden file byte for byte.
fn assert_golden(name: &str, encoded: &str) {
    let want = golden(name);
    assert!(
        encoded == want,
        "{name}: encoding differs from the golden\n--- golden\n{want}\n--- encoded\n{encoded}"
    );
}

/// The AB-BA deadlock plus an assertion with characters that need
/// escaping, so every string path of the codec is exercised.
fn program() -> Program {
    let mut b = ProgramBuilder::new("golden-abba");
    let l0 = b.mutex("l0");
    let l1 = b.mutex("l1");
    let x = b.var("x", 0);
    b.thread("T1", |t| {
        t.lock(l0);
        t.lock(l1);
        t.store(x, 1);
        t.unlock(l1);
        t.unlock(l0);
    });
    b.thread("T2", |t| {
        t.lock(l1);
        t.lock(l0);
        t.load(Reg(0), x);
        t.assert_true(Reg(0), "x \"set\" — tab\there\u{8}\u{c}\u{1}");
        t.unlock(l0);
        t.unlock(l1);
    });
    b.build()
}

fn fixed_stats() -> ExploreStats {
    ExploreStats {
        schedules: 12,
        events: 97,
        unique_states: 4,
        unique_hbrs: 6,
        unique_lazy_hbrs: 3,
        deadlocks: 2,
        faulted_schedules: 1,
        max_depth: 11,
        sleep_prunes: 5,
        events_compared: 40,
        frames_pooled: 8,
        wall_time: Duration::from_micros(4321),
        ..ExploreStats::default()
    }
}

fn fault_bug() -> BugReport {
    BugReport {
        kind: BugKind::Fault(Fault {
            thread: ThreadId(1),
            pc: 3,
            kind: FaultKind::AssertFailed {
                msg: "x \"set\" — tab\there\u{8}\u{c}\u{1}".to_string(),
            },
        }),
        schedule: vec![ThreadId(1), ThreadId(0), ThreadId(1)],
        trace_len: 5,
    }
}

fn artifact() -> TraceArtifact {
    let mut artifact = TraceArtifact::from_bug(&program(), "dpor", 9, &fault_bug());
    artifact.tool_version = "0.0.0-golden".to_string();
    artifact.minimized = true;
    artifact.with_stats(&fixed_stats())
}

#[test]
fn artifact_golden() {
    let text = artifact().to_json_string();
    assert_golden("artifact.json", &text);
    assert_eq!(TraceArtifact::parse(&text).unwrap().to_json_string(), text);
}

fn checkpoint() -> CheckpointDoc {
    let mut stats = fixed_stats();
    stats.first_bug = Some(BugReport {
        kind: BugKind::Deadlock {
            waiting: vec![(ThreadId(0), MutexId(1)), (ThreadId(1), MutexId(0))],
        },
        schedule: vec![ThreadId(0), ThreadId(1)],
        trace_len: 2,
    });
    CheckpointDoc {
        program_name: "golden-abba".to_string(),
        program_fingerprint: 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
        strategy_spec: "dpor".to_string(),
        seed: 3,
        state: CheckpointState {
            schedule: vec![ThreadId(0), ThreadId(1)],
            frames: vec![
                FrameSets {
                    backtrack: 0b11,
                    done: 0b01,
                    sleep: 0,
                },
                FrameSets {
                    backtrack: 0b10,
                    done: 0b10,
                    sleep: 0b01,
                },
                FrameSets {
                    backtrack: 0b01,
                    done: 0,
                    sleep: 0,
                },
            ],
            stats,
            states: vec![1, u128::MAX],
            hbrs: vec![0xabc],
            lazy_hbrs: vec![],
            pool_free: 4,
        },
    }
}

#[test]
fn checkpoint_golden() {
    let text = checkpoint().to_json_string();
    assert_golden("checkpoint.json", &text);
    assert_eq!(CheckpointDoc::parse(&text).unwrap().to_json_string(), text);
}

/// A hand-built snapshot: every section populated, a fingerprint wider
/// than 64 bits and the `+Inf` depth bucket.
fn profile_snapshot() -> ProfileSnapshot {
    let mut counts = [0u64; site::KINDS];
    counts[site::RACES] = 3;
    counts[site::BACKTRACKS] = 2;
    let mut obj_counts = [0u64; site::KINDS];
    obj_counts[site::SLEEP_BLOCKS] = 7;
    ProfileSnapshot {
        schedules: 6,
        events: 48,
        sites: vec![
            SiteSnap {
                thread: 0,
                pc: 1,
                counts,
            },
            SiteSnap {
                thread: 1,
                pc: 0,
                counts: obj_counts,
            },
        ],
        objects: vec![
            ObjSnap {
                obj: ProfileObj::Var(0),
                counts: obj_counts,
            },
            ObjSnap {
                obj: ProfileObj::Mutex(1),
                counts,
            },
        ],
        classes: [
            ClassSnap {
                relation: "regular",
                distinct: 2,
                schedules: 6,
                top: vec![(u128::MAX - 5, 4), (17, 2)],
            },
            ClassSnap {
                relation: "lazy",
                distinct: 1,
                schedules: 6,
                top: vec![(0x1_0000_0000_0000_0000, 6)],
            },
        ],
        span_count: 2,
        spans: vec![
            SpanSnap {
                prefix: vec![0, 1, 0],
                schedules: 4,
                events: 32,
                wall_ns: 0,
            },
            SpanSnap {
                prefix: vec![],
                schedules: 2,
                events: 16,
                wall_ns: 0,
            },
        ],
        depth: (0..=PROFILE_DEPTH_BUCKETS.len())
            .map(|i| DepthSnap {
                le: PROFILE_DEPTH_BUCKETS.get(i).copied(),
                schedules: u64::from(i == 1) * 5 + u64::from(i == 8),
                events: u64::from(i == 1) * 40 + u64::from(i == 8) * 600,
                wall_ns: 0,
            })
            .collect(),
    }
}

#[test]
fn profile_doc_golden() {
    let mut doc = ProfileDoc::new(&program(), "lazy-dpor", &profile_snapshot());
    doc.tool_version = "0.0.0-golden".to_string();
    let text = doc.to_json_string();
    assert_golden("profile_doc.json", &text);
    let back = ProfileDoc::parse(&text).unwrap();
    assert_eq!(back.to_json_string(), text);
    // The embedded snapshot decodes to the typed value it came from.
    let snapshot = ProfileSnapshot::from_json(&back.profile).unwrap();
    assert_eq!(snapshot, profile_snapshot());
}

fn metrics_snapshot() -> lazylocks::MetricsSnapshot {
    let handle = MetricsHandle::enabled();
    for depth in [3, 9, 40, 700] {
        handle.inc(ids::SCHEDULES);
        handle.add(ids::EVENTS, depth);
        handle.observe(ids::SCHEDULE_DEPTH, depth);
    }
    handle.add(ids::SLEEP_PRUNES, 5);
    handle.observe_weighted(ids::PHASE_HBR_APPLY, 900, 64);
    handle.snapshot().unwrap().scrubbed()
}

#[test]
fn metrics_snapshot_golden() {
    let text = metrics_snapshot().to_json_string();
    assert_golden("metrics.json", &text);
    let back = lazylocks::MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back.to_json_string(), text);
}

/// A job result the way the daemon assembles one: the drive outcome plus
/// the scrubbed metrics snapshot and profile document, wall times zeroed.
fn job_result() -> Json {
    let program = program();
    let metrics = MetricsHandle::enabled();
    let profile = ProfileHandle::enabled();
    let config = ExploreConfig::with_limit(10_000)
        .with_metrics(metrics.clone())
        .with_profile(profile.clone());
    let result = drive(
        DriveRequest::new(&program, "dpor")
            .with_config(config)
            .minimizing(true),
    )
    .unwrap();
    let mut doc = outcome_json(
        program.name(),
        "dpor",
        &result.outcome,
        &result.bugs,
        true,
        &result.trace_paths(),
    );
    let Json::Obj(pairs) = &mut doc else {
        panic!("outcome_json is an object")
    };
    let scrubbed = metrics.snapshot().unwrap().scrubbed();
    pairs.push(("metrics".to_string(), scrubbed.to_json()));
    let mut profile_doc =
        ProfileDoc::new(&program, "dpor", &profile.snapshot().unwrap().scrubbed());
    profile_doc.tool_version = "0.0.0-golden".to_string();
    pairs.push(("profile".to_string(), profile_doc.to_json()));
    lazylocks_server::job::scrubbed_result(doc)
}

#[test]
fn job_result_golden() {
    let text = job_result().encode();
    assert_golden("job_result.json", &text);
    assert_eq!(Json::parse(&text).unwrap().encode(), text);
}

/// A real session over a few small cases, plus one hand-built
/// disagreement so every field of the report carries data.
fn fuzz_report() -> Json {
    let config = FuzzConfig {
        profiles: vec![ShapeProfile::DeadlockProne, ShapeProfile::LockHeavy],
        cases: 4,
        seed: 7,
        budget: 2_000,
        max_size: 2,
    };
    let oracle = lazylocks_fuzz::default_oracle_specs();
    let mut report = run_fuzz(
        &config,
        &oracle,
        None,
        &lazylocks::CancelToken::new(),
        &lazylocks::MetricsHandle::disabled(),
        |_| {},
    );
    report.cases.push(CaseReport {
        index: 4,
        profile: ShapeProfile::DataRaceRich,
        size: 1,
        program_name: "fuzz-golden-4".to_string(),
        fingerprint: 0xfeed,
        status: CaseStatus::Disagreed,
        dfs: DfsSummary {
            schedules: 9,
            states: 3,
            hbrs: 4,
            lazy_hbrs: 2,
            deadlocks: 0,
            faulted_schedules: 1,
        },
        disagreements: vec![Disagreement {
            spec: "lazy-dpor".to_string(),
            strategy_id: "lazy-dpor".to_string(),
            agreement: Agreement::StateParity,
            kind: DisagreementKind::MissingState {
                fingerprint: 0xbeef,
            },
            witness: None,
        }],
        repros: vec![Repro {
            spec: "lazy-dpor".to_string(),
            kind: "missing-state".to_string(),
            instructions: 6,
            schedule_len: 3,
            path: Some(PathBuf::from("repros/fuzz-golden-4.json")),
            save_error: None,
            artifact: artifact(),
        }],
    });
    report.to_json(&config)
}

#[test]
fn fuzz_report_golden() {
    let text = fuzz_report().pretty();
    assert_golden("fuzz_report.json", &text);
    assert_eq!(Json::parse(&text).unwrap().pretty(), text);
}

/// A `bounded` run on philosophers-naive-3 with metrics and the profiler
/// on: every wave records into the same registries. Returns the scrubbed
/// metrics JSON, its Prometheus text and the scrubbed profile document.
fn bounded_docs(caching: HbrCaching, spec: &str) -> [String; 3] {
    let program = lazylocks_suite::by_name("philosophers-naive-3")
        .expect("bench exists")
        .program;
    // The run must span several waves, each cut short by the bound.
    let run = IterativeBounding {
        caching,
        ..IterativeBounding::default()
    }
    .run(&program, &ExploreConfig::with_limit(10_000));
    assert!(run.waves.len() >= 2, "{spec}: {} waves", run.waves.len());
    let pruned = run.waves.iter().filter(|(_, s)| s.bound_prunes > 0).count();
    assert!(pruned >= 2, "{spec}: {:?}", run.waves);

    let metrics = MetricsHandle::enabled();
    let profile = ProfileHandle::enabled();
    let config = ExploreConfig::with_limit(10_000)
        .with_metrics(metrics.clone())
        .with_profile(profile.clone());
    ExploreSession::new(&program)
        .with_config(config)
        .run_spec(spec)
        .unwrap();
    let snapshot = metrics.snapshot().unwrap().scrubbed();
    let mut doc = ProfileDoc::new(&program, spec, &profile.snapshot().unwrap().scrubbed());
    doc.tool_version = "0.0.0-golden".to_string();
    [
        snapshot.to_json_string(),
        snapshot.to_prometheus_text(),
        doc.to_json_string(),
    ]
}

#[test]
fn bounded_lazy_docs_golden() {
    let [json, prom, profile] = bounded_docs(HbrCaching::lazy(), "bounded(mode=lazy)");
    assert_golden("bounded_lazy_metrics.json", &json);
    assert_golden("bounded_lazy_metrics.prom", &prom);
    assert_golden("bounded_lazy_profile.json", &profile);
}

#[test]
fn bounded_regular_docs_golden() {
    let [json, prom, profile] = bounded_docs(HbrCaching::regular(), "bounded(mode=regular)");
    assert_golden("bounded_regular_metrics.json", &json);
    assert_golden("bounded_regular_metrics.prom", &prom);
    assert_golden("bounded_regular_profile.json", &profile);
}

/// A checkpointing `dpor` run whose `CheckpointWriter` records into the
/// explorer's metrics handle.
#[test]
fn dpor_checkpoint_metrics_golden() {
    let program = lazylocks_suite::by_name("rw-r2-w1")
        .expect("bench exists")
        .program;
    let dir = std::env::temp_dir().join(format!(
        "lazylocks-doc-codec-checkpoint-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = MetricsHandle::enabled();
    let writer = CheckpointWriter::new(&dir, &program, "dpor", 0)
        .unwrap()
        .with_metrics(&metrics);
    let config = ExploreConfig::with_limit(10_000)
        .with_metrics(metrics.clone())
        .checkpointing_every(10);
    ExploreSession::new(&program)
        .with_config(config)
        .observe_arc(Arc::new(writer))
        .run_spec("dpor")
        .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let snapshot = metrics.snapshot().unwrap().scrubbed();
    assert!(snapshot.value("lazylocks_checkpoints_written_total") > 1);
    assert_golden("dpor_checkpoint_metrics.json", &snapshot.to_json_string());
}
