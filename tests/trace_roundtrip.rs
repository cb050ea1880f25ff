//! End-to-end tests for the trace subsystem: JSON codec property tests
//! over deterministic corpora, artifact round trips across the benchmark
//! suite, and the explore → save → reload → replay pipeline.

use lazylocks::rng::SplitMix64;
use lazylocks::{ExploreConfig, ExploreSession, MetricsHandle, Verdict};
use lazylocks_model::{Program, ProgramBuilder, ThreadId};
use lazylocks_runtime::program_fingerprint;
use lazylocks_trace::{
    replay_against, replay_embedded, CorpusStore, Json, ReplayVerdict, TraceArtifact, TraceRecorder,
};
use std::sync::Arc;

/// Deterministic random JSON values: the property-test corpus for the
/// codec. `depth` bounds recursion so every value is finite.
fn random_json(rng: &mut SplitMix64, depth: usize) -> Json {
    let pick = if depth == 0 {
        rng.gen_range(4) // scalars only at the leaves
    } else {
        rng.gen_range(6)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(2) == 0),
        2 => {
            // Signed 64-bit integers spanning the full range.
            Json::Int(i128::from(rng.next_u64() as i64))
        }
        3 => Json::Str(random_string(rng)),
        4 => {
            let len = rng.gen_range(4);
            Json::Arr((0..len).map(|_| random_json(rng, depth - 1)).collect())
        }
        _ => {
            let len = rng.gen_range(4);
            Json::Obj(
                (0..len)
                    .map(|i| {
                        (
                            format!("k{i}_{}", rng.gen_range(100)),
                            random_json(rng, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

fn random_string(rng: &mut SplitMix64) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{01}', 'é',
        '∀', '🦀', '#', '{', '}', '[', ']', ',', ':',
    ];
    let len = rng.gen_range(12);
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(ALPHABET.len())])
        .collect()
}

#[test]
fn json_codec_round_trips_deterministic_corpus() {
    let mut rng = SplitMix64::new(0xdead_beef);
    for case in 0..500 {
        let value = random_json(&mut rng, 4);
        let compact = value.encode();
        assert_eq!(
            Json::parse(&compact).unwrap(),
            value,
            "case {case}: compact round trip of {compact}"
        );
        assert_eq!(
            Json::parse(&value.pretty()).unwrap(),
            value,
            "case {case}: pretty round trip"
        );
    }
}

#[test]
fn json_codec_round_trips_u128_fingerprints() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..200 {
        let fp = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        let v = Json::u128_hex(fp);
        let back = Json::parse(&v.encode()).unwrap();
        assert_eq!(back.as_u128_hex(), Some(fp));
    }
}

#[test]
fn json_codec_rejects_mutated_documents() {
    // Deterministic fuzzing: truncating a valid document at any byte
    // boundary must never panic, and must error (a JSON prefix is never a
    // complete document unless the whole value was a scalar prefix —
    // which our top-level object is not).
    let value = Json::obj([
        ("fingerprint", Json::u128_hex(u128::MAX)),
        (
            "arr",
            Json::Arr(vec![Json::Int(-3), Json::Str("s\"x".into())]),
        ),
    ]);
    let text = value.encode();
    for cut in 0..text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        assert!(
            Json::parse(&text[..cut]).is_err(),
            "truncation at {cut} must not parse: {:?}",
            &text[..cut]
        );
    }
}

fn noisy_deadlocker() -> Program {
    let mut b = ProgramBuilder::new("noisy-abba");
    let noise = b.var("noise", 0);
    let l0 = b.mutex("l0");
    let l1 = b.mutex("l1");
    b.thread("T1", |t| {
        t.store(noise, 1);
        t.lock(l0);
        t.lock(l1);
        t.unlock(l1);
        t.unlock(l0);
    });
    b.thread("T2", |t| {
        t.store(noise, 2);
        t.lock(l1);
        t.lock(l0);
        t.unlock(l0);
        t.unlock(l1);
    });
    b.build()
}

fn temp_store(tag: &str) -> CorpusStore {
    let dir = std::env::temp_dir().join(format!(
        "lazylocks-integration-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    CorpusStore::open(dir).unwrap()
}

/// The tentpole pipeline, in-process: explore with a recorder, reload the
/// artifact from disk with no state but the file, replay, and classify.
#[test]
fn explore_save_reload_replay_reproduces() {
    let program = noisy_deadlocker();
    let store = temp_store("pipeline");
    let recorder = Arc::new(TraceRecorder::new(
        store.clone(),
        &program,
        "dpor(sleep=true)",
        3,
    ));
    let outcome = ExploreSession::new(&program)
        .with_config(ExploreConfig::with_limit(10_000).seeded(3))
        .observe_arc(recorder.clone())
        .run_spec("dpor(sleep=true)")
        .unwrap();
    assert_eq!(outcome.verdict, Verdict::BugFound);
    let (saved, errors) = recorder.finalize(&outcome.stats);
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(saved.len(), 1);

    // Reload purely from the file.
    let text = std::fs::read_to_string(saved[0].path.as_ref().unwrap()).unwrap();
    let artifact = TraceArtifact::parse(&text).unwrap();
    assert!(artifact.minimized);
    assert_eq!(artifact.program_fingerprint, program_fingerprint(&program));

    let report = replay_embedded(&artifact, &MetricsHandle::disabled()).unwrap();
    assert_eq!(report.verdict, ReplayVerdict::Reproduced);
    assert_eq!(report.expected, "deadlock");

    // The same artifact against the benchmark object also reproduces.
    let report = replay_against(&artifact, &program, &MetricsHandle::disabled());
    assert_eq!(report.verdict, ReplayVerdict::Reproduced);

    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn replay_detects_program_mutation() {
    let program = noisy_deadlocker();
    let store = temp_store("mutation");
    let recorder = Arc::new(TraceRecorder::new(store.clone(), &program, "dpor", 1));
    let outcome = ExploreSession::new(&program)
        .with_config(ExploreConfig::with_limit(10_000))
        .observe_arc(recorder.clone())
        .run_spec("dpor")
        .unwrap();
    let (saved, _) = recorder.finalize(&outcome.stats);
    let artifact =
        TraceArtifact::parse(&std::fs::read_to_string(saved[0].path.as_ref().unwrap()).unwrap())
            .unwrap();

    // Mutate the program: same shape, different initial value.
    let mutated = {
        let mut b = ProgramBuilder::new("noisy-abba");
        let noise = b.var("noise", 99);
        let l0 = b.mutex("l0");
        let l1 = b.mutex("l1");
        b.thread("T1", |t| {
            t.store(noise, 1);
            t.lock(l0);
            t.lock(l1);
            t.unlock(l1);
            t.unlock(l0);
        });
        b.thread("T2", |t| {
            t.store(noise, 2);
            t.lock(l1);
            t.lock(l0);
            t.unlock(l0);
            t.unlock(l1);
        });
        b.build()
    };
    let report = replay_against(&artifact, &mutated, &MetricsHandle::disabled());
    assert_eq!(report.verdict, ReplayVerdict::ProgramChanged);
    assert!(report.details.contains("fingerprint"));

    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn artifacts_round_trip_for_every_buggy_benchmark() {
    // Every bug-bearing suite benchmark embeds, serialises and reparses
    // losslessly — the property the regression corpus depends on.
    for bench in lazylocks_suite::buggy() {
        let outcome = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(10_000).stopping_on_bug())
            .run_spec("dpor(sleep=true)")
            .unwrap();
        let Some(bug) = outcome.bugs.first() else {
            panic!("{} should produce a bug within 10k schedules", bench.name);
        };
        let artifact = TraceArtifact::from_bug(&bench.program, "dpor(sleep=true)", 0, bug);
        let back = TraceArtifact::parse(&artifact.to_json_string()).unwrap();
        assert_eq!(artifact, back, "{}", bench.name);
        let report = replay_embedded(&back, &MetricsHandle::disabled()).unwrap();
        assert_eq!(
            report.verdict,
            ReplayVerdict::Reproduced,
            "{}: {report}",
            bench.name
        );
    }
}

#[test]
fn corpus_dedup_is_keyed_on_bug_class_across_sessions() {
    let program = noisy_deadlocker();
    let store = temp_store("dedup");
    // Two explorations with different seeds find the same deadlock class.
    for seed in [1u64, 2] {
        let recorder = Arc::new(TraceRecorder::new(store.clone(), &program, "dfs", seed));
        let outcome = ExploreSession::new(&program)
            .with_config(
                ExploreConfig::with_limit(10_000)
                    .seeded(seed)
                    .stopping_on_bug(),
            )
            .observe_arc(recorder.clone())
            .run_spec("dfs")
            .unwrap();
        recorder.finalize(&outcome.stats);
    }
    assert_eq!(
        store.list().unwrap().len(),
        1,
        "one corpus slot per (program, bug class)"
    );
    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn schedule_thread_ids_round_trip_through_artifacts() {
    // Wide programs exercise multi-digit thread ids in the schedule list.
    let mut b = ProgramBuilder::new("wide");
    let forks: Vec<_> = (0..12).map(|i| b.mutex(format!("f{i}"))).collect();
    for i in 0..12 {
        let left = forks[i];
        let right = forks[(i + 1) % 12];
        b.thread(format!("P{i}"), move |t| {
            t.lock(left);
            t.lock(right);
            t.unlock(right);
            t.unlock(left);
        });
    }
    let program = b.build();
    // A deadlocking schedule: everyone grabs their left fork.
    let schedule: Vec<ThreadId> = (0..12).map(ThreadId).collect();
    let run = lazylocks_runtime::run_schedule(&program, &schedule).unwrap();
    assert!(run.status.is_deadlock());
    let bug = lazylocks::BugReport {
        kind: lazylocks::BugKind::Deadlock {
            waiting: match run.status {
                lazylocks_runtime::RunStatus::Deadlock { waiting } => waiting,
                _ => unreachable!(),
            },
        },
        schedule,
        trace_len: run.trace.len(),
    };
    let artifact = TraceArtifact::from_bug(&program, "manual", 0, &bug);
    let back = TraceArtifact::parse(&artifact.to_json_string()).unwrap();
    assert_eq!(back.schedule, artifact.schedule);
    assert_eq!(
        replay_embedded(&back, &MetricsHandle::disabled())
            .unwrap()
            .verdict,
        ReplayVerdict::Reproduced
    );
}
