//! Fault-injection harness: torn writes, failed fsyncs and truncated
//! journals must never panic, never lose a completed record, and never
//! leave a store or checkpoint directory in an unreadable state.
//!
//! The writers under test share one [`FaultPlan`] mechanism
//! (`lazylocks_trace::fault`), so each scenario here drives the real
//! persistence path — corpus store, checkpoint writer, job journal —
//! with a scheduled fault and asserts the recovery contract.

use lazylocks::{ExploreConfig, ExploreSession};
use lazylocks_server::journal::{done_record, start_record, submit_record};
use lazylocks_server::{replay_bytes, JobRequest, JobState, Journal};
use lazylocks_trace::{
    load_checkpoint, read_with, write_atomic_durable, CheckpointWriter, CorpusStore, FaultPlan,
    Json, RunArgs, TraceArtifact, CHECKPOINT_FILE,
};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "lazylocks-fault-injection-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(tag: u64) -> JobRequest {
    JobRequest {
        program_source: format!("program p{tag}\nvar x = 0\nthread T {{\n store x = 1\n}}\n"),
        run: RunArgs {
            spec: "dpor(sleep=true)".to_string(),
            limit: 1000,
            seed: tag,
            preemptions: None,
            stop_on_bug: false,
            minimize: false,
            deadline_ms: None,
        },
        priority: 0,
        progress_interval: 1000,
    }
}

/// A journal holding two completed jobs and one in-flight job, truncated
/// at *every* byte offset: replay never panics, and the recovered set is
/// exactly determined by which records' newlines made it to disk — a job
/// recovers iff its `submit` is durable and its terminal record is not.
#[test]
fn journal_truncated_at_every_offset_never_loses_a_completed_record() {
    let dir = temp_dir("journal-truncate");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let journal = Journal::open(&path).unwrap();
    let len = |p| std::fs::metadata(p).map(|m| m.len() as usize).unwrap();
    let mut submit_end = [0usize; 3];
    let mut done_end = [usize::MAX; 3];
    for id in [1u64, 2] {
        let i = (id - 1) as usize;
        journal
            .append(&submit_record(id, &request(id), "done-job"))
            .unwrap();
        submit_end[i] = len(&path);
        journal.append(&start_record(id)).unwrap();
        journal.append(&done_record(id, JobState::Done)).unwrap();
        done_end[i] = len(&path);
    }
    journal
        .append(&submit_record(3, &request(3), "inflight-job"))
        .unwrap();
    submit_end[2] = len(&path);
    journal.append(&start_record(3)).unwrap();
    let full = std::fs::read(&path).unwrap();

    for cut in 0..=full.len() {
        let replay = replay_bytes(&full[..cut]);
        let recovered: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
        let expected: Vec<u64> = (0..3)
            .filter(|&i| submit_end[i] <= cut && cut < done_end[i])
            .map(|i| i as u64 + 1)
            .collect();
        assert_eq!(recovered, expected, "cut {cut}");
        for job in &replay.jobs {
            assert_eq!(job.request.run.seed, job.id, "cut {cut}: request intact");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_journal_appends_are_invisible_to_replay() {
    let dir = temp_dir("journal-torn");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.jsonl");
    let faults = FaultPlan::armed();
    let journal = Journal::open(&path).unwrap().with_faults(faults.clone());
    journal
        .append(&submit_record(1, &request(1), "first"))
        .unwrap();

    // The next append tears halfway through the payload.
    faults.truncate_next_write(10);
    journal
        .append(&submit_record(2, &request(2), "second"))
        .unwrap_err();
    assert!(faults.injected() > 0, "the torn write fired");

    // A crashed-then-restarted daemon sees job 1 whole and a warning —
    // not a panic, not a half-decoded job 2.
    let replay = replay_bytes(&std::fs::read(&path).unwrap());
    assert_eq!(replay.jobs.len(), 1);
    assert_eq!(replay.jobs[0].id, 1);
    assert!(!replay.skipped.is_empty(), "the torn tail is reported");

    // The journal stays appendable after the fault: job 3 lands on a new
    // line and replays alongside job 1.
    journal
        .append(&submit_record(3, &request(3), "third"))
        .unwrap();
    let replay = replay_bytes(&std::fs::read(&path).unwrap());
    let ids: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
    assert_eq!(ids, [1, 3]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_store_writes_leave_the_corpus_consistent() {
    let bench = lazylocks_suite::by_name("philosophers-naive-2").expect("bench exists");
    let bug = ExploreSession::new(&bench.program)
        .with_config(ExploreConfig::with_limit(10_000).stopping_on_bug())
        .run_spec("dpor")
        .unwrap()
        .bugs
        .first()
        .cloned()
        .expect("the naive philosophers deadlock");
    let artifact = TraceArtifact::from_bug(&bench.program, "dpor", 1, &bug);
    let dir = temp_dir("store");
    let faults = FaultPlan::armed();
    let store = CorpusStore::open(&dir).unwrap().with_faults(faults.clone());

    store.save(&artifact).unwrap();
    let baseline = store.list().unwrap().len();

    // A torn overwrite must leave the existing (valid) artifact intact:
    // the tear hits the temp file, the rename never happens.
    faults.truncate_next_write(25);
    store.save_overwrite(&artifact).unwrap_err();
    let entries = store.list().unwrap();
    assert_eq!(entries.len(), baseline);
    for entry in &entries {
        entry.artifact.as_ref().expect("artifact decodes");
    }

    // An fsync failure is surfaced, not swallowed — durability errors
    // must not be reported as success.
    faults.fail_fsyncs(1);
    store.save_overwrite(&artifact).unwrap_err();
    assert!(faults.injected() >= 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_checkpoint_writes_keep_the_previous_generation_loadable() {
    let bench = lazylocks_suite::by_name("paper-figure1").expect("bench exists");
    let program = &bench.program;
    let dir = temp_dir("checkpoint");
    let faults = FaultPlan::armed();
    let writer = CheckpointWriter::new(&dir, program, "dpor(sleep=true)", 1)
        .unwrap()
        .with_faults(faults.clone());

    // Tear every single checkpoint write of a full exploration. The
    // writer warns and keeps exploring; no generation ever corrupts the
    // previous one, so the directory simply never gains a checkpoint.
    faults.truncate_next_write(30);
    let outcome = ExploreSession::new(program)
        .with_config(
            ExploreConfig::with_limit(1_000_000)
                .seeded(1)
                .checkpointing_every(1),
        )
        .observe_arc(Arc::new(writer))
        .run_spec("dpor(sleep=true)")
        .unwrap();
    assert!(outcome.stats.schedules > 0);
    assert!(faults.injected() > 0);

    // Only the first write tore (one-shot plan); the survivors left a
    // valid newest-generation document behind.
    let doc = load_checkpoint(&dir).unwrap().expect("later writes landed");
    doc.check_matches(program, "dpor(sleep=true)", 1).unwrap();
    assert!(dir.join(CHECKPOINT_FILE).is_file());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_reads_are_detected_not_misparsed() {
    let dir = temp_dir("short-read");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("doc.json");
    let payload = Json::obj([("ok", Json::Bool(true))]).encode();
    write_atomic_durable(&path, payload.as_bytes(), &FaultPlan::inert()).unwrap();

    let faults = FaultPlan::armed();
    faults.truncate_next_read(3);
    let short = read_with(&path, &faults).unwrap();
    // The reader sees a prefix; parsing it fails loudly instead of
    // yielding a half-document.
    assert_eq!(short.len(), 3);
    assert!(Json::parse(std::str::from_utf8(&short).unwrap()).is_err());

    // With the plan drained the same path reads back whole.
    let whole = read_with(&path, &faults).unwrap();
    assert_eq!(whole, payload.as_bytes());
    std::fs::remove_dir_all(&dir).ok();
}
