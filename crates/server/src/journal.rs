//! The durable job journal: a JSON-lines write-ahead log of every job
//! lifecycle transition, replayed on daemon startup so a crash (or
//! `kill -9`) never loses accepted work.
//!
//! ## Format
//!
//! One JSON object per line, appended and fsynced before the transition
//! is acknowledged:
//!
//! * `{"op": "submit", "id": N, "program": "...", "job": {...}}` — the
//!   full [`JobRequest`] as accepted by `POST /jobs`;
//! * `{"op": "start", "id": N}` — a worker claimed the job;
//! * `{"op": "cancel", "id": N}` — `DELETE /jobs/<id>`;
//! * `{"op": "done", "id": N, "state": "done" | "cancelled" | "failed"}`.
//!
//! Journals written by older daemons may also hold legacy `lease-grant`
//! and `lease-done` records. Nothing writes them any more; replay accepts
//! them as no-ops, so such a journal recovers without warnings.
//!
//! ## Replay
//!
//! [`replay_bytes`] is a pure function over the journal's bytes: a job is
//! *recovered* (re-enqueued on restart) when it has a `submit` record but
//! no terminal `cancel`/`done` record — including jobs that were mid-run
//! when the daemon died; exploration is deterministic, so re-running
//! yields the identical scrubbed result. A torn trailing line (the
//! record being appended when the power went) is skipped with a
//! structured warning, as is any corrupt interior line; neither ever
//! panics or hides the complete records around it. Because terminal
//! records are appended with the job's original id, replay is idempotent
//! across repeated crashes with no compaction step.
//!
//! A torn tail is also self-healing on the write side: both [`Journal::open`]
//! and a failed append remember that the file ends mid-line, and the next
//! append terminates that line first — an acknowledged record is never
//! glued onto (and lost inside) a corrupt tail.

use crate::job::{JobRequest, JobState};
use lazylocks_trace::{FaultPlan, Json};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// An open, append-only journal file.
pub struct Journal {
    file: Mutex<JournalFile>,
    path: PathBuf,
    faults: FaultPlan,
}

struct JournalFile {
    file: fs::File,
    /// The file tail is a partial line — a previous append was torn by a
    /// crash or an injected fault. The next append terminates it first,
    /// so the new record starts on a line of its own instead of being
    /// glued (and lost) onto the corrupt tail.
    needs_newline: bool,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path`. A torn tail left
    /// by a crashed append is detected here and terminated on the next
    /// append, so post-crash records never merge into the corrupt line.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)?;
        let needs_newline = if file.metadata()?.len() == 0 {
            false
        } else {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            last[0] != b'\n'
        };
        Ok(Journal {
            file: Mutex::new(JournalFile {
                file,
                needs_newline,
            }),
            path,
            faults: FaultPlan::inert(),
        })
    }

    /// Injects a fault plan into every subsequent append (tests).
    pub fn with_faults(mut self, faults: FaultPlan) -> Journal {
        self.faults = faults;
        self
    }

    /// The journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record durably: the line is written and fsynced before
    /// this returns. An injected torn write leaves a partial line behind
    /// and reports [`io::ErrorKind::Interrupted`], exactly as a crash
    /// mid-append would.
    pub fn append(&self, record: &Json) -> io::Result<()> {
        let mut line = record.encode();
        line.push('\n');
        let mut guard = self.file.lock().unwrap();
        if guard.needs_newline {
            // Terminate the torn partial line so this record starts
            // fresh; replay skips the corrupt line, not this one.
            (&guard.file).write_all(b"\n")?;
            guard.needs_newline = false;
        }
        if let Some(keep) = self.faults.take_torn_write() {
            let torn = &line.as_bytes()[..keep.min(line.len())];
            (&guard.file).write_all(torn)?;
            let _ = guard.file.sync_data();
            guard.needs_newline = true;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected torn journal append",
            ));
        }
        if let Err(e) = (&guard.file).write_all(line.as_bytes()) {
            // Unknown how much landed: treat the tail as torn.
            guard.needs_newline = true;
            return Err(e);
        }
        self.faults.check_fsync()?;
        guard.file.sync_data()
    }
}

/// An exclusive-ownership lock for a journal file, held for a daemon's
/// whole lifetime.
///
/// Replay-then-append is only sound when exactly one process owns the
/// journal; two daemons pointed at the same `--journal` path would
/// interleave (and mutually corrupt) their appends. The lock is a
/// sibling `<journal>.lock` file created with `O_EXCL` and holding the
/// owner's PID. A second `serve` on the same journal fails loudly
/// instead of starting. A lock left behind by a `kill -9`d daemon is
/// detected as stale (its PID no longer exists) and stolen, so crash
/// recovery never needs manual cleanup.
#[derive(Debug)]
pub struct JournalLock {
    path: PathBuf,
}

impl JournalLock {
    /// The lock file guarding `journal_path`.
    pub fn lock_path(journal_path: &Path) -> PathBuf {
        let mut name = journal_path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "journal".into());
        name.push(".lock");
        journal_path.with_file_name(name)
    }

    /// Acquires the exclusive lock for `journal_path`, stealing a stale
    /// lock whose owner is provably dead. Fails when another live
    /// process holds it, or when the holder cannot be identified.
    pub fn acquire(journal_path: &Path) -> io::Result<JournalLock> {
        if let Some(parent) = journal_path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let path = JournalLock::lock_path(journal_path);
        // Bounded retry: steal-then-recreate races with a concurrent
        // acquirer at most once per stale lock.
        for _ in 0..4 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = write!(file, "{}", std::process::id());
                    let _ = file.sync_data();
                    return Ok(JournalLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if !process_is_alive(pid) => {
                            // kill -9 never runs Drop: reap the corpse.
                            let _ = fs::remove_file(&path);
                            continue;
                        }
                        Some(pid) => {
                            return Err(io::Error::new(
                                io::ErrorKind::AlreadyExists,
                                format!(
                                    "journal {} is owned by live process {pid} \
                                     (lock {}); refusing to share it",
                                    journal_path.display(),
                                    path.display()
                                ),
                            ));
                        }
                        None => {
                            return Err(io::Error::new(
                                io::ErrorKind::AlreadyExists,
                                format!(
                                    "journal {} is locked by {} but the holder \
                                     is unreadable; remove the lock by hand if \
                                     no daemon is running",
                                    journal_path.display(),
                                    path.display()
                                ),
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("could not acquire journal lock {}", path.display()),
        ))
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether `pid` names a live process.
#[cfg(target_os = "linux")]
fn process_is_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Without a portable liveness probe, assume the holder is alive and
/// fail loudly — the conservative direction for a mutual-exclusion lock.
#[cfg(not(target_os = "linux"))]
fn process_is_alive(_pid: u32) -> bool {
    true
}

/// The `submit` record for an accepted job.
pub fn submit_record(id: u64, request: &JobRequest, program_name: &str) -> Json {
    Json::obj([
        ("op", Json::Str("submit".to_string())),
        ("id", Json::Int(id as i128)),
        ("program", Json::Str(program_name.to_string())),
        ("job", request.to_json()),
    ])
}

/// The `start` record: a worker claimed the job.
pub fn start_record(id: u64) -> Json {
    Json::obj([
        ("op", Json::Str("start".to_string())),
        ("id", Json::Int(id as i128)),
    ])
}

/// The `cancel` record: `DELETE /jobs/<id>` was acknowledged.
pub fn cancel_record(id: u64) -> Json {
    Json::obj([
        ("op", Json::Str("cancel".to_string())),
        ("id", Json::Int(id as i128)),
    ])
}

/// The terminal record for a finished job.
pub fn done_record(id: u64, state: JobState) -> Json {
    Json::obj([
        ("op", Json::Str("done".to_string())),
        ("id", Json::Int(id as i128)),
        ("state", Json::Str(state.as_str().to_string())),
    ])
}

/// A job the journal proves was accepted but never finished.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The job's original id (kept across the restart).
    pub id: u64,
    /// The submission, exactly as accepted.
    pub request: JobRequest,
    /// The parsed program's name (cached at submission).
    pub program_name: String,
}

/// What [`replay_bytes`] found in a journal.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Jobs to re-enqueue, in id order.
    pub jobs: Vec<RecoveredJob>,
    /// The highest job id any record names (0 for an empty journal); the
    /// restarted daemon allocates ids strictly above it.
    pub next_id: u64,
    /// Complete, well-formed records processed.
    pub records: usize,
    /// One structured warning per skipped line (corrupt or torn).
    pub skipped: Vec<String>,
}

/// Replays a journal's raw bytes. Pure and total: corrupt lines and a
/// torn trailing record are skipped with a warning, never a panic, and
/// never hide the complete records before or after them.
pub fn replay_bytes(bytes: &[u8]) -> JournalReplay {
    let mut replay = JournalReplay::default();
    let mut pending: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
    let mut start = 0;
    let mut line_no = 0usize;
    while let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = &bytes[start..start + nl];
        start += nl + 1;
        line_no += 1;
        if line.is_empty() {
            continue;
        }
        match apply_line(line, &mut pending, &mut replay.next_id) {
            Ok(()) => replay.records += 1,
            Err(reason) => replay.skipped.push(format!("line {line_no}: {reason}")),
        }
    }
    if start < bytes.len() {
        replay.skipped.push(format!(
            "torn trailing record ({} bytes, no newline) ignored",
            bytes.len() - start
        ));
    }
    replay.jobs = pending.into_values().collect();
    replay
}

fn apply_line(
    line: &[u8],
    pending: &mut BTreeMap<u64, RecoveredJob>,
    next_id: &mut u64,
) -> Result<(), String> {
    let text = std::str::from_utf8(line).map_err(|_| "not UTF-8".to_string())?;
    let v = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let op = v.get("op").and_then(Json::as_str).ok_or("missing \"op\"")?;
    let id = v.get("id").and_then(Json::as_u64).ok_or("missing \"id\"")?;
    *next_id = (*next_id).max(id);
    match op {
        "submit" => {
            let request = JobRequest::from_json(v.get("job").ok_or("submit without \"job\"")?)
                .map_err(|e| format!("bad job: {e}"))?;
            let program_name = v
                .get("program")
                .and_then(Json::as_str)
                .ok_or("submit without \"program\"")?
                .to_string();
            pending.insert(
                id,
                RecoveredJob {
                    id,
                    request,
                    program_name,
                },
            );
            Ok(())
        }
        // A started job still recovers: the run never finished. The
        // legacy records carry nothing recovery needs.
        "start" | "lease-grant" | "lease-done" => Ok(()),
        "cancel" | "done" => {
            pending.remove(&id);
            Ok(())
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> JobRequest {
        JobRequest {
            program_source: "program p\nthread T1 {\n}\n".to_string(),
            spec: "dpor".to_string(),
            limit: 500,
            seed: 3,
            preemptions: Some(2),
            stop_on_bug: true,
            deadline_ms: Some(9000),
            minimize: true,
            priority: -1,
            progress_interval: 64,
        }
    }

    fn temp_journal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lazylocks-journal-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir.join("journal.jsonl")
    }

    #[test]
    fn submit_records_round_trip_the_full_request() {
        let r = request();
        let rec = submit_record(7, &r, "p");
        let back = JobRequest::from_json(rec.get("job").unwrap()).unwrap();
        assert_eq!(back.program_source, r.program_source);
        assert_eq!(back.spec, r.spec);
        assert_eq!(back.limit, r.limit);
        assert_eq!(back.seed, r.seed);
        assert_eq!(back.preemptions, r.preemptions);
        assert_eq!(back.stop_on_bug, r.stop_on_bug);
        assert_eq!(back.deadline_ms, r.deadline_ms);
        assert_eq!(back.minimize, r.minimize);
        assert_eq!(back.priority, r.priority);
        assert_eq!(back.progress_interval, r.progress_interval);
    }

    #[test]
    fn replay_recovers_only_unfinished_jobs() {
        let path = temp_journal("replay");
        let journal = Journal::open(&path).unwrap();
        let r = request();
        journal.append(&submit_record(1, &r, "a")).unwrap();
        journal.append(&submit_record(2, &r, "b")).unwrap();
        journal.append(&submit_record(3, &r, "c")).unwrap();
        journal.append(&start_record(1)).unwrap();
        journal.append(&done_record(1, JobState::Done)).unwrap();
        journal.append(&cancel_record(2)).unwrap();
        journal.append(&start_record(3)).unwrap(); // crashed mid-run

        let replay = replay_bytes(&fs::read(&path).unwrap());
        assert_eq!(replay.next_id, 3);
        assert_eq!(replay.records, 7);
        assert!(replay.skipped.is_empty(), "{:?}", replay.skipped);
        let recovered: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
        assert_eq!(recovered, vec![3], "only the mid-run job recovers");
        assert_eq!(replay.jobs[0].program_name, "c");
    }

    #[test]
    fn replay_skips_corrupt_interior_lines_without_losing_neighbours() {
        let path = temp_journal("corrupt");
        let journal = Journal::open(&path).unwrap();
        journal.append(&submit_record(1, &request(), "a")).unwrap();
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{ not json\n\xff\xfe\n{\"op\": \"launch\", \"id\": 9}\n")
            .unwrap();
        let journal = Journal::open(&path).unwrap();
        journal.append(&submit_record(2, &request(), "b")).unwrap();

        let replay = replay_bytes(&fs::read(&path).unwrap());
        assert_eq!(replay.records, 2);
        assert_eq!(replay.skipped.len(), 3, "{:?}", replay.skipped);
        assert!(replay.skipped[0].contains("bad JSON"));
        assert!(replay.skipped[1].contains("not UTF-8"));
        assert!(replay.skipped[2].contains("unknown op"));
        let recovered: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
        assert_eq!(recovered, vec![1, 2]);
        // The unknown-op line still bumps next_id: ids stay unique even
        // across records written by a newer daemon.
        assert_eq!(replay.next_id, 9);
    }

    #[test]
    fn replay_survives_truncation_at_every_byte_offset() {
        let path = temp_journal("truncate");
        let journal = Journal::open(&path).unwrap();
        let r = request();
        journal.append(&submit_record(1, &r, "a")).unwrap();
        journal.append(&done_record(1, JobState::Done)).unwrap();
        journal.append(&submit_record(2, &r, "b")).unwrap();
        let full = fs::read(&path).unwrap();
        let final_start = full.len() - (submit_record(2, &r, "b").encode().len() + 1);

        // Cut the journal at every byte of the final record. Replay must
        // never panic, never lose the completed prefix, and only recover
        // job 2 once its record is complete (trailing newline included).
        for cut in final_start..=full.len() {
            let replay = replay_bytes(&full[..cut]);
            let recovered: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
            if cut == full.len() {
                assert_eq!(recovered, vec![2], "complete journal recovers job 2");
                assert!(replay.skipped.is_empty());
            } else {
                assert!(
                    recovered.is_empty(),
                    "torn submit at cut {cut} must not run"
                );
                if cut > final_start {
                    assert_eq!(replay.skipped.len(), 1, "cut {cut}");
                    assert!(replay.skipped[0].contains("torn trailing record"));
                }
            }
            let expected = if cut == full.len() { 3 } else { 2 };
            assert_eq!(
                replay.records, expected,
                "prefix records survive at cut {cut}"
            );
            assert_eq!(replay.next_id.max(1), if cut == full.len() { 2 } else { 1 });
        }
    }

    #[test]
    fn torn_append_leaves_a_replayable_journal() {
        let path = temp_journal("torn-append");
        let faults = FaultPlan::armed();
        let journal = Journal::open(&path).unwrap().with_faults(faults.clone());
        journal.append(&submit_record(1, &request(), "a")).unwrap();
        faults.truncate_next_write(12);
        let err = journal
            .append(&submit_record(2, &request(), "b"))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);

        let replay = replay_bytes(&fs::read(&path).unwrap());
        assert_eq!(replay.records, 1);
        assert_eq!(replay.skipped.len(), 1);
        assert!(replay.skipped[0].contains("torn trailing record"));
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.jobs[0].id, 1);

        // The next append lands on a fresh line — through the same handle
        // and through a reopened journal (the restart-after-crash path).
        journal.append(&submit_record(3, &request(), "c")).unwrap();
        let reopened = Journal::open(&path).unwrap();
        reopened.append(&submit_record(4, &request(), "d")).unwrap();
        let replay = replay_bytes(&fs::read(&path).unwrap());
        let recovered: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
        assert_eq!(recovered, vec![1, 3, 4]);
    }

    #[test]
    fn lease_records_replay_clean_and_do_not_finish_the_job() {
        // Raw legacy lines, exactly as older daemons wrote them.
        let mut bytes = submit_record(5, &request(), "p").encode().into_bytes();
        bytes.extend_from_slice(
            b"\n{\"op\":\"lease-grant\",\"id\":5,\"lease\":1,\"epoch\":1,\"worker\":\"w1\"}\n\
              {\"op\":\"lease-done\",\"id\":5,\"lease\":1,\"epoch\":1}\n\
              {\"op\":\"lease-grant\",\"id\":5,\"lease\":2,\"epoch\":2,\"worker\":\"w2\"}\n",
        );

        let replay = replay_bytes(&bytes);
        assert_eq!(replay.records, 4);
        assert!(replay.skipped.is_empty(), "{:?}", replay.skipped);
        // Legacy records never finish a job: it still recovers.
        let recovered: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
        assert_eq!(recovered, vec![5]);
        assert_eq!(replay.next_id, 5);
    }

    #[test]
    fn journal_lock_is_exclusive_while_held() {
        let path = temp_journal("lock-excl");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let lock = JournalLock::acquire(&path).unwrap();
        let err = JournalLock::acquire(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        assert!(
            err.to_string().contains("live process"),
            "the refusal names the live holder: {err}"
        );
        drop(lock);
        // Released cleanly: a successor acquires without intervention.
        let _again = JournalLock::acquire(&path).unwrap();
    }

    #[test]
    #[cfg(target_os = "linux")] // staleness probe reads /proc
    fn journal_lock_steals_from_a_dead_holder_but_not_an_unreadable_one() {
        let path = temp_journal("lock-stale");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let lock_path = JournalLock::lock_path(&path);

        // A lock naming a PID that cannot exist (kill -9 leaves exactly
        // this behind) is stolen.
        fs::write(&lock_path, "4294967294").unwrap();
        let lock = JournalLock::acquire(&path).unwrap();
        assert_eq!(
            fs::read_to_string(&lock_path).unwrap(),
            std::process::id().to_string(),
            "the stolen lock now names the new owner"
        );
        drop(lock);

        // A lock whose holder cannot be identified is refused, not
        // stolen: mutual exclusion errs on the side of not starting.
        fs::write(&lock_path, "not a pid").unwrap();
        let err = JournalLock::acquire(&path).unwrap_err();
        assert!(err.to_string().contains("unreadable"), "{err}");
        fs::remove_file(&lock_path).unwrap();
    }

    #[test]
    fn reopening_a_torn_journal_heals_the_tail() {
        let path = temp_journal("heal");
        let journal = Journal::open(&path).unwrap();
        journal.append(&submit_record(1, &request(), "a")).unwrap();
        // A crash mid-append: raw partial line, no newline.
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"op\": \"submit\", \"id\": 2, ")
            .unwrap();

        let journal = Journal::open(&path).unwrap();
        journal.append(&submit_record(3, &request(), "c")).unwrap();
        let replay = replay_bytes(&fs::read(&path).unwrap());
        let recovered: Vec<u64> = replay.jobs.iter().map(|j| j.id).collect();
        assert_eq!(recovered, vec![1, 3], "the record after the tear decodes");
        assert_eq!(replay.skipped.len(), 1, "{:?}", replay.skipped);
        assert!(replay.skipped[0].contains("bad JSON"));
    }
}
