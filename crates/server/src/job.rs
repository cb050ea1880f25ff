//! Job queue, job state machine and the worker loop.
//!
//! A *job* is one run on one program: a [`JobRequest`] is the `.llk`
//! source, the same [`RunArgs`] `lazylocks run` parses its flags into,
//! and the job's queue priority and progress cadence. Jobs move
//! `Queued → Running → Done / Cancelled / Failed`; queued jobs wait in a
//! priority-then-FIFO queue consumed by a fixed pool of worker threads.
//! A worker builds the job's exploration with [`RunArgs::request`], as
//! `run` does, adds the job's observer, [`CancelToken`] and corpus
//! store, and hands it to the shared [`lazylocks_trace::drive()`] entry
//! point. Progress ticks and streamed bugs land in a per-job
//! append-only event log that clients poll with
//! `GET /jobs/<id>/events?since=N` — no long-lived connections, no
//! server-sent push, nothing to leak.
//!
//! All shared state lives behind one mutex in [`JobTable`]; a condvar
//! wakes workers when a job arrives and when shutdown begins. Workers
//! drain the queue before exiting, so joining them *is* the drain
//! barrier.
//!
//! A job's counts are stored once. While it runs they live in its
//! metrics registry, created when a worker claims the job; when it
//! finishes they live in its result document and in the table's one
//! running aggregate, and the registry is dropped. Jobs recovered from
//! the journal are counted in the same aggregate.

use crate::journal::Journal;
use lazylocks::obs::{ids, write_stderr};
use lazylocks::{
    BugReport, CancelToken, ExploreConfig, MetricsHandle, MetricsSnapshot, Observer, ProfileHandle,
    Progress,
};
use lazylocks_model::Program;
use lazylocks_trace::{
    bug_kind_to_json, drive, outcome_json, CorpusStore, Json, ProfileDoc, RunArgs,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// A job submission, decoded from the `POST /jobs` body: the program,
/// the run, and how the queue treats it.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The guest program, `.llk` text format.
    pub program_source: String,
    /// What to explore: the same request `lazylocks run` builds.
    pub run: RunArgs,
    /// Scheduling priority: higher runs first, ties run in FIFO order.
    pub priority: i64,
    /// How often this job emits progress events, in complete schedules.
    pub progress_interval: usize,
}

impl JobRequest {
    /// Decodes a submission from its JSON body. Only `program` is
    /// required; everything else has the `client submit` defaults, which
    /// are `run`'s except that the seed defaults to 0.
    pub fn from_json(v: &Json) -> Result<JobRequest, String> {
        if !matches!(v, Json::Obj(_)) {
            return Err("job must be a JSON object".to_string());
        }
        let program_source = match v.get("program") {
            Some(Json::Str(s)) => s.clone(),
            None | Some(Json::Null) => {
                return Err("missing required field \"program\" (.llk source text)".to_string())
            }
            Some(_) => return Err("\"program\" must be a string".to_string()),
        };
        let priority = match v.get("priority") {
            None | Some(Json::Null) => 0,
            Some(other) => other.as_i64().ok_or("\"priority\" must be an integer")?,
        };
        let progress_interval = match v.get("progress_interval") {
            None | Some(Json::Null) => DEFAULT_PROGRESS_INTERVAL,
            Some(other) => match other.as_u64() {
                Some(0) => return Err("\"progress_interval\" must be at least 1".to_string()),
                Some(n) => n as usize,
                None => {
                    return Err("\"progress_interval\" must be a non-negative integer".to_string())
                }
            },
        };
        Ok(JobRequest {
            program_source,
            run: RunArgs::from_json(v)?,
            priority,
            progress_interval,
        })
    }

    /// Encodes the request so [`from_json`](JobRequest::from_json) decodes
    /// it back exactly — the `client submit` body and the journal's
    /// `submit` payload. The run's keys sit flat between `program` and
    /// `priority`.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![(
            "program".to_string(),
            Json::Str(self.program_source.clone()),
        )];
        if let Json::Obj(run) = self.run.to_json() {
            pairs.extend(run);
        }
        pairs.push(("priority".to_string(), Json::Int(i128::from(self.priority))));
        pairs.push((
            "progress_interval".to_string(),
            Json::Int(self.progress_interval as i128),
        ));
        Json::Obj(pairs)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is exploring.
    Running,
    /// The exploration finished (any verdict, including limit-hit).
    Done,
    /// Cancelled via `DELETE /jobs/<id>` — before or during the run.
    Cancelled,
    /// The run itself failed (spec rejected, program no longer parses).
    Failed,
}

impl JobState {
    /// The wire name of this state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }
}

/// One job's full record.
struct Job {
    id: u64,
    request: JobRequest,
    program_name: String,
    state: JobState,
    /// Shared with the running exploration; `DELETE` cancels through it.
    cancel: CancelToken,
    /// Set by `DELETE` so the terminal state distinguishes an operator
    /// cancellation from a deadline (both cancel the token).
    cancel_requested: bool,
    /// Append-only, seq-stamped event log.
    events: Vec<Json>,
    /// The scrubbed outcome document, present once `Done` or `Cancelled`
    /// mid-run (partial stats). It embeds the job's metrics and its
    /// exploration profile, which `GET /jobs/<id>/profile` serves.
    result: Option<Json>,
    /// Present once `Failed`.
    error: Option<String>,
}

impl Job {
    fn new(id: u64, request: JobRequest, program_name: String) -> Job {
        Job {
            id,
            request,
            program_name,
            state: JobState::Queued,
            cancel: CancelToken::new(),
            cancel_requested: false,
            events: Vec::new(),
            result: None,
            error: None,
        }
    }

    /// The job's key in [`Tables::queue`].
    fn queue_key(&self) -> (Reverse<i64>, u64) {
        (Reverse(self.request.priority), self.id)
    }

    fn push_event(&mut self, kind: &str, fields: Vec<(&'static str, Json)>) {
        let mut pairs = vec![
            ("seq".to_string(), Json::Int(self.events.len() as i128)),
            ("type".to_string(), Json::Str(kind.to_string())),
        ];
        pairs.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        self.events.push(Json::Obj(pairs));
    }

    fn summary_json(&self) -> Json {
        Json::obj([
            ("id", Json::Int(self.id as i128)),
            ("program", Json::Str(self.program_name.clone())),
            ("spec", Json::Str(self.request.run.spec.clone())),
            ("state", Json::Str(self.state.as_str().to_string())),
            ("priority", Json::Int(self.request.priority as i128)),
            ("events", Json::Int(self.events.len() as i128)),
        ])
    }

    fn detail_json(&self) -> Json {
        Json::obj([
            ("id", Json::Int(self.id as i128)),
            ("program", Json::Str(self.program_name.clone())),
            ("spec", Json::Str(self.request.run.spec.clone())),
            ("state", Json::Str(self.state.as_str().to_string())),
            ("priority", Json::Int(self.request.priority as i128)),
            ("events", Json::Int(self.events.len() as i128)),
            ("result", self.result.clone().unwrap_or(Json::Null)),
            (
                "error",
                self.error.clone().map(Json::Str).unwrap_or(Json::Null),
            ),
        ])
    }
}

#[derive(Default)]
struct Tables {
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    /// Queued jobs in run order: highest priority first, then lowest id
    /// (FIFO within a priority).
    queue: BTreeSet<(Reverse<i64>, u64)>,
    /// Jobs currently held by a worker, with their live metrics.
    running: BTreeMap<u64, MetricsHandle>,
    /// The metrics of every finished job, merged as each one finishes,
    /// plus the jobs recovered from the journal.
    finished: MetricsSnapshot,
    shutting_down: bool,
}

/// The daemon's shared job state: registry of all jobs plus the pending
/// queue, behind one mutex; `ready` wakes workers.
pub struct JobTable {
    inner: Mutex<Tables>,
    ready: Condvar,
    /// When present, every lifecycle transition is appended (and fsynced)
    /// before it is acknowledged, so a crashed daemon recovers its queue.
    journal: Option<Arc<Journal>>,
}

impl Default for JobTable {
    fn default() -> Self {
        JobTable {
            inner: Mutex::new(Tables {
                // Every family from the start, so `GET /metrics` lists
                // the whole catalogue before any job finishes.
                finished: MetricsHandle::enabled().snapshot().unwrap_or_default(),
                ..Tables::default()
            }),
            ready: Condvar::new(),
            journal: None,
        }
    }
}

impl JobTable {
    /// A table whose lifecycle transitions are journalled durably.
    pub fn with_journal(journal: Arc<Journal>) -> JobTable {
        JobTable {
            journal: Some(journal),
            ..JobTable::default()
        }
    }

    /// Appends a journal record; append failures are reported (the job
    /// still runs — losing durability must not lose availability).
    fn journal_append(&self, record: &Json) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(record) {
                write_stderr(&format!(
                    "warning: journal append to {} failed: {e}\n",
                    journal.path().display()
                ));
            }
        }
    }

    /// Re-enqueues the jobs a journal replay recovered, keeping their
    /// original ids, and counts them in `lazylocks_jobs_recovered_total`;
    /// returns how many were restored. Call before workers start
    /// consuming the queue.
    pub fn restore(&self, replay: crate::journal::JournalReplay) -> usize {
        let mut t = self.inner.lock().unwrap();
        t.next_id = t.next_id.max(replay.next_id);
        let mut restored = 0;
        for recovered in replay.jobs {
            let id = recovered.id;
            if t.jobs.contains_key(&id) {
                continue;
            }
            let mut job = Job::new(id, recovered.request, recovered.program_name);
            job.push_event("recovered", vec![]);
            t.queue.insert(job.queue_key());
            t.jobs.insert(id, job);
            restored += 1;
        }
        let recovered = MetricsHandle::enabled();
        recovered.add(ids::JOBS_RECOVERED, restored as u64);
        t.finished.merge(&recovered.snapshot().unwrap_or_default());
        if restored > 0 {
            self.ready.notify_all();
        }
        restored
    }

    /// Accepts a new job; returns its id, or `None` when draining.
    pub fn submit(&self, request: JobRequest, program_name: String) -> Option<u64> {
        let mut t = self.inner.lock().unwrap();
        if t.shutting_down {
            return None;
        }
        t.next_id += 1;
        let id = t.next_id;
        self.journal_append(&crate::journal::submit_record(id, &request, &program_name));
        let mut job = Job::new(id, request, program_name);
        job.push_event("queued", vec![]);
        t.queue.insert(job.queue_key());
        t.jobs.insert(id, job);
        self.ready.notify_one();
        Some(id)
    }

    /// Worker side: blocks until a job is available (highest priority,
    /// then FIFO) or shutdown has drained the queue; `None` means exit.
    /// The claimed job gets its metrics registry here.
    pub fn next_job(&self) -> Option<(u64, JobRequest, CancelToken, MetricsHandle)> {
        let mut t = self.inner.lock().unwrap();
        loop {
            if let Some((_, id)) = t.queue.pop_first() {
                let metrics = MetricsHandle::enabled();
                t.running.insert(id, metrics.clone());
                self.journal_append(&crate::journal::start_record(id));
                let job = t.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Running;
                job.push_event("running", vec![]);
                return Some((id, job.request.clone(), job.cancel.clone(), metrics));
            }
            if t.shutting_down {
                return None;
            }
            t = self.ready.wait(t).unwrap();
        }
    }

    /// Worker side: records the outcome, moves the job to its terminal
    /// state, and folds its final metrics into the finished aggregate.
    pub fn finish(&self, id: u64, outcome: Result<Json, String>) {
        let mut t = self.inner.lock().unwrap();
        if let Some(snap) = t.running.remove(&id).and_then(|m| m.snapshot()) {
            t.finished.merge(&snap);
        }
        let Some(job) = t.jobs.get_mut(&id) else {
            return;
        };
        match outcome {
            Ok(result) => {
                job.state = if job.cancel_requested {
                    JobState::Cancelled
                } else {
                    JobState::Done
                };
                job.result = Some(result);
            }
            Err(error) => {
                job.state = if job.cancel_requested {
                    JobState::Cancelled
                } else {
                    JobState::Failed
                };
                job.error = Some(error);
            }
        }
        let state = job.state;
        job.push_event(
            "done",
            vec![("state", Json::Str(state.as_str().to_string()))],
        );
        self.journal_append(&crate::journal::done_record(id, state));
        // Shutdown joins workers; nothing waits on a per-job condvar.
    }

    /// `DELETE /jobs/<id>`: cooperative cancellation. A queued job is
    /// cancelled on the spot; a running one gets its token cancelled and
    /// transitions when the worker notices. Returns the state after the
    /// call, or `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut t = self.inner.lock().unwrap();
        let job = t.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.cancel_requested = true;
                job.push_event("done", vec![("state", Json::Str("cancelled".to_string()))]);
                let key = job.queue_key();
                t.queue.remove(&key);
                self.journal_append(&crate::journal::cancel_record(id));
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                job.cancel_requested = true;
                job.cancel.cancel();
                // Journalled now as well as at finish: if the daemon dies
                // before the worker notices, the restart honours the
                // cancellation instead of re-running the job.
                self.journal_append(&crate::journal::cancel_record(id));
                Some(JobState::Running)
            }
            terminal => Some(terminal),
        }
    }

    /// `GET /jobs/<id>`.
    pub fn detail(&self, id: u64) -> Option<Json> {
        let t = self.inner.lock().unwrap();
        t.jobs.get(&id).map(Job::detail_json)
    }

    /// `GET /jobs`.
    pub fn list(&self) -> Json {
        let t = self.inner.lock().unwrap();
        Json::obj([(
            "jobs",
            Json::Arr(t.jobs.values().map(Job::summary_json).collect()),
        )])
    }

    /// `GET /jobs/<id>/profile`: the job's exploration-profile document,
    /// extracted from the result. `None` for an unknown id; a known job
    /// that has not finished (or failed before exploring) answers with a
    /// `null` profile and its current state.
    pub fn profile(&self, id: u64) -> Option<Json> {
        let t = self.inner.lock().unwrap();
        let job = t.jobs.get(&id)?;
        let profile = job
            .result
            .as_ref()
            .and_then(|r| r.get("profile"))
            .cloned()
            .unwrap_or(Json::Null);
        Some(Json::obj([
            ("id", Json::Int(id as i128)),
            ("state", Json::Str(job.state.as_str().to_string())),
            ("profile", profile),
        ]))
    }

    /// `GET /jobs/<id>/events?since=N`: the events with `seq >= since`,
    /// plus the cursor to poll from next.
    pub fn events_since(&self, id: u64, since: u64) -> Option<Json> {
        let t = self.inner.lock().unwrap();
        let job = t.jobs.get(&id)?;
        let from = (since as usize).min(job.events.len());
        Some(Json::obj([
            ("id", Json::Int(id as i128)),
            ("state", Json::Str(job.state.as_str().to_string())),
            ("events", Json::Arr(job.events[from..].to_vec())),
            ("next", Json::Int(job.events.len() as i128)),
        ]))
    }

    /// Observer side: appends a progress or bug event to a running job.
    fn push_job_event(&self, id: u64, kind: &str, fields: Vec<(&'static str, Json)>) {
        let mut t = self.inner.lock().unwrap();
        if let Some(job) = t.jobs.get_mut(&id) {
            job.push_event(kind, fields);
        }
    }

    /// Starts the drain: no new submissions, workers exit once the queue
    /// is empty. Returns `(queued, running)` at the moment of the call.
    pub fn begin_shutdown(&self) -> (usize, usize) {
        let mut t = self.inner.lock().unwrap();
        t.shutting_down = true;
        self.ready.notify_all();
        (t.queue.len(), t.running.len())
    }

    /// Has [`JobTable::begin_shutdown`] been called?
    pub fn draining(&self) -> bool {
        self.inner.lock().unwrap().shutting_down
    }

    /// `(queued, running)` right now — the health snapshot.
    pub fn load(&self) -> (usize, usize) {
        let t = self.inner.lock().unwrap();
        (t.queue.len(), t.running.len())
    }

    /// Job counts per lifecycle state, for `/healthz` and `/metrics`.
    pub fn state_counts(&self) -> [(JobState, usize); 5] {
        let t = self.inner.lock().unwrap();
        let mut counts = [
            (JobState::Queued, 0),
            (JobState::Running, 0),
            (JobState::Done, 0),
            (JobState::Cancelled, 0),
            (JobState::Failed, 0),
        ];
        for job in t.jobs.values() {
            for (state, n) in &mut counts {
                if job.state == *state {
                    *n += 1;
                }
            }
        }
        counts
    }

    /// The union of every job's metrics — counters and histograms summed
    /// — for the server-wide `GET /metrics` exposition: the finished
    /// aggregate plus the live (so far) values of running jobs.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let t = self.inner.lock().unwrap();
        let mut merged = t.finished.clone();
        for snap in t.running.values().filter_map(MetricsHandle::snapshot) {
            merged.merge(&snap);
        }
        merged
    }
}

/// Bridges a running exploration's observer callbacks into the job's
/// event log. HTTP handlers read the same table concurrently, so it only
/// ever touches the table through its mutex.
struct JobObserver {
    table: Arc<JobTable>,
    id: u64,
}

impl Observer for JobObserver {
    fn on_progress(&self, progress: &Progress) {
        self.table.push_job_event(
            self.id,
            "progress",
            vec![
                ("schedules", Json::Int(progress.schedules as i128)),
                ("events", Json::Int(i128::from(progress.events))),
                ("unique_states", Json::Int(progress.unique_states as i128)),
                ("bugs", Json::Int(progress.bugs as i128)),
            ],
        );
    }

    fn on_bug(&self, bug: &BugReport) {
        self.table.push_job_event(
            self.id,
            "bug",
            vec![
                ("kind", bug_kind_to_json(&bug.kind)),
                ("trace_len", Json::Int(bug.trace_len as i128)),
                ("schedule_len", Json::Int(bug.schedule.len() as i128)),
            ],
        );
    }
}

/// The default progress-event cadence, in complete schedules — frequent
/// enough that a few-second job streams visibly, rare enough that the
/// event log stays small under a 100k-schedule budget. Overridable per
/// job via the `progress_interval` submission field.
pub const DEFAULT_PROGRESS_INTERVAL: usize = 1024;

/// One worker thread: claim, explore, record, repeat — until shutdown
/// drains the queue.
pub fn run_worker(table: Arc<JobTable>, corpus_dir: Option<PathBuf>) {
    while let Some((id, request, cancel, metrics)) = table.next_job() {
        let outcome = execute(&table, id, &request, cancel, metrics, corpus_dir.as_deref());
        table.finish(id, outcome);
    }
}

/// Runs one job through the shared [`drive`] entry point. The profile
/// lives only for the run: its document goes into the result.
fn execute(
    table: &Arc<JobTable>,
    id: u64,
    request: &JobRequest,
    cancel: CancelToken,
    metrics: MetricsHandle,
    corpus_dir: Option<&std::path::Path>,
) -> Result<Json, String> {
    // Submission already validated the source, so a failure here means
    // the daemon itself is broken — still reported, never a panic.
    let program = Program::parse(&request.program_source).map_err(|e| format!("program: {e}"))?;
    let profile = ProfileHandle::enabled();
    let base = ExploreConfig::default()
        .with_metrics(metrics.clone())
        .with_profile(profile.clone());
    let mut drive_request = request
        .run
        .request(&program, base)
        .progress_every(request.progress_interval)
        .cancel_with(cancel)
        .observe(Arc::new(JobObserver {
            table: table.clone(),
            id,
        }));
    if let Some(dir) = corpus_dir {
        let store = CorpusStore::open(dir)
            .map_err(|e| format!("cannot open corpus {}: {e}", dir.display()))?;
        drive_request = drive_request.saving_into(store);
    }

    let result = drive(drive_request).map_err(|e| e.to_string())?;
    let mut doc = outcome_json(
        program.name(),
        &request.run.spec,
        &result.outcome,
        &result.bugs,
        request.run.minimize,
        &result.trace_paths(),
    );
    if !result.trace_errors.is_empty() {
        if let Json::Obj(pairs) = &mut doc {
            pairs.push((
                "trace_errors".to_string(),
                Json::Arr(result.trace_errors.iter().cloned().map(Json::Str).collect()),
            ));
        }
    }
    if let Some(snapshot) = metrics.snapshot() {
        // The raw (wall-clock-bearing) snapshot goes to the event log for
        // humans; the result document embeds the scrubbed copy so
        // identical submissions stay byte-identical.
        table.push_job_event(id, "metrics", vec![("snapshot", snapshot.to_json())]);
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("metrics".to_string(), snapshot.scrubbed().to_json()));
        }
    }
    if let Some(snapshot) = profile.snapshot() {
        // Scrubbed for the same reason as the metrics: identical
        // submissions must produce byte-identical result documents.
        let profile_doc = ProfileDoc::new(&program, &request.run.spec, &snapshot.scrubbed());
        if let Json::Obj(pairs) = &mut doc {
            pairs.push(("profile".to_string(), profile_doc.to_json()));
        }
    }
    Ok(scrubbed_result(doc))
}

/// Zeroes every `wall_time_us` field in `doc`, recursively, so identical
/// submissions produce byte-identical result documents (artifact paths
/// are already stable: the corpus keys files by program fingerprint).
pub fn scrubbed_result(mut doc: Json) -> Json {
    fn scrub(v: &mut Json) {
        match v {
            Json::Obj(pairs) => {
                for (key, value) in pairs {
                    if key == "wall_time_us" {
                        *value = Json::Int(0);
                    } else {
                        scrub(value);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(scrub),
            _ => {}
        }
    }
    scrub(&mut doc);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const ABBA: &str = "\
program deadlock
mutex a
mutex b
thread T1 {
  lock a
  lock b
  unlock b
  unlock a
}
thread T2 {
  lock b
  lock a
  unlock a
  unlock b
}
";

    fn request(priority: i64) -> JobRequest {
        JobRequest {
            program_source: ABBA.to_string(),
            run: RunArgs {
                limit: 10_000,
                seed: 0,
                ..RunArgs::default()
            },
            priority,
            progress_interval: DEFAULT_PROGRESS_INTERVAL,
        }
    }

    #[test]
    fn from_json_defaults_and_rejections() {
        let v = Json::parse(r#"{"program": "program p\n"}"#).unwrap();
        let r = JobRequest::from_json(&v).unwrap();
        assert_eq!(r.run.spec, "dpor");
        assert_eq!(r.run.limit, 100_000);
        assert_eq!(r.run.seed, 0);
        assert!(!r.run.stop_on_bug);
        assert_eq!(r.priority, 0);
        assert_eq!(r.progress_interval, DEFAULT_PROGRESS_INTERVAL);

        let v = Json::parse(r#"{"program": "p", "progress_interval": 16}"#).unwrap();
        assert_eq!(JobRequest::from_json(&v).unwrap().progress_interval, 16);

        for bad in [
            r#"[1, 2]"#,
            r#"{"spec": "dpor"}"#,
            r#"{"program": 7}"#,
            r#"{"program": "p", "limit": "lots"}"#,
            r#"{"program": "p", "limit": -3}"#,
            r#"{"program": "p", "stop_on_bug": "yes"}"#,
            r#"{"program": "p", "progress_interval": 0}"#,
            r#"{"program": "p", "progress_interval": "fast"}"#,
            r#"{"program": "p", "preemptions": 4294967296}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(JobRequest::from_json(&v).is_err(), "{bad}");
        }
        // A zero budget is refused with the same message shape as a zero
        // progress interval.
        let v = Json::parse(r#"{"program": "p", "limit": 0}"#).unwrap();
        assert_eq!(
            JobRequest::from_json(&v).unwrap_err(),
            "\"limit\" must be at least 1"
        );
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let table = Arc::new(JobTable::default());
        let low1 = table.submit(request(0), "p".into()).unwrap();
        let low2 = table.submit(request(0), "p".into()).unwrap();
        let high = table.submit(request(5), "p".into()).unwrap();
        let order: Vec<u64> = (0..3).map(|_| table.next_job().unwrap().0).collect();
        assert_eq!(order, vec![high, low1, low2]);
    }

    #[test]
    fn cancel_dequeues_a_queued_job_and_flags_a_running_one() {
        let table = Arc::new(JobTable::default());
        let a = table.submit(request(0), "p".into()).unwrap();
        let b = table.submit(request(0), "p".into()).unwrap();
        assert_eq!(table.cancel(b), Some(JobState::Cancelled));
        let (claimed, _, token, _) = table.next_job().unwrap();
        assert_eq!(claimed, a);
        assert_eq!(table.cancel(a), Some(JobState::Running));
        assert!(token.is_cancelled());
        table.finish(a, Ok(Json::Null));
        assert_eq!(table.cancel(a), Some(JobState::Cancelled));
        assert!(table.cancel(99).is_none());
    }

    #[test]
    fn worker_runs_a_job_to_done_with_streamed_events() {
        let table = Arc::new(JobTable::default());
        let id = table.submit(request(0), "deadlock".into()).unwrap();
        table.begin_shutdown();
        run_worker(table.clone(), None);
        let detail = table.detail(id).unwrap();
        assert_eq!(detail.get("state").unwrap().as_str(), Some("done"));
        let result = detail.get("result").unwrap();
        assert_eq!(result.get("verdict").unwrap().as_str(), Some("bug-found"));
        // Wall time is scrubbed for determinism.
        assert_eq!(
            result
                .get("stats")
                .unwrap()
                .get("wall_time_us")
                .unwrap()
                .as_i64(),
            Some(0)
        );
        let events = table.events_since(id, 0).unwrap();
        let log = events.get("events").unwrap().as_arr().unwrap().to_vec();
        let kinds: Vec<&str> = log
            .iter()
            .map(|e| e.get("type").unwrap().as_str().unwrap())
            .collect();
        assert!(kinds.starts_with(&["queued", "running"]));
        assert_eq!(*kinds.last().unwrap(), "done");
        assert!(kinds.contains(&"bug"), "{kinds:?}");
        // Every job embeds a scrubbed metrics snapshot in its result and
        // streams the raw one through the event log.
        let metrics = result.get("metrics").unwrap();
        assert_eq!(
            metrics.get("format").unwrap().as_str(),
            Some("lazylocks-metrics")
        );
        assert!(kinds.contains(&"metrics"), "{kinds:?}");
        // ...and an exploration-profile document, served standalone by
        // `GET /jobs/<id>/profile`.
        let profile = result.get("profile").unwrap();
        assert_eq!(
            profile.get("format").unwrap().as_str(),
            Some("lazylocks-profile-doc")
        );
        assert_eq!(profile.get("program").unwrap().as_str(), Some("deadlock"));
        let route = table.profile(id).unwrap();
        assert_eq!(route.get("state").unwrap().as_str(), Some("done"));
        assert_eq!(route.get("profile").unwrap(), profile);
        assert!(table.profile(99).is_none());
        // The cursor protocol: polling from `next` returns nothing new.
        let next = events.get("next").unwrap().as_u64().unwrap();
        let tail = table.events_since(id, next).unwrap();
        assert!(tail.get("events").unwrap().as_arr().unwrap().is_empty());
        // The table-wide aggregation sees the finished job's counters.
        let agg = table.metrics_snapshot();
        assert!(agg.value("lazylocks_schedules_total") > 0);
        let counts = table.state_counts();
        assert_eq!(counts[2], (JobState::Done, 1));
    }

    #[test]
    fn journalled_table_recovers_unfinished_jobs_across_a_restart() {
        use crate::journal::{replay_bytes, Journal};
        let dir =
            std::env::temp_dir().join(format!("lazylocks-table-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");

        // First daemon lifetime: two jobs, one runs to done, one queued.
        let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap()));
        let finished = table.submit(request(0), "deadlock".into()).unwrap();
        let pending = table.submit(request(0), "deadlock".into()).unwrap();
        let (claimed, _, _, _) = table.next_job().unwrap();
        assert_eq!(claimed, finished);
        table.finish(finished, Ok(Json::Null));

        // "Crash": drop the table, replay the journal into a fresh one.
        drop(table);
        let replay = replay_bytes(&std::fs::read(&path).unwrap());
        assert!(replay.skipped.is_empty(), "{:?}", replay.skipped);
        let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap()));
        assert_eq!(table.restore(replay), 1);
        let (recovered, req, _, _) = table.next_job().unwrap();
        assert_eq!(recovered, pending, "original id survives the restart");
        assert_eq!(req.program_source, ABBA);
        // Fresh submissions continue above the recovered id space.
        let next = table.submit(request(0), "deadlock".into()).unwrap();
        assert_eq!(next, pending + 1);
    }

    #[test]
    fn recovered_job_with_a_removed_strategy_fails_and_the_daemon_keeps_serving() {
        use crate::journal::{replay_bytes, submit_record, Journal};
        let dir = std::env::temp_dir().join(format!(
            "lazylocks-removed-spec-journal-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");

        // A journal from before strategies were removed: four queued jobs,
        // the first three naming a removed strategy or mode (in-process
        // parallel DPOR, sync-only caching, sleep-free `dpor`).
        let journal = Journal::open(&path).unwrap();
        let stale_specs = [
            "parallel(reduction=dpor, workers=2)",
            "caching(mode=sync)",
            "dpor(sleep=false)",
        ];
        for (id, spec) in (1..).zip(stale_specs) {
            let mut stale = request(0);
            stale.run.spec = spec.to_string();
            journal
                .append(&submit_record(id, &stale, "deadlock"))
                .unwrap();
        }
        journal
            .append(&submit_record(4, &request(0), "deadlock"))
            .unwrap();
        drop(journal);

        let replay = replay_bytes(&std::fs::read(&path).unwrap());
        let table = Arc::new(JobTable::with_journal(Arc::new(
            Journal::open(&path).unwrap(),
        )));
        assert_eq!(table.restore(replay), 4);
        let worker = {
            let table = table.clone();
            std::thread::spawn(move || run_worker(table, None))
        };
        let wait_terminal = |id: u64| -> Json {
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            loop {
                let detail = table.detail(id).unwrap();
                let state = detail.get("state").unwrap().as_str().unwrap().to_string();
                if state != "queued" && state != "running" {
                    return detail;
                }
                assert!(std::time::Instant::now() < deadline, "job {id} stuck");
                std::thread::sleep(Duration::from_millis(5));
            }
        };

        for (id, expected) in [
            (1, "unknown strategy \"parallel\""),
            (2, "invalid value \"sync\" for caching(mode=…)"),
            (3, "the sleep-free prototype is lazy-dpor"),
        ] {
            let failed = wait_terminal(id);
            assert_eq!(failed.get("state").unwrap().as_str(), Some("failed"));
            let error = failed.get("error").unwrap().as_str().unwrap();
            assert!(error.contains(expected), "job {id}: {error}");
        }
        let done = wait_terminal(4);
        assert_eq!(done.get("state").unwrap().as_str(), Some("done"));

        // The daemon keeps serving: a fresh submission runs to done.
        let fresh = table.submit(request(0), "deadlock".into()).unwrap();
        assert_eq!(fresh, 5);
        let detail = wait_terminal(fresh);
        assert_eq!(detail.get("state").unwrap().as_str(), Some("done"));
        table.begin_shutdown();
        worker.join().unwrap();

        // The failure is journalled: nothing recovers on the next start.
        let replay = replay_bytes(&std::fs::read(&path).unwrap());
        assert!(replay.jobs.is_empty(), "{:?}", replay.jobs);
    }

    #[test]
    fn cancelled_jobs_do_not_recover() {
        use crate::journal::{replay_bytes, Journal};
        let dir =
            std::env::temp_dir().join(format!("lazylocks-cancel-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap()));
        let queued = table.submit(request(0), "p".into()).unwrap();
        table.cancel(queued);
        let running = table.submit(request(0), "p".into()).unwrap();
        let (claimed, _, _, _) = table.next_job().unwrap();
        assert_eq!(claimed, running);
        table.cancel(running); // daemon dies before the worker notices

        let replay = replay_bytes(&std::fs::read(&path).unwrap());
        assert!(replay.jobs.is_empty(), "{:?}", replay.jobs);
        assert_eq!(replay.next_id, running);
    }

    #[test]
    fn shutdown_refuses_new_jobs_and_drains_the_queue() {
        let table = Arc::new(JobTable::default());
        table.submit(request(0), "p".into()).unwrap();
        assert!(!table.draining());
        table.begin_shutdown();
        assert!(table.draining());
        assert!(table.submit(request(0), "p".into()).is_none());
        // The queued job is still handed out before workers exit.
        assert!(table.next_job().is_some());
        assert!(table.next_job().is_none());
    }
}
