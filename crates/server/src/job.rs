//! Job queue, job state machine and the worker loop.
//!
//! A *job* is one exploration request: a `.llk` program, a strategy
//! spec, and a budget. Jobs move `Queued → Running → Done / Cancelled /
//! Failed`; queued jobs wait in a priority-then-FIFO queue consumed by a
//! fixed pool of worker threads, each of which runs the shared
//! [`lazylocks_trace::drive`] entry point with a per-job
//! [`CancelToken`]. Progress ticks and streamed bugs land in a per-job
//! append-only event log that clients poll with
//! `GET /jobs/<id>/events?since=N` — no long-lived connections, no
//! server-sent push, nothing to leak.
//!
//! All shared state lives behind one mutex in [`JobTable`]; a condvar
//! wakes workers when a job arrives and when shutdown begins. Workers
//! drain the queue before exiting, so joining them *is* the drain
//! barrier.

use crate::journal::Journal;
use lazylocks::{
    BugReport, CancelToken, ExploreConfig, MetricsHandle, Observer, ProfileHandle, Progress,
};
use lazylocks_model::Program;
use lazylocks_trace::{
    bug_kind_to_json, drive, outcome_json, CorpusStore, DriveRequest, Json, ProfileDoc,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A job submission, decoded from the `POST /jobs` body.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// The guest program, `.llk` text format.
    pub program_source: String,
    /// Registry strategy spec (`dpor`, `dpor(sleep=true)`, …).
    pub spec: String,
    /// Schedule budget.
    pub limit: usize,
    /// Seed for randomized strategies; also stamps persisted artifacts.
    pub seed: u64,
    /// CHESS-style preemption bound.
    pub preemptions: Option<u32>,
    /// Stop the exploration at the first bug.
    pub stop_on_bug: bool,
    /// Wall-clock deadline for the run, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Minimise reported schedules and persisted artifacts.
    pub minimize: bool,
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
        let obj = match v {
            Json::Obj(_) => v,
            _ => return Err("job must be a JSON object".to_string()),
        };
        let str_field = |key: &str| -> Result<Option<String>, String> {
            match obj.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("{key:?} must be a string")),
            }
        };
        let u64_field = |key: &str| -> Result<Option<u64>, String> {
            match obj.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(other) => other
                    .as_u64()
                    .map(Some)
                    .ok_or(format!("{key:?} must be a non-negative integer")),
            }
        };
        let bool_field = |key: &str| -> Result<bool, String> {
            match obj.get(key) {
                None | Some(Json::Null) => Ok(false),
                Some(other) => other.as_bool().ok_or(format!("{key:?} must be a boolean")),
            }
        };
        let program_source =
            str_field("program")?.ok_or("missing required field \"program\" (.llk source text)")?;
        let priority = match obj.get("priority") {
            None | Some(Json::Null) => 0,
            Some(other) => other.as_i64().ok_or("\"priority\" must be an integer")?,
        };
        let progress_interval = match u64_field("progress_interval")? {
            Some(0) => return Err("\"progress_interval\" must be at least 1".to_string()),
            Some(n) => n as usize,
            None => DEFAULT_PROGRESS_INTERVAL,
        };
        Ok(JobRequest {
            program_source,
            spec: str_field("spec")?.unwrap_or_else(|| "dpor(sleep=true)".to_string()),
            limit: u64_field("limit")?.unwrap_or(100_000) as usize,
            seed: u64_field("seed")?.unwrap_or(0),
            preemptions: u64_field("preemptions")?
                .map(|v| {
                    u32::try_from(v)
                        .map_err(|_| format!("\"preemptions\" must be at most {}", u32::MAX))
                })
                .transpose()?,
            stop_on_bug: bool_field("stop_on_bug")?,
            deadline_ms: u64_field("deadline_ms")?,
            minimize: bool_field("minimize")?,
            priority,
            progress_interval,
        })
    }

    /// Encodes the request so [`from_json`](JobRequest::from_json) decodes
    /// it back exactly — the journal's `submit` payload.
    pub fn to_json(&self) -> Json {
        let opt_u64 = |v: Option<u64>| v.map(|v| Json::Int(i128::from(v))).unwrap_or(Json::Null);
        Json::obj([
            ("program", Json::Str(self.program_source.clone())),
            ("spec", Json::Str(self.spec.clone())),
            ("limit", Json::Int(self.limit as i128)),
            ("seed", Json::Int(i128::from(self.seed))),
            ("preemptions", opt_u64(self.preemptions.map(u64::from))),
            ("stop_on_bug", Json::Bool(self.stop_on_bug)),
            ("deadline_ms", opt_u64(self.deadline_ms)),
            ("minimize", Json::Bool(self.minimize)),
            ("priority", Json::Int(i128::from(self.priority))),
            (
                "progress_interval",
                Json::Int(self.progress_interval as i128),
            ),
        ])
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

    /// `true` once the job can no longer change.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed
        )
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
    /// The job's live metrics sink — enabled for every job, so
    /// `GET /metrics` can aggregate across queued, running and finished
    /// jobs alike.
    metrics: MetricsHandle,
    /// The job's exploration profiler — also always on, so
    /// `GET /jobs/<id>/profile` serves attribution for every finished
    /// job without resubmission.
    profile: ProfileHandle,
    /// Append-only, seq-stamped event log.
    events: Vec<Json>,
    /// The scrubbed outcome document, present once `Done` or `Cancelled`
    /// mid-run (partial stats).
    result: Option<Json>,
    /// Present once `Failed`.
    error: Option<String>,
}

impl Job {
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
            ("spec", Json::Str(self.request.spec.clone())),
            ("state", Json::Str(self.state.as_str().to_string())),
            ("priority", Json::Int(self.request.priority as i128)),
            ("events", Json::Int(self.events.len() as i128)),
        ])
    }

    fn detail_json(&self) -> Json {
        Json::obj([
            ("id", Json::Int(self.id as i128)),
            ("program", Json::Str(self.program_name.clone())),
            ("spec", Json::Str(self.request.spec.clone())),
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
    /// Ids of queued jobs, submission order.
    queue: Vec<u64>,
    /// Jobs currently held by a worker.
    running: usize,
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
            inner: Mutex::new(Tables::default()),
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
                eprintln!(
                    "warning: journal append to {} failed: {e}",
                    journal.path().display()
                );
            }
        }
    }

    /// Re-enqueues the jobs a journal replay recovered, keeping their
    /// original ids; returns how many were restored. Call before workers
    /// start consuming the queue.
    pub fn restore(&self, replay: crate::journal::JournalReplay) -> usize {
        let mut t = self.inner.lock().unwrap();
        t.next_id = t.next_id.max(replay.next_id);
        let mut restored = 0;
        for recovered in replay.jobs {
            let id = recovered.id;
            if t.jobs.contains_key(&id) {
                continue;
            }
            let mut job = Job {
                id,
                request: recovered.request,
                program_name: recovered.program_name,
                state: JobState::Queued,
                cancel: CancelToken::new(),
                cancel_requested: false,
                metrics: MetricsHandle::enabled(),
                profile: ProfileHandle::enabled(),
                events: Vec::new(),
                result: None,
                error: None,
            };
            job.push_event("recovered", vec![]);
            t.jobs.insert(id, job);
            t.queue.push(id);
            restored += 1;
        }
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
        let mut job = Job {
            id,
            request,
            program_name,
            state: JobState::Queued,
            cancel: CancelToken::new(),
            cancel_requested: false,
            metrics: MetricsHandle::enabled(),
            profile: ProfileHandle::enabled(),
            events: Vec::new(),
            result: None,
            error: None,
        };
        job.push_event("queued", vec![]);
        t.jobs.insert(id, job);
        t.queue.push(id);
        self.ready.notify_one();
        Some(id)
    }

    /// Worker side: blocks until a job is available (highest priority,
    /// then FIFO) or shutdown has drained the queue; `None` means exit.
    pub fn next_job(&self) -> Option<(u64, JobRequest, CancelToken, MetricsHandle, ProfileHandle)> {
        let mut t = self.inner.lock().unwrap();
        loop {
            if let Some(pos) = best_queued(&t) {
                let id = t.queue.remove(pos);
                t.running += 1;
                self.journal_append(&crate::journal::start_record(id));
                let job = t.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Running;
                job.push_event("running", vec![]);
                return Some((
                    id,
                    job.request.clone(),
                    job.cancel.clone(),
                    job.metrics.clone(),
                    job.profile.clone(),
                ));
            }
            if t.shutting_down {
                return None;
            }
            t = self.ready.wait(t).unwrap();
        }
    }

    /// Worker side: records the outcome and moves the job to its terminal
    /// state.
    pub fn finish(&self, id: u64, outcome: Result<Json, String>) {
        let mut t = self.inner.lock().unwrap();
        t.running -= 1;
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
        let pos = t.queue.iter().position(|&q| q == id);
        let job = t.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.cancel_requested = true;
                job.push_event("done", vec![("state", Json::Str("cancelled".to_string()))]);
                if let Some(pos) = pos {
                    t.queue.remove(pos);
                }
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
        (t.queue.len(), t.running)
    }

    /// `(queued, running)` right now — the health snapshot.
    pub fn load(&self) -> (usize, usize) {
        let t = self.inner.lock().unwrap();
        (t.queue.len(), t.running)
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

    /// The union of every job's metrics — counters and histograms summed,
    /// gauges maxed — for the server-wide `GET /metrics` exposition.
    /// Running jobs contribute their live (so far) values.
    pub fn metrics_snapshot(&self) -> lazylocks::MetricsSnapshot {
        let t = self.inner.lock().unwrap();
        let mut merged = lazylocks::MetricsSnapshot::default();
        for job in t.jobs.values() {
            if let Some(snap) = job.metrics.snapshot() {
                merged.merge(&snap);
            }
        }
        merged
    }
}

/// The queue position of the next job to run: highest priority first,
/// FIFO within a priority.
fn best_queued(t: &Tables) -> Option<usize> {
    let mut best: Option<(usize, i64, u64)> = None;
    for (pos, &id) in t.queue.iter().enumerate() {
        let priority = t.jobs[&id].request.priority;
        let better = match best {
            None => true,
            Some((_, bp, bid)) => priority > bp || (priority == bp && id < bid),
        };
        if better {
            best = Some((pos, priority, id));
        }
    }
    best.map(|(pos, _, _)| pos)
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
    while let Some((id, request, cancel, metrics, profile)) = table.next_job() {
        let outcome = execute(
            &table,
            id,
            &request,
            cancel,
            metrics,
            profile,
            corpus_dir.as_deref(),
        );
        table.finish(id, outcome);
    }
}

/// Runs one job through the shared [`drive`] entry point.
fn execute(
    table: &Arc<JobTable>,
    id: u64,
    request: &JobRequest,
    cancel: CancelToken,
    metrics: MetricsHandle,
    profile: ProfileHandle,
    corpus_dir: Option<&std::path::Path>,
) -> Result<Json, String> {
    // Submission already validated the source, so a failure here means
    // the daemon itself is broken — still reported, never a panic.
    let program = Program::parse(&request.program_source).map_err(|e| format!("program: {e}"))?;
    let mut config = ExploreConfig::with_limit(request.limit)
        .seeded(request.seed)
        .with_metrics(metrics.clone())
        .with_profile(profile.clone());
    config.preemption_bound = request.preemptions;
    config.stop_on_bug = request.stop_on_bug;

    let mut drive_request = DriveRequest::new(&program, &request.spec)
        .with_config(config)
        .progress_every(request.progress_interval)
        .minimizing(request.minimize)
        .cancel_with(cancel)
        .observe(Arc::new(JobObserver {
            table: table.clone(),
            id,
        }));
    if let Some(ms) = request.deadline_ms {
        drive_request = drive_request.deadline(Duration::from_millis(ms));
    }
    if let Some(dir) = corpus_dir {
        let store = CorpusStore::open(dir)
            .map_err(|e| format!("cannot open corpus {}: {e}", dir.display()))?;
        drive_request = drive_request.saving_into(store);
    }

    let result = drive(drive_request).map_err(|e| e.to_string())?;
    let mut doc = outcome_json(
        program.name(),
        &request.spec,
        &result.outcome,
        &result.bugs,
        request.minimize,
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
        if let Ok(raw) = Json::parse(&snapshot.to_json_string()) {
            table.push_job_event(id, "metrics", vec![("snapshot", raw)]);
        }
        if let Json::Obj(pairs) = &mut doc {
            if let Ok(scrubbed) = Json::parse(&snapshot.scrubbed().to_json_string()) {
                pairs.push(("metrics".to_string(), scrubbed));
            }
        }
    }
    if let Some(snapshot) = profile.snapshot() {
        // Scrubbed for the same reason as the metrics: identical
        // submissions must produce byte-identical result documents.
        let profile_doc = ProfileDoc::new(&program, &request.spec, &snapshot.scrubbed());
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
            spec: "dpor".to_string(),
            limit: 10_000,
            seed: 0,
            preemptions: None,
            stop_on_bug: false,
            deadline_ms: None,
            minimize: false,
            priority,
            progress_interval: DEFAULT_PROGRESS_INTERVAL,
        }
    }

    #[test]
    fn from_json_defaults_and_rejections() {
        let v = Json::parse(r#"{"program": "program p\n"}"#).unwrap();
        let r = JobRequest::from_json(&v).unwrap();
        assert_eq!(r.spec, "dpor(sleep=true)");
        assert_eq!(r.limit, 100_000);
        assert!(!r.stop_on_bug);
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
        let (claimed, _, token, _, _) = table.next_job().unwrap();
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
        let (claimed, _, _, _, _) = table.next_job().unwrap();
        assert_eq!(claimed, finished);
        table.finish(finished, Ok(Json::Null));

        // "Crash": drop the table, replay the journal into a fresh one.
        drop(table);
        let replay = replay_bytes(&std::fs::read(&path).unwrap());
        assert!(replay.skipped.is_empty(), "{:?}", replay.skipped);
        let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap()));
        assert_eq!(table.restore(replay), 1);
        let (recovered, req, _, _, _) = table.next_job().unwrap();
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

        // A journal from before the in-process parallel strategies were
        // removed: two queued jobs, the first naming one of them.
        let journal = Journal::open(&path).unwrap();
        let mut stale = request(0);
        stale.spec = "parallel(reduction=dpor, workers=2)".to_string();
        journal
            .append(&submit_record(1, &stale, "deadlock"))
            .unwrap();
        journal
            .append(&submit_record(2, &request(0), "deadlock"))
            .unwrap();
        drop(journal);

        let replay = replay_bytes(&std::fs::read(&path).unwrap());
        let table = Arc::new(JobTable::with_journal(Arc::new(
            Journal::open(&path).unwrap(),
        )));
        assert_eq!(table.restore(replay), 2);
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

        let failed = wait_terminal(1);
        assert_eq!(failed.get("state").unwrap().as_str(), Some("failed"));
        let error = failed.get("error").unwrap().as_str().unwrap();
        assert!(error.contains("unknown strategy \"parallel\""), "{error}");
        let done = wait_terminal(2);
        assert_eq!(done.get("state").unwrap().as_str(), Some("done"));

        // The daemon keeps serving: a fresh submission runs to done.
        let fresh = table.submit(request(0), "deadlock".into()).unwrap();
        assert_eq!(fresh, 3);
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
        let (claimed, _, _, _, _) = table.next_job().unwrap();
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
        table.begin_shutdown();
        assert!(table.submit(request(0), "p".into()).is_none());
        // The queued job is still handed out before workers exit.
        assert!(table.next_job().is_some());
        assert!(table.next_job().is_none());
    }
}
