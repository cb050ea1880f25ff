//! One run request and one exploration entry point.
//!
//! A *run* is one strategy spec explored over one program under a
//! schedule budget. [`RunArgs`] declares its seven parameters — spec,
//! limit, seed, preemption bound, stop-on-bug, minimise and deadline —
//! once, together with the JSON read and write of exactly those keys.
//! `lazylocks run` parses its flags into it, and a daemon job embeds it,
//! so both build their exploration through [`RunArgs::request`].
//!
//! [`DriveRequest`] is that exploration: an [`ExploreSession`] (config,
//! deadline, cancellation, observers, progress cadence) plus the spec,
//! minimisation and an optional [`CorpusStore`]. [`drive`] runs the
//! session, records bugs through a [`TraceRecorder`] when a store is
//! attached, and picks the (possibly minimised) bug schedules to report;
//! [`outcome_json`] is the shared machine-readable rendering of the
//! result.

use crate::artifact::{bug_kind_to_json, stats_to_json, threads_to_json};
use crate::json::Json;
use crate::recorder::{FinalizedTrace, TraceRecorder};
use crate::store::CorpusStore;
use lazylocks::{
    minimize_schedule, BugReport, CancelToken, ExploreConfig, ExploreOutcome, ExploreSession,
    Explorer, Observer, RunSetting, SpecError,
};
use lazylocks_model::Program;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One run's parameters, shared by `lazylocks run`, `client submit` and
/// the daemon's job bodies.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Registry strategy spec (`dpor`, `caching(mode=lazy)`, …).
    pub spec: String,
    /// Schedule budget; at least 1.
    pub limit: usize,
    /// Seed for randomized strategies; also stamps persisted artifacts.
    pub seed: u64,
    /// CHESS-style preemption bound.
    pub preemptions: Option<u32>,
    /// Stop the exploration at the first bug.
    pub stop_on_bug: bool,
    /// Minimise reported schedules and persisted artifacts.
    pub minimize: bool,
    /// Wall-clock deadline for the run, in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl Default for RunArgs {
    /// `lazylocks run`'s defaults: `dpor`, 100,000 schedules and the
    /// [`ExploreConfig`] seed.
    fn default() -> Self {
        RunArgs {
            spec: "dpor".to_string(),
            limit: 100_000,
            seed: ExploreConfig::default().seed,
            preemptions: None,
            stop_on_bug: false,
            minimize: false,
            deadline_ms: None,
        }
    }
}

impl RunArgs {
    /// Reads the run keys of a JSON object. Every key is optional: the
    /// defaults are [`RunArgs::default`]'s except that the seed is 0.
    pub fn from_json(obj: &Json) -> Result<RunArgs, String> {
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
        let defaults = RunArgs::default();
        Ok(RunArgs {
            spec: match obj.get("spec") {
                None | Some(Json::Null) => defaults.spec,
                Some(Json::Str(s)) => s.clone(),
                Some(_) => return Err("\"spec\" must be a string".to_string()),
            },
            limit: match u64_field("limit")? {
                Some(0) => return Err("\"limit\" must be at least 1".to_string()),
                Some(n) => n as usize,
                None => defaults.limit,
            },
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
        })
    }

    /// Writes exactly the run keys, in wire order, so
    /// [`from_json`](RunArgs::from_json) reads them back unchanged.
    pub fn to_json(&self) -> Json {
        let opt_u64 = |v: Option<u64>| v.map(|v| Json::Int(i128::from(v))).unwrap_or(Json::Null);
        Json::obj([
            ("spec", Json::Str(self.spec.clone())),
            ("limit", Json::Int(self.limit as i128)),
            ("seed", Json::Int(i128::from(self.seed))),
            ("preemptions", opt_u64(self.preemptions.map(u64::from))),
            ("stop_on_bug", Json::Bool(self.stop_on_bug)),
            ("deadline_ms", opt_u64(self.deadline_ms)),
            ("minimize", Json::Bool(self.minimize)),
        ])
    }

    /// Refuses a preemption bound, or checkpoints when `checkpointing`,
    /// that `explorer`, this run's strategy, would ignore, as its
    /// [`Explorer::honours`] says. The error starts with the setting's
    /// name (`preemptions` or `checkpoint-dir`) and names the strategies
    /// that honour it. `lazylocks run` and `POST /jobs` check here;
    /// `Explorer::explore` does not.
    pub fn refuse_ignored(
        &self,
        explorer: &dyn Explorer,
        checkpointing: bool,
    ) -> Result<(), String> {
        let spec = &self.spec;
        if self.preemptions.is_some() && !explorer.honours(RunSetting::PreemptionBound) {
            return Err(format!(
                "preemptions: {spec:?} would ignore it; dfs, caching and random \
                honour it (bounded takes bounded(max=N))"
            ));
        }
        if checkpointing && !explorer.honours(RunSetting::Checkpoints) {
            return Err(format!(
                "checkpoint-dir: {spec:?} would ignore it; the DPOR family \
                honours it: dpor, dpor(deps=lazy-locks), lazy-dpor"
            ));
        }
        Ok(())
    }

    /// The drive request for this run over `program`. `base` carries what
    /// only the caller sets (metrics, profiler, checkpointing); the run's
    /// budget, seed, preemption bound and stop-on-bug are written over it.
    pub fn request<'p>(&self, program: &'p Program, base: ExploreConfig) -> DriveRequest<'p> {
        let config = ExploreConfig {
            schedule_limit: self.limit,
            seed: self.seed,
            preemption_bound: self.preemptions,
            stop_on_bug: self.stop_on_bug,
            ..base
        };
        let request = DriveRequest::new(program, &self.spec)
            .with_config(config)
            .minimizing(self.minimize);
        match self.deadline_ms {
            Some(ms) => request.deadline(Duration::from_millis(ms)),
            None => request,
        }
    }
}

/// One exploration: the session that runs it plus what [`drive`] adds
/// around the session — the spec, minimisation and trace persistence.
pub struct DriveRequest<'p> {
    session: ExploreSession<'p>,
    spec: String,
    minimize: bool,
    store: Option<CorpusStore>,
}

impl<'p> DriveRequest<'p> {
    /// A request to run `spec` over `program` with the default config and
    /// no progress ticks (use the builder methods to change anything).
    pub fn new(program: &'p Program, spec: impl Into<String>) -> Self {
        DriveRequest {
            session: ExploreSession::new(program).progress_every(0),
            spec: spec.into(),
            minimize: false,
            store: None,
        }
    }

    /// Replaces the exploration config (budget, seed, bounds, …). The
    /// config's seed also stamps any persisted artifacts.
    pub fn with_config(mut self, config: ExploreConfig) -> Self {
        self.session = self.session.with_config(config);
        self
    }

    /// Stops the run after this much wall-clock time.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.session = self.session.deadline(after);
        self
    }

    /// Shares an externally owned cancellation token with the run.
    pub fn cancel_with(mut self, token: CancelToken) -> Self {
        self.session = self.session.cancel_with(token);
        self
    }

    /// Attaches an observer (progress ticks, bug streaming, checkpoints).
    pub fn observe(mut self, observer: Arc<dyn Observer>) -> Self {
        self.session = self.session.observe_arc(observer);
        self
    }

    /// Fires progress ticks every `n` complete schedules (0 = never).
    pub fn progress_every(mut self, n: usize) -> Self {
        self.session = self.session.progress_every(n);
        self
    }

    /// Minimises reported bug schedules (and any persisted artifacts).
    pub fn minimizing(mut self, minimize: bool) -> Self {
        self.minimize = minimize;
        self
    }

    /// Persists every bug found into `store` via a [`TraceRecorder`]
    /// (streamed immediately, finalized with stats after the run).
    pub fn saving_into(mut self, store: CorpusStore) -> Self {
        self.store = Some(store);
        self
    }
}

/// What [`drive`] produced.
pub struct DriveResult {
    /// The session outcome: stats, verdict, strategy id, raw bugs.
    pub outcome: ExploreOutcome,
    /// The bug reports to present — minimised when the request asked for
    /// it (reusing the recorder's already-minimised schedules when traces
    /// were saved, so nothing is minimised twice).
    pub bugs: Vec<BugReport>,
    /// Bugs finalized by the recorder, in bug-discovery order, with the
    /// artifact path of each one that was persisted.
    pub traces: Vec<FinalizedTrace>,
    /// I/O errors from trace persistence (the run itself still succeeded).
    pub trace_errors: Vec<String>,
}

impl DriveResult {
    /// The persisted artifact paths, in bug-discovery order.
    pub fn trace_paths(&self) -> Vec<PathBuf> {
        self.traces.iter().filter_map(|f| f.path.clone()).collect()
    }
}

/// Runs one exploration per `request`: attaches a trace recorder when a
/// store is given, resolves the spec, runs the session, finalizes the
/// recorder and minimises. Fails only on an unresolvable spec;
/// persistence problems come back as [`DriveResult::trace_errors`].
pub fn drive(request: DriveRequest<'_>) -> Result<DriveResult, SpecError> {
    let DriveRequest {
        mut session,
        spec,
        minimize,
        store,
    } = request;
    let program = session.program();
    let recorder = store.map(|store| {
        Arc::new(
            TraceRecorder::new(store, program, &spec, session.config().seed).minimizing(minimize),
        )
    });
    if let Some(recorder) = &recorder {
        session = session.observe_arc(recorder.clone());
    }
    let outcome = session.run_spec(&spec)?;

    let (traces, trace_errors) = match &recorder {
        Some(recorder) => recorder.finalize(&outcome.stats),
        None => (Vec::new(), Vec::new()),
    };
    let bugs: Vec<BugReport> = if !minimize {
        outcome.bugs.clone()
    } else if recorder.is_some() {
        traces.iter().map(|f| f.bug.clone()).collect()
    } else {
        outcome
            .bugs
            .iter()
            .map(|b| minimize_schedule(program, b))
            .collect()
    };
    Ok(DriveResult {
        outcome,
        bugs,
        traces,
        trace_errors,
    })
}

/// The machine-readable form of a drive result — the schema behind
/// `run --json` and the server's job results.
pub fn outcome_json(
    program: &str,
    spec: &str,
    outcome: &ExploreOutcome,
    bugs: &[BugReport],
    minimized: bool,
    traces: &[PathBuf],
) -> Json {
    Json::obj([
        ("program", Json::Str(program.to_string())),
        ("strategy", Json::Str(outcome.strategy_id.clone())),
        ("spec", Json::Str(spec.to_string())),
        ("verdict", Json::Str(outcome.verdict.to_string())),
        ("stats", stats_to_json(&outcome.stats)),
        (
            "bugs",
            Json::Arr(
                bugs.iter()
                    .map(|b| {
                        Json::obj([
                            ("kind", bug_kind_to_json(&b.kind)),
                            ("schedule", threads_to_json(&b.schedule)),
                            ("trace_len", Json::Int(b.trace_len as i128)),
                            ("minimized", Json::Bool(minimized)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "traces",
            Json::Arr(
                traces
                    .iter()
                    .map(|p| Json::Str(p.display().to_string()))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::replay::replay_embedded;
    use lazylocks::{registry, CheckpointState, MetricsHandle, Verdict};
    use lazylocks_model::{ProgramBuilder, Reg};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn abba() -> Program {
        let mut b = ProgramBuilder::new("abba");
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
        b.build()
    }

    fn temp_store(tag: &str) -> CorpusStore {
        let dir =
            std::env::temp_dir().join(format!("lazylocks-drive-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CorpusStore::open(dir).unwrap()
    }

    #[test]
    fn drive_without_store_reports_raw_bugs() {
        let p = abba();
        let result =
            drive(DriveRequest::new(&p, "dpor").with_config(ExploreConfig::with_limit(10_000)))
                .unwrap();
        assert_eq!(result.outcome.verdict, Verdict::BugFound);
        assert_eq!(result.bugs.len(), 1);
        assert!(result.traces.is_empty());
        assert_eq!(result.bugs[0].schedule, result.outcome.bugs[0].schedule);
    }

    #[test]
    fn drive_with_store_persists_minimised_replayable_artifacts() {
        let p = abba();
        let store = temp_store("persist");
        let root = store.root().to_path_buf();
        let result = drive(
            DriveRequest::new(&p, "dpor(sleep=true)")
                .with_config(ExploreConfig::with_limit(10_000).stopping_on_bug())
                .minimizing(true)
                .saving_into(store),
        )
        .unwrap();
        assert!(result.trace_errors.is_empty(), "{:?}", result.trace_errors);
        assert_eq!(result.traces.len(), 1);
        // Reported bugs are the recorder's minimised ones, verbatim.
        assert_eq!(result.bugs[0].schedule, result.traces[0].bug.schedule);
        let text = std::fs::read_to_string(result.traces[0].path.as_ref().unwrap()).unwrap();
        let artifact = crate::artifact::TraceArtifact::parse(&text).unwrap();
        assert!(artifact.minimized);
        assert!(replay_embedded(&artifact, &MetricsHandle::disabled())
            .unwrap()
            .reproduced());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failed_save_still_reports_the_minimised_bug() {
        let p = abba();
        let store = temp_store("failed-save");
        let root = store.root().to_path_buf();
        let request = |store: CorpusStore| {
            DriveRequest::new(&p, "dpor")
                .with_config(ExploreConfig::with_limit(10_000).stopping_on_bug())
                .minimizing(true)
                .saving_into(store)
        };
        // A first run leaves the artifact in place, so the second run's
        // streamed save deduplicates and only its final save writes.
        drive(request(store.clone())).unwrap();
        let faults = FaultPlan::armed();
        faults.fail_fsyncs(1);
        let result = drive(request(store.with_faults(faults))).unwrap();
        assert_eq!(result.outcome.verdict, Verdict::BugFound);
        assert_eq!(result.bugs.len(), 1, "the bug survives the failed save");
        assert_eq!(result.trace_errors.len(), 1, "{:?}", result.trace_errors);
        assert!(result.trace_paths().is_empty());
        std::fs::remove_dir_all(&root).ok();
    }

    /// Notes whether any checkpoint fired.
    #[derive(Default)]
    struct CheckpointSeen(AtomicBool);

    impl Observer for CheckpointSeen {
        fn on_checkpoint(&self, _: &CheckpointState) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    #[test]
    fn every_strategy_is_refused_exactly_the_settings_it_ignores() {
        // Two unsynchronised increments: without a preemption the lost
        // update never happens, so a bound of 0 leaves one final state.
        let mut b = ProgramBuilder::new("racy");
        let x = b.var("x", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0);
            });
        }
        let p = b.build();
        for spec in registry::specs() {
            let explorer = registry::create(spec).unwrap();
            let args = RunArgs {
                spec: spec.to_string(),
                preemptions: Some(0),
                ..RunArgs::default()
            };
            let bounded = ExploreSession::new(&p)
                .with_config(ExploreConfig::with_limit(10_000).preemptions(0))
                .run(&*explorer);
            assert_eq!(
                args.refuse_ignored(&*explorer, false).is_ok(),
                bounded.stats.unique_states == 1,
                "{spec}: preemption bound"
            );

            let seen = Arc::new(CheckpointSeen::default());
            let mut config = ExploreConfig::with_limit(10_000);
            config.checkpoint_every = 1;
            ExploreSession::new(&p)
                .with_config(config)
                .observe_arc(seen.clone())
                .run(&*explorer);
            let args = RunArgs {
                preemptions: None,
                ..args
            };
            assert_eq!(
                args.refuse_ignored(&*explorer, true).is_ok(),
                seen.0.load(Ordering::Relaxed),
                "{spec}: checkpoints"
            );
        }
    }

    #[test]
    fn drive_rejects_unknown_specs() {
        let p = abba();
        assert!(drive(DriveRequest::new(&p, "no-such-strategy")).is_err());
    }

    #[test]
    fn shared_cancel_token_stops_the_run() {
        let p = abba();
        let token = CancelToken::new();
        token.cancel();
        let result = drive(
            DriveRequest::new(&p, "dfs")
                .with_config(ExploreConfig::with_limit(1_000_000))
                .cancel_with(token),
        )
        .unwrap();
        assert_eq!(result.outcome.verdict, Verdict::Cancelled);
    }
}
