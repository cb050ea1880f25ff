//! One reusable exploration entry point.
//!
//! Every frontend — the `run` CLI subcommand, the fuzz harness's repro
//! paths, and the `lazylocks-server` job runner — needs the same
//! plumbing: build an [`ExploreSession`] from a config, wire observers
//! and cancellation, optionally attach a [`TraceRecorder`] so bugs
//! persist into a [`CorpusStore`], run a registry spec, finalize the
//! recorder, and pick the (possibly minimised) bug schedules to report.
//! [`drive`] is that plumbing, once; [`outcome_json`] is the shared
//! machine-readable rendering of the result.

use crate::artifact::{bug_kind_to_json, stats_to_json, threads_to_json};
use crate::json::Json;
use crate::recorder::{FinalizedTrace, TraceRecorder};
use crate::store::CorpusStore;
use lazylocks::{
    minimize_schedule, BugReport, CancelToken, ExploreConfig, ExploreOutcome, ExploreSession,
    Observer, SpecError, StrategyRegistry,
};
use lazylocks_model::Program;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Everything one exploration run needs, decoupled from any frontend.
pub struct DriveRequest<'p> {
    program: &'p Program,
    spec: String,
    config: ExploreConfig,
    registry: Option<&'p StrategyRegistry>,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    observers: Vec<Arc<dyn Observer>>,
    progress_every: usize,
    minimize: bool,
    store: Option<CorpusStore>,
}

impl<'p> DriveRequest<'p> {
    /// A request to run `spec` over `program` with the default config (use
    /// the builder methods to change anything).
    pub fn new(program: &'p Program, spec: impl Into<String>) -> Self {
        DriveRequest {
            program,
            spec: spec.into(),
            config: ExploreConfig::default(),
            registry: None,
            deadline: None,
            cancel: None,
            observers: Vec::new(),
            progress_every: 0,
            minimize: false,
            store: None,
        }
    }

    /// Replaces the exploration config (budget, seed, bounds, …). The
    /// config's seed also stamps any persisted artifacts.
    pub fn with_config(mut self, config: ExploreConfig) -> Self {
        self.config = config;
        self
    }

    /// Resolves the spec against `registry` instead of the default one.
    pub fn with_registry(mut self, registry: &'p StrategyRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Stops the run after this much wall-clock time.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(after);
        self
    }

    /// Shares an externally owned cancellation token with the run.
    pub fn cancel_with(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches an observer (progress ticks, bug streaming, stop votes).
    pub fn observe(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Fires progress ticks every `n` complete schedules (0 = never).
    pub fn progress_every(mut self, n: usize) -> Self {
        self.progress_every = n;
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

/// Runs one exploration per `request`: session build, observer and
/// cancellation wiring, optional trace recording, spec resolution, run,
/// finalization, minimisation. Fails only on an unresolvable spec;
/// persistence problems come back as [`DriveResult::trace_errors`].
pub fn drive(request: DriveRequest<'_>) -> Result<DriveResult, SpecError> {
    let mut session = ExploreSession::new(request.program)
        .with_config(request.config.clone())
        .progress_every(request.progress_every);
    if let Some(deadline) = request.deadline {
        session = session.deadline(deadline);
    }
    if let Some(token) = request.cancel {
        session = session.cancel_with(token);
    }
    for observer in request.observers {
        session = session.observe_arc(observer);
    }
    let recorder = request.store.map(|store| {
        let recorder = Arc::new(
            TraceRecorder::new(store, request.program, &request.spec, request.config.seed)
                .minimizing(request.minimize),
        );
        (recorder.clone(), recorder as Arc<dyn Observer>)
    });
    if let Some((_, observer)) = &recorder {
        session = session.observe_arc(observer.clone());
    }

    let default_registry;
    let registry = match request.registry {
        Some(registry) => registry,
        None => {
            default_registry = StrategyRegistry::default();
            &default_registry
        }
    };
    let outcome = session.run_with(registry, &request.spec)?;

    let (traces, trace_errors) = match &recorder {
        Some((recorder, _)) => recorder.finalize(&outcome.stats),
        None => (Vec::new(), Vec::new()),
    };
    let bugs: Vec<BugReport> = if !request.minimize {
        outcome.bugs.clone()
    } else if recorder.is_some() {
        traces.iter().map(|f| f.bug.clone()).collect()
    } else {
        outcome
            .bugs
            .iter()
            .map(|b| minimize_schedule(request.program, b))
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
    use lazylocks::{MetricsHandle, Verdict};
    use lazylocks_model::ProgramBuilder;

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
