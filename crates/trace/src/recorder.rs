//! Automatic trace recording during exploration.
//!
//! A [`TraceRecorder`] is a session [`Observer`] that persists a trace
//! artifact into a [`CorpusStore`] for every distinct bug an exploration
//! finds. Artifacts are streamed out from `on_bug` — so even a cancelled,
//! crashed or deadline-stopped exploration leaves its counterexamples on
//! disk — and upgraded at [`TraceRecorder::finalize`] with a minimised
//! schedule (on by default) and the final exploration counters.

use crate::artifact::TraceArtifact;
use crate::store::CorpusStore;
use lazylocks::{minimize_schedule, BugReport, ExploreStats, Observer};
use lazylocks_model::Program;
use std::path::PathBuf;
use std::sync::Mutex;

/// Observer that saves an artifact per distinct bug. Attach with
/// [`ExploreSession::observe_arc`] (keep a handle to
/// [`TraceRecorder::finalize`] afterwards):
///
/// ```
/// use lazylocks::{ExploreConfig, ExploreSession};
/// use lazylocks_model::ProgramBuilder;
/// use lazylocks_trace::{CorpusStore, TraceRecorder};
/// use std::sync::Arc;
///
/// let mut b = ProgramBuilder::new("abba");
/// let l0 = b.mutex("l0");
/// let l1 = b.mutex("l1");
/// b.thread("T1", |t| { t.lock(l0); t.lock(l1); t.unlock(l1); t.unlock(l0); });
/// b.thread("T2", |t| { t.lock(l1); t.lock(l0); t.unlock(l0); t.unlock(l1); });
/// let program = b.build();
///
/// let dir = std::env::temp_dir().join("lazylocks-recorder-doc");
/// let store = CorpusStore::open(&dir).unwrap();
/// let recorder = Arc::new(TraceRecorder::new(store, &program, "dpor", 1));
///
/// let outcome = ExploreSession::new(&program)
///     .observe_arc(recorder.clone())
///     .run_spec("dpor")
///     .unwrap();
///
/// let (saved, errors) = recorder.finalize(&outcome.stats);
/// assert_eq!(saved.len(), 1);
/// assert!(errors.is_empty());
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
///
/// [`ExploreSession::observe_arc`]: lazylocks::ExploreSession::observe_arc
pub struct TraceRecorder {
    store: CorpusStore,
    program: Program,
    strategy_spec: String,
    seed: u64,
    minimize: bool,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    /// One report per distinct bug kind, in discovery order.
    bugs: Vec<BugReport>,
    /// I/O errors encountered while streaming artifacts out.
    errors: Vec<String>,
}

impl TraceRecorder {
    /// A recorder saving into `store` for an exploration of `program`
    /// under `strategy_spec`/`seed`. Schedules are minimised at
    /// finalisation by default; see [`TraceRecorder::minimizing`].
    pub fn new(
        store: CorpusStore,
        program: &Program,
        strategy_spec: impl Into<String>,
        seed: u64,
    ) -> TraceRecorder {
        TraceRecorder {
            store,
            program: program.clone(),
            strategy_spec: strategy_spec.into(),
            seed,
            minimize: true,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Enables or disables delta-debugging minimisation of saved
    /// schedules (enabled by default).
    pub fn minimizing(mut self, minimize: bool) -> TraceRecorder {
        self.minimize = minimize;
        self
    }

    /// The store this recorder writes to.
    pub fn store(&self) -> &CorpusStore {
        &self.store
    }

    fn artifact_for(&self, bug: &BugReport) -> TraceArtifact {
        TraceArtifact::from_bug(&self.program, &self.strategy_spec, self.seed, bug)
    }

    /// Re-saves every recorded bug with the final exploration counters and
    /// (by default) a minimised schedule. Returns one entry per recorded
    /// bug — the exact (possibly minimised) report plus where it was
    /// persisted, so callers can report the same schedules without
    /// re-minimising — and any I/O errors accumulated over the whole run.
    /// A bug whose save failed is still returned, with no path.
    pub fn finalize(&self, stats: &ExploreStats) -> (Vec<FinalizedTrace>, Vec<String>) {
        let mut inner = self.inner.lock().unwrap();
        let mut saved = Vec::new();
        let bugs = inner.bugs.clone();
        for bug in &bugs {
            let (bug, minimized) = if self.minimize {
                (minimize_schedule(&self.program, bug), true)
            } else {
                (bug.clone(), false)
            };
            let mut artifact = self.artifact_for(&bug).with_stats(stats);
            artifact.minimized = minimized;
            let path = match self.store.save_overwrite(&artifact) {
                Ok(path) => Some(path),
                Err(e) => {
                    inner
                        .errors
                        .push(format!("saving trace for {}: {e}", bug.kind));
                    None
                }
            };
            saved.push(FinalizedTrace { path, bug });
        }
        (saved, std::mem::take(&mut inner.errors))
    }
}

/// One bug finalized by [`TraceRecorder::finalize`].
#[derive(Debug, Clone)]
pub struct FinalizedTrace {
    /// Where the artifact was written; `None` when the save failed.
    pub path: Option<PathBuf>,
    /// The report the artifact carries — minimised when minimisation is
    /// on.
    pub bug: BugReport,
}

impl Observer for TraceRecorder {
    fn on_bug(&self, bug: &BugReport) {
        let mut inner = self.inner.lock().unwrap();
        if inner.bugs.iter().any(|b| b.kind == bug.kind) {
            return;
        }
        inner.bugs.push(bug.clone());
        // Stream the raw artifact out immediately: a crash or cancellation
        // between here and finalize() must not lose the counterexample.
        if let Err(e) = self.store.save(&self.artifact_for(bug)) {
            inner
                .errors
                .push(format!("saving trace for {}: {e}", bug.kind));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay_embedded, ReplayVerdict};
    use lazylocks::{ExploreConfig, ExploreSession, MetricsHandle};
    use lazylocks_model::ProgramBuilder;
    use std::sync::Arc;

    fn temp_store(tag: &str) -> CorpusStore {
        let dir = std::env::temp_dir().join(format!(
            "lazylocks-recorder-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        CorpusStore::open(dir).unwrap()
    }

    fn noisy_abba() -> Program {
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

    #[test]
    fn records_minimises_and_replays() {
        let p = noisy_abba();
        let recorder = Arc::new(TraceRecorder::new(temp_store("rec"), &p, "dpor", 9));
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(10_000))
            .observe_arc(recorder.clone())
            .run_spec("dpor")
            .unwrap();
        assert!(outcome.found_bug());

        let (saved, errors) = recorder.finalize(&outcome.stats);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(saved.len(), 1, "one distinct deadlock");

        let text = std::fs::read_to_string(saved[0].path.as_ref().unwrap()).unwrap();
        let artifact = TraceArtifact::parse(&text).unwrap();
        assert!(artifact.minimized);
        assert_eq!(artifact.strategy_spec, "dpor");
        assert_eq!(artifact.seed, 9);
        assert_eq!(
            artifact.stats.as_ref().unwrap().schedules,
            outcome.stats.schedules
        );
        // The minimised deadlock schedule for AB-BA needs at most the two
        // lock prefixes plus the noise stores.
        assert!(artifact.schedule.len() <= 4, "{:?}", artifact.schedule);

        let report = replay_embedded(&artifact, &MetricsHandle::disabled()).unwrap();
        assert_eq!(report.verdict, ReplayVerdict::Reproduced);
    }

    #[test]
    fn streams_artifacts_before_finalize() {
        let p = noisy_abba();
        let store = temp_store("stream");
        let recorder = Arc::new(TraceRecorder::new(store, &p, "dfs", 1));
        let _ = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(10_000).stopping_on_bug())
            .observe_arc(recorder.clone())
            .run_spec("dfs")
            .unwrap();
        // No finalize: the streamed artifact is already on disk and
        // replayable (it just lacks stats and minimisation).
        let entries = recorder.store().list().unwrap();
        assert_eq!(entries.len(), 1);
        let artifact = entries[0].artifact.as_ref().unwrap();
        assert!(!artifact.minimized);
        assert!(artifact.stats.is_none());
        assert!(replay_embedded(artifact, &MetricsHandle::disabled())
            .unwrap()
            .reproduced());
    }

    #[test]
    fn unminimised_mode_keeps_raw_schedules() {
        let p = noisy_abba();
        let recorder =
            Arc::new(TraceRecorder::new(temp_store("raw"), &p, "dpor", 1).minimizing(false));
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(10_000))
            .observe_arc(recorder.clone())
            .run_spec("dpor")
            .unwrap();
        let (saved, _) = recorder.finalize(&outcome.stats);
        let artifact = TraceArtifact::parse(
            &std::fs::read_to_string(saved[0].path.as_ref().unwrap()).unwrap(),
        )
        .unwrap();
        assert!(!artifact.minimized);
        assert_eq!(
            artifact.schedule, outcome.bugs[0].schedule,
            "raw schedule preserved"
        );
    }
}
