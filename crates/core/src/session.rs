//! The session-based exploration entry point.
//!
//! [`ExploreSession`] owns a program plus an [`ExploreConfig`] and runs any
//! [`Explorer`](crate::Explorer) — usually one built from a spec string
//! by [`registry::create`](crate::registry::create) — under
//! observation: pluggable [`Observer`] hooks receive progress ticks and bug
//! reports, a wall-clock deadline or a shared [`CancelToken`] stops the
//! exploration cooperatively, and the result comes back as a structured
//! [`ExploreOutcome`] instead of a bare counter block.
//!
//! A session is the one place a run's control lives. `lazylocks run` and
//! the daemon's jobs both declare their run as a `RunArgs` request (in
//! `lazylocks-trace`), whose `DriveRequest` holds a session rather than
//! copies of its config, deadline, token, observers and progress cadence.
//!
//! ```
//! use lazylocks::{ExploreConfig, ExploreSession, Verdict};
//! use lazylocks_model::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new("two-writers");
//! let x = b.var("x", 0);
//! b.thread("T1", |t| t.store(x, 1));
//! b.thread("T2", |t| t.store(x, 2));
//! let program = b.build();
//!
//! let outcome = ExploreSession::new(&program)
//!     .with_config(ExploreConfig::with_limit(1_000))
//!     .run_spec("dpor")
//!     .unwrap();
//! assert_eq!(outcome.verdict, Verdict::Clean);
//! assert_eq!(outcome.strategy_id, "dpor");
//! assert_eq!(outcome.stats.unique_states, 2);
//! ```

use crate::bug::BugReport;
use crate::checkpoint::CheckpointState;
use crate::config::ExploreConfig;
use crate::explore::Explorer;
use crate::registry::{self, SpecError};
use crate::stats::ExploreStats;
use lazylocks_model::Program;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cheap, clonable cooperative-cancellation handle.
///
/// Clones share one flag: cancelling any clone cancels them all. Every
/// explorer's main loop polls the flag (through its
/// [`Collector`](crate::ExploreStats)) and winds down at the next
/// scheduling point, recording the truncation in
/// [`ExploreStats::cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A progress snapshot handed to [`Observer::on_progress`].
#[derive(Debug, Clone)]
pub struct Progress {
    /// Complete schedules recorded so far across the whole exploration
    /// (every pass, for multi-pass strategies such as `bounded`).
    pub schedules: usize,
    /// Events executed by the current pass so far.
    pub events: u64,
    /// Distinct terminal states seen by the current pass so far.
    pub unique_states: usize,
    /// Bugs (deadlocks + faults) seen by the current pass so far.
    pub bugs: usize,
}

/// Hooks into a running exploration.
///
/// All methods have no-op defaults; implement what you need. Observers
/// travel inside the [`ExploreConfig`] to whichever thread runs the
/// exploration (a server job runs on its own thread), hence the
/// `Send + Sync` bound.
pub trait Observer: Send + Sync {
    /// Called every `progress_every` complete schedules (see
    /// [`ExploreSession::progress_every`]).
    fn on_progress(&self, progress: &Progress) {
        let _ = progress;
    }

    /// Called once for every buggy terminal execution (deadlock or fault),
    /// with a replayable report.
    fn on_bug(&self, bug: &BugReport) {
        let _ = bug;
    }

    /// Called with a resumable frontier snapshot every
    /// [`ExploreConfig::checkpoint_every`] schedules (sequential DPOR
    /// only). Persist it to survive a crash — see
    /// `lazylocks_trace::CheckpointWriter`.
    ///
    /// [`ExploreConfig::checkpoint_every`]: crate::ExploreConfig::checkpoint_every
    fn on_checkpoint(&self, checkpoint: &CheckpointState) {
        let _ = checkpoint;
    }
}

/// Shared run control carried inside [`ExploreConfig`]: cancellation
/// token, wall-clock deadline and observer fan-out.
///
/// The default value is inert (no token, no deadline, no observers) and
/// costs one `Option` check per terminal. [`ExploreSession`] installs a
/// live control for the duration of a run; explorers only ever consume it
/// through their `Collector`.
#[derive(Clone, Default)]
pub struct ExploreControl(Option<Arc<ControlInner>>);

struct ControlInner {
    cancel: CancelToken,
    deadline: Option<Instant>,
    observers: Vec<Arc<dyn Observer>>,
    /// Fire `on_progress` every this many schedules (0 = never).
    progress_every: usize,
    /// Schedule counter for the whole exploration, shared by every pass
    /// of a multi-pass strategy.
    schedules: AtomicUsize,
}

impl fmt::Debug for ExploreControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => f.write_str("ExploreControl(inert)"),
            Some(inner) => f
                .debug_struct("ExploreControl")
                .field("deadline", &inner.deadline)
                .field("observers", &inner.observers.len())
                .field("progress_every", &inner.progress_every)
                .finish(),
        }
    }
}

impl ExploreControl {
    /// A live control. Most users should go through [`ExploreSession`];
    /// this constructor exists for embedding the control machinery in
    /// custom harnesses.
    pub fn new(
        cancel: CancelToken,
        deadline: Option<Instant>,
        observers: Vec<Arc<dyn Observer>>,
        progress_every: usize,
    ) -> Self {
        ExploreControl(Some(Arc::new(ControlInner {
            cancel,
            deadline,
            observers,
            progress_every,
            schedules: AtomicUsize::new(0),
        })))
    }

    /// `true` once the token is cancelled or the deadline has passed.
    pub fn cancel_requested(&self) -> bool {
        let Some(inner) = &self.0 else {
            return false;
        };
        inner.cancel.is_cancelled() || inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Bumps the shared schedule counter and fires a progress tick when
    /// due. Called by the `Collector` for every complete schedule.
    pub(crate) fn note_schedule(&self, stats: &ExploreStats) {
        let Some(inner) = &self.0 else {
            return;
        };
        let n = inner.schedules.fetch_add(1, Ordering::Relaxed) + 1;
        if inner.progress_every > 0 && n % inner.progress_every == 0 {
            let progress = Progress {
                schedules: n,
                events: stats.events,
                unique_states: stats.unique_states,
                bugs: stats.deadlocks + stats.faulted_schedules,
            };
            for o in &inner.observers {
                o.on_progress(&progress);
            }
        }
    }

    /// Fans a bug report out to every observer.
    pub(crate) fn note_bug(&self, bug: &BugReport) {
        let Some(inner) = &self.0 else {
            return;
        };
        for o in &inner.observers {
            o.on_bug(bug);
        }
    }

    /// Fans a frontier snapshot out to every observer.
    pub(crate) fn note_checkpoint(&self, checkpoint: &CheckpointState) {
        let Some(inner) = &self.0 else {
            return;
        };
        for o in &inner.observers {
            o.on_checkpoint(checkpoint);
        }
    }
}

/// How an exploration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Ran to natural completion without finding a bug.
    Clean,
    /// At least one bug (deadlock or assertion/fault) was found.
    BugFound,
    /// The schedule budget ran out before the tree was covered.
    LimitHit,
    /// Stopped early by the cancellation token or the deadline.
    Cancelled,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Clean => "clean",
            Verdict::BugFound => "bug-found",
            Verdict::LimitHit => "limit-hit",
            Verdict::Cancelled => "cancelled",
        })
    }
}

/// The structured result of a session run.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The full counter block the strategy produced.
    pub stats: ExploreStats,
    /// Every distinct bug observed (deduplicated by kind, at most 64),
    /// each with a replayable schedule. When `stats.first_bug` is set it
    /// equals `bugs.first()`.
    pub bugs: Vec<BugReport>,
    /// How the exploration ended.
    pub verdict: Verdict,
    /// The stable name of the strategy that ran (its `Explorer::name`).
    pub strategy_id: String,
}

impl ExploreOutcome {
    /// `true` if any bug was found.
    pub fn found_bug(&self) -> bool {
        self.verdict == Verdict::BugFound
    }
}

/// The most distinct bugs one [`ExploreOutcome`] keeps.
const MAX_RECORDED_BUGS: usize = 64;

/// Internal observer that accumulates bug reports for the outcome.
struct BugSink {
    bugs: Mutex<Vec<BugReport>>,
}

impl Observer for BugSink {
    fn on_bug(&self, bug: &BugReport) {
        let mut bugs = self.bugs.lock().unwrap();
        if bugs.len() < MAX_RECORDED_BUGS && !bugs.iter().any(|b| b.kind == bug.kind) {
            bugs.push(bug.clone());
        }
    }
}

/// Builder-style owner of one exploration: program + config + observation.
///
/// A session is reusable: each [`ExploreSession::run`] call starts a fresh
/// exploration with a fresh deadline (the cancellation token, however, is
/// shared — once cancelled, every subsequent run stops immediately, which
/// is what a user hitting Ctrl-C expects).
pub struct ExploreSession<'p> {
    program: &'p Program,
    config: ExploreConfig,
    observers: Vec<Arc<dyn Observer>>,
    progress_every: usize,
    deadline: Option<Duration>,
    cancel: CancelToken,
}

impl<'p> ExploreSession<'p> {
    /// A session over `program` with the default [`ExploreConfig`].
    pub fn new(program: &'p Program) -> Self {
        ExploreSession {
            program,
            config: ExploreConfig::default(),
            observers: Vec::new(),
            progress_every: 1_000,
            deadline: None,
            cancel: CancelToken::new(),
        }
    }

    /// The program this session explores.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The config each run starts from.
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// Replaces the exploration config (budget, bounds, seed, …).
    pub fn with_config(mut self, config: ExploreConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an observer. May be called repeatedly; observers are
    /// notified in attachment order.
    pub fn observe(self, observer: impl Observer + 'static) -> Self {
        self.observe_arc(Arc::new(observer))
    }

    /// Attaches an already-shared observer.
    pub fn observe_arc(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Fires [`Observer::on_progress`] every `n` complete schedules
    /// (default 1000; 0 disables ticks).
    pub fn progress_every(mut self, n: usize) -> Self {
        self.progress_every = n;
        self
    }

    /// Stops the exploration once this much wall-clock time has elapsed,
    /// measured from the [`ExploreSession::run`] call.
    pub fn deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(after);
        self
    }

    /// A handle for cancelling this session from another thread (or a
    /// signal handler). Cancel it and every running strategy winds down at
    /// its next scheduling point.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces the session's cancellation token with an externally owned
    /// one, so a caller holding `token` can cancel a run it did not build
    /// — a job runner cancelling from another thread, say — without
    /// threading an observer through.
    pub fn cancel_with(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Runs `explorer` under this session's config and observation.
    pub fn run(&self, explorer: &dyn Explorer) -> ExploreOutcome {
        let sink = Arc::new(BugSink {
            bugs: Mutex::new(Vec::new()),
        });
        let mut observers = self.observers.clone();
        observers.push(sink.clone());

        let mut config = self.config.clone();
        config.control = ExploreControl::new(
            self.cancel.clone(),
            self.deadline.map(|d| Instant::now() + d),
            observers,
            self.progress_every,
        );

        let stats = explorer.explore(self.program, &config);
        let bugs = std::mem::take(&mut *sink.bugs.lock().unwrap());
        // The bug sink hears every buggy terminal, even ones a composite
        // strategy (e.g. iterative bounding) drops from its merged stats —
        // any collected bug makes the verdict BugFound.
        let verdict = if stats.found_bug() || !bugs.is_empty() {
            Verdict::BugFound
        } else if stats.cancelled {
            Verdict::Cancelled
        } else if stats.limit_hit {
            Verdict::LimitHit
        } else {
            Verdict::Clean
        };
        ExploreOutcome {
            stats,
            bugs,
            verdict,
            strategy_id: explorer.name(),
        }
    }

    /// Builds the strategy named by `spec` and runs it.
    pub fn run_spec(&self, spec: &str) -> Result<ExploreOutcome, SpecError> {
        Ok(self.run(registry::create(spec)?.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{DfsEnumeration, Dpor};
    use lazylocks_model::{ProgramBuilder, Reg};

    /// A program with a schedule space far too big to exhaust quickly.
    fn wide_program(threads: usize) -> Program {
        let mut b = ProgramBuilder::new("wide");
        let x = b.var("x", 0);
        for i in 0..threads {
            b.thread(format!("T{i}"), |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0);
            });
        }
        b.build()
    }

    fn buggy_program() -> Program {
        let mut b = ProgramBuilder::new("buggy");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| {
            t.load(Reg(0), x);
            t.assert_true(Reg(0), "x must be set");
        });
        b.build()
    }

    #[test]
    fn clean_run_reports_clean_verdict() {
        let p = wide_program(2);
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(100_000))
            .run(&DfsEnumeration);
        assert_eq!(outcome.verdict, Verdict::Clean);
        assert!(outcome.bugs.is_empty());
        assert_eq!(outcome.strategy_id, "dfs");
        assert!(!outcome.stats.cancelled);
    }

    #[test]
    fn limit_hit_verdict() {
        let p = wide_program(5);
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(10))
            .run(&DfsEnumeration);
        assert_eq!(outcome.verdict, Verdict::LimitHit);
        assert_eq!(outcome.stats.schedules, 10);
    }

    #[test]
    fn bug_sink_collects_reports() {
        let p = buggy_program();
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(1_000))
            .run(&DfsEnumeration);
        assert_eq!(outcome.verdict, Verdict::BugFound);
        assert!(outcome.found_bug());
        assert!(!outcome.bugs.is_empty());
        assert_eq!(
            outcome.stats.first_bug.as_ref().unwrap().kind,
            outcome.bugs[0].kind
        );
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let p = wide_program(5);
        let session = ExploreSession::new(&p).with_config(ExploreConfig::with_limit(1_000_000));
        session.cancel_token().cancel();
        let outcome = session.run(&DfsEnumeration);
        assert_eq!(outcome.verdict, Verdict::Cancelled);
        assert!(outcome.stats.cancelled);
        assert!(
            outcome.stats.schedules <= 1,
            "a pre-cancelled session must stop at the first check, saw {}",
            outcome.stats.schedules
        );
    }

    #[test]
    fn zero_deadline_cancels_dfs_before_the_limit() {
        let p = wide_program(6);
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(usize::MAX))
            .deadline(Duration::ZERO)
            .run(&DfsEnumeration);
        assert_eq!(outcome.verdict, Verdict::Cancelled);
        assert!(outcome.stats.cancelled);
    }

    #[test]
    fn observer_vote_stops_dpor() {
        /// Cancels the session's token on its third progress tick.
        struct StopAfter(AtomicUsize, CancelToken);
        impl Observer for StopAfter {
            fn on_progress(&self, _: &Progress) {
                if self.0.fetch_add(1, Ordering::Relaxed) + 1 >= 3 {
                    self.1.cancel();
                }
            }
        }
        let p = wide_program(6);
        let token = CancelToken::new();
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(usize::MAX))
            .progress_every(10)
            .cancel_with(token.clone())
            .observe(StopAfter(AtomicUsize::new(0), token))
            .run(&Dpor::default());
        assert_eq!(outcome.verdict, Verdict::Cancelled);
        assert!(
            outcome.stats.schedules < 100,
            "an observer cancelling the token must stop DPOR early, saw {} schedules",
            outcome.stats.schedules
        );
    }

    #[test]
    fn progress_ticks_fire_at_the_requested_cadence() {
        struct Ticks(Mutex<Vec<usize>>);
        impl Observer for Ticks {
            fn on_progress(&self, p: &Progress) {
                self.0.lock().unwrap().push(p.schedules);
            }
        }
        let ticks = Arc::new(Ticks(Mutex::new(Vec::new())));
        let p = wide_program(3);
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(80))
            .progress_every(20)
            .observe_arc(ticks.clone())
            .run(&DfsEnumeration);
        assert_eq!(outcome.stats.schedules, 80);
        assert_eq!(*ticks.0.lock().unwrap(), vec![20, 40, 60, 80]);
    }
}
