//! Exploration statistics and the shared terminal-state collector.
//!
//! The [`Collector`] is the one store of an exploration's counts. Every
//! count is written once, by the collector, at the moment it happens: it
//! lands in [`ExploreStats`] and, when metrics are on, in the metrics
//! registry in the same call. Strategies report what they did through
//! [`Collector::record_terminal`], [`Collector::record_truncated`] and
//! [`Collector::count`]; none of them writes a counter field itself.
//!
//! Every explorer folds the leaf fingerprints of each relation the
//! collector [reads](Collector::reads) while it steps, and its frame body
//! (`FrameBody::record_leaf`, the one caller of the two leaf records)
//! hands them to [`Collector::record_terminal`] as [`LeafFingerprints`].
//! A release build never replays a trace at a leaf; a debug build replays
//! each handed digest once, to check it. An explorer that knows which
//! leaves start a new class ([`Collector::derive_classes`]) says so per
//! leaf, and the collector counts those classes instead of storing them.

use crate::bug::{BugKind, BugReport};
use crate::checkpoint::CheckpointState;
use crate::config::ExploreConfig;
#[cfg(debug_assertions)]
use lazylocks_hbr::ClockEngine;
use lazylocks_hbr::HbMode;
use lazylocks_model::{Program, ThreadId};
use lazylocks_obs::{ids, pack_prefix, FingerprintTable, MetricsHandle, ProfileDims};
use lazylocks_runtime::{Event, ExecPhase, Executor};
use std::time::{Duration, Instant};

/// Counters reported by every exploration strategy, written only by the
/// `Collector`. Each counter has a `lazylocks_*_total` metric family
/// twin that the same call bumps, so a run's metrics equal its stats
/// (for [`IterativeBounding`](crate::IterativeBounding), the sum of its
/// waves' stats).
///
/// The four headline counters obey the paper's §3 inequality on every
/// benchmark (asserted by [`ExploreStats::check_inequality`] and by the
/// integration test suite):
///
/// ```text
/// #states ≤ #lazy HBRs ≤ #HBRs ≤ #schedules ≤ schedule_limit
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Complete schedules executed.
    pub schedules: usize,
    /// Total visible events executed (across all schedules).
    pub events: u64,
    /// Distinct terminal states (fingerprints).
    pub unique_states: usize,
    /// Distinct terminal regular happens-before relations. Sound
    /// [`Dpor`](crate::Dpor) and both [`HbrCaching`](crate::HbrCaching)
    /// modes know which leaves start a new class, so they count them
    /// instead of comparing fingerprints; `dfs`, `random` and
    /// [`LazyDpor`](crate::LazyDpor) count a fingerprint set.
    pub unique_hbrs: usize,
    /// Distinct terminal lazy happens-before relations. Lazy
    /// [`HbrCaching`](crate::HbrCaching) counts the leaves that start a
    /// new class; every other strategy counts a fingerprint set.
    pub unique_lazy_hbrs: usize,
    /// Terminal executions that deadlocked.
    pub deadlocks: usize,
    /// Terminal executions with at least one fault.
    pub faulted_schedules: usize,
    /// Longest schedule seen.
    pub max_depth: usize,
    /// `true` if the schedule limit stopped the exploration (the
    /// "underlined benchmark" marker of the paper's figures).
    pub limit_hit: bool,
    /// `true` if the exploration was stopped early by a cancellation
    /// token or wall-clock deadline (see
    /// [`ExploreSession`](crate::ExploreSession)) — the cooperative
    /// counterpart of `limit_hit`.
    pub cancelled: bool,
    /// Subtrees pruned by the prefix-HBR cache (caching strategies only).
    pub cache_prunes: usize,
    /// Subtrees pruned by sleep sets (DPOR only).
    pub sleep_prunes: usize,
    /// Choices skipped by the preemption bound.
    pub bound_prunes: usize,
    /// Runs abandoned for exceeding `max_run_length`.
    pub truncated_runs: usize,
    /// Earlier events examined as race-partner candidates by DPOR's race
    /// detection (other strategies leave it 0). With the indexed detector
    /// this counts only actual dependence candidates — per-variable
    /// accesses and per-mutex acquisitions — rather than the full trace
    /// per step, so it grows with conflict density, not depth².
    pub events_compared: u64,
    /// Frame bodies cloned into a slot an earlier descent allocated
    /// instead of being heap-cloned (DPOR-family strategies; other
    /// strategies leave it 0). In the steady state this tracks the step
    /// count: every push beyond the first full-depth descent reuses a
    /// slot.
    pub frames_pooled: u64,
    /// The first bug found, with a replayable schedule.
    pub first_bug: Option<BugReport>,
    /// One witness schedule per distinct terminal state, populated only
    /// when [`ExploreConfig::collect_state_witnesses`] is set.
    ///
    /// [`ExploreConfig::collect_state_witnesses`]: crate::ExploreConfig::collect_state_witnesses
    pub state_witnesses: Vec<(u128, Vec<ThreadId>)>,
    /// One witness schedule per distinct terminal regular HBR, populated
    /// only when `collect_state_witnesses` is set.
    pub hbr_witnesses: Vec<(u128, Vec<ThreadId>)>,
    /// Wall-clock time of the exploration, stamped when the collector
    /// hands its stats back (the whole wave series for
    /// [`IterativeBounding`](crate::IterativeBounding)).
    pub wall_time: Duration,
}

impl ExploreStats {
    /// Asserts the paper's counting inequality; returns an error message on
    /// violation. (When `truncated_runs > 0` the relation between runs and
    /// relations is no longer meaningful, so the check is skipped.)
    pub fn check_inequality(&self) -> Result<(), String> {
        if self.truncated_runs > 0 {
            return Ok(());
        }
        let chain = [
            ("#states", self.unique_states),
            ("#lazy HBRs", self.unique_lazy_hbrs),
            ("#HBRs", self.unique_hbrs),
            ("#schedules", self.schedules),
        ];
        for w in chain.windows(2) {
            let ((na, a), (nb, b)) = (w[0], w[1]);
            if a > b {
                return Err(format!("{na} = {a} exceeds {nb} = {b}"));
            }
        }
        Ok(())
    }

    /// `true` if any bug (deadlock or fault) was observed.
    pub fn found_bug(&self) -> bool {
        self.first_bug.is_some()
    }
}

/// Shared leaf-processing and counting for all strategies: counts
/// schedules and prunes, classifies terminal relations and states,
/// records bugs, and signals when the schedule budget is exhausted.
pub(crate) struct Collector {
    config: ExploreConfig,
    states: FingerprintTable,
    hbrs: FingerprintTable,
    lazy_hbrs: FingerprintTable,
    /// The relation whose classes the explorer derives (see
    /// [`Collector::derive_classes`]); the sets of the columns it derives
    /// are kept only by debug builds, as a check.
    derived: Option<HbMode>,
    /// The derived relation's digests of the leaves whose last step
    /// inserted no key (see [`LeafFingerprints::fresh`]).
    keyless: FingerprintTable,
    /// Debug builds' engines for `Collector::cross_check`.
    #[cfg(debug_assertions)]
    hbr_engine: Option<ClockEngine>,
    #[cfg(debug_assertions)]
    lazy_engine: Option<ClockEngine>,
    /// Read-only outside this module: every counter is written here.
    pub(crate) stats: ExploreStats,
    /// When the exploration started; [`Collector::into_stats`] stamps the
    /// wall time from it.
    started: Instant,
}

/// The terminal relation fingerprints an explorer folded for a leaf,
/// handed to [`Collector::record_terminal`]. It must hold every relation
/// the collector [reads](Collector::reads); the others may be `None`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LeafFingerprints {
    pub(crate) regular: Option<u128>,
    pub(crate) lazy: Option<u128>,
    /// The leaf starts a new class of the relation the collector derives:
    /// it is a leaf of sound DPOR (one schedule per regular class), or
    /// the step into it inserted a new prefix-cache key.
    pub(crate) fresh: bool,
}

/// The dense slab shape the profiler needs for `program` — per-thread
/// instruction counts plus variable and mutex counts.
pub(crate) fn profile_dims(program: &Program) -> ProfileDims {
    ProfileDims {
        thread_ins: program
            .threads()
            .iter()
            .map(|t| t.code.len() as u32)
            .collect(),
        vars: program.vars().len() as u32,
        mutexes: program.mutexes().len() as u32,
    }
}

/// A step-level count a strategy reports through [`Collector::count`],
/// named after the [`ExploreStats`] field it adds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    SleepPrunes,
    CachePrunes,
    BoundPrunes,
    EventsCompared,
    FramesPooled,
}

/// Whether exploration should continue after a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Continue {
    Yes,
    /// Budget exhausted or stop-on-bug triggered.
    Stop,
}

impl Collector {
    pub(crate) fn new(config: &ExploreConfig) -> Self {
        Collector {
            config: config.clone(),
            states: FingerprintTable::new(),
            hbrs: FingerprintTable::new(),
            lazy_hbrs: FingerprintTable::new(),
            derived: None,
            keyless: FingerprintTable::new(),
            #[cfg(debug_assertions)]
            hbr_engine: None,
            #[cfg(debug_assertions)]
            lazy_engine: None,
            stats: ExploreStats::default(),
            started: Instant::now(),
        }
    }

    /// A collector that counts into nothing (no metrics, no profile) but
    /// keeps this one's run-length cap. A checkpoint resume rebuilds its
    /// frontier through one, because the checkpoint's stats already
    /// include the rebuilt steps' work.
    pub(crate) fn scratch(&self) -> Self {
        Collector::new(&ExploreConfig {
            max_run_length: self.config.max_run_length,
            ..ExploreConfig::default()
        })
    }

    pub(crate) fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// The run's metrics handle (inert when metrics are off): counts are
    /// bumped on it in the same call as the matching stats field, and
    /// strategies time their phases on it.
    pub(crate) fn metrics(&self) -> &MetricsHandle {
        &self.config.metrics
    }

    /// `true` once the schedule budget is used up.
    pub(crate) fn budget_exhausted(&self) -> bool {
        self.stats.schedules >= self.config.schedule_limit
    }

    /// Cooperative cancellation poll, called by every strategy's main
    /// loop: `true` once the config's control (token or deadline) asks
    /// the exploration to stop. Records the truncation in
    /// [`ExploreStats::cancelled`].
    pub(crate) fn cancel_requested(&mut self) -> bool {
        if self.stats.cancelled {
            return true;
        }
        if self.config.control.cancel_requested() {
            self.stats.cancelled = true;
            return true;
        }
        false
    }

    /// Declares that the explorer marks each leaf that starts a new class
    /// of `mode`'s relation [fresh](LeafFingerprints::fresh), so the
    /// regular column, and the lazy one when `mode` is lazy (equal regular
    /// relations imply equal lazy ones), are counted instead of stored.
    /// A leaf that is not fresh has the digest of its nearest ancestor
    /// reached by an event, or of the empty trace: a key no fresh leaf
    /// can have, and one trace per digest, so a side set counts those.
    /// Checkpoints carry no regular list. Debug builds keep the sets and
    /// assert, per leaf, that each insert agrees.
    pub(crate) fn derive_classes(&mut self, mode: HbMode) {
        self.derived = Some(mode);
    }

    /// Whether `mode`'s class column is counted from the explorer's
    /// [`LeafFingerprints::fresh`] rather than a set.
    fn derives(&self, mode: HbMode) -> bool {
        self.derived
            .is_some_and(|derived| derived == mode || mode == HbMode::Regular)
    }

    /// Whether [`Collector::record_terminal`] reads the leaf fingerprint
    /// of `mode`'s relation (for a stats column, the profiler, witnesses
    /// or the debug class check). An explorer folds exactly these
    /// relations, besides its own, and hands their digests over.
    pub(crate) fn reads(&self, mode: HbMode) -> bool {
        let column = match mode {
            HbMode::Regular => self.config.collect_hbrs,
            HbMode::Lazy => self.config.collect_lazy_hbrs,
            HbMode::SyncOnly => return false,
        };
        // Witnesses are kept for regular classes only.
        let checked = cfg!(debug_assertions)
            || mode == HbMode::Regular && self.config.collect_state_witnesses;
        self.config.profile.is_enabled() || column && (!self.derives(mode) || checked)
    }

    /// Records one terminal execution. `known` holds the relation
    /// fingerprints the explorer folded while stepping, one for every
    /// relation the collector [reads](Collector::reads). Nothing is
    /// replayed; debug builds replay each handed digest to check it.
    ///
    /// # Panics
    /// Panics when `known` lacks a relation the collector reads.
    pub(crate) fn record_terminal(
        &mut self,
        exec: &Executor,
        trace: &[Event],
        schedule: &[ThreadId],
        known: LeafFingerprints,
    ) -> Continue {
        self.stats.schedules += 1;
        self.stats.events += trace.len() as u64;
        self.stats.max_depth = self.stats.max_depth.max(trace.len());
        self.config.metrics.inc(ids::SCHEDULES);
        self.config.metrics.add(ids::EVENTS, trace.len() as u64);
        self.config
            .metrics
            .observe(ids::SCHEDULE_DEPTH, trace.len() as u64);

        if self.config.collect_states {
            let fp = exec.state_fingerprint();
            if self.states.insert(fp) && self.config.collect_state_witnesses {
                self.stats.state_witnesses.push((fp, schedule.to_vec()));
            }
            self.stats.unique_states = self.states.len();
        }
        #[cfg(debug_assertions)]
        self.cross_check(exec.program(), trace, known);
        // The stats columns and the profiler's redundancy accounting read
        // the same handed fingerprints.
        const FOLDED: &str = "the explorer folds each relation the collector reads";
        let fp_regular = self
            .reads(HbMode::Regular)
            .then(|| known.regular.expect(FOLDED));
        let fp_lazy = self.reads(HbMode::Lazy).then(|| known.lazy.expect(FOLDED));
        // Whether the leaf starts a new class of the derived relation.
        let derived = self.derived.map(|mode| {
            let lazy = mode == HbMode::Lazy;
            let fp = if lazy { known.lazy } else { known.regular };
            known.fresh || self.keyless.insert(fp.expect(FOLDED))
        });
        if self.config.collect_hbrs {
            let count = &mut self.stats.unique_hbrs;
            let new_class = classify(&mut self.hbrs, count, fp_regular, derived);
            if let Some(fp) =
                fp_regular.filter(|_| new_class && self.config.collect_state_witnesses)
            {
                self.stats.hbr_witnesses.push((fp, schedule.to_vec()));
            }
        }
        if self.config.collect_lazy_hbrs {
            let derived = derived.filter(|_| self.derives(HbMode::Lazy));
            let count = &mut self.stats.unique_lazy_hbrs;
            classify(&mut self.lazy_hbrs, count, fp_lazy, derived);
        }
        if self.config.profile.is_enabled() {
            let key = pack_prefix(schedule.iter().map(|t| t.index() as u32));
            self.config
                .profile
                .record_leaf(trace.len() as u64, key, fp_regular, fp_lazy);
        }

        let mut bug: Option<BugKind> = None;
        if let ExecPhase::Deadlock { waiting } = exec.phase() {
            self.stats.deadlocks += 1;
            self.config.metrics.inc(ids::DEADLOCKS);
            bug = Some(BugKind::Deadlock { waiting });
        }
        if !exec.faults().is_empty() {
            self.stats.faulted_schedules += 1;
            self.config.metrics.inc(ids::FAULTS);
            if bug.is_none() {
                bug = Some(BugKind::Fault(exec.faults()[0].clone()));
            }
        }
        if let Some(kind) = bug {
            self.config.metrics.inc(ids::BUGS);
            let report = BugReport {
                kind,
                schedule: schedule.to_vec(),
                trace_len: trace.len(),
            };
            self.config.control.note_bug(&report);
            if self.stats.first_bug.is_none() {
                self.stats.first_bug = Some(report);
            }
            if self.config.stop_on_bug {
                return Continue::Stop;
            }
        }

        self.config.control.note_schedule(&self.stats);
        if self.cancel_requested() {
            return Continue::Stop;
        }
        if self.budget_exhausted() {
            self.stats.limit_hit = true;
            return Continue::Stop;
        }
        Continue::Yes
    }

    /// Checks each fingerprint in `known` against a replay of `trace`
    /// through the collector's engine for that relation, allocated on
    /// first use and reset per trace. Debug builds only: a release build
    /// never replays a leaf.
    #[cfg(debug_assertions)]
    fn cross_check(&mut self, program: &Program, trace: &[Event], known: LeafFingerprints) {
        let pairs = [
            (known.regular, &mut self.hbr_engine, HbMode::Regular),
            (known.lazy, &mut self.lazy_engine, HbMode::Lazy),
        ];
        for (fp, engine, mode) in pairs {
            if let Some(fp) = fp {
                let engine = engine.get_or_insert_with(|| ClockEngine::for_program(mode, program));
                assert_eq!(
                    fp,
                    engine.trace_fingerprint(trace),
                    "the explorer's {mode:?} leaf fingerprint disagrees with a replay"
                );
            }
        }
    }

    /// Adds `n` to `counter`'s stats field and its metric family.
    #[inline]
    pub(crate) fn count(&mut self, counter: Counter, n: u64) {
        let id = match counter {
            Counter::SleepPrunes => {
                self.stats.sleep_prunes += n as usize;
                ids::SLEEP_PRUNES
            }
            Counter::CachePrunes => {
                self.stats.cache_prunes += n as usize;
                ids::CACHE_PRUNES
            }
            Counter::BoundPrunes => {
                self.stats.bound_prunes += n as usize;
                ids::BOUND_PRUNES
            }
            Counter::EventsCompared => {
                self.stats.events_compared += n;
                ids::EVENTS_COMPARED
            }
            Counter::FramesPooled => {
                self.stats.frames_pooled += n;
                ids::FRAMES_POOLED
            }
        };
        self.config.metrics.add(id, n);
    }

    /// Records a run abandoned for exceeding the run-length cap.
    pub(crate) fn record_truncated(&mut self) {
        self.stats.truncated_runs += 1;
        self.config.metrics.inc(ids::TRUNCATED_RUNS);
    }

    /// Copies the accumulated statistics and fingerprint sets into `cp`
    /// (fingerprints sorted, so the serialised checkpoint is
    /// deterministic). Wall time is not stamped until
    /// [`Collector::into_stats`], so the copy carries none.
    pub(crate) fn export_checkpoint(&self, cp: &mut CheckpointState) {
        fn sorted(set: &FingerprintTable) -> Vec<u128> {
            let mut v: Vec<u128> = set.keys().collect();
            v.sort_unstable();
            v
        }
        cp.stats = self.stats.clone();
        cp.states = sorted(&self.states);
        // A derived run's set exists only in debug builds, as a check.
        if !self.derives(HbMode::Regular) {
            cp.hbrs = sorted(&self.hbrs);
        }
        cp.lazy_hbrs = sorted(&self.lazy_hbrs);
    }

    /// Restores statistics and fingerprint sets from a checkpoint. The
    /// metrics registry is left alone, so it reports only work done by
    /// *this* process — the prefix's counts were already exported by the
    /// run that wrote the checkpoint.
    pub(crate) fn seed_from_checkpoint(&mut self, cp: &CheckpointState) {
        self.stats = cp.stats.clone();
        self.stats.wall_time = Duration::ZERO;
        self.states = cp.states.iter().copied().collect();
        // A derived run counts its classes; a regular list written by an
        // older version is not loaded, so the next checkpoint drops it.
        if !self.derives(HbMode::Regular) {
            self.hbrs = cp.hbrs.iter().copied().collect();
        }
        self.lazy_hbrs = cp.lazy_hbrs.iter().copied().collect();
    }

    /// Finalises the stats, stamping the wall time since the collector
    /// was created.
    pub(crate) fn into_stats(mut self) -> ExploreStats {
        self.stats.wall_time = self.started.elapsed();
        self.stats
    }
}

/// Counts one leaf into a class column and returns whether it starts a
/// new class: from `derived` when the column is derived (debug builds
/// check it against an insert of `fp` into `set`), else by inserting `fp`.
fn classify(
    set: &mut FingerprintTable,
    count: &mut usize,
    fp: Option<u128>,
    derived: Option<bool>,
) -> bool {
    let Some(new_class) = derived else {
        let new_class = set.insert(fp.expect("a stored column reads its fingerprint"));
        *count = set.len();
        return new_class;
    };
    if let Some(fp) = fp.filter(|_| cfg!(debug_assertions)) {
        assert_eq!(
            set.insert(fp),
            new_class,
            "a derived class count disagrees with its set at {fp:#x}"
        );
    }
    *count += usize::from(new_class);
    new_class
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inequality_check_passes_on_consistent_counts() {
        let stats = ExploreStats {
            schedules: 10,
            unique_states: 2,
            unique_lazy_hbrs: 3,
            unique_hbrs: 5,
            ..ExploreStats::default()
        };
        assert!(stats.check_inequality().is_ok());
    }

    #[test]
    fn inequality_check_catches_violations() {
        let stats = ExploreStats {
            schedules: 10,
            unique_states: 7,
            unique_lazy_hbrs: 3,
            unique_hbrs: 5,
            ..ExploreStats::default()
        };
        let err = stats.check_inequality().unwrap_err();
        assert!(err.contains("#states"));
    }

    #[test]
    fn inequality_check_skipped_when_truncated() {
        let stats = ExploreStats {
            schedules: 1,
            unique_states: 5,
            truncated_runs: 1,
            ..ExploreStats::default()
        };
        assert!(stats.check_inequality().is_ok());
    }
}
