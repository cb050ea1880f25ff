//! Exploration configuration.

use crate::checkpoint::CheckpointState;
use crate::session::ExploreControl;
use lazylocks_obs::{MetricsHandle, ProfileHandle};
use std::sync::Arc;

/// An optional [`ExploreConfig`] setting that only some strategies act on,
/// as each one's [`Explorer::honours`](crate::Explorer::honours) says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSetting {
    /// [`ExploreConfig::preemption_bound`] restricts the schedules explored.
    PreemptionBound,
    /// [`ExploreConfig::checkpoint_every`] fires checkpoints and
    /// [`ExploreConfig::resume_from`] resumes from one.
    Checkpoints,
}

/// Budget and feature knobs shared by every exploration strategy.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Stop after this many *complete* schedules (terminal executions).
    /// The paper's evaluation uses 100,000.
    pub schedule_limit: usize,
    /// Abandon any single run longer than this many events. Guards against
    /// unbounded spin loops in guest programs.
    pub max_run_length: usize,
    /// CHESS-style preemption bound: maximum number of *preemptive* context
    /// switches per schedule (switching away from a thread that is still
    /// enabled). `None` means unbounded. Honoured by the DFS, caching and
    /// random strategies; ignored by DPOR (the classic algorithm's
    /// correctness argument assumes an unrestricted successor relation).
    pub preemption_bound: Option<u32>,
    /// Stop the whole exploration at the first bug (deadlock or fault).
    pub stop_on_bug: bool,
    /// Seed for randomized strategies.
    pub seed: u64,
    /// Record distinct terminal states (needed for the `#states` column).
    pub collect_states: bool,
    /// Record distinct terminal regular HBRs.
    pub collect_hbrs: bool,
    /// Record distinct terminal lazy HBRs.
    pub collect_lazy_hbrs: bool,
    /// Also record one witness schedule per distinct terminal state in
    /// [`ExploreStats::state_witnesses`](crate::ExploreStats) — handy for
    /// debugging missed interleavings, off by default (it allocates).
    pub collect_state_witnesses: bool,
    /// Run control: cancellation token, wall-clock deadline and observer
    /// fan-out. Inert by default; [`ExploreSession`](crate::ExploreSession)
    /// installs a live control for the duration of a run. Checked
    /// cooperatively by every strategy's main loop.
    pub control: ExploreControl,
    /// Metrics sink: counters, histograms and the phase laps of one step in
    /// 64 ([`MetricsHandle::phase_clock`]), recorded by every strategy.
    /// Disabled by default — each instrumentation point costs a branch.
    pub metrics: MetricsHandle,
    /// Exploration profiler: per-program-point attribution of races,
    /// backtracks, sleep-set blocks and cache prunes, plus per-HBR-class
    /// redundancy and subtree span accounting. Disabled by default —
    /// each instrumentation point then costs a single branch.
    pub profile: ProfileHandle,
    /// Snapshot the exploration frontier every this many complete
    /// schedules, delivered to observers through
    /// [`Observer::on_checkpoint`](crate::Observer::on_checkpoint).
    /// `0` (the default) disables checkpointing entirely — the hot loop
    /// then pays a single branch. Honoured by the sequential DPOR engine.
    pub checkpoint_every: usize,
    /// Resume an interrupted exploration from a previously captured
    /// frontier instead of starting at the root. The caller is
    /// responsible for pairing the checkpoint with the same program,
    /// strategy and seed it was taken from.
    pub resume_from: Option<Arc<CheckpointState>>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            schedule_limit: 100_000,
            max_run_length: 10_000,
            preemption_bound: None,
            stop_on_bug: false,
            seed: 0x1a2b_3c4d,
            collect_states: true,
            collect_hbrs: true,
            collect_lazy_hbrs: true,
            collect_state_witnesses: false,
            control: ExploreControl::default(),
            metrics: MetricsHandle::disabled(),
            profile: ProfileHandle::disabled(),
            checkpoint_every: 0,
            resume_from: None,
        }
    }
}

impl ExploreConfig {
    /// Convenience: default configuration with a schedule limit.
    pub fn with_limit(schedule_limit: usize) -> Self {
        ExploreConfig {
            schedule_limit,
            ..ExploreConfig::default()
        }
    }

    /// Sets the preemption bound, returning `self` for chaining.
    pub fn preemptions(mut self, bound: u32) -> Self {
        self.preemption_bound = Some(bound);
        self
    }

    /// Sets stop-on-bug, returning `self` for chaining.
    pub fn stopping_on_bug(mut self) -> Self {
        self.stop_on_bug = true;
        self
    }

    /// Sets the random seed, returning `self` for chaining.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a run control, returning `self` for chaining. Most users
    /// should go through [`ExploreSession`](crate::ExploreSession) instead.
    pub fn controlled(mut self, control: ExploreControl) -> Self {
        self.control = control;
        self
    }

    /// Installs a metrics sink, returning `self` for chaining.
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Installs an exploration profiler, returning `self` for chaining.
    pub fn with_profile(mut self, profile: ProfileHandle) -> Self {
        self.profile = profile;
        self
    }

    /// Enables periodic frontier checkpointing every `every` schedules
    /// (`0` disables), returning `self` for chaining.
    pub fn checkpointing_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Resumes from a captured frontier, returning `self` for chaining.
    pub fn resuming_from(mut self, checkpoint: Arc<CheckpointState>) -> Self {
        self.resume_from = Some(checkpoint);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_budget() {
        let c = ExploreConfig::default();
        assert_eq!(c.schedule_limit, 100_000);
        assert!(c.preemption_bound.is_none());
        assert!(!c.stop_on_bug);
        assert!(c.collect_states && c.collect_hbrs && c.collect_lazy_hbrs);
    }

    #[test]
    fn builders_chain() {
        let c = ExploreConfig::with_limit(500)
            .preemptions(2)
            .stopping_on_bug()
            .seeded(42);
        assert_eq!(c.schedule_limit, 500);
        assert_eq!(c.preemption_bound, Some(2));
        assert!(c.stop_on_bug);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn checkpointing_is_inert_by_default() {
        let c = ExploreConfig::default();
        assert_eq!(c.checkpoint_every, 0);
        assert!(c.resume_from.is_none());
        let c = c.checkpointing_every(1000);
        assert_eq!(c.checkpoint_every, 1000);
    }
}
