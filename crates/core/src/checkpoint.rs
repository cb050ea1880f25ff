//! Serialisable DPOR exploration frontiers.
//!
//! A [`CheckpointState`] captures everything the sequential DPOR engine
//! needs to continue an interrupted exploration: the schedule prefix that
//! reaches the current frame stack, the backtrack/done/sleep sets of every
//! frame on that stack, the statistics accumulated so far, and the
//! explored-set fingerprints that deduplicate terminal states and
//! happens-before relations. Executors and vector clocks are *not*
//! serialised — they are deterministic functions of the program and the
//! schedule prefix, so resume re-executes the prefix to rebuild them and
//! then overlays the recorded sets. This keeps the format small and
//! portable across pointer widths.
//!
//! Durability and on-disk encoding live in `lazylocks_trace::checkpoint`;
//! this module is plain data so the core crate stays I/O-free.

use crate::stats::ExploreStats;
use lazylocks_model::ThreadId;

/// The per-frame exploration sets, as raw [`ThreadSet`] bitmasks.
///
/// [`ThreadSet`]: lazylocks_model::ThreadSet
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameSets {
    /// Threads scheduled for exploration from this frame.
    pub backtrack: u64,
    /// Threads already explored from this frame.
    pub done: u64,
    /// Threads asleep at this frame (sleep-set pruning).
    pub sleep: u64,
}

/// A resumable snapshot of a sequential DPOR exploration.
///
/// Produced by the engine when [`ExploreConfig::checkpoint_every`] is set
/// (delivered through [`Observer::on_checkpoint`]) and consumed through
/// [`ExploreConfig::resume_from`]. A resumed run reaches the same final
/// statistics — including frame-pool hit counts, which [`pool_free`]
/// makes resumable — as the uninterrupted run; only wall-clock time
/// differs (it restarts on resume).
///
/// [`pool_free`]: CheckpointState::pool_free
///
/// [`ExploreConfig::checkpoint_every`]: crate::ExploreConfig::checkpoint_every
/// [`ExploreConfig::resume_from`]: crate::ExploreConfig::resume_from
/// [`Observer::on_checkpoint`]: crate::Observer::on_checkpoint
#[derive(Debug, Clone, Default)]
pub struct CheckpointState {
    /// The scheduling choices leading from the root to the deepest frame:
    /// `schedule[i]` is the thread stepped from frame `i`, so the frame
    /// stack has `schedule.len() + 1` entries.
    pub schedule: Vec<ThreadId>,
    /// Backtrack/done/sleep sets per frame, root first
    /// (`frames.len() == schedule.len() + 1`).
    pub frames: Vec<FrameSets>,
    /// Statistics accumulated before the checkpoint (wall time excluded —
    /// it restarts on resume).
    pub stats: ExploreStats,
    /// Distinct terminal-state fingerprints seen so far, ascending.
    pub states: Vec<u128>,
    /// Distinct terminal regular-HBR fingerprints seen so far, ascending.
    pub hbrs: Vec<u128>,
    /// Distinct terminal lazy-HBR fingerprints seen so far, ascending.
    pub lazy_hbrs: Vec<u128>,
    /// Retired frame bodies sitting in the engine's free list at capture
    /// time. A resume pre-warms its (cold) pool to this length so pool
    /// *hits* — an [`ExploreStats`] field — stay byte-identical to the
    /// uninterrupted run's.
    pub pool_free: u64,
}

impl CheckpointState {
    /// Internal consistency check: frame count matches the schedule
    /// prefix and no recorded thread exceeds the bitmask capacity.
    pub fn validate(&self) -> Result<(), String> {
        if self.frames.len() != self.schedule.len() + 1 {
            return Err(format!(
                "checkpoint has {} frames for a {}-choice schedule (want {})",
                self.frames.len(),
                self.schedule.len(),
                self.schedule.len() + 1
            ));
        }
        if let Some(t) = self
            .schedule
            .iter()
            .find(|t| t.index() >= lazylocks_model::ThreadSet::MAX_THREADS)
        {
            return Err(format!("checkpoint schedule names out-of-range thread {t}"));
        }
        Ok(())
    }

    /// Frames on the serialised stack.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_requires_one_more_frame_than_choices() {
        let mut cp = CheckpointState {
            schedule: vec![ThreadId(0), ThreadId(1)],
            frames: vec![FrameSets::default(); 3],
            ..CheckpointState::default()
        };
        assert!(cp.validate().is_ok());
        cp.frames.pop();
        let err = cp.validate().unwrap_err();
        assert!(err.contains("frames"), "{err}");
    }

    #[test]
    fn validate_rejects_out_of_range_threads() {
        let cp = CheckpointState {
            schedule: vec![ThreadId(64)],
            frames: vec![FrameSets::default(); 2],
            ..CheckpointState::default()
        };
        assert!(cp.validate().is_err());
    }
}
