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
/// statistics — including frame-slot reuse counts, which [`pool_free`]
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
    /// Empty for sound `dpor`, which counts its classes in
    /// [`ExploreStats::unique_hbrs`] instead; a list in a sound-`dpor`
    /// checkpoint written by an older version is ignored on resume.
    pub hbrs: Vec<u128>,
    /// Distinct terminal lazy-HBR fingerprints seen so far, ascending.
    pub lazy_hbrs: Vec<u128>,
    /// Spare frame-body slots the engine held at capture time: slots of
    /// depths reached earlier, deeper than the live frames. A resume
    /// allocates this many spares so slot reuses —
    /// [`ExploreStats::frames_pooled`] — stay byte-identical to the
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

    /// Refuses a [`pool_free`](Self::pool_free) no run of a
    /// `threads`-thread program capped at `max_run_length` events could
    /// have recorded. A frame is pushed only while the trace is shorter
    /// than the cap, and a step without an event ends its thread, so
    /// frames plus spare slots never exceed `max_run_length + threads +
    /// 1`. A resume allocates the spares up front, so it checks this
    /// first.
    pub fn check_pool(&self, threads: usize, max_run_length: usize) -> Result<(), String> {
        let bound = (max_run_length as u64).saturating_add(threads as u64 + 1);
        let bodies = (self.frames.len() as u64).saturating_add(self.pool_free);
        if bodies > bound {
            return Err(format!(
                "checkpoint pool_free {} plus {} frames exceeds the {bound} frame bodies \
                 a {threads}-thread run capped at {max_run_length} events can hold",
                self.pool_free,
                self.frames.len()
            ));
        }
        Ok(())
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
    fn check_pool_refuses_more_bodies_than_a_run_can_hold() {
        let mut cp = CheckpointState {
            schedule: vec![ThreadId(0), ThreadId(1)],
            frames: vec![FrameSets::default(); 3],
            pool_free: 10,
            ..CheckpointState::default()
        };
        // 3 frames + 10 spares = 13 = 10 events + 2 threads + 1.
        assert!(cp.check_pool(2, 10).is_ok());
        cp.pool_free = 11;
        let err = cp.check_pool(2, 10).unwrap_err();
        assert!(err.contains("pool_free 11"), "{err}");
        cp.pool_free = u64::MAX;
        assert!(cp.check_pool(2, 10).is_err());
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
