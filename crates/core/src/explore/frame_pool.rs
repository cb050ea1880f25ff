//! Pooled frame checkpoints for snapshot-based exploration.
//!
//! Snapshot-cloning DPOR pays for its O(1) backtracking with two heap
//! clones per step: the child frame's [`Executor`] and [`ClockEngine`].
//! Both have a size that depends only on the program shape, so a frame
//! body retired on unwind is a perfect allocation for the next frame
//! pushed — the [`FramePool`] keeps a free list of retired bodies and
//! *clones into* them ([`Executor::assign_from`],
//! [`ClockEngine::assign_from`]) instead of cloning afresh. In the steady
//! state (pool warmed to the maximum stack depth) a DPOR step performs
//! **zero** frame-body allocations.

use lazylocks_hbr::ClockEngine;
use lazylocks_runtime::Executor;

/// The heap-backed parts of one exploration stack frame: the machine
/// snapshot and the happens-before clock state *before* the frame's
/// transition.
#[derive(Clone)]
pub(crate) struct FrameBody<'p> {
    /// The executor snapshot (pre-state of the frame).
    pub exec: Executor<'p>,
    /// The clock-engine snapshot (pre-state of the frame).
    pub clocks: ClockEngine,
}

/// A free list of retired [`FrameBody`]s.
///
/// The pool never shrinks and never caps: frames are pushed and popped in
/// stack discipline, so the live + pooled body count is bounded by the
/// maximum exploration depth reached, not by the number of schedules.
pub(crate) struct FramePool<'p> {
    free: Vec<FrameBody<'p>>,
}

impl<'p> FramePool<'p> {
    /// An empty pool.
    pub fn new() -> Self {
        FramePool { free: Vec::new() }
    }

    /// A frame body equal to `(exec, clocks)` — recycled from the free
    /// list when possible (no allocation), cloned afresh otherwise. The
    /// flag is `true` for a recycled body: the caller counts it as one
    /// [`ExploreStats::frames_pooled`](crate::ExploreStats::frames_pooled).
    pub fn take_from(
        &mut self,
        exec: &Executor<'p>,
        clocks: &ClockEngine,
    ) -> (FrameBody<'p>, bool) {
        match self.free.pop() {
            Some(mut body) => {
                body.exec.assign_from(exec);
                body.clocks.assign_from(clocks);
                (body, true)
            }
            None => (
                FrameBody {
                    exec: exec.clone(),
                    clocks: clocks.clone(),
                },
                false,
            ),
        }
    }

    /// Returns a no-longer-needed body to the free list.
    pub fn retire(&mut self, body: FrameBody<'p>) {
        self.free.push(body);
    }

    /// Retired bodies currently on the free list — recorded in a
    /// checkpoint so a resume can [`warm`](FramePool::warm) its cold
    /// pool back to the same length.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Pre-fills the free list with `count` bodies shaped like
    /// `(exec, clocks)`. A checkpoint resume uses this to match the
    /// uninterrupted engine's free-list length, so every later take hits
    /// or misses exactly as it would have — the bodies' contents are
    /// irrelevant ([`take_from`](FramePool::take_from) overwrites them).
    pub fn warm(&mut self, exec: &Executor<'p>, clocks: &ClockEngine, count: usize) {
        for _ in 0..count {
            self.free.push(FrameBody {
                exec: exec.clone(),
                clocks: clocks.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_hbr::HbMode;
    use lazylocks_model::{ProgramBuilder, ThreadId};

    #[test]
    fn pool_recycles_and_counts_hits() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(x, 2));
        let p = b.build();

        let exec = Executor::new(&p);
        let clocks = ClockEngine::for_program(HbMode::Regular, &p);
        let mut pool = FramePool::new();

        let (first, pooled) = pool.take_from(&exec, &clocks);
        assert!(!pooled, "empty pool must clone afresh");

        // Mutate a copy, retire it, and take again: the recycled body must
        // be reset to the requested state.
        let mut advanced = first;
        advanced.exec.step(ThreadId(0));
        pool.retire(advanced);
        let (second, pooled) = pool.take_from(&exec, &clocks);
        assert!(pooled, "retired body must be reused");
        assert_eq!(second.exec.state_fingerprint(), exec.state_fingerprint());
    }
}
