//! [`VectorClock`]: one clock row that outlives a [`ClockEngine`](crate::ClockEngine) step.

use crate::engine::join;
use std::ops::Deref;

/// A fixed-width vector clock: component `t` counts the events of thread
/// `t` in the causal past the clock describes; the zero clock describes
/// the empty past.
///
/// The live clocks of an exploration are rows of a
/// [`ClockEngine`](crate::ClockEngine) slab. A `VectorClock` is a row
/// copied out: the clock [`ClockEngine::apply`](crate::ClockEngine::apply)
/// returns and an [`EventRecord`](crate::EventRecord) keeps. It derefs to
/// its counters, and the binary operations take any row.
///
/// ```
/// use lazylocks_hbr::VectorClock;
///
/// let (mut a, mut b) = (VectorClock::new(3), VectorClock::new(3));
/// a.assign_counts(&[1, 0, 0]);
/// b.assign_counts(&[0, 1, 0]);
/// assert!(a.concurrent(&b));
/// b.join(&a);
/// assert!(a.lt(&b));
/// assert_eq!(*b, [1, 1, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VectorClock(Box<[u32]>);

impl VectorClock {
    /// The zero clock over `width` threads.
    pub fn new(width: usize) -> Self {
        VectorClock(vec![0; width].into())
    }

    /// The component for `thread`; panics if `thread` is not below the width.
    pub fn get(&self, thread: usize) -> u32 {
        self.0[thread]
    }

    /// Component-wise maximum, in place: the union of both causal pasts.
    #[inline]
    pub fn join(&mut self, other: &[u32]) {
        debug_assert_eq!(self.len(), other.len(), "clock width mismatch");
        join(&mut self.0, other);
    }

    /// Overwrites the counters in place; panics if the widths differ.
    #[inline]
    pub fn assign_counts(&mut self, counts: &[u32]) {
        self.0.copy_from_slice(counts);
    }

    /// `true` iff no component is greater than `other`'s and the clocks
    /// differ: `self`'s past is a strict subset of `other`'s.
    pub fn lt(&self, other: &[u32]) -> bool {
        **self != *other && self.iter().zip(other).all(|(a, b)| a <= b)
    }

    /// `true` iff the clocks are incomparable: each is greater somewhere.
    pub fn concurrent(&self, other: &[u32]) -> bool {
        let pairs = || self.iter().zip(other);
        pairs().any(|(a, b)| a < b) && pairs().any(|(a, b)| a > b)
    }
}

impl Deref for VectorClock {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(counts: &[u32]) -> VectorClock {
        let mut clock = VectorClock::new(counts.len());
        clock.assign_counts(counts);
        clock
    }

    #[test]
    fn zero_clock_is_zero() {
        assert_eq!(*VectorClock::new(4), [0; 4]);
        assert!(VectorClock::default().is_empty());
    }

    #[test]
    fn join_is_componentwise_max() {
        let mut a = vc(&[3, 0, 5]);
        a.join(&vc(&[1, 4, 5]));
        assert_eq!(a, vc(&[3, 4, 5]));
        assert_eq!(a.get(1), 4);
    }

    #[test]
    fn assign_copies_in_place() {
        let mut a = vc(&[3, 0, 5]);
        a.assign_counts(&[1, 4, 9]);
        assert_eq!(a, vc(&[1, 4, 9]));
    }

    #[test]
    fn lt_and_concurrent_cover_all_four_cases() {
        let a = vc(&[1, 2]);
        let (equal, after, before, apart) = (vc(&[1, 2]), vc(&[2, 2]), vc(&[0, 2]), vc(&[2, 1]));
        assert!(!a.lt(&equal) && !a.concurrent(&equal));
        assert!(a.lt(&after) && !after.lt(&a) && !a.concurrent(&after));
        assert!(before.lt(&a) && !a.lt(&before) && !a.concurrent(&before));
        assert!(a.concurrent(&apart) && !a.lt(&apart) && !apart.lt(&a));
    }

    #[test]
    fn lt_and_concurrent_agree_with_each_other() {
        let a = vc(&[1, 2]);
        let b = vc(&[2, 2]);
        assert!(a.lt(&b));
        assert!(!b.lt(&a));
        assert!(!a.concurrent(&b) && !b.concurrent(&a));
        let c = vc(&[0, 3]);
        assert!(a.concurrent(&c) && c.concurrent(&a));
        assert!(!a.lt(&c) && !c.lt(&a));
    }
}
