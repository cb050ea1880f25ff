//! The [`VectorClock`] type and its lattice operations.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Result of comparing two vector clocks under the causal (component-wise)
/// partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CausalOrd {
    /// Every component is equal.
    Equal,
    /// Strictly less than in at least one component, never greater.
    Before,
    /// Strictly greater in at least one component, never less.
    After,
    /// Incomparable: greater in some component and less in another.
    Concurrent,
}

/// Widths up to this many threads are stored inline (no heap allocation).
/// Covers the entire benchmark corpus; wider programs spill to a `Vec`.
pub const INLINE_WIDTH: usize = 8;

/// Storage: clocks of width ≤ [`INLINE_WIDTH`] live entirely on the stack
/// (the common case — every event record of a relation holds one clock);
/// wider clocks fall back to a heap vector. The representation is a pure
/// function of the width, so two clocks of equal width always share a
/// variant and the unused tail of an inline array stays zero.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        counts: [u32; INLINE_WIDTH],
    },
    Heap(Vec<u32>),
}

/// A fixed-width vector clock: one `u32` counter per thread of the guest
/// program.
///
/// The component for thread `t` counts how many of `t`'s events are in the
/// causal past described by this clock. The zero clock describes the empty
/// past.
///
/// Clocks of width ≤ [`INLINE_WIDTH`] are allocation-free: construction,
/// `Clone` and every lattice operation touch only the stack. This keeps
/// the clocks that outlive a step (a relation's event records) off the
/// allocator for typical programs; the live clock state of an
/// exploration is one flat slab in `lazylocks-hbr`'s `ClockEngine`.
///
/// ```
/// use lazylocks_clock::{CausalOrd, VectorClock};
///
/// let mut a = VectorClock::new(3);
/// let mut b = VectorClock::new(3);
/// a.tick(0);             // a = [1, 0, 0]
/// b.tick(1);             // b = [0, 1, 0]
/// assert_eq!(a.causal_cmp(&b), CausalOrd::Concurrent);
///
/// b.join(&a);            // b = [1, 1, 0]
/// assert_eq!(a.causal_cmp(&b), CausalOrd::Before);
/// ```
#[derive(Clone)]
pub struct VectorClock {
    repr: Repr,
}

impl Default for VectorClock {
    fn default() -> Self {
        VectorClock::new(0)
    }
}

impl VectorClock {
    /// The zero clock over `width` threads.
    pub fn new(width: usize) -> Self {
        let repr = if width <= INLINE_WIDTH {
            Repr::Inline {
                len: width as u8,
                counts: [0; INLINE_WIDTH],
            }
        } else {
            Repr::Heap(vec![0; width])
        };
        VectorClock { repr }
    }

    /// Builds a clock directly from per-thread counters.
    pub fn from_counts(counts: Vec<u32>) -> Self {
        if counts.len() <= INLINE_WIDTH {
            let mut inline = [0; INLINE_WIDTH];
            inline[..counts.len()].copy_from_slice(&counts);
            VectorClock {
                repr: Repr::Inline {
                    len: counts.len() as u8,
                    counts: inline,
                },
            }
        } else {
            VectorClock {
                repr: Repr::Heap(counts),
            }
        }
    }

    /// Number of threads this clock covers.
    #[inline]
    pub fn width(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// `true` if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.counts().iter().all(|&c| c == 0)
    }

    /// The component for `thread`.
    ///
    /// # Panics
    /// Panics if `thread >= self.width()`.
    #[inline]
    pub fn get(&self, thread: usize) -> u32 {
        self.counts()[thread]
    }

    /// Sets the component for `thread`.
    #[inline]
    pub fn set(&mut self, thread: usize, value: u32) {
        self.counts_mut()[thread] = value;
    }

    /// Increments the component for `thread` and returns the new value.
    #[inline]
    pub fn tick(&mut self, thread: usize) -> u32 {
        let c = &mut self.counts_mut()[thread];
        *c += 1;
        *c
    }

    /// Component-wise maximum: after the call, `self` describes the union of
    /// both causal pasts. In place, allocation-free.
    #[inline]
    pub fn join(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.width(), other.width(), "clock width mismatch");
        for (a, b) in self.counts_mut().iter_mut().zip(other.counts().iter()) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Returns the component-wise maximum without mutating either operand.
    pub fn joined(&self, other: &VectorClock) -> VectorClock {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// Overwrites `self` with the join `a ⊔ b`, reusing `self`'s storage —
    /// the allocation-free replacement for `*self = a.joined(b)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the three widths disagree.
    pub fn join_from(&mut self, a: &VectorClock, b: &VectorClock) {
        self.assign(a);
        self.join(b);
    }

    /// Overwrites `self` with `other`'s components, reusing `self`'s
    /// storage — the allocation-free replacement for `*self = other.clone()`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the widths differ.
    #[inline]
    pub fn assign(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.width(), other.width(), "clock width mismatch");
        self.assign_counts(other.counts());
    }

    /// Overwrites `self` with the per-thread counters `counts`, reusing
    /// `self`'s storage: [`VectorClock::assign`] from a raw row.
    ///
    /// # Panics
    /// Panics if `counts.len()` differs from the width.
    #[inline]
    pub fn assign_counts(&mut self, counts: &[u32]) {
        self.counts_mut().copy_from_slice(counts);
    }

    /// Component-wise minimum (meet of the lattice).
    pub fn meet(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.width(), other.width(), "clock width mismatch");
        for (a, b) in self.counts_mut().iter_mut().zip(other.counts().iter()) {
            if *b < *a {
                *a = *b;
            }
        }
    }

    /// `true` iff `self[t] <= other[t]` for every thread `t` — i.e. the
    /// events summarised by `self` are a subset of those summarised by
    /// `other`.
    #[inline]
    pub fn le(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.width(), other.width(), "clock width mismatch");
        self.counts()
            .iter()
            .zip(other.counts().iter())
            .all(|(a, b)| a <= b)
    }

    /// `true` iff `self.le(other)` and the clocks differ.
    pub fn lt(&self, other: &VectorClock) -> bool {
        self.le(other) && self.counts() != other.counts()
    }

    /// `true` iff the clocks are incomparable.
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        !self.le(other) && !other.le(self)
    }

    /// Full comparison under the causal partial order.
    pub fn causal_cmp(&self, other: &VectorClock) -> CausalOrd {
        let le = self.le(other);
        let ge = other.le(self);
        match (le, ge) {
            (true, true) => CausalOrd::Equal,
            (true, false) => CausalOrd::Before,
            (false, true) => CausalOrd::After,
            (false, false) => CausalOrd::Concurrent,
        }
    }

    /// Iterator over `(thread, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.counts().iter().copied().enumerate()
    }

    /// The raw per-thread counters.
    #[inline]
    pub fn counts(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline { len, counts } => &counts[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    #[inline]
    fn counts_mut(&mut self) -> &mut [u32] {
        match &mut self.repr {
            Repr::Inline { len, counts } => &mut counts[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// `true` if the clock lives entirely on the stack (width ≤
    /// [`INLINE_WIDTH`]).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Sum of all components: the number of events in the causal past
    /// (counted with multiplicity per thread).
    pub fn total(&self) -> u64 {
        self.counts().iter().map(|&c| c as u64).sum()
    }

    /// Resets every component to zero, keeping the width.
    pub fn clear(&mut self) {
        for c in self.counts_mut() {
            *c = 0;
        }
    }

    /// Feeds the clock into a caller-supplied byte sink; used by the
    /// fingerprinting code in `lazylocks-hbr` to serialise clocks
    /// canonically (little-endian components in thread order).
    pub fn write_bytes(&self, out: &mut impl FnMut(&[u8])) {
        for c in self.counts() {
            out(&c.to_le_bytes());
        }
    }
}

// Identity is defined over the visible counters only, so it cannot depend
// on the storage variant. (The variant is a function of the width anyway;
// these impls keep that invariant out of the correctness argument.)
impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.counts() == other.counts()
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.counts().hash(state);
    }
}

impl PartialOrd for VectorClock {
    /// The causal partial order. `None` means the clocks are concurrent.
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        match self.causal_cmp(other) {
            CausalOrd::Equal => Some(Ordering::Equal),
            CausalOrd::Before => Some(Ordering::Less),
            CausalOrd::After => Some(Ordering::Greater),
            CausalOrd::Concurrent => None,
        }
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VC{:?}", self.counts())
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.counts().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(counts: &[u32]) -> VectorClock {
        VectorClock::from_counts(counts.to_vec())
    }

    #[test]
    fn zero_clock_is_zero() {
        let c = VectorClock::new(4);
        assert!(c.is_zero());
        assert_eq!(c.width(), 4);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn tick_increments_only_own_component() {
        let mut c = VectorClock::new(3);
        assert_eq!(c.tick(1), 1);
        assert_eq!(c.tick(1), 2);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(2), 0);
    }

    #[test]
    fn join_is_componentwise_max() {
        let mut a = vc(&[3, 0, 5]);
        let b = vc(&[1, 4, 5]);
        a.join(&b);
        assert_eq!(a, vc(&[3, 4, 5]));
    }

    #[test]
    fn meet_is_componentwise_min() {
        let mut a = vc(&[3, 0, 5]);
        let b = vc(&[1, 4, 5]);
        a.meet(&b);
        assert_eq!(a, vc(&[1, 0, 5]));
    }

    #[test]
    fn assign_copies_in_place() {
        let mut a = vc(&[3, 0, 5]);
        a.assign(&vc(&[1, 4, 9]));
        assert_eq!(a, vc(&[1, 4, 9]));
    }

    #[test]
    fn join_from_is_out_of_place_join() {
        let mut out = VectorClock::new(3);
        let a = vc(&[3, 0, 5]);
        let b = vc(&[1, 4, 5]);
        out.join_from(&a, &b);
        assert_eq!(out, a.joined(&b));
    }

    #[test]
    fn causal_cmp_all_cases() {
        let a = vc(&[1, 2]);
        assert_eq!(a.causal_cmp(&vc(&[1, 2])), CausalOrd::Equal);
        assert_eq!(a.causal_cmp(&vc(&[2, 2])), CausalOrd::Before);
        assert_eq!(a.causal_cmp(&vc(&[0, 2])), CausalOrd::After);
        assert_eq!(a.causal_cmp(&vc(&[2, 1])), CausalOrd::Concurrent);
    }

    #[test]
    fn le_lt_concurrent_agree_with_causal_cmp() {
        let a = vc(&[1, 2]);
        let b = vc(&[2, 2]);
        assert!(a.le(&b));
        assert!(a.lt(&b));
        assert!(!b.le(&a));
        assert!(!a.concurrent(&b));
        let c = vc(&[0, 3]);
        assert!(a.concurrent(&c));
    }

    #[test]
    fn partial_ord_matches_causal_order() {
        assert!(vc(&[1, 0]) < vc(&[1, 1]));
        assert!(vc(&[1, 1]) > vc(&[1, 0]));
        assert_eq!(vc(&[1, 0]).partial_cmp(&vc(&[0, 1])), None);
        assert_eq!(vc(&[2, 2]).partial_cmp(&vc(&[2, 2])), Some(Ordering::Equal));
    }

    #[test]
    fn joined_does_not_mutate() {
        let a = vc(&[1, 0]);
        let b = vc(&[0, 1]);
        let j = a.joined(&b);
        assert_eq!(a, vc(&[1, 0]));
        assert_eq!(j, vc(&[1, 1]));
    }

    #[test]
    fn display_and_debug_render() {
        let a = vc(&[1, 0, 7]);
        assert_eq!(format!("{a}"), "⟨1,0,7⟩");
        assert_eq!(format!("{a:?}"), "VC[1, 0, 7]");
    }

    #[test]
    fn clear_resets_components() {
        let mut a = vc(&[4, 5]);
        a.clear();
        assert!(a.is_zero());
        assert_eq!(a.width(), 2);
    }

    #[test]
    fn write_bytes_is_little_endian_in_thread_order() {
        let a = vc(&[1, 258]);
        let mut bytes = Vec::new();
        a.write_bytes(&mut |chunk| bytes.extend_from_slice(chunk));
        assert_eq!(bytes, vec![1, 0, 0, 0, 2, 1, 0, 0]);
    }

    #[test]
    fn storage_variant_follows_width() {
        assert!(VectorClock::new(INLINE_WIDTH).is_inline());
        assert!(!VectorClock::new(INLINE_WIDTH + 1).is_inline());
        assert!(vc(&[0; INLINE_WIDTH]).is_inline());
        assert!(!vc(&[0; INLINE_WIDTH + 1]).is_inline());
    }

    #[test]
    fn operations_work_across_the_spill_boundary() {
        for width in [INLINE_WIDTH - 1, INLINE_WIDTH, INLINE_WIDTH + 1] {
            let mut a = VectorClock::new(width);
            let mut b = VectorClock::new(width);
            a.tick(0);
            b.tick(width - 1);
            let j = a.joined(&b);
            assert_eq!(j.get(0), 1);
            assert_eq!(j.get(width - 1), 1);
            assert_eq!(j.total(), 2);
            assert!(a.concurrent(&b));
        }
    }
}
