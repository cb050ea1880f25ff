//! One hash table for 128-bit fingerprints: the explorers' prefix cache,
//! the collector's state and class sets and the profiler's class maps.
//!
//! Their keys are already uniform digests, so the table hashes a key by
//! folding its halves (`hi ^ lo`) and stores the raw `u128` in its slot,
//! 0 meaning empty; the zero digest lives on the side. The top bits of
//! the fold pick one of 256 segments, each a linear-probing array that
//! doubles on its own once an insert would take it past 7/8 full. A
//! resize therefore rehashes about 1/256 of the entries, and the table
//! never holds an old and a new copy of itself at once.

use std::fmt;

/// The top `SEGMENT_BITS` of a key's fold pick its segment.
const SEGMENT_BITS: u32 = 8;
const SEGMENTS: usize = 1 << SEGMENT_BITS;
/// A segment's slot count on its first insert.
const MIN_SLOTS: usize = 16;

/// A set (`FingerprintTable<()>`, which stores no value bytes) or a map
/// from `u128` digests to small `Copy` values.
pub struct FingerprintTable<V = ()> {
    /// Empty until the first nonzero key, then `SEGMENTS` long.
    segments: Vec<Segment<V>>,
    /// The zero digest's value: no slot can hold that key.
    zero: Option<V>,
    len: usize,
}

/// One linear-probing array of a power-of-two slot count (none before
/// its first key).
struct Segment<V> {
    slots: Box<[(u128, V)]>,
    len: usize,
}

/// The key's halves XORed: the top bits pick its segment, the low bits
/// its home slot.
fn fold(key: u128) -> u64 {
    (key >> 64) as u64 ^ key as u64
}

impl<V: Copy + Default> Segment<V> {
    /// The slot holding `key`, or else the empty slot where it belongs.
    /// The load limit keeps a slot empty, so the probe ends.
    fn probe(&self, key: u128, fold: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = fold as usize & mask;
        loop {
            let k = self.slots[i].0;
            if k == key || k == 0 {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slot count (or makes the first slots) and reinserts
    /// every entry.
    #[cold]
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(
            &mut self.slots,
            vec![(0, V::default()); slots].into_boxed_slice(),
        );
        for &(key, value) in old.iter().filter(|slot| slot.0 != 0) {
            let i = self.probe(key, fold(key));
            self.slots[i] = (key, value);
        }
    }
}

impl<V> FingerprintTable<V> {
    /// An empty table: it allocates nothing until its first nonzero key.
    pub fn new() -> Self {
        FingerprintTable {
            segments: Vec::new(),
            zero: None,
            len: 0,
        }
    }

    /// How many keys the table holds.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot count over all segments: the table's heap is this many
    /// `(u128, V)` pairs.
    pub fn slots(&self) -> usize {
        self.segments.iter().map(|s| s.slots.len()).sum()
    }

    /// Every key with its value, each once, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u128, &V)> {
        let slots = self.segments.iter().flat_map(|s| s.slots.iter());
        let zero = self.zero.as_ref().map(|v| (0, v));
        zero.into_iter()
            .chain(slots.filter(|s| s.0 != 0).map(|(key, v)| (*key, v)))
    }

    /// Every key, each once, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = u128> + '_ {
        self.iter().map(|(key, _)| key)
    }
}

impl<V: Copy + Default> FingerprintTable<V> {
    /// Adds `key` with the default value unless present; `true` when it
    /// was new.
    #[inline]
    pub fn insert(&mut self, key: u128) -> bool {
        self.entry(key).1
    }

    /// The value of `key`, inserting the default value first if absent.
    #[inline]
    pub fn value_mut(&mut self, key: u128) -> &mut V {
        self.entry(key).0
    }

    #[inline]
    fn entry(&mut self, key: u128) -> (&mut V, bool) {
        if key == 0 {
            let new = self.zero.is_none();
            self.len += usize::from(new);
            return (self.zero.get_or_insert_with(V::default), new);
        }
        if self.segments.is_empty() {
            self.segments = (0..SEGMENTS)
                .map(|_| Segment {
                    slots: Box::default(),
                    len: 0,
                })
                .collect();
        }
        let fold = fold(key);
        let seg = &mut self.segments[(fold >> (64 - SEGMENT_BITS)) as usize];
        if seg.slots.is_empty() {
            seg.grow();
        }
        let mut i = seg.probe(key, fold);
        if seg.slots[i].0 == key {
            return (&mut seg.slots[i].1, false);
        }
        if (seg.len + 1) * 8 > seg.slots.len() * 7 {
            seg.grow();
            i = seg.probe(key, fold);
        }
        seg.slots[i].0 = key;
        seg.len += 1;
        self.len += 1;
        (&mut seg.slots[i].1, true)
    }
}

impl<V> Default for FingerprintTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Default> FromIterator<u128> for FingerprintTable<V> {
    fn from_iter<I: IntoIterator<Item = u128>>(keys: I) -> Self {
        let mut table = Self::new();
        for key in keys {
            table.insert(key);
        }
        table
    }
}

/// A summary: printing millions of digests helps nobody.
impl<V> fmt::Debug for FingerprintTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FingerprintTable")
            .field("len", &self.len)
            .field("slots", &self.slots())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A nonzero key whose fold is `fold`.
    fn key_with_fold(hi: u64, fold: u64) -> u128 {
        (u128::from(hi) << 64) | u128::from(hi ^ fold)
    }

    fn segment_sizes<V>(table: &FingerprintTable<V>) -> Vec<usize> {
        table.segments.iter().map(|s| s.slots.len()).collect()
    }

    #[test]
    fn folds_the_halves_of_a_digest() {
        let fp: u128 = (0xdead_beef_u128 << 64) | 0x0123_4567;
        assert_eq!(fold(fp), 0xdead_beef ^ 0x0123_4567);
        let mut set = FingerprintTable::<()>::new();
        assert!(set.insert(fp) && !set.insert(fp));
    }

    #[test]
    fn an_empty_table_allocates_nothing() {
        let mut set = FingerprintTable::<()>::new();
        assert_eq!((set.len(), set.slots()), (0, 0));
        assert!(set.insert(0) && !set.insert(0));
        assert_eq!((set.len(), set.slots()), (1, 0));
    }

    #[test]
    fn filling_one_segment_past_its_limit_grows_only_that_segment() {
        let mut set = FingerprintTable::<()>::new();
        // One key in every segment: each makes its first slots.
        for s in 0..SEGMENTS as u64 {
            assert!(set.insert(key_with_fold(1, s << (64 - SEGMENT_BITS))));
        }
        assert_eq!(segment_sizes(&set), vec![MIN_SLOTS; SEGMENTS]);
        // Segment 5 fills to its load limit, then takes one key more.
        let limit = MIN_SLOTS * 7 / 8;
        let fold5 = 5u64 << (64 - SEGMENT_BITS);
        for hi in 2..=limit as u64 {
            assert!(set.insert(key_with_fold(hi, fold5 | hi)));
        }
        assert_eq!(set.slots(), SEGMENTS * MIN_SLOTS);
        let over = limit as u64 + 1;
        assert!(set.insert(key_with_fold(over, fold5 | over)));
        let mut want = vec![MIN_SLOTS; SEGMENTS];
        want[5] = 2 * MIN_SLOTS;
        assert_eq!(segment_sizes(&set), want);
        assert_eq!(set.len(), SEGMENTS + limit);
        assert_eq!(set.keys().count(), SEGMENTS + limit);
    }
}
