//! Property tests for the small-vec `VectorClock` storage: every operation
//! must agree with a reference `Vec<u32>` model on both sides of the
//! inline↔spill boundary, and `Hash`/`Eq` must stay consistent.
//!
//! Cases are drawn from a deterministic generator (fixed seed, fixed case
//! count) instead of an external property-testing crate, so failures
//! always reproduce bit-for-bit.

use lazylocks_clock::{CausalOrd, VectorClock, INLINE_WIDTH};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const CASES: usize = 128;

/// Widths straddling the inline↔spill boundary (plus the degenerate ones).
const WIDTHS: &[usize] = &[
    1,
    2,
    INLINE_WIDTH - 1,
    INLINE_WIDTH,
    INLINE_WIDTH + 1,
    2 * INLINE_WIDTH,
];

/// A tiny deterministic SplitMix64 (duplicated here rather than depending
/// on the core crate: `clock` sits at the bottom of the workspace).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn counts(&mut self, width: usize) -> Vec<u32> {
        (0..width).map(|_| (self.next() % 64) as u32).collect()
    }
}

/// The reference model: a plain `Vec<u32>` with the textbook lattice ops.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Model(Vec<u32>);

impl Model {
    fn join(&mut self, other: &Model) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    fn meet(&mut self, other: &Model) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).min(*b);
        }
    }

    fn le(&self, other: &Model) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    fn causal_cmp(&self, other: &Model) -> CausalOrd {
        match (self.le(other), other.le(self)) {
            (true, true) => CausalOrd::Equal,
            (true, false) => CausalOrd::Before,
            (false, true) => CausalOrd::After,
            (false, false) => CausalOrd::Concurrent,
        }
    }
}

fn for_cases(mut check: impl FnMut(usize, Vec<u32>, Vec<u32>)) {
    let mut rng = Rng(0x5a11_c10c);
    for &width in WIDTHS {
        for _ in 0..CASES {
            check(width, rng.counts(width), rng.counts(width));
        }
    }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

#[test]
fn construction_round_trips_through_counts() {
    for_cases(|width, a, _| {
        let clock = VectorClock::from_counts(a.clone());
        assert_eq!(clock.counts(), &a[..]);
        assert_eq!(clock.width(), width);
        assert_eq!(clock.is_inline(), width <= INLINE_WIDTH);
    });
}

#[test]
fn join_matches_model() {
    for_cases(|_, a, b| {
        let mut clock = VectorClock::from_counts(a.clone());
        clock.join(&VectorClock::from_counts(b.clone()));
        let mut model = Model(a);
        model.join(&Model(b));
        assert_eq!(clock.counts(), &model.0[..]);
    });
}

#[test]
fn join_from_matches_model() {
    for_cases(|width, a, b| {
        let mut out = VectorClock::new(width);
        out.join_from(
            &VectorClock::from_counts(a.clone()),
            &VectorClock::from_counts(b.clone()),
        );
        let mut model = Model(a);
        model.join(&Model(b));
        assert_eq!(out.counts(), &model.0[..]);
    });
}

#[test]
fn meet_matches_model() {
    for_cases(|_, a, b| {
        let mut clock = VectorClock::from_counts(a.clone());
        clock.meet(&VectorClock::from_counts(b.clone()));
        let mut model = Model(a);
        model.meet(&Model(b));
        assert_eq!(clock.counts(), &model.0[..]);
    });
}

#[test]
fn tick_matches_model() {
    for_cases(|width, a, b| {
        let mut clock = VectorClock::from_counts(a.clone());
        let mut model = a;
        // Derive a deterministic thread index from the second sample.
        let t = b[0] as usize % width;
        let returned = clock.tick(t);
        model[t] += 1;
        assert_eq!(returned, model[t]);
        assert_eq!(clock.counts(), &model[..]);
    });
}

#[test]
fn assign_matches_model_and_keeps_storage() {
    for_cases(|width, a, b| {
        let mut clock = VectorClock::from_counts(a.clone());
        clock.assign(&VectorClock::from_counts(b.clone()));
        assert_eq!(clock.counts(), &b[..]);
        assert_eq!(clock.is_inline(), width <= INLINE_WIDTH);
        // The raw-row form agrees with the clock form.
        clock.assign_counts(&a);
        assert_eq!(clock.counts(), &a[..]);
        assert_eq!(clock.is_inline(), width <= INLINE_WIDTH);
    });
}

#[test]
fn causal_cmp_matches_model() {
    for_cases(|_, a, b| {
        let x = VectorClock::from_counts(a.clone());
        let y = VectorClock::from_counts(b.clone());
        assert_eq!(x.causal_cmp(&y), Model(a).causal_cmp(&Model(b)));
    });
}

#[test]
fn le_lt_concurrent_match_model() {
    for_cases(|_, a, b| {
        let x = VectorClock::from_counts(a.clone());
        let y = VectorClock::from_counts(b.clone());
        let (ma, mb) = (Model(a), Model(b));
        assert_eq!(x.le(&y), ma.le(&mb));
        assert_eq!(x.lt(&y), ma.le(&mb) && ma != mb);
        assert_eq!(x.concurrent(&y), !ma.le(&mb) && !mb.le(&ma));
    });
}

#[test]
fn eq_and_hash_agree_with_the_model() {
    for_cases(|_, a, b| {
        let x = VectorClock::from_counts(a.clone());
        let y = VectorClock::from_counts(b.clone());
        assert_eq!(x == y, a == b, "Eq must match the counter vectors");
        if x == y {
            assert_eq!(hash_of(&x), hash_of(&y), "equal clocks must hash equal");
        }
        // A clock rebuilt through a different op sequence hashes the same.
        let mut z = VectorClock::new(x.width());
        z.assign(&x);
        assert_eq!(x, z);
        assert_eq!(hash_of(&x), hash_of(&z));
    });
}

#[test]
fn clone_is_deep_on_both_sides_of_the_boundary() {
    for_cases(|width, a, b| {
        let original = VectorClock::from_counts(a.clone());
        let mut copy = original.clone();
        let t = b[0] as usize % width;
        copy.tick(t);
        assert_eq!(original.counts(), &a[..], "clone must not share storage");
        assert_ne!(copy, original);
    });
}

#[test]
fn total_clear_write_bytes_match_model() {
    for_cases(|_, a, _| {
        let mut clock = VectorClock::from_counts(a.clone());
        assert_eq!(clock.total(), a.iter().map(|&c| u64::from(c)).sum::<u64>());
        let mut bytes = Vec::new();
        clock.write_bytes(&mut |chunk| bytes.extend_from_slice(chunk));
        let expected: Vec<u8> = a.iter().flat_map(|c| c.to_le_bytes()).collect();
        assert_eq!(bytes, expected);
        clock.clear();
        assert!(clock.is_zero());
        assert_eq!(clock.width(), a.len());
    });
}
