//! Property-based tests: `VectorClock::join` is the least upper bound of
//! the causal order, `lt` a strict partial order and `concurrent` its
//! incomparability.
//!
//! Cases are drawn from a deterministic generator (fixed seed, fixed case
//! count) instead of an external property-testing crate, so failures
//! always reproduce bit-for-bit.

use lazylocks_hbr::VectorClock;

const WIDTH: usize = 5;
const CASES: usize = 256;

/// A tiny deterministic SplitMix64 (duplicated here rather than depending
/// on the core crate, which sits above this one).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn clock(&mut self) -> VectorClock {
        let counts: Vec<u32> = (0..WIDTH).map(|_| (self.next() % 64) as u32).collect();
        let mut clock = VectorClock::new(WIDTH);
        clock.assign_counts(&counts);
        clock
    }
}

/// Runs `check` on `CASES` deterministic triples of clocks.
fn for_clock_triples(mut check: impl FnMut(VectorClock, VectorClock, VectorClock)) {
    let mut rng = Rng(0xc10c_0c10);
    for _ in 0..CASES {
        check(rng.clock(), rng.clock(), rng.clock());
    }
}

fn joined(a: &VectorClock, b: &VectorClock) -> VectorClock {
    let mut out = a.clone();
    out.join(b);
    out
}

/// The causal order's `≤`, from the operations under test.
fn le(a: &VectorClock, b: &VectorClock) -> bool {
    a == b || a.lt(b)
}

#[test]
fn join_commutes() {
    for_clock_triples(|a, b, _| {
        assert_eq!(joined(&a, &b), joined(&b, &a));
    });
}

#[test]
fn join_is_associative() {
    for_clock_triples(|a, b, c| {
        assert_eq!(joined(&joined(&a, &b), &c), joined(&a, &joined(&b, &c)));
    });
}

#[test]
fn join_is_idempotent() {
    for_clock_triples(|a, _, _| {
        assert_eq!(joined(&a, &a), a);
    });
}

#[test]
fn join_is_least_upper_bound() {
    for_clock_triples(|a, b, c| {
        let j = joined(&a, &b);
        assert!(le(&a, &j));
        assert!(le(&b, &j));
        // Least: every component is one of the operands', and any other
        // upper bound dominates the join.
        for t in 0..WIDTH {
            assert!(j.get(t) == a.get(t) || j.get(t) == b.get(t));
        }
        let ub = joined(&j, &c);
        assert!(le(&j, &ub));
    });
}

#[test]
fn lt_is_irreflexive_and_asymmetric() {
    for_clock_triples(|a, b, _| {
        assert!(!a.lt(&a));
        assert!(le(&a, &a));
        if a.lt(&b) {
            assert!(!b.lt(&a), "lt is asymmetric");
        }
        if le(&a, &b) && le(&b, &a) {
            assert_eq!(a, b, "le is antisymmetric");
        }
    });
}

#[test]
fn lt_is_transitive() {
    for_clock_triples(|a, b, c| {
        // a ≤ a∨b ≤ (a∨b)∨c by construction; strict steps compose.
        let (j1, j2) = (joined(&a, &b), joined(&joined(&a, &b), &c));
        if a.lt(&j1) && j1.lt(&j2) {
            assert!(a.lt(&j2));
        }
        if a.lt(&b) && b.lt(&c) {
            assert!(a.lt(&c));
        }
    });
}

#[test]
fn concurrent_is_symmetric_and_excludes_lt() {
    let mut seen = 0;
    for_clock_triples(|a, b, _| {
        assert_eq!(a.concurrent(&b), b.concurrent(&a));
        assert!(!a.concurrent(&a));
        if a.concurrent(&b) {
            seen += 1;
            assert!(!a.lt(&b) && !b.lt(&a) && a != b);
        } else {
            // Comparable: exactly one of <, =, > holds.
            let cases = [a.lt(&b), a == b, b.lt(&a)];
            assert_eq!(cases.iter().filter(|&&x| x).count(), 1, "{a:?} vs {b:?}");
        }
        // A clock is never concurrent with a join it takes part in.
        assert!(!a.concurrent(&joined(&a, &b)));
    });
    assert!(seen > 0, "the corpus has concurrent pairs");
}
