//! `FingerprintTable` against std `HashSet`/`HashMap` models: random
//! digests mixed with adversarial ones (0, `u128::MAX`, keys whose halves
//! are equal so their fold is 0, and long runs of keys sharing one fold,
//! hence one segment and one home slot, so probes wrap around).

use lazylocks_obs::FingerprintTable;
use std::collections::{HashMap, HashSet};

/// A tiny deterministic SplitMix64 (duplicated here rather than depending
/// on a crate that sits above this one).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A key whose halves XOR to `fold`.
fn with_fold(hi: u64, fold: u64) -> u128 {
    (u128::from(hi) << 64) | u128::from(hi ^ fold)
}

/// One key: random, a repeat of an earlier one, or adversarial.
fn key(rng: &mut Rng, seen: &[u128]) -> u128 {
    match rng.below(8) {
        0 if !seen.is_empty() => seen[rng.below(seen.len())],
        1 => [0, u128::MAX, 1, 1 << 64][rng.below(4)],
        // Equal halves: the fold is 0 (segment 0, home slot 0).
        2 => with_fold(rng.next(), 0),
        // One fold whose home is every segment's last slot.
        3 => with_fold(rng.next(), u64::MAX),
        // A small pool of folds crowding a few segments.
        4 => with_fold(rng.next(), rng.next() & 0xff00_0000_0000_000f),
        _ => (u128::from(rng.next()) << 64) | u128::from(rng.next()),
    }
}

fn sorted_keys<V>(table: &FingerprintTable<V>) -> Vec<u128> {
    let mut keys: Vec<u128> = table.keys().collect();
    keys.sort_unstable();
    keys
}

#[test]
fn a_set_agrees_with_a_hash_set() {
    let mut rng = Rng(7);
    for round in 0..40 {
        let n = 1 + rng.below(if round % 8 == 0 { 20_000 } else { 600 });
        let mut table = FingerprintTable::<()>::new();
        let mut model = HashSet::new();
        let mut seen = Vec::new();
        for _ in 0..n {
            let k = key(&mut rng, &seen);
            seen.push(k);
            assert_eq!(table.insert(k), model.insert(k), "insert({k:#x})");
            assert_eq!(table.len(), model.len());
        }
        assert_eq!(table.is_empty(), model.is_empty());
        let keys = sorted_keys(&table);
        let mut want: Vec<u128> = model.iter().copied().collect();
        want.sort_unstable();
        // Sorted and equal to the model's keys: each key exactly once.
        assert_eq!(keys, want, "round {round}");
        // Every key is still present.
        assert!(seen.iter().all(|&k| !table.insert(k)));
        assert_eq!(table.len(), model.len());
        // Collecting the inserts, duplicates included, gives the same set.
        let collected: FingerprintTable = seen.iter().copied().collect();
        assert_eq!(collected.len(), model.len());
        assert_eq!(sorted_keys(&collected), want);
    }
}

#[test]
fn a_map_counts_as_a_hash_map_does() {
    let mut rng = Rng(11);
    for _ in 0..20 {
        let mut table = FingerprintTable::<u64>::new();
        let mut model: HashMap<u128, u64> = HashMap::new();
        let mut seen = Vec::new();
        for _ in 0..1 + rng.below(3_000) {
            let k = key(&mut rng, &seen);
            seen.push(k);
            *table.value_mut(k) += 1;
            *model.entry(k).or_insert(0) += 1;
        }
        assert_eq!(table.len(), model.len());
        let mut got: Vec<(u128, u64)> = table.iter().map(|(k, &n)| (k, n)).collect();
        let mut want: Vec<(u128, u64)> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // `insert` on a map adds the default value and keeps counts.
        let fresh = with_fold(rng.next() | 1, rng.next());
        assert!(table.insert(fresh) && *table.value_mut(fresh) == 0);
        assert!(!table.insert(seen[0]) && *table.value_mut(seen[0]) > 0);
    }
}

#[test]
fn keys_sharing_one_home_slot_probe_around_the_segment_end() {
    for fold in [0, u64::MAX, 0x8000_0000_0000_0007] {
        let mut table = FingerprintTable::<()>::new();
        let keys: Vec<u128> = (1..=2_000).map(|hi| with_fold(hi, fold)).collect();
        for (i, &k) in keys.iter().enumerate() {
            assert!(table.insert(k), "fold {fold:#x}: key {i} new");
            assert_eq!(table.len(), i + 1);
        }
        assert!(keys.iter().all(|&k| !table.insert(k)));
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(sorted_keys(&table), want);
        // All in one segment: it alone holds slots, at most 8/7 of the
        // keys rounded up to a power of two.
        assert_eq!(table.slots(), 4_096, "fold {fold:#x}");
    }
}

#[test]
fn the_zero_digest_takes_no_slot() {
    let mut set = FingerprintTable::<()>::new();
    assert!(set.insert(0) && !set.insert(0));
    assert_eq!((set.len(), set.slots()), (1, 0));
    assert_eq!(set.keys().collect::<Vec<_>>(), vec![0]);
    let mut map = FingerprintTable::<u64>::new();
    *map.value_mut(0) += 2;
    *map.value_mut(u128::MAX) += 1;
    let mut got: Vec<(u128, u64)> = map.iter().map(|(k, &n)| (k, n)).collect();
    got.sort_unstable();
    assert_eq!(got, vec![(0, 2), (u128::MAX, 1)]);
}
