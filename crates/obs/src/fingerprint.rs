//! Identity hashing for tables keyed by 128-bit fingerprints: the
//! explorers' prefix cache, the collector's state and class sets and the
//! profiler's class maps. Their keys are already uniform digests, so
//! SipHash's mixing buys nothing; [`FingerprintHasher`] folds the halves.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`Hasher`] for `u128` digests only: the key's halves XORed.
#[derive(Debug, Default, Clone, Copy)]
pub struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        panic!("FingerprintHasher hashes u128 digests only");
    }

    fn write_u128(&mut self, fp: u128) {
        self.0 = (fp >> 64) as u64 ^ fp as u64;
    }
}

/// A set of fingerprints under [`FingerprintHasher`].
pub type FingerprintSet = HashSet<u128, BuildHasherDefault<FingerprintHasher>>;
/// A map keyed by fingerprints under [`FingerprintHasher`].
pub type FingerprintMap<V> = HashMap<u128, V, BuildHasherDefault<FingerprintHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn folds_the_halves_of_a_digest() {
        let fp: u128 = (0xdead_beef_u128 << 64) | 0x0123_4567;
        let hash = BuildHasherDefault::<FingerprintHasher>::default().hash_one(fp);
        assert_eq!(hash, 0xdead_beef ^ 0x0123_4567);
        let mut set = FingerprintSet::default();
        assert!(set.insert(fp) && !set.insert(fp));
    }

    #[test]
    #[should_panic(expected = "u128 digests only")]
    fn refuses_other_keys() {
        let mut h = FingerprintHasher::default();
        "text".hash(&mut h);
    }
}
