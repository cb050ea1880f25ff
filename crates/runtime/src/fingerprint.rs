//! 128-bit FNV-1a hashing for canonical fingerprints.
//!
//! Exploration engines count millions of states, happens-before relations
//! and schedule prefixes by fingerprint. A 128-bit digest makes accidental
//! collisions vanishingly unlikely while staying dependency-free and fully
//! deterministic across runs and platforms (unlike `std`'s seeded hashers).
//! The exact test suite additionally cross-checks fingerprint equality
//! against structural equality on small instances.

/// Incremental 128-bit FNV-1a hasher.
///
/// ```
/// use lazylocks_runtime::Fnv128;
///
/// let mut h = Fnv128::new();
/// h.write(b"hello");
/// let a = h.finish();
/// assert_eq!(a, Fnv128::hash_bytes(b"hello"));
/// assert_ne!(a, Fnv128::hash_bytes(b"world"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv128 {
    state: u128,
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv128 {
    /// Fresh hasher at the standard FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv128 { state: FNV_OFFSET }
    }

    /// Absorbs bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= b as u128;
            s = s.wrapping_mul(FNV_PRIME);
        }
        self.state = s;
    }

    /// Absorbs a `u32` in little-endian byte order.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` in little-endian byte order.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `i64` in little-endian byte order.
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to 64 bits (platform independent digests).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The current digest.
    #[inline]
    pub fn finish(&self) -> u128 {
        self.state
    }

    /// One-shot convenience.
    pub fn hash_bytes(bytes: &[u8]) -> u128 {
        let mut h = Fnv128::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Fnv128::new()
    }
}

/// The canonical 128-bit fingerprint of a guest program.
///
/// Hashes [`Program::canonical_bytes`] (the deterministic pretty-printed
/// form) with [`Fnv128`], prefixed by a domain tag so program fingerprints
/// never collide with state or relation fingerprints built from the same
/// hasher. Two programs share a fingerprint iff they are structurally
/// equal, and the fingerprint survives a `to_source` → `parse` round trip
/// — the property trace artifacts rely on to detect that a stored
/// counterexample no longer matches the program under test.
///
/// [`Program::canonical_bytes`]: lazylocks_model::Program::canonical_bytes
///
/// ```
/// use lazylocks_model::ProgramBuilder;
/// use lazylocks_runtime::program_fingerprint;
///
/// let mut b = ProgramBuilder::new("p");
/// let x = b.var("x", 0);
/// b.thread("T1", |t| t.store(x, 1));
/// let p = b.build();
///
/// let fp = program_fingerprint(&p);
/// let reparsed = lazylocks_model::Program::parse(&p.to_source()).unwrap();
/// assert_eq!(fp, program_fingerprint(&reparsed));
/// ```
pub fn program_fingerprint(program: &lazylocks_model::Program) -> u128 {
    let mut h = Fnv128::new();
    h.write(b"lazylocks-program-v1\0");
    h.write(&program.canonical_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_offset_basis() {
        assert_eq!(Fnv128::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv128::new();
        h.write(b"ab");
        h.write(b"cd");
        assert_eq!(h.finish(), Fnv128::hash_bytes(b"abcd"));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Fnv128::hash_bytes(b"a"), Fnv128::hash_bytes(b"b"));
        assert_ne!(Fnv128::hash_bytes(b""), Fnv128::hash_bytes(b"\0"));
        // Order sensitivity.
        assert_ne!(Fnv128::hash_bytes(b"ab"), Fnv128::hash_bytes(b"ba"));
    }

    #[test]
    fn integer_writers_are_width_tagged_by_caller_not_hasher() {
        // u32 and u64 of the same value hash differently because they feed
        // different byte counts.
        let mut a = Fnv128::new();
        a.write_u32(7);
        let mut b = Fnv128::new();
        b.write_u64(7);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn program_fingerprint_is_canonical_and_change_sensitive() {
        use lazylocks_model::ProgramBuilder;
        let build = |name: &str, init: i64| {
            let mut b = ProgramBuilder::new(name);
            let x = b.var("x", init);
            b.thread("T1", |t| t.store(x, 1));
            b.build()
        };
        let p = build("p", 0);
        assert_eq!(program_fingerprint(&p), program_fingerprint(&build("p", 0)));
        // A changed initial value or name is a changed program.
        assert_ne!(program_fingerprint(&p), program_fingerprint(&build("p", 1)));
        assert_ne!(program_fingerprint(&p), program_fingerprint(&build("q", 0)));
        // Domain separation from raw byte hashing.
        assert_ne!(
            program_fingerprint(&p),
            Fnv128::hash_bytes(&p.canonical_bytes())
        );
    }

    #[test]
    fn single_byte_digest_matches_direct_computation() {
        // FNV-1a: (offset ^ byte) * prime.
        let expected = (FNV_OFFSET ^ b'a' as u128).wrapping_mul(FNV_PRIME);
        assert_eq!(Fnv128::hash_bytes(b"a"), expected);
        // Determinism across calls.
        assert_eq!(Fnv128::hash_bytes(b"a"), Fnv128::hash_bytes(b"a"));
    }
}
