//! The 79-program benchmark corpus.
//!
//! The paper evaluates the lazy happens-before relation on 79 open-source
//! multithreaded Java benchmarks. Those programs (and the JVM they run on)
//! are not reproducible here, so this crate substitutes **79 synthetic
//! guest programs across 16 families** chosen to span the axis the paper's
//! figures measure: how much of a program's schedule diversity is
//! mutex-induced (and therefore invisible to the lazy HBR) versus
//! data-induced (visible to both relations).
//!
//! * Heavy lazy-HBR winners: coarse locks over disjoint or read-only data
//!   ([`families::coarse`]), lock-step protocols whose critical sections
//!   do not conflict ([`families::philosophers`],
//!   [`families::workqueue`], the coarse [`families::accounts`] variants).
//! * Diagonal benchmarks: lock-free flag protocols ([`families::flags`],
//!   where the two relations coincide) and coarse locks over *shared*
//!   mutable data ([`families::coarse`]'s shared variants, where every
//!   lock order is also a data order).
//! * Classic systematic-concurrency-testing programs: the `indexer` and
//!   `filesystem` benchmarks of Flanagan & Godefroid's DPOR paper and the
//!   `last-zero` stress test ([`families::classic`]).
//! * Bug-bearing programs (deadlocking philosophers and unordered account
//!   transfers) are flagged via [`Expectations`].
//!
//! ```
//! let suite = lazylocks_suite::all();
//! assert_eq!(suite.len(), 79);
//! assert_eq!(suite[0].name, "paper-figure1");
//! // Ids are 1-based and dense, like the paper's figures.
//! for (i, b) in suite.iter().enumerate() {
//!     assert_eq!(b.id, i + 1);
//! }
//! ```

pub mod families;
mod registry;

pub use registry::{all, buggy, by_id, by_name, Benchmark, Expectations};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_corpus() {
        // A sweep maps `all()` to one row per benchmark; each row must lead
        // back to its benchmark by id and by name, as `--bench` looks it up.
        let rows: Vec<(usize, String)> = all().into_iter().map(|b| (b.id, b.name)).collect();
        assert_eq!(rows.len(), 79);
        assert_eq!(rows[0].0, 1);
        for (id, name) in &rows {
            assert_eq!(&by_id(*id).unwrap().name, name);
            assert_eq!(by_name(name).unwrap().id, *id);
        }
    }
}
