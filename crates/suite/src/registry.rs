//! The benchmark registry: 79 programs with dense 1-based ids.

use crate::families;
use lazylocks_model::Program;

/// What a benchmark is expected to exhibit (used by the smoke tests and
/// the bug-hunting examples).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expectations {
    /// The program has at least one deadlocking schedule.
    pub may_deadlock: bool,
    /// The program has at least one schedule with an assertion failure.
    pub may_fail_assert: bool,
}

impl Expectations {
    /// `true` if the benchmark is expected to exhibit any bug class — the
    /// membership test for the regression corpus (`lazylocks corpus
    /// seed`).
    pub fn expects_bug(&self) -> bool {
        self.may_deadlock || self.may_fail_assert
    }
}

/// One benchmark of the corpus.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Dense 1-based id, stable across runs (the point label in the
    /// figures).
    pub id: usize,
    /// Unique name, usable with `lazylocks run --bench <name>`.
    pub name: String,
    /// Family name (one of the modules of [`families`](crate::families)).
    pub family: &'static str,
    /// One-line description.
    pub description: String,
    /// The guest program.
    pub program: Program,
    /// Expected bug classes.
    pub expect: Expectations,
}

/// Builds the full corpus. Deterministic: every call returns the same 79
/// benchmarks in the same order.
pub fn all() -> Vec<Benchmark> {
    let mut out: Vec<Benchmark> = Vec::with_capacity(79);
    let mut add = |name: String,
                   family: &'static str,
                   description: String,
                   program: Program,
                   expect: Expectations| {
        out.push(Benchmark {
            id: out.len() + 1,
            name,
            family,
            description,
            program,
            expect,
        });
    };

    families::paper::register(&mut add);
    families::coarse::register(&mut add);
    families::fine::register(&mut add);
    families::accounts::register(&mut add);
    families::buffer::register(&mut add);
    families::philosophers::register(&mut add);
    families::rw::register(&mut add);
    families::classic::register(&mut add);
    families::flags::register(&mut add);
    families::barrier::register(&mut add);
    families::pipeline::register(&mut add);
    families::workqueue::register(&mut add);

    debug_assert_eq!(out.len(), 79, "the corpus must have exactly 79 entries");
    out
}

/// Looks up a benchmark by 1-based id.
pub fn by_id(id: usize) -> Option<Benchmark> {
    all().into_iter().find(|b| b.id == id)
}

/// Looks up a benchmark by name.
pub fn by_name(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

/// The bug-bearing subset of the corpus: every benchmark whose
/// [`Expectations`] promise at least one deadlocking or asserting
/// schedule. This is the seed set for the regression trace corpus.
pub fn buggy() -> Vec<Benchmark> {
    all()
        .into_iter()
        .filter(|b| b.expect.expects_bug())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn corpus_has_79_unique_benchmarks() {
        let suite = all();
        assert_eq!(suite.len(), 79);
        let names: HashSet<_> = suite.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names.len(), 79, "names must be unique");
        for (i, b) in suite.iter().enumerate() {
            assert_eq!(b.id, i + 1, "ids must be dense and 1-based");
        }
    }

    #[test]
    fn every_program_carries_its_benchmark_name() {
        for b in all() {
            assert_eq!(b.program.name(), b.name, "benchmark {}", b.id);
        }
    }

    #[test]
    fn every_program_validates() {
        for b in all() {
            b.program
                .validate()
                .unwrap_or_else(|e| panic!("{} fails validation: {e}", b.name));
            assert!(!b.description.is_empty());
        }
    }

    #[test]
    fn lookups_work() {
        assert_eq!(by_id(1).unwrap().name, "paper-figure1");
        assert!(by_id(0).is_none());
        assert!(by_id(80).is_none());
        let b = by_name("paper-figure1").unwrap();
        assert_eq!(b.id, 1);
        assert!(by_name("no-such-benchmark").is_none());
    }

    #[test]
    fn buggy_subset_matches_expectations() {
        let buggy = buggy();
        assert!(!buggy.is_empty(), "the corpus has bug-bearing benchmarks");
        for b in &buggy {
            assert!(b.expect.expects_bug());
        }
        let expected: usize = all().iter().filter(|b| b.expect.expects_bug()).count();
        assert_eq!(buggy.len(), expected);
        assert!(
            buggy.iter().any(|b| b.name == "philosophers-naive-2"),
            "naive philosophers belong to the regression seed set"
        );
    }

    #[test]
    fn registry_is_deterministic() {
        let a = all();
        let b = all();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.program, y.program);
        }
    }

    #[test]
    fn families_are_represented() {
        let suite = all();
        let families: HashSet<_> = suite.iter().map(|b| b.family).collect();
        for f in [
            "paper",
            "coarse",
            "fine",
            "accounts",
            "buffer",
            "philosophers",
            "rw",
            "classic",
            "flags",
            "barrier",
            "pipeline",
            "workqueue",
        ] {
            assert!(families.contains(f), "family {f} missing");
        }
    }
}
