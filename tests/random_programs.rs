//! Property-based cross-checks on generated programs: the strategies must
//! agree with exhaustive enumeration on arbitrary small guest programs,
//! not just on the curated corpus.
//!
//! The corpus comes from the `lazylocks-fuzz` shape-profile generator
//! (fixed seed, fixed case count, all five profiles, size dial cycling),
//! so every run checks exactly the same programs — a failure always
//! reproduces. Cases whose schedule space exceeds the enumeration budget
//! are skipped, with a floor asserting the corpus stays mostly
//! exhaustible.

use lazylocks::{DfsEnumeration, Dpor, ExploreConfig, Explorer, HbrCaching};
use lazylocks_hbr::{HbBuilder, HbMode};
use lazylocks_integration::{all_runs, generated_corpus};
use std::collections::{HashMap, HashSet};

const CASES: usize = 200;
const SEED: u64 = 0x5eed_1e55;

#[test]
fn dpor_and_caching_agree_with_dfs() {
    let mut compared = 0;
    for program in generated_corpus(CASES, SEED) {
        let name = program.name().to_string();
        let config = ExploreConfig::with_limit(20_000);
        let dfs = DfsEnumeration.explore(&program, &config);
        if dfs.limit_hit {
            continue; // too big to serve as ground truth
        }
        compared += 1;

        // DPOR: exact agreement on states, classes and bug classes, one
        // schedule per class.
        let dpor = Dpor::default().explore(&program, &config);
        assert!(!dpor.limit_hit, "{name}");
        assert_eq!(
            dpor.unique_states, dfs.unique_states,
            "DPOR missed states on {name}"
        );
        assert_eq!(
            dpor.unique_hbrs, dfs.unique_hbrs,
            "DPOR missed HBR classes on {name}"
        );
        // DPOR counts one class per leaf; DFS's set is the ground truth.
        assert_eq!(dpor.schedules, dfs.unique_hbrs, "{name}");
        assert_eq!(
            dpor.deadlocks > 0,
            dfs.deadlocks > 0,
            "DPOR lost deadlock parity on {name}"
        );
        assert_eq!(
            dpor.faulted_schedules > 0,
            dfs.faulted_schedules > 0,
            "DPOR lost fault parity on {name}"
        );
        for caching in [HbrCaching::regular(), HbrCaching::lazy()] {
            let stats = caching.explore(&program, &config);
            assert!(!stats.limit_hit, "{name}");
            assert_eq!(
                stats.unique_states,
                dfs.unique_states,
                "{} missed states on {name}",
                caching.name(),
            );
            assert!(stats.schedules <= dfs.schedules, "{name}");
            // Caching counts its classes from the walk instead of a set,
            // so release builds check those counts against DFS's sets.
            assert_eq!(
                stats.unique_lazy_hbrs,
                dfs.unique_lazy_hbrs,
                "{} miscounted lazy HBR classes on {name}",
                caching.name(),
            );
            let regular = match caching.mode() {
                // Regular caching keeps full parity with DFS.
                HbMode::Regular => dfs.unique_hbrs,
                // Lazy caching reaches each lazy class through one
                // regular class.
                _ => stats.unique_lazy_hbrs,
            };
            assert_eq!(
                stats.unique_hbrs,
                regular,
                "{} miscounted HBR classes on {name}",
                caching.name(),
            );
        }
    }
    assert!(
        compared >= CASES / 2,
        "the generated corpus must stay mostly exhaustible; compared only {compared}/{CASES}"
    );
}

#[test]
fn theorems_hold_on_random_programs() {
    let mut compared = 0;
    for program in generated_corpus(CASES, SEED) {
        let Some(runs) = all_runs(&program, 8_000) else {
            // Too many schedules; skip this instance.
            continue;
        };
        compared += 1;
        // Theorem 2.1 + 2.2 as class→state functions.
        for mode in [HbMode::Regular, HbMode::Lazy] {
            let mut state_of: HashMap<u128, &lazylocks_runtime::StateSnapshot> = HashMap::new();
            for (trace, state) in &runs {
                let fp = HbBuilder::from_trace(mode, &program, trace).fingerprint();
                if let Some(prev) = state_of.insert(fp, state) {
                    assert_eq!(
                        prev,
                        state,
                        "{mode:?}: same class, different states ({})",
                        program.name()
                    );
                }
            }
        }
        // Counting chain on the exhaustive space.
        let states: HashSet<_> = runs.iter().map(|(_, s)| s.clone()).collect();
        let lazy: HashSet<_> = runs
            .iter()
            .map(|(t, _)| HbBuilder::from_trace(HbMode::Lazy, &program, t).fingerprint())
            .collect();
        let regular: HashSet<_> = runs
            .iter()
            .map(|(t, _)| HbBuilder::from_trace(HbMode::Regular, &program, t).fingerprint())
            .collect();
        assert!(states.len() <= lazy.len());
        assert!(lazy.len() <= regular.len());
        assert!(regular.len() <= runs.len());
    }
    assert!(compared >= CASES / 2, "compared only {compared}/{CASES}");
}

#[test]
fn generated_programs_round_trip_the_text_format() {
    for program in generated_corpus(CASES, SEED) {
        let source = program.to_source();
        let reparsed = lazylocks_model::Program::parse(&source).expect("pretty output must parse");
        assert_eq!(program, reparsed);
        // Canonical bytes — and with them program fingerprints — survive
        // the trip byte-for-byte.
        assert_eq!(source, reparsed.to_source());
    }
}

#[test]
fn replay_reproduces_every_terminal_state() {
    for program in generated_corpus(CASES, SEED) {
        let Some(runs) = all_runs(&program, 2_000) else {
            continue;
        };
        for (trace, state) in runs.iter().take(50) {
            let schedule: Vec<_> = trace.iter().map(|e| e.thread()).collect();
            let replay = lazylocks_runtime::run_schedule(&program, &schedule)
                .expect("recorded schedules replay");
            assert_eq!(&replay.state, state);
        }
    }
}

#[test]
fn corpus_is_deterministic_and_profile_diverse() {
    let a = generated_corpus(CASES, SEED);
    let b = generated_corpus(CASES, SEED);
    assert_eq!(a, b, "equal (cases, seed) must yield the equal corpus");
    for profile in lazylocks_fuzz::ShapeProfile::ALL {
        let count = a
            .iter()
            .filter(|p| p.name().contains(profile.name()))
            .count();
        assert_eq!(count, CASES / 5, "{profile} is evenly represented");
    }
    // Deadlocks and faults both occur somewhere in the corpus — the
    // cross-checks above exercise real bug classes, not only clean runs.
    let mut deadlocks = 0;
    let mut faults = 0;
    for program in &a {
        let stats = DfsEnumeration.explore(program, &ExploreConfig::with_limit(20_000));
        if stats.limit_hit {
            continue;
        }
        deadlocks += stats.deadlocks.min(1);
        faults += stats.faulted_schedules.min(1);
    }
    assert!(deadlocks >= 5, "corpus has deadlocking cases: {deadlocks}");
    assert!(faults >= 5, "corpus has faulting cases: {faults}");
}
