//! Cross-strategy soundness: on every benchmark whose schedule space can
//! be fully enumerated, the reduced strategies must find exactly the
//! distinct terminal states (and relation classes) that exhaustive DFS
//! finds.

use lazylocks::{CancelToken, DfsEnumeration, Dpor, ExploreConfig, Explorer, HbrCaching};
use lazylocks_fuzz::{differential_check, Agreement, DifferentialVerdict, OracleSpec};
use lazylocks_integration::exhaustible_benchmarks;

const GROUND_LIMIT: usize = 6_000;

#[test]
fn dpor_agrees_with_dfs_on_exhaustible_benchmarks() {
    let subjects = exhaustible_benchmarks(GROUND_LIMIT);
    assert!(
        subjects.len() >= 25,
        "expected a healthy exhaustible subset, got {}",
        subjects.len()
    );
    let oracle = [OracleSpec::new("dpor", Agreement::FullParity).unwrap()];
    let cancel = CancelToken::new();
    for (bench, truth) in &subjects {
        let stats = Dpor::default().explore(&bench.program, &ExploreConfig::with_limit(200_000));
        assert!(!stats.limit_hit, "{}: DPOR should finish", bench.name);
        assert_eq!(
            stats.unique_states, truth.unique_states,
            "{}: DPOR missed states",
            bench.name
        );
        assert_eq!(
            stats.unique_hbrs, truth.unique_hbrs,
            "{}: DPOR missed HBR classes",
            bench.name
        );
        // DPOR counts one class per leaf, so check that count against
        // the classes DFS found by fingerprint.
        assert_eq!(
            stats.schedules, truth.unique_hbrs,
            "{}: DPOR explored a class twice",
            bench.name
        );
        assert_eq!(
            stats.deadlocks > 0,
            truth.deadlocks > 0,
            "{}: deadlock detection differs",
            bench.name
        );
        // The counts agree; the differential oracle also compares the
        // terminal-state and HBR fingerprint *sets*.
        let case = differential_check(&bench.program, &oracle, GROUND_LIMIT, 1, &cancel);
        match case.verdict {
            DifferentialVerdict::Agreement => {}
            other => panic!("{}: {other:?}", bench.name),
        }
    }
}

#[test]
fn caching_strategies_preserve_states_when_exhaustive() {
    for (bench, truth) in exhaustible_benchmarks(GROUND_LIMIT) {
        for explorer in [HbrCaching::regular(), HbrCaching::lazy()] {
            let stats = explorer.explore(&bench.program, &ExploreConfig::with_limit(200_000));
            assert!(!stats.limit_hit, "{}: caching should finish", bench.name);
            assert_eq!(
                stats.unique_states,
                truth.unique_states,
                "{} under {}: states differ",
                bench.name,
                explorer.name()
            );
            assert!(
                stats.schedules <= truth.schedules,
                "{} under {}: more schedules than DFS",
                bench.name,
                explorer.name()
            );
        }
    }
}

#[test]
fn dfs_is_deterministic() {
    let bench = lazylocks_suite::by_name("coarse-shared-t2-r2").unwrap();
    let a = DfsEnumeration.explore(&bench.program, &ExploreConfig::with_limit(50_000));
    let b = DfsEnumeration.explore(&bench.program, &ExploreConfig::with_limit(50_000));
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.unique_states, b.unique_states);
    assert_eq!(a.unique_hbrs, b.unique_hbrs);
    assert_eq!(a.events, b.events);
}
