//! Corpus-wide smoke tests: every benchmark runs under every strategy
//! without panicking, bug expectations hold, and the text format
//! round-trips every program.

use lazylocks::{ExploreConfig, ExploreSession, Verdict};
use lazylocks_model::Program;

#[test]
fn all_79_run_under_dpor_and_caching() {
    for bench in lazylocks_suite::all() {
        let session =
            ExploreSession::new(&bench.program).with_config(ExploreConfig::with_limit(400));
        for spec in [
            "dpor(sleep=true)",
            "caching",
            "caching(mode=lazy)",
            "lazy-dpor",
        ] {
            let stats = session.run_spec(spec).unwrap().stats;
            assert!(stats.schedules > 0, "{} under {spec}", bench.name);
            assert_eq!(
                stats.truncated_runs, 0,
                "{}: corpus programs must have bounded runs",
                bench.name
            );
        }
    }
}

#[test]
fn deadlock_expectations_hold() {
    for bench in lazylocks_suite::all() {
        let outcome = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(20_000))
            .run_spec("dpor(sleep=true)")
            .unwrap();
        if bench.expect.may_deadlock {
            assert!(
                outcome.stats.deadlocks > 0,
                "{} is flagged may_deadlock but none was found",
                bench.name
            );
            assert_eq!(outcome.verdict, Verdict::BugFound, "{}", bench.name);
            assert!(
                outcome.bugs.iter().any(|b| b.is_deadlock()),
                "{}: outcome must carry the deadlock report",
                bench.name
            );
        } else {
            assert_eq!(
                outcome.stats.deadlocks, 0,
                "{} deadlocked but is not flagged",
                bench.name
            );
        }
    }
}

#[test]
fn assertion_expectations_hold() {
    for bench in lazylocks_suite::all() {
        let outcome = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(20_000))
            .run_spec("dpor(sleep=true)")
            .unwrap();
        if bench.expect.may_fail_assert {
            assert!(
                outcome.stats.faulted_schedules > 0,
                "{} is flagged may_fail_assert but no fault was found",
                bench.name
            );
            assert!(
                !outcome.bugs.is_empty(),
                "{}: outcome must carry the fault report",
                bench.name
            );
        } else {
            assert_eq!(
                outcome.stats.faulted_schedules, 0,
                "{} faulted but is not flagged",
                bench.name
            );
        }
    }
}

#[test]
fn every_benchmark_round_trips_through_the_text_format() {
    for bench in lazylocks_suite::all() {
        let source = bench.program.to_source();
        let reparsed = Program::parse(&source)
            .unwrap_or_else(|e| panic!("{}: pretty output fails to parse: {e}", bench.name));
        assert_eq!(
            bench.program, reparsed,
            "{}: text round trip changed the program",
            bench.name
        );
    }
}

#[test]
fn random_walks_cover_every_benchmark() {
    // A cheap liveness check: random scheduling completes runs everywhere.
    for bench in lazylocks_suite::all() {
        let stats = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(25).seeded(11))
            .run_spec("random")
            .unwrap()
            .stats;
        assert_eq!(stats.schedules, 25, "{}", bench.name);
        assert_eq!(stats.truncated_runs, 0, "{}", bench.name);
    }
}
