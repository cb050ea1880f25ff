//! End-to-end coverage of the session and strategy-table API: spec
//! round-trips, malformed-spec error reporting, and
//! observer-driven deadline / cancellation stopping DFS and DPOR
//! mid-exploration.

use lazylocks::{
    registry, CancelToken, ExploreConfig, ExploreOutcome, ExploreSession, Observer, Progress,
    SpecError, Verdict,
};
use lazylocks_model::{Program, ProgramBuilder, Reg};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A racy counter over `threads` threads: |schedules| grows factorially,
/// far beyond any budget used here.
fn wide_program(threads: usize) -> Program {
    let mut b = ProgramBuilder::new("wide");
    let x = b.var("x", 0);
    for i in 0..threads {
        b.thread(format!("T{i}"), |t| {
            t.load(Reg(0), x);
            t.add(Reg(0), Reg(0), 1);
            t.store(x, Reg(0));
            t.set(Reg(0), 0);
        });
    }
    b.build()
}

// ---------------------------------------------------------------- registry

#[test]
fn every_registered_spec_round_trips_to_an_equivalent_factory() {
    let program = wide_program(2);
    let config = ExploreConfig::with_limit(200);
    let specs = registry::specs();
    assert!(
        specs.len() >= 8,
        "the default registry must expose at least the 8 legacy strategies"
    );
    for spec in specs {
        // Parse → create twice: same id, same exploration results.
        let a = registry::create(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        let b = registry::create(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
        assert_eq!(a.name(), b.name(), "{spec}: unstable strategy id");
        let sa = a.explore(&program, &config);
        let sb = b.explore(&program, &config);
        assert_eq!(sa.schedules, sb.schedules, "{spec}: non-deterministic");
        assert_eq!(sa.unique_states, sb.unique_states, "{spec}");
        assert!(sa.schedules >= 1, "{spec}: explored nothing");
    }
}

#[test]
fn legacy_names_and_parameterised_specs_coexist() {
    let program = wide_program(2);
    let config = ExploreConfig::with_limit(500);
    // An alias (or the legacy `sleep=true` spelling) and its
    // parameterised canonical spelling are the same strategy.
    for (alias, canonical) in [
        ("dpor(sleep=true)", "dpor"),
        ("lazy-caching", "caching(mode=lazy)"),
        ("chess", "bounded"),
    ] {
        let a = registry::create(alias).unwrap().explore(&program, &config);
        let c = registry::create(canonical)
            .unwrap()
            .explore(&program, &config);
        assert_eq!(a.schedules, c.schedules, "{alias} vs {canonical}");
        assert_eq!(a.unique_states, c.unique_states, "{alias} vs {canonical}");
    }
}

#[test]
fn malformed_and_unknown_specs_report_structured_errors() {
    assert!(matches!(
        registry::create("dpor(sleep"),
        Err(SpecError::Malformed { .. })
    ));
    assert!(matches!(
        registry::create("dpor(sleep~true)"),
        Err(SpecError::Malformed { .. })
    ));
    assert!(matches!(
        registry::create("warp-drive"),
        Err(SpecError::UnknownStrategy { .. })
    ));
    assert!(matches!(
        registry::create("random(workers=3)"),
        Err(SpecError::UnknownParam { .. })
    ));
    assert!(matches!(
        registry::create("bounded(start=many)"),
        Err(SpecError::InvalidValue { .. })
    ));
    // And the session surfaces them instead of panicking.
    let program = wide_program(2);
    let session = ExploreSession::new(&program);
    assert!(session.run_spec("warp-drive").is_err());
}

// ------------------------------------------------- deadline / cancellation

/// Asserts `outcome` was demonstrably stopped mid-exploration.
fn assert_truncated(outcome: &ExploreOutcome, limit: usize, spec: &str) {
    assert_eq!(outcome.verdict, Verdict::Cancelled, "{spec}");
    assert!(
        outcome.stats.cancelled,
        "{spec}: cancellation must be recorded in the stats"
    );
    assert!(
        !outcome.stats.limit_hit,
        "{spec}: the budget was not the stopper"
    );
    assert!(
        outcome.stats.schedules < limit,
        "{spec}: stopped before the schedule limit ({} < {limit})",
        outcome.stats.schedules
    );
}

#[test]
fn deadline_stops_dfs_mid_exploration_before_the_schedule_limit() {
    // 7 racy threads: 21 visible events, far more schedules than any
    // wall-clock deadline this short allows.
    let program = wide_program(7);
    let limit = 50_000_000;
    let outcome = ExploreSession::new(&program)
        .with_config(ExploreConfig::with_limit(limit))
        .deadline(Duration::from_millis(30))
        .run_spec("dfs")
        .unwrap();
    assert_truncated(&outcome, limit, "dfs");
    assert!(
        outcome.stats.schedules > 0,
        "the deadline should allow some progress"
    );
}

#[test]
fn deadline_stops_dpor_mid_exploration_before_the_schedule_limit() {
    let program = wide_program(7);
    let limit = 50_000_000;
    let outcome = ExploreSession::new(&program)
        .with_config(ExploreConfig::with_limit(limit))
        .deadline(Duration::from_millis(30))
        .run_spec("dpor")
        .unwrap();
    assert_truncated(&outcome, limit, "dpor");
}

#[test]
fn cancel_token_stops_dfs_and_dpor_from_an_observer() {
    // An observer that pulls its own session's cancellation token after
    // three progress ticks — the cooperative-cancellation loop closed.
    struct TripWire {
        token: CancelToken,
        ticks: AtomicUsize,
    }
    impl Observer for TripWire {
        fn on_progress(&self, _: &Progress) {
            if self.ticks.fetch_add(1, Ordering::Relaxed) + 1 >= 3 {
                self.token.cancel();
            }
        }
    }

    let program = wide_program(6);
    let limit = 10_000_000;
    for spec in ["dfs", "dpor"] {
        let session = ExploreSession::new(&program)
            .with_config(ExploreConfig::with_limit(limit))
            .progress_every(50);
        let wire = TripWire {
            token: session.cancel_token(),
            ticks: AtomicUsize::new(0),
        };
        let outcome = session.observe(wire).run_spec(spec).unwrap();
        assert_truncated(&outcome, limit, spec);
        assert!(
            outcome.stats.schedules >= 150,
            "{spec}: three ticks of 50 schedules happened first (saw {})",
            outcome.stats.schedules
        );
        assert!(
            outcome.stats.schedules < 1_000,
            "{spec}: cancellation must bite promptly (saw {})",
            outcome.stats.schedules
        );
    }
}

#[test]
fn progress_observer_sees_monotone_schedule_counts() {
    struct Record(Mutex<Vec<usize>>);
    impl Observer for Record {
        fn on_progress(&self, p: &Progress) {
            self.0.lock().unwrap().push(p.schedules);
        }
    }
    let program = wide_program(4);
    let record = Arc::new(Record(Mutex::new(Vec::new())));
    let outcome = ExploreSession::new(&program)
        .with_config(ExploreConfig::with_limit(600))
        .progress_every(100)
        .observe_arc(record.clone())
        .run_spec("dfs")
        .unwrap();
    assert_eq!(outcome.verdict, Verdict::LimitHit);
    let ticks = record.0.lock().unwrap();
    assert_eq!(*ticks, vec![100, 200, 300, 400, 500, 600]);
}

#[test]
fn outcome_collects_multiple_distinct_bugs() {
    // AB-BA deadlock plus an assertion failure: the outcome's bug list
    // carries both kinds, first_bug agrees with bugs[0].
    let mut b = ProgramBuilder::new("two-bugs");
    let l0 = b.mutex("a");
    let l1 = b.mutex("b");
    let x = b.var("x", 0);
    b.thread("T1", |t| {
        t.lock(l0);
        t.lock(l1);
        t.unlock(l1);
        t.unlock(l0);
        t.store(x, 1);
    });
    b.thread("T2", |t| {
        t.lock(l1);
        t.lock(l0);
        t.unlock(l0);
        t.unlock(l1);
    });
    b.thread("T3", |t| {
        t.load(Reg(0), x);
        t.assert_true(Reg(0), "x must already be set");
    });
    let program = b.build();
    let outcome = ExploreSession::new(&program)
        .with_config(ExploreConfig::with_limit(100_000))
        .run_spec("dfs")
        .unwrap();
    assert_eq!(outcome.verdict, Verdict::BugFound);
    assert!(outcome.bugs.len() >= 2, "both bug kinds must be collected");
    assert!(outcome.bugs.iter().any(|b| b.is_deadlock()));
    assert!(outcome.bugs.iter().any(|b| !b.is_deadlock()));
    assert_eq!(outcome.stats.first_bug.as_ref().unwrap(), &outcome.bugs[0]);
    // Every collected bug replays deterministically.
    for bug in &outcome.bugs {
        bug.reproduce(&program).expect("bug schedules replay");
    }
}

#[test]
fn pre_cancelled_bounded_session_reports_cancelled_not_clean() {
    // Regression: a bounded run cancelled before its first wave used to
    // come back as a default (clean) stats block.
    let program = wide_program(4);
    let session = ExploreSession::new(&program).with_config(ExploreConfig::with_limit(10_000));
    session.cancel_token().cancel();
    let outcome = session.run_spec("bounded").unwrap();
    assert_eq!(outcome.verdict, Verdict::Cancelled);
    assert!(outcome.stats.cancelled);
    assert_eq!(outcome.stats.schedules, 0);
}

#[test]
fn bounded_strategy_runs_through_the_session() {
    let program = wide_program(3);
    let outcome = ExploreSession::new(&program)
        .with_config(ExploreConfig::with_limit(10_000))
        .run_spec("bounded(start=0, step=1, max=2)")
        .unwrap();
    assert_eq!(outcome.strategy_id, "bounded");
    assert!(outcome.stats.schedules > 0);
}
