//! End-to-end reproduction of every claim the paper makes about its
//! Figure 1 example (§2).

use lazylocks::{DfsEnumeration, Dpor, ExploreConfig, ExploreSession, Explorer, HbrCaching};
use lazylocks_hbr::{replay_events, HbBuilder, HbMode};
use lazylocks_model::{ThreadId, VisibleKind};
use lazylocks_runtime::run_schedule;
use std::collections::HashSet;

fn figure1() -> lazylocks_model::Program {
    lazylocks_suite::by_name("paper-figure1").unwrap().program
}

/// "T1 first" — the schedule drawn in Figure 1.
fn figure1_schedule() -> Vec<ThreadId> {
    vec![
        ThreadId(0),
        ThreadId(0),
        ThreadId(0),
        ThreadId(0),
        ThreadId(1),
        ThreadId(1),
        ThreadId(1),
        ThreadId(1),
    ]
}

#[test]
fn figure1_trace_matches_the_paper() {
    let p = figure1();
    let run = run_schedule(&p, &figure1_schedule()).unwrap();
    let kinds: Vec<String> = run
        .trace
        .iter()
        .map(|e| format!("{}:{}", e.thread(), e.kind))
        .collect();
    assert_eq!(
        kinds,
        vec![
            "t0:lock(m0)",
            "t0:read(v0)",
            "t0:unlock(m0)",
            "t0:write(v1)",
            "t1:write(v2)",
            "t1:lock(m0)",
            "t1:read(v0)",
            "t1:unlock(m0)",
        ]
    );
}

#[test]
fn figure1_hbr_has_exactly_the_drawn_inter_thread_edge() {
    // The figure shows one inter-thread edge: T1's unlock(m) → T2's
    // lock(m) (plus transitivity). In particular the writes to y and z are
    // unordered.
    let p = figure1();
    let run = run_schedule(&p, &figure1_schedule()).unwrap();
    let rel = HbBuilder::from_trace(HbMode::Regular, &p, &run.trace);
    let ix = |thread: u16, kind: VisibleKind| {
        run.trace
            .iter()
            .position(|e| e.thread() == ThreadId(thread) && e.kind == kind)
            .unwrap()
    };
    let unlock_t1 = ix(0, VisibleKind::Unlock(lazylocks_model::MutexId(0)));
    let lock_t2 = ix(1, VisibleKind::Lock(lazylocks_model::MutexId(0)));
    let write_y = ix(0, VisibleKind::Write(lazylocks_model::VarId(1)));
    let write_z = ix(1, VisibleKind::Write(lazylocks_model::VarId(2)));
    assert!(rel.happens_before(unlock_t1, lock_t2), "the mutex edge");
    assert!(rel.concurrent(write_y, write_z), "y and z writes unordered");

    // "The write to z can be swapped with the event above it several more
    // times": z's write is concurrent with everything T1 does.
    for i in 0..4 {
        assert!(rel.concurrent(i, write_z), "event {i} vs write(z)");
    }
}

#[test]
fn figure1_swapping_unordered_events_preserves_the_state() {
    // Theorem 2.1 demonstrated exactly as the paper narrates it: swap the
    // unordered writes and replay.
    let p = figure1();
    let run = run_schedule(&p, &figure1_schedule()).unwrap();
    let rel = HbBuilder::from_trace(HbMode::Regular, &p, &run.trace);
    let lins = rel.linearizations(1_000);
    assert!(lins.complete());
    // Two 4-event chains with the single cross edge unlock₁ → lock₂.
    // Counting by the number k of T1 events before T2's lock (k ∈ {3, 4}):
    // k=3 gives 4·C(3,2)=12 interleavings, k=4 gives 5·C(2,2)=5 — 17 total.
    assert_eq!(lins.len(), 17);
    let mut states = HashSet::new();
    for order in lins.orders() {
        let replay = replay_events(&p, order).expect("Theorem 2.1");
        assert_eq!(&replay.trace, order);
        states.insert(replay.state);
    }
    assert_eq!(states.len(), 1);
}

#[test]
fn figure1_por_needs_two_schedules_regular_one_lazy() {
    let p = figure1();
    // "a POR technique would only need to consider two schedules":
    // sleep-set DPOR reaches exactly that ideal, one per class.
    let dpor = Dpor::default().explore(&p, &ExploreConfig::with_limit(10_000));
    assert_eq!(dpor.schedules, 2);
    assert_eq!(dpor.unique_hbrs, 2);
    // "a partial-order algorithm would only need to explore a single
    // schedule" with the lazy HBR.
    let lazy = HbrCaching::lazy().explore(&p, &ExploreConfig::with_limit(10_000));
    assert_eq!(lazy.schedules, 1);
    assert_eq!(lazy.unique_lazy_hbrs, 1);
    // And indeed one state overall.
    let dfs = DfsEnumeration.explore(&p, &ExploreConfig::with_limit(100_000));
    assert!(!dfs.limit_hit);
    assert_eq!(dfs.unique_states, 1);
}

#[test]
fn figure1_lazy_linearization_infeasibility_example() {
    // "a schedule in which T2's lock event occurs between T1's lock and
    // unlock events cannot be executed".
    let p = figure1();
    // T1 locks, then T2 write(z) + lock attempt.
    let bad = vec![ThreadId(0), ThreadId(1), ThreadId(1)];
    let err = run_schedule(&p, &bad).unwrap_err();
    assert_eq!(err.position, 2, "T2's lock is the blocked step");
    assert_eq!(err.thread, ThreadId(1));
}

#[test]
fn figure1_every_strategy_reaches_the_single_state() {
    let p = figure1();
    let session = ExploreSession::new(&p).with_config(ExploreConfig::with_limit(10_000));
    for spec in [
        "dfs",
        "dpor",
        "dpor(deps=lazy-locks)",
        "caching",
        "caching(mode=lazy)",
        "lazy-dpor",
    ] {
        let outcome = session.run_spec(spec).unwrap();
        assert_eq!(outcome.stats.unique_states, 1, "{spec}");
        assert!(!outcome.found_bug(), "{spec}");
    }
}
