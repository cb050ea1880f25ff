//! Empirical evaluation of the lazy-DPOR prototype (the paper's §4 future
//! work): how much reduction it buys and where it loses soundness, measured
//! against exhaustive ground truth.

use lazylocks::{DependenceMode, Dpor, ExploreConfig, Explorer, LazyDpor};
use lazylocks_integration::exhaustible_benchmarks;

#[test]
fn lock_acquisition_style_preserves_states_on_the_exhaustible_corpus() {
    // The headline empirical claim for the prototype: on every benchmark
    // we can fully enumerate, lazy DPOR (lock-acquisition style) reaches
    // every distinct terminal state.
    let mut reductions = Vec::new();
    for (bench, truth) in exhaustible_benchmarks(6_000) {
        let lazy = LazyDpor.explore(&bench.program, &ExploreConfig::with_limit(200_000));
        assert!(!lazy.limit_hit, "{}", bench.name);
        assert_eq!(
            lazy.unique_states, truth.unique_states,
            "{}: lazy DPOR lost states",
            bench.name
        );
        assert_eq!(
            lazy.deadlocks > 0,
            truth.deadlocks > 0,
            "{}: lazy DPOR missed/invented deadlocks",
            bench.name
        );
        let regular = Dpor::default().explore(&bench.program, &ExploreConfig::with_limit(200_000));
        reductions.push((bench.name.clone(), regular.schedules, lazy.schedules));
    }
    // The prototype must actually *win* somewhere.
    let wins = reductions.iter().filter(|(_, r, l)| l < r).count();
    assert!(
        wins >= 5,
        "lazy DPOR should beat DPOR on several benchmarks; wins: {wins} of {}",
        reductions.len()
    );
}

#[test]
fn aggregate_schedule_counts_shrink_with_laziness() {
    // Per-benchmark monotonicity is not a theorem (lazy backtracking can
    // cost deadlock programs extra schedules), but across the exhaustible
    // corpus the aggregate ordering must hold for the like-for-like pair:
    // sleep-set DPOR on the lazy lock-acquisition dependence explores
    // fewer schedules than sleep-set DPOR on the regular one. (Sleep-free
    // `lazy-dpor` does not beat sleep-set `dpor` in aggregate.)
    let lazy_locks = Dpor {
        dependence: DependenceMode::LazyLockAcquisitions,
    };
    let mut total_regular = 0usize;
    let mut total_lazy = 0usize;
    for (bench, truth) in exhaustible_benchmarks(3_000) {
        let config = ExploreConfig::with_limit(200_000);
        total_regular += Dpor::default().explore(&bench.program, &config).schedules;
        let lazy = lazy_locks.explore(&bench.program, &config);
        total_lazy += lazy.schedules;
        // Its oracle contract is bug parity: it may drop terminal states
        // (it does on the workqueue benchmarks), never a bug class.
        assert!(lazy.unique_states <= truth.unique_states, "{}", bench.name);
        assert_eq!(
            (lazy.deadlocks > 0, lazy.faulted_schedules > 0),
            (truth.deadlocks > 0, truth.faulted_schedules > 0),
            "{}: dpor(deps=lazy-locks) lost bug parity",
            bench.name
        );
    }
    assert!(
        total_lazy < total_regular,
        "aggregate: lazy {total_lazy} not below regular {total_regular}"
    );
}

#[test]
fn flagship_reduction_on_coarse_disjoint() {
    // The pattern §1 motivates: coarse lock, disjoint data. Regular DPOR
    // explores n! lock orders; lazy DPOR explores 1.
    for n in [2, 3, 4] {
        let bench = lazylocks_suite::by_name(&format!("coarse-disjoint-t{n}-r1")).unwrap();
        let config = ExploreConfig::with_limit(200_000);
        let regular = Dpor::default().explore(&bench.program, &config);
        let lazy = LazyDpor.explore(&bench.program, &config);
        let factorial: usize = (1..=n).product();
        assert_eq!(
            regular.schedules, factorial,
            "n={n}: DPOR explores n! orders"
        );
        assert_eq!(lazy.schedules, 1, "n={n}: lazy DPOR explores one");
        assert_eq!(lazy.unique_states, regular.unique_states);
    }
}
