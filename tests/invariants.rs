//! The paper's §3 counting inequality, asserted across the entire corpus
//! under `dpor` and for every strategy on one representative per family:
//!
//! ```text
//! #states ≤ #lazy HBRs ≤ #HBRs ≤ #schedules ≤ limit
//! ```

use lazylocks::{ExploreConfig, ExploreSession, ExploreStats};
use lazylocks_suite::Benchmark;
use std::sync::OnceLock;

const LIMIT: usize = 1_500;

const SPECS: [&str; 7] = [
    "dfs",
    "dpor",
    "dpor(deps=lazy-locks)",
    "caching",
    "caching(mode=lazy)",
    "lazy-dpor",
    "random",
];

/// Every benchmark with its `dpor` stats, explored once and shared by the
/// corpus-wide tests below.
fn dpor_sweep() -> &'static [(Benchmark, ExploreStats)] {
    static SWEEP: OnceLock<Vec<(Benchmark, ExploreStats)>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        lazylocks_suite::all()
            .into_iter()
            .map(|bench| {
                let stats = ExploreSession::new(&bench.program)
                    .with_config(ExploreConfig::with_limit(LIMIT))
                    .run_spec("dpor")
                    .unwrap()
                    .stats;
                (bench, stats)
            })
            .collect()
    })
}

#[test]
fn inequality_holds_for_every_benchmark_under_dpor() {
    let sweep = dpor_sweep();
    assert_eq!(sweep.len(), 79);
    for (bench, stats) in sweep {
        stats
            .check_inequality()
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(
            stats.schedules <= LIMIT,
            "{}: schedule limit not respected",
            bench.name
        );
    }
}

#[test]
fn inequality_holds_for_every_strategy_on_representatives() {
    // One representative per family keeps the full cross-product fast.
    let representatives = [
        "paper-figure1",
        "coarse-disjoint-t3-r1",
        "coarse-shared-t2-r2",
        "fine-t3-e2",
        "accounts-coarse-shared2",
        "accounts-fine-deadlock2",
        "buffer-c1-p1x1",
        "philosophers-naive-3",
        "rw-r1-w1",
        "indexer-t2-s2",
        "fs-t2-i2-b2",
        "lastzero-t2-n2",
        "peterson",
        "barrier-2-s1",
        "pipeline-2-s2",
        "workqueue-w2-i2",
    ];
    for name in representatives {
        let bench = lazylocks_suite::by_name(name).unwrap_or_else(|| panic!("missing {name}"));
        let session =
            ExploreSession::new(&bench.program).with_config(ExploreConfig::with_limit(LIMIT));
        for spec in SPECS {
            let stats = session.run_spec(spec).unwrap().stats;
            stats
                .check_inequality()
                .unwrap_or_else(|e| panic!("{name} under {spec}: {e}"));
        }
    }
}

#[test]
fn lazy_class_count_never_exceeds_regular_anywhere() {
    for (bench, stats) in dpor_sweep() {
        assert!(
            stats.unique_lazy_hbrs <= stats.unique_hbrs,
            "{}: {} lazy classes > {} regular classes",
            bench.name,
            stats.unique_lazy_hbrs,
            stats.unique_hbrs
        );
    }
}

#[test]
fn mutex_free_benchmarks_sit_exactly_on_the_diagonal() {
    let mut mutex_free = 0;
    for (bench, _) in dpor_sweep() {
        if !bench.program.mutexes().is_empty() {
            continue;
        }
        mutex_free += 1;
        let stats = ExploreSession::new(&bench.program)
            .with_config(ExploreConfig::with_limit(LIMIT))
            .run_spec("dfs")
            .unwrap()
            .stats;
        assert_eq!(
            stats.unique_hbrs, stats.unique_lazy_hbrs,
            "{}: mutex-free program must have identical relations",
            bench.name
        );
    }
    assert!(mutex_free > 0, "the corpus has mutex-free benchmarks");
}
