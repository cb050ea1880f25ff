//! Golden differential-equivalence suite for the exploration hot loop.
//!
//! Performance work on the exploration engines (bitmask thread sets,
//! inline clocks, indexed race detection) must never change *what* is
//! explored — only how fast. This test pins the observable exploration
//! results — schedules explored, events executed, distinct terminal
//! states / HBR classes, deadlocks and faulted schedules, and every
//! prune, race-comparison, pool-hit and truncation counter — for every
//! suite family under every reduction strategy, byte-for-byte, against a
//! snapshot generated before the optimisation landed.
//!
//! Regenerate the snapshot (only when *intentionally* changing
//! exploration semantics) with:
//!
//! ```text
//! LAZYLOCKS_BLESS=1 cargo test -p lazylocks-integration --test golden_stats
//! ```
//!
//! With `LAZYLOCKS_METRICS=1` every cell additionally runs with a live
//! metrics registry; with `LAZYLOCKS_PROFILE=1`, with a live exploration
//! profiler. Either way the snapshot must still match byte-for-byte (CI
//! runs the suite once each way — instrumentation must never perturb
//! what is explored).

use lazylocks::{ExploreConfig, ExploreSession, MetricsHandle, ProfileHandle};
use std::fmt::Write as _;

/// Schedule budget per (benchmark, strategy) cell. Small enough to keep
/// the suite fast in debug builds, large enough that several cells hit
/// the limit and several finish exhaustively — both paths are pinned.
const LIMIT: usize = 400;

/// Strategies whose exploration results are pinned. Exactly the
/// reduction strategies whose hot loops the optimisation touches.
const STRATEGIES: &[&str] = &[
    "dpor",
    "dpor(deps=lazy-locks)",
    "lazy-dpor",
    "dfs",
    "caching",
];

/// Benchmarks per family included in the snapshot (the first two of each
/// family, by id — every family is represented).
const PER_FAMILY: usize = 2;

fn selected_benchmarks() -> Vec<lazylocks_suite::Benchmark> {
    let mut taken: std::collections::BTreeMap<&'static str, usize> = Default::default();
    lazylocks_suite::all()
        .into_iter()
        .filter(|b| {
            let n = taken.entry(b.family).or_insert(0);
            *n += 1;
            *n <= PER_FAMILY
        })
        .collect()
}

fn render() -> String {
    let mut out = String::new();
    out.push_str(
        "# bench\tstrategy\tschedules\tevents\tstates\thbrs\tlazy_hbrs\
         \tdeadlocks\tfaulted\tmax_depth\tlimit_hit\tsleep_prunes\tcache_prunes\
         \tbound_prunes\tevents_compared\tframes_pooled\ttruncated_runs\n",
    );
    let instrument = std::env::var_os("LAZYLOCKS_METRICS").is_some();
    let profiled = std::env::var_os("LAZYLOCKS_PROFILE").is_some();
    for bench in selected_benchmarks() {
        for spec in STRATEGIES {
            let metrics = if instrument {
                MetricsHandle::enabled()
            } else {
                MetricsHandle::disabled()
            };
            let profile = if profiled {
                ProfileHandle::enabled()
            } else {
                ProfileHandle::disabled()
            };
            let outcome = ExploreSession::new(&bench.program)
                .with_config(
                    ExploreConfig::with_limit(LIMIT)
                        .with_metrics(metrics)
                        .with_profile(profile),
                )
                .run_spec(spec)
                .unwrap_or_else(|e| panic!("{}/{spec}: {e}", bench.name));
            let s = outcome.stats;
            s.check_inequality()
                .unwrap_or_else(|e| panic!("{}/{spec}: {e}", bench.name));
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                bench.name,
                spec,
                s.schedules,
                s.events,
                s.unique_states,
                s.unique_hbrs,
                s.unique_lazy_hbrs,
                s.deadlocks,
                s.faulted_schedules,
                s.max_depth,
                s.limit_hit,
                s.sleep_prunes,
                s.cache_prunes,
                s.bound_prunes,
                s.events_compared,
                s.frames_pooled,
                s.truncated_runs,
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn exploration_results_match_golden_snapshot() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/exploration_stats.tsv");
    let actual = render();
    if std::env::var_os("LAZYLOCKS_BLESS").is_some() {
        std::fs::write(golden_path, &actual).expect("write golden snapshot");
        eprintln!("blessed {golden_path}");
        return;
    }
    let expected = std::fs::read_to_string(golden_path)
        .expect("golden snapshot missing — run once with LAZYLOCKS_BLESS=1");
    if actual != expected {
        // Show the first few diverging lines; a full dump would drown the
        // signal in a 280-line blob.
        let mut diffs = Vec::new();
        for (a, e) in actual.lines().zip(expected.lines()) {
            if a != e {
                diffs.push(format!("  expected: {e}\n  actual:   {a}"));
                if diffs.len() == 8 {
                    break;
                }
            }
        }
        if actual.lines().count() != expected.lines().count() {
            diffs.push(format!(
                "  line count: expected {}, actual {}",
                expected.lines().count(),
                actual.lines().count()
            ));
        }
        panic!(
            "exploration results diverged from the golden snapshot \
             ({} lines differ):\n{}",
            diffs.len(),
            diffs.join("\n")
        );
    }
}
