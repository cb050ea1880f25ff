//! Shared helpers for the cross-crate integration tests.

use lazylocks::{DfsEnumeration, ExploreConfig, ExploreStats, Explorer};
use lazylocks_model::Program;
use lazylocks_runtime::{Event, ExecPhase, Executor, StateSnapshot};

/// Exhaustive ground truth for `program`: `None` if the schedule space
/// exceeds `limit` (the caller should then skip exact comparisons).
pub fn ground_truth(program: &Program, limit: usize) -> Option<ExploreStats> {
    let stats = DfsEnumeration.explore(program, &ExploreConfig::with_limit(limit));
    if stats.limit_hit || stats.truncated_runs > 0 {
        None
    } else {
        Some(stats)
    }
}

/// Every complete run of `program` as `(trace, terminal state)`, capped at
/// `cap` runs (returns `None` when the cap is hit).
pub fn all_runs(program: &Program, cap: usize) -> Option<Vec<(Vec<Event>, StateSnapshot)>> {
    let mut out = Vec::new();
    let complete = dfs_runs(&Executor::new(program), &mut Vec::new(), &mut out, cap);
    complete.then_some(out)
}

fn dfs_runs(
    exec: &Executor,
    trace: &mut Vec<Event>,
    out: &mut Vec<(Vec<Event>, StateSnapshot)>,
    cap: usize,
) -> bool {
    if out.len() >= cap {
        return false;
    }
    if !matches!(exec.phase(), ExecPhase::Running) {
        out.push((trace.clone(), exec.snapshot()));
        return true;
    }
    for t in exec.enabled_threads() {
        let mut child = exec.clone();
        let step = child.step(t);
        let pushed = step.event.is_some();
        if let Some(e) = step.event {
            trace.push(e);
        }
        let ok = dfs_runs(&child, trace, out, cap);
        if pushed {
            trace.pop();
        }
        if !ok {
            return false;
        }
    }
    true
}

/// The deterministic generated-program corpus for property tests: `cases`
/// programs drawn through `lazylocks_fuzz::corpus` — the *same* derivation
/// the fuzz harness uses (all shape profiles round-robin, size dial
/// cycling, per-case seeds drawn up front). Equal `(cases, seed)` always
/// yield the same corpus — a failure always reproduces.
pub fn generated_corpus(cases: usize, seed: u64) -> Vec<Program> {
    lazylocks_fuzz::corpus(&[], lazylocks_fuzz::MAX_SIZE, cases, seed)
        .into_iter()
        .map(|case| case.program)
        .collect()
}

/// The exhaustible subset of the benchmark corpus: programs whose full
/// schedule space fits under `limit` complete schedules. Used to keep
/// exact-agreement tests fast and deterministic.
pub fn exhaustible_benchmarks(limit: usize) -> Vec<(lazylocks_suite::Benchmark, ExploreStats)> {
    lazylocks_suite::all()
        .into_iter()
        .filter_map(|b| ground_truth(&b.program, limit).map(|g| (b, g)))
        .collect()
}

/// Compares `actual` with the golden file at `path`, byte for byte.
///
/// With `LAZYLOCKS_BLESS` set it writes `actual` to `path` instead. On a
/// mismatch it panics with the first 8 diverging lines (a full dump would
/// drown the signal) and the line counts when they differ.
pub fn assert_golden(path: &str, actual: &str) {
    if std::env::var_os("LAZYLOCKS_BLESS").is_some() {
        std::fs::write(path, actual).expect("write golden file");
        eprintln!("blessed {path}");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run once with LAZYLOCKS_BLESS=1)"));
    if actual == expected {
        return;
    }
    let mut diffs: Vec<String> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .take(8)
        .map(|(a, e)| format!("  expected: {e}\n  actual:   {a}"))
        .collect();
    let (n_actual, n_expected) = (actual.lines().count(), expected.lines().count());
    if n_actual != n_expected {
        diffs.push(format!(
            "  line count: expected {n_expected}, actual {n_actual}"
        ));
    }
    panic!(
        "{path} diverged from the golden file:\n{}",
        diffs.join("\n")
    );
}
