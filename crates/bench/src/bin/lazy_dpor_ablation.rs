//! **E5** — ablation of the lazy-DPOR prototype (the paper's §4 future
//! work) against classic DPOR and the two caching modes: schedules needed
//! per benchmark under the same budget, plus a coverage check against the
//! lazy-DPOR states.
//!
//! ```text
//! cargo run --release -p lazylocks-bench --bin lazy_dpor_ablation [-- --limit 100000]
//! ```

use lazylocks::{ExploreConfig, ExploreSession, ExploreStats, StrategyRegistry};
use lazylocks_bench::limit_from_args;

fn main() {
    let limit = limit_from_args(5_000);
    let registry = StrategyRegistry::default();
    println!("schedules explored per strategy (limit {limit}; * = limit hit)\n");
    println!(
        "{:>3}  {:<28} {:>9} {:>9} {:>9} {:>9}  states d/l",
        "id", "name", "dpor", "lazydpor", "caching", "lazycache"
    );
    let mut totals = [0usize; 4];
    let mut lazy_wins = 0usize;
    let mut state_mismatches = 0usize;
    for bench in lazylocks_suite::all() {
        let session =
            ExploreSession::new(&bench.program).with_config(ExploreConfig::with_limit(limit));
        let run = |spec: &str| -> ExploreStats {
            session
                .run_with(&registry, spec)
                .expect("registered spec")
                .stats
        };
        let dpor = run("dpor");
        let lazy = run("lazy-dpor");
        let caching = run("caching");
        let lazy_caching = run("caching(mode=lazy)");
        for (t, s) in totals.iter_mut().zip([
            dpor.schedules,
            lazy.schedules,
            caching.schedules,
            lazy_caching.schedules,
        ]) {
            *t += s;
        }
        if lazy.schedules < dpor.schedules && !dpor.limit_hit {
            lazy_wins += 1;
        }
        let coverage = if dpor.limit_hit || lazy.limit_hit {
            "?".to_string()
        } else if dpor.unique_states == lazy.unique_states {
            "=".to_string()
        } else {
            state_mismatches += 1;
            format!("{}≠{}", dpor.unique_states, lazy.unique_states)
        };
        println!(
            "{:>3}  {:<28} {:>8}{} {:>8}{} {:>8}{} {:>8}{}  {}",
            bench.id,
            bench.name,
            dpor.schedules,
            mark(dpor.limit_hit),
            lazy.schedules,
            mark(lazy.limit_hit),
            caching.schedules,
            mark(caching.limit_hit),
            lazy_caching.schedules,
            mark(lazy_caching.limit_hit),
            coverage
        );
    }
    println!(
        "\ntotals: dpor={} lazy-dpor={} caching={} lazy-caching={}",
        totals[0], totals[1], totals[2], totals[3]
    );
    println!("benchmarks where lazy DPOR strictly beats DPOR (both exhaustive): {lazy_wins}");
    println!(
        "state-coverage mismatches of lazy DPOR vs DPOR on exhaustive benchmarks: {state_mismatches}"
    );
}

fn mark(hit: bool) -> char {
    if hit {
        '*'
    } else {
        ' '
    }
}
