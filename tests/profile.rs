//! Exploration-profiler contract: attribution is deterministic, agrees
//! with the exploration statistics, and resolves to real program points
//! under both the regular and lazy DPOR strategies.
//!
//! The scrub/determinism gate mirrors the metrics layer's: wall-time
//! series are time-based and get zeroed by `scrubbed()`; everything
//! else — per-site counters, per-object counters, schedules per
//! happens-before class, subtree spans, depth buckets — is a pure
//! function of the exploration order, so two runs of a deterministic
//! strategy must serialize byte-identically.

use lazylocks::obs::site;
use lazylocks::{ExploreConfig, ExploreSession, ProfileHandle};
use lazylocks_trace::{render_profile, Json, ProfileDoc};

const LIMIT: usize = 2_000;

fn bench(name: &str) -> lazylocks_suite::Benchmark {
    lazylocks_suite::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"))
}

fn profiled_run(
    b: &lazylocks_suite::Benchmark,
    spec: &str,
) -> (lazylocks::obs::ProfileSnapshot, lazylocks::ExploreStats) {
    let profiler = ProfileHandle::enabled();
    let outcome = ExploreSession::new(&b.program)
        .with_config(ExploreConfig::with_limit(LIMIT).with_profile(profiler.clone()))
        .run_spec(spec)
        .unwrap_or_else(|e| panic!("{}/{spec}: {e}", b.name));
    let snap = profiler
        .snapshot()
        .expect("enabled profiler has a snapshot");
    (snap, outcome.stats)
}

/// Two fresh handles, same deterministic strategy → byte-identical
/// scrubbed JSON. This is the in-process half of the determinism gate;
/// CI repeats it across two fresh processes via `run --profile`.
#[test]
fn scrubbed_attribution_is_deterministic_across_runs() {
    let b = bench("philosophers-naive-3");
    for spec in ["dpor(sleep=true)", "lazy-dpor", "dfs", "caching"] {
        let (first, _) = profiled_run(&b, spec);
        let (second, _) = profiled_run(&b, spec);
        assert_eq!(
            first.scrubbed().to_json_string(),
            second.scrubbed().to_json_string(),
            "{spec}: scrubbed profiles diverged between identical runs"
        );
    }
}

/// The redundancy table must agree with the engine's own accounting:
/// every complete schedule lands in exactly one class per relation, and
/// the distinct-class counts are the stats' unique-HBR counts. `dpor` and
/// both caching modes count their classes from the walk instead of a
/// set, so the profiler's class maps recount them here, in release
/// builds too.
#[test]
fn redundancy_accounting_matches_exploration_stats() {
    let specs = [
        "dpor(sleep=true)",
        "lazy-dpor",
        "caching",
        "caching(mode=lazy)",
    ];
    for b in ["paper-figure1", "philosophers-naive-3"].map(bench) {
        for spec in specs {
            let (snap, stats) = profiled_run(&b, spec);
            let run = format!("{}/{spec}", b.name);
            assert_eq!(snap.schedules, stats.schedules as u64, "{run}");
            assert_eq!(snap.events, stats.events, "{run}");
            let [regular, lazy] = &snap.classes;
            assert_eq!(regular.relation, "regular");
            assert_eq!(lazy.relation, "lazy");
            assert_eq!(regular.distinct, stats.unique_hbrs as u64, "{run}");
            assert_eq!(lazy.distinct, stats.unique_lazy_hbrs as u64, "{run}");
            assert_eq!(regular.schedules, snap.schedules, "{run}");
            assert_eq!(lazy.schedules, snap.schedules, "{run}");
            // Paper §3: #lazy HBRs ≤ #HBRs ≤ #schedules, so lazy redundancy
            // is at least regular redundancy.
            assert!(lazy.redundant() >= regular.redundant(), "{run}");
            // The per-class top list never claims more than the totals.
            for c in &snap.classes {
                assert!(c.distinct <= c.schedules, "{run}: {}", c.relation);
                let top_sum: u64 = c.top.iter().map(|(_, n)| n).sum();
                assert!(top_sum <= c.schedules, "{run}: {}", c.relation);
            }
        }
    }
}

/// Both paper strategies produce per-site attribution that resolves to
/// real program points, and the rendered report names them.
#[test]
fn both_strategies_attribute_races_to_sites() {
    // Contended enough that both strategies reschedule: paper-figure1's
    // two schedules give lazy-dpor nothing to attribute.
    let b = bench("philosophers-naive-3");
    for spec in ["dpor(sleep=true)", "lazy-dpor"] {
        let (snap, _) = profiled_run(&b, spec);
        assert!(!snap.sites.is_empty(), "{spec}: no site attribution");
        let races: u64 = snap.sites.iter().map(|s| s.counts[site::RACES]).sum();
        assert!(races > 0, "{spec}: no races attributed on a racy program");
        // Every site must point into the program.
        for s in &snap.sites {
            let thread = &b.program.threads()[s.thread as usize];
            assert!(
                (s.pc as usize) < thread.code.len(),
                "{spec}: site pc {} outside thread {}",
                s.pc,
                thread.name
            );
        }
        let report = render_profile(&b.program, spec, &snap);
        assert!(report.contains("hot sites"), "{spec}");
        assert!(report.contains("redundancy"), "{spec}");
        // Sites render with resolved thread names, not raw indices.
        let t0 = &b.program.threads()[0].name;
        assert!(
            report.contains(t0.as_str()),
            "{spec}: report lacks thread names"
        );
    }
}

/// Sleep-blocked subtrees are charged to the event that closed them,
/// and the total agrees with the engine's own prune counter.
#[test]
fn sleep_blocks_match_engine_prune_counter() {
    // A racy shared counter under sleep-set DPOR: the dense var
    // conflicts put whole subtrees to sleep, unlike lock-only programs
    // where the initial representative is always awake.
    let b = bench("coarse-mixed-t3");
    let (snap, stats) = profiled_run(&b, "dpor(sleep=true)");
    let sleeps: u64 = snap
        .sites
        .iter()
        .map(|s| s.counts[site::SLEEP_BLOCKS])
        .sum();
    assert_eq!(sleeps, stats.sleep_prunes as u64);
    assert!(
        stats.sleep_prunes > 0,
        "expected sleep-set pruning on philosophers"
    );
}

/// Subtree spans and depth buckets account for every schedule once.
#[test]
fn span_and_depth_profiles_cover_all_schedules() {
    let b = bench("workqueue-w2-i3");
    let (snap, stats) = profiled_run(&b, "dpor(sleep=true)");
    assert!(snap.span_count > 0);
    assert!(!snap.spans.is_empty());
    // Spans are the hottest prefixes — most schedules first.
    for w in snap.spans.windows(2) {
        assert!(w[0].schedules >= w[1].schedules);
    }
    let span_scheds: u64 = snap.spans.iter().map(|s| s.schedules).sum();
    assert!(span_scheds <= snap.schedules);
    // Depth buckets partition the schedules exactly.
    let depth_scheds: u64 = snap.depth.iter().map(|d| d.schedules).sum();
    let depth_events: u64 = snap.depth.iter().map(|d| d.events).sum();
    assert_eq!(depth_scheds, stats.schedules as u64);
    assert_eq!(depth_events, stats.events);
    // Last bucket is +Inf, the rest ascend.
    assert_eq!(snap.depth.last().unwrap().le, None);
}

/// A disabled handle records nothing and yields no snapshot — the
/// zero-overhead configuration every existing caller gets by default.
#[test]
fn disabled_profiler_yields_no_snapshot_and_does_not_perturb() {
    let b = bench("paper-figure1");
    let off = ProfileHandle::disabled();
    let outcome_off = ExploreSession::new(&b.program)
        .with_config(ExploreConfig::with_limit(LIMIT).with_profile(off.clone()))
        .run_spec("dpor(sleep=true)")
        .unwrap();
    assert!(off.snapshot().is_none());
    let (_, stats_on) = profiled_run(&b, "dpor(sleep=true)");
    // Instrumentation must never change what is explored.
    assert_eq!(outcome_off.stats.schedules, stats_on.schedules);
    assert_eq!(outcome_off.stats.events, stats_on.events);
    assert_eq!(outcome_off.stats.unique_hbrs, stats_on.unique_hbrs);
}

/// The trace-layer document round-trips the scrubbed snapshot exactly:
/// embed → serialize → parse → decode → re-serialize is the identity.
#[test]
fn profile_doc_roundtrips_scrubbed_snapshot() {
    let b = bench("philosophers-naive-2");
    let (snap, _) = profiled_run(&b, "lazy-dpor");
    let scrubbed = snap.scrubbed();
    let doc = ProfileDoc::new(&b.program, "lazy-dpor", &scrubbed);
    let text = doc.to_json_string();
    let parsed = ProfileDoc::parse(&text).expect("parse saved profile doc");
    assert_eq!(parsed.program_name, b.program.name());
    assert_eq!(parsed.strategy_spec, "lazy-dpor");
    let decoded = parsed.snapshot().expect("decode embedded snapshot");
    assert_eq!(decoded.to_json_string(), scrubbed.to_json_string());
    // The generic JSON path agrees with the dedicated decoder.
    let json = Json::parse(&text).unwrap();
    let via_json = lazylocks::ProfileSnapshot::from_json(json.get("profile").unwrap()).unwrap();
    assert_eq!(via_json, decoded);
    // And the report renders from the round-tripped document alone.
    let report = parsed.render().expect("render from parsed doc");
    assert_eq!(report, render_profile(&b.program, "lazy-dpor", &scrubbed));
}
