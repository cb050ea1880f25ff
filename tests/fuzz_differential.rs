//! End-to-end checks of the fuzzing subsystem across crates: the shipped
//! oracle agrees over a generated corpus, and an intentionally broken
//! strategy (test-only fault injection) is caught, shrunk to a
//! near-minimal `.llk` repro, persisted as a trace artifact, and
//! reproduced by the replay machinery.

use lazylocks::{
    CancelToken, DfsEnumeration, ExploreConfig, ExploreStats, Explorer, MetricsHandle,
};
use lazylocks_fuzz::{
    default_oracle_specs, run_fuzz, Agreement, CaseStatus, FuzzConfig, OracleSpec, ShapeProfile,
};
use lazylocks_model::Program;
use lazylocks_trace::{replay_embedded, CorpusStore, TraceArtifact};

fn temp_store(tag: &str) -> CorpusStore {
    let dir = std::env::temp_dir().join(format!("lazylocks-fuzz-int-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    CorpusStore::open(dir).unwrap()
}

#[test]
fn shipped_oracle_agrees_across_every_profile() {
    let config = FuzzConfig {
        profiles: ShapeProfile::ALL.to_vec(),
        cases: 40,
        seed: 0xd1ff,
        budget: 15_000,
        max_size: 3,
    };
    let report = run_fuzz(
        &config,
        &default_oracle_specs(),
        None,
        &CancelToken::new(),
        &MetricsHandle::disabled(),
        |_| {},
    );
    assert_eq!(report.cases.len(), 40);
    assert_eq!(
        report.total_disagreements(),
        0,
        "shipped strategies must honour their contracts: {:#?}",
        report
            .cases
            .iter()
            .filter(|c| c.status == CaseStatus::Disagreed)
            .collect::<Vec<_>>()
    );
    // The corpus must be meaningful: mostly exhaustible, with bug-bearing
    // cases in the mix (deadlock-prone and data-race-rich profiles).
    let compared = report.cases.len() - report.count(CaseStatus::Unexhausted);
    assert!(compared >= 30, "corpus mostly exhaustible, got {compared}");
    assert!(
        report.count(CaseStatus::AgreedBuggy) >= 3,
        "the corpus exercises bug classes"
    );
}

/// DFS that silently drops every subtree after the first few schedules —
/// the injected fault the oracle must catch.
struct LossyDfs {
    keep: usize,
}

impl Explorer for LossyDfs {
    fn name(&self) -> String {
        "lossy-dfs".to_string()
    }
    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        let mut config = config.clone();
        config.schedule_limit = self.keep;
        let mut stats = DfsEnumeration.explore(program, &config);
        stats.limit_hit = false; // lie: pretend the tree was covered
        stats
    }
}

#[test]
fn injected_fault_is_caught_shrunk_persisted_and_replayed() {
    // The broken strategy claims full parity; data-race-rich programs with
    // more than one terminal state expose it immediately.
    let oracle = [OracleSpec::with_explorer(
        "lossy-dfs",
        Agreement::FullParity,
        LossyDfs { keep: 1 },
    )];
    let store = temp_store("lossy");
    let config = FuzzConfig {
        profiles: vec![ShapeProfile::DataRaceRich],
        cases: 6,
        seed: 21,
        budget: 15_000,
        max_size: 2,
    };
    let report = run_fuzz(
        &config,
        &oracle,
        Some(&store),
        &CancelToken::new(),
        &MetricsHandle::disabled(),
        |_| {},
    );
    let disagreed: Vec<_> = report
        .cases
        .iter()
        .filter(|c| c.status == CaseStatus::Disagreed)
        .collect();
    assert!(
        !disagreed.is_empty(),
        "the lossy strategy must be caught: {:#?}",
        report.cases
    );

    let mut replayed = 0;
    for case in &disagreed {
        assert!(
            case.disagreements
                .iter()
                .all(|d| d.spec == "lossy-dfs" && d.strategy_id == "lossy-dfs"),
            "every disagreement names the injected strategy"
        );
        for repro in &case.repros {
            // Acceptance bar: shrunk repros are near-minimal.
            assert!(
                repro.instructions <= 25,
                "shrunk repro must be <= 25 instructions, got {} for\n{}",
                repro.instructions,
                repro.artifact.program_source
            );
            let path = repro.path.as_ref().expect("repros persist into the store");
            assert!(path.exists());

            // A fresh decode of the on-disk artifact replays: the embedded
            // shrunk program + schedule reproduce the recorded outcome.
            let artifact = TraceArtifact::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            let replay = replay_embedded(&artifact, &MetricsHandle::disabled()).unwrap();
            assert!(replay.reproduced(), "{path:?} must reproduce, got {replay}");

            // The embedded program still distinguishes lossy from real
            // DFS on at least one compared counter (which one depends on
            // the disagreement class the shrinker preserved — a minimal
            // read-write race separates on HBR classes, not states).
            let shrunk = Program::parse(&artifact.program_source).unwrap();
            let truth = DfsEnumeration.explore(&shrunk, &ExploreConfig::with_limit(15_000));
            let lossy = LossyDfs { keep: 1 }.explore(&shrunk, &ExploreConfig::with_limit(15_000));
            assert!(
                truth.unique_states > lossy.unique_states
                    || truth.unique_hbrs > lossy.unique_hbrs
                    || truth.unique_lazy_hbrs > lossy.unique_lazy_hbrs
                    || truth.deadlocks.min(1) > lossy.deadlocks.min(1)
                    || truth.faulted_schedules.min(1) > lossy.faulted_schedules.min(1),
                "shrunk program still separates the strategies:\n{}",
                artifact.program_source
            );
            replayed += 1;
        }
    }
    assert!(replayed >= 1, "at least one persisted repro was verified");
    std::fs::remove_dir_all(store.root()).ok();
}

#[test]
fn fuzz_harness_report_is_deterministic_for_equal_configs() {
    let config = FuzzConfig {
        profiles: vec![ShapeProfile::DeadlockProne, ShapeProfile::Branchy],
        cases: 12,
        seed: 5,
        budget: 10_000,
        max_size: 2,
    };
    let oracle = default_oracle_specs();
    let run = || {
        run_fuzz(
            &config,
            &oracle,
            None,
            &CancelToken::new(),
            &MetricsHandle::disabled(),
            |_| {},
        )
    };
    let a = run();
    let b = run();
    for (x, y) in a.cases.iter().zip(&b.cases) {
        assert_eq!(x.program_name, y.program_name);
        assert_eq!(x.fingerprint, y.fingerprint);
        assert_eq!(x.status, y.status);
        assert_eq!(x.dfs, y.dfs);
    }
}
