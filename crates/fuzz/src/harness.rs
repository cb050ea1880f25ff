//! The fuzzing harness: generate → differential-check → shrink → persist.
//!
//! [`run_fuzz`] drives a deterministic corpus of generated programs
//! through the differential oracle. Every case that breaks a strategy's
//! agreement contract is shrunk to a near-minimal program (the same class
//! of disagreement must keep reproducing while pieces are deleted) and
//! persisted as a self-contained [`lazylocks_trace`] artifact: a witness
//! schedule for missed states/classes, or the DFS bug schedule (minimised
//! with [`minimize_schedule`]) for missed bug classes — either way,
//! `lazylocks replay` reproduces it from the artifact alone.
//!
//! Determinism contract: with equal [`FuzzConfig`]s, two runs produce
//! byte-identical [`FuzzReport`]s (no wall-clock data is recorded), which
//! is what lets CI diff two invocations.
//!
//! [`minimize_schedule`]: lazylocks::minimize_schedule

use crate::gen::{corpus, CorpusCase, ShapeProfile, MAX_SIZE};
use crate::oracle::{
    differential_check, DifferentialVerdict, Disagreement, DisagreementKind, OracleSpec,
};
use crate::shrink::shrink_program;
use lazylocks::obs::{ids, DocFormat};
use lazylocks::{minimize_schedule, BugReport, CancelToken, DfsEnumeration, MetricsHandle};
use lazylocks_model::Program;
use lazylocks_trace::{CorpusStore, Json, TraceArtifact};
use std::path::PathBuf;

/// The `fuzz --json` report format.
pub const FUZZ_REPORT_FORMAT: DocFormat = DocFormat {
    name: "lazylocks-fuzz",
    version_key: "version",
    version: 1,
};

/// Configuration of one fuzzing session.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// Profiles to draw from, round-robin. Empty means all.
    pub profiles: Vec<ShapeProfile>,
    /// Total number of generated cases.
    pub cases: usize,
    /// Master seed; equal seeds give equal corpora and equal reports.
    pub seed: u64,
    /// Schedule budget per strategy run (and for ground truth; cases whose
    /// DFS exceeds it are recorded as unexhausted and skipped).
    pub budget: usize,
    /// Largest size-dial value; cases cycle `1..=max_size`.
    pub max_size: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            profiles: ShapeProfile::ALL.to_vec(),
            cases: 100,
            seed: 0x5eed_f022,
            budget: 20_000,
            max_size: MAX_SIZE,
        }
    }
}

/// How one case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseStatus {
    /// Every strategy honoured its contract; DFS found no bug.
    Agreed,
    /// Every strategy honoured its contract; the program itself has a
    /// deadlock and/or fault (expected for several profiles).
    AgreedBuggy,
    /// Ground truth exceeded the budget; nothing compared.
    Unexhausted,
    /// At least one contract was broken.
    Disagreed,
    /// The session was cancelled during this case.
    Cancelled,
}

impl CaseStatus {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CaseStatus::Agreed => "agreed",
            CaseStatus::AgreedBuggy => "agreed-buggy",
            CaseStatus::Unexhausted => "unexhausted",
            CaseStatus::Disagreed => "disagreed",
            CaseStatus::Cancelled => "cancelled",
        }
    }
}

/// A shrunk, persisted repro for one disagreement.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The offending strategy spec.
    pub spec: String,
    /// The disagreement class label the repro demonstrates.
    pub kind: String,
    /// Instructions in the shrunk program.
    pub instructions: usize,
    /// Choices in the embedded schedule.
    pub schedule_len: usize,
    /// Where the artifact went (`None` when no store was given or the
    /// write failed — see `save_error`).
    pub path: Option<PathBuf>,
    /// The I/O error that prevented persisting the artifact, if any.
    pub save_error: Option<String>,
    /// The artifact itself (embedded shrunk program + schedule).
    pub artifact: TraceArtifact,
}

/// Deterministic summary counters of a DFS ground truth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DfsSummary {
    pub schedules: usize,
    pub states: usize,
    pub hbrs: usize,
    pub lazy_hbrs: usize,
    pub deadlocks: usize,
    pub faulted_schedules: usize,
}

/// One fuzzed case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Dense 0-based case index.
    pub index: usize,
    /// The shape profile the case was drawn from.
    pub profile: ShapeProfile,
    /// Size-dial value used.
    pub size: usize,
    /// The generated program's name (`fuzz-<profile>-<index>`).
    pub program_name: String,
    /// Canonical program fingerprint.
    pub fingerprint: u128,
    /// How the case ended.
    pub status: CaseStatus,
    /// DFS ground-truth counters (zeroed when unexhausted/cancelled).
    pub dfs: DfsSummary,
    /// Broken contracts, empty unless `status == Disagreed`.
    pub disagreements: Vec<Disagreement>,
    /// Shrunk repros, at most one per offending spec.
    pub repros: Vec<Repro>,
}

/// The whole session.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Per-case results, in case order.
    pub cases: Vec<CaseReport>,
    /// `true` when the cancel token stopped the session early.
    pub cancelled: bool,
}

impl FuzzReport {
    /// Number of cases with the given status.
    pub fn count(&self, status: CaseStatus) -> usize {
        self.cases.iter().filter(|c| c.status == status).count()
    }

    /// Total broken contracts across all cases.
    pub fn total_disagreements(&self) -> usize {
        self.cases.iter().map(|c| c.disagreements.len()).sum()
    }

    /// Case counts per status, in report order: the `summary` of
    /// [`FuzzReport::to_json`] and the CLI's closing line.
    pub fn summary(&self) -> [(&'static str, usize); 4] {
        [
            ("agreed", self.count(CaseStatus::Agreed)),
            ("agreed_buggy", self.count(CaseStatus::AgreedBuggy)),
            ("unexhausted", self.count(CaseStatus::Unexhausted)),
            ("disagreed", self.count(CaseStatus::Disagreed)),
        ]
    }

    /// The `fuzz --json` report of a session run under `config`.
    pub fn to_json(&self, config: &FuzzConfig) -> Json {
        let cases_json: Vec<Json> = self
            .cases
            .iter()
            .map(|case| {
                Json::obj([
                    ("case", Json::Int(case.index as i128)),
                    ("profile", Json::Str(case.profile.name().to_string())),
                    ("size", Json::Int(case.size as i128)),
                    ("program", Json::Str(case.program_name.clone())),
                    ("fingerprint", Json::u128_hex(case.fingerprint)),
                    ("status", Json::Str(case.status.label().to_string())),
                    (
                        "dfs",
                        Json::obj([
                            ("schedules", Json::Int(case.dfs.schedules as i128)),
                            ("states", Json::Int(case.dfs.states as i128)),
                            ("hbrs", Json::Int(case.dfs.hbrs as i128)),
                            ("lazy_hbrs", Json::Int(case.dfs.lazy_hbrs as i128)),
                            ("deadlocks", Json::Int(case.dfs.deadlocks as i128)),
                            (
                                "faulted_schedules",
                                Json::Int(case.dfs.faulted_schedules as i128),
                            ),
                        ]),
                    ),
                    (
                        "disagreements",
                        Json::Arr(
                            case.disagreements
                                .iter()
                                .map(|d| {
                                    Json::obj([
                                        ("spec", Json::Str(d.spec.clone())),
                                        ("strategy", Json::Str(d.strategy_id.clone())),
                                        ("promised", Json::Str(d.agreement.name().to_string())),
                                        ("kind", Json::Str(d.kind.label().to_string())),
                                        ("details", Json::Str(d.kind.to_string())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    (
                        "repros",
                        Json::Arr(
                            case.repros
                                .iter()
                                .map(|r| {
                                    Json::obj([
                                        ("spec", Json::Str(r.spec.clone())),
                                        ("kind", Json::Str(r.kind.clone())),
                                        ("instructions", Json::Int(r.instructions as i128)),
                                        ("schedule_len", Json::Int(r.schedule_len as i128)),
                                        (
                                            "path",
                                            match &r.path {
                                                Some(p) => Json::Str(p.display().to_string()),
                                                None => Json::Null,
                                            },
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        FUZZ_REPORT_FORMAT.wrap([
            ("seed", Json::Int(i128::from(config.seed))),
            ("budget", Json::Int(config.budget as i128)),
            ("cases", Json::Int(config.cases as i128)),
            (
                "profiles",
                Json::Arr(
                    config
                        .profiles
                        .iter()
                        .map(|p| Json::Str(p.name().to_string()))
                        .collect(),
                ),
            ),
            ("results", Json::Arr(cases_json)),
            (
                "summary",
                Json::obj(
                    self.summary()
                        .iter()
                        .map(|(k, v)| (*k, Json::Int(*v as i128)))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }
}

/// Runs one fuzzing session. `progress` is called once per finished case
/// (in order); `cancel` stops the session cooperatively — mid-strategy,
/// through the oracle sessions' shared token.
///
/// Session counters are recorded into `metrics`
/// (`lazylocks_fuzz_cases_total` / `lazylocks_fuzz_disagreements_total`;
/// pass [`MetricsHandle::disabled`] to record nothing). They sit outside
/// the [`FuzzReport`], so the determinism contract — equal configs give
/// byte-identical reports — is unaffected.
pub fn run_fuzz(
    config: &FuzzConfig,
    oracle: &[OracleSpec],
    store: Option<&CorpusStore>,
    cancel: &CancelToken,
    metrics: &MetricsHandle,
    mut progress: impl FnMut(&CaseReport),
) -> FuzzReport {
    let mut cases = Vec::with_capacity(config.cases);
    let mut cancelled = false;

    for case in corpus(&config.profiles, config.max_size, config.cases, config.seed) {
        let CorpusCase {
            index,
            profile,
            size,
            seed: case_seed,
            program,
        } = case;
        let fingerprint = lazylocks_runtime::program_fingerprint(&program);

        let mut report = CaseReport {
            index,
            profile,
            size,
            program_name: program.name().to_string(),
            fingerprint,
            status: CaseStatus::Cancelled,
            dfs: DfsSummary::default(),
            disagreements: Vec::new(),
            repros: Vec::new(),
        };

        if cancel.is_cancelled() {
            cancelled = true;
            report.status = CaseStatus::Cancelled;
            progress(&report);
            cases.push(report);
            break;
        }

        metrics.inc(ids::FUZZ_CASES);
        let case = differential_check(&program, oracle, config.budget, case_seed, cancel);
        if let Some(truth) = &case.truth {
            report.dfs = DfsSummary {
                schedules: truth.outcome.stats.schedules,
                states: truth.outcome.stats.unique_states,
                hbrs: truth.outcome.stats.unique_hbrs,
                lazy_hbrs: truth.outcome.stats.unique_lazy_hbrs,
                deadlocks: truth.outcome.stats.deadlocks,
                faulted_schedules: truth.outcome.stats.faulted_schedules,
            };
        }
        match case.verdict {
            DifferentialVerdict::Agreement => {
                report.status = if report.dfs.deadlocks > 0 || report.dfs.faulted_schedules > 0 {
                    CaseStatus::AgreedBuggy
                } else {
                    CaseStatus::Agreed
                };
            }
            DifferentialVerdict::Unexhausted => report.status = CaseStatus::Unexhausted,
            DifferentialVerdict::Cancelled => {
                cancelled = true;
                report.status = CaseStatus::Cancelled;
            }
            DifferentialVerdict::Disagreements(disagreements) => {
                metrics.add(ids::FUZZ_DISAGREEMENTS, disagreements.len() as u64);
                report.status = CaseStatus::Disagreed;
                report.repros = build_repros(
                    &program,
                    &disagreements,
                    oracle,
                    config,
                    case_seed,
                    store,
                    cancel,
                );
                report.disagreements = disagreements;
            }
        }
        let stop = matches!(report.status, CaseStatus::Cancelled);
        progress(&report);
        cases.push(report);
        if stop {
            break;
        }
    }
    FuzzReport { cases, cancelled }
}

/// Shrinks and persists one repro per offending spec.
#[allow(clippy::too_many_arguments)]
fn build_repros(
    program: &Program,
    disagreements: &[Disagreement],
    oracle: &[OracleSpec],
    config: &FuzzConfig,
    case_seed: u64,
    store: Option<&CorpusStore>,
    cancel: &CancelToken,
) -> Vec<Repro> {
    // Witness-less kinds (schedule inflation, class counts, invented
    // bugs, inequality violations) have no schedule that demonstrates
    // anything — persisting an empty-schedule "repro" would replay as
    // reproduced while showing nothing. They stay report-only.
    let demonstrable = |d: &Disagreement| {
        d.witness.is_some()
            || matches!(
                d.kind,
                DisagreementKind::MissedDeadlock | DisagreementKind::MissedFault
            )
    };
    let mut out = Vec::new();
    let mut seen_specs: Vec<&str> = Vec::new();
    for disagreement in disagreements {
        if seen_specs.contains(&disagreement.spec.as_str()) {
            continue;
        }
        seen_specs.push(&disagreement.spec);
        // Shrink toward the spec's first *demonstrable* disagreement —
        // witness-less kinds earlier in the list must not suppress a
        // replayable repro for the same spec.
        let Some(disagreement) = disagreements
            .iter()
            .find(|d| d.spec == disagreement.spec && demonstrable(d))
        else {
            continue; // every divergence for this spec is report-only
        };
        let Some(oracle_spec) = oracle.iter().find(|o| o.spec == disagreement.spec) else {
            continue;
        };
        // The shrink invariant: the same spec still breaks a promise of
        // the same class on the candidate program.
        let reproduces = |candidate: &Program| -> Option<Disagreement> {
            let truth = crate::oracle::ground_truth(candidate, config.budget, case_seed, cancel)?;
            crate::oracle::check_strategy(
                candidate,
                oracle_spec,
                &truth,
                config.budget,
                case_seed,
                cancel,
            )
            .into_iter()
            .find(|d| d.kind.same_class(&disagreement.kind))
        };
        let shrunk = if !cancel.is_cancelled() {
            shrink_program(program, |candidate| reproduces(candidate).is_some())
        } else {
            program.clone()
        };
        // Give each offending spec its own program name — and with it its
        // own fingerprint and corpus slot — so two specs disagreeing on
        // the same case never overwrite each other's artifact.
        let shrunk = with_spec_name(&shrunk, &disagreement.spec);
        // Re-derive the divergence on the (renamed) shrunk program so the
        // embedded schedule matches the embedded program.
        let Some(final_disagreement) = reproduces(&shrunk) else {
            continue; // cancelled mid-shrink; nothing trustworthy to save
        };
        if !demonstrable(&final_disagreement) {
            continue; // shrinking landed on a report-only kind after all
        }
        let artifact = artifact_for(&shrunk, &final_disagreement, config, case_seed);
        let (path, save_error) = match store.map(|store| store.save_overwrite(&artifact)) {
            Some(Ok(path)) => (Some(path), None),
            Some(Err(e)) => (
                None,
                Some(format!("saving repro for {}: {e}", artifact.program_name)),
            ),
            None => (None, None),
        };
        out.push(Repro {
            spec: disagreement.spec.clone(),
            kind: disagreement.kind.label().to_string(),
            instructions: shrunk.instruction_count(),
            schedule_len: artifact.schedule.len(),
            path,
            save_error,
            artifact,
        });
    }
    out
}

/// Renames `program` to carry a sanitized suffix of the offending spec.
fn with_spec_name(program: &Program, spec: &str) -> Program {
    let slug: String = spec
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    Program::new(
        format!("{}-{slug}", program.name()),
        program.vars().to_vec(),
        program.mutexes().to_vec(),
        program.threads().to_vec(),
    )
    .expect("renaming a valid program keeps it valid")
}

/// Builds the self-contained artifact for a shrunk disagreement: the DFS
/// bug schedule (minimised) for missed bug classes, a clean witness
/// schedule for everything with a state/class witness.
fn artifact_for(
    shrunk: &Program,
    disagreement: &Disagreement,
    config: &FuzzConfig,
    case_seed: u64,
) -> TraceArtifact {
    let spec = &disagreement.spec;
    // No stop-on-bug: the shrunk program may fault *and* deadlock, and
    // stopping at the first bug could hide the class this repro needs.
    // The budgeted full exploration of a shrunk program is cheap, and the
    // session's bug sink keeps one report per distinct bug kind.
    let bug_schedule = |want_deadlock: bool| -> Option<BugReport> {
        let outcome = lazylocks::ExploreSession::new(shrunk)
            .with_config(lazylocks::ExploreConfig::with_limit(config.budget).seeded(case_seed))
            .run(&DfsEnumeration);
        outcome
            .bugs
            .iter()
            .find(|b| b.is_deadlock() == want_deadlock)
            .map(|bug| minimize_schedule(shrunk, bug))
    };
    let bug = match disagreement.kind {
        DisagreementKind::MissedDeadlock => bug_schedule(true),
        DisagreementKind::MissedFault => bug_schedule(false),
        _ => None,
    };
    match (&bug, &disagreement.witness) {
        (Some(bug), _) => {
            // `bug` came out of minimize_schedule above, so the flag means
            // the same thing it does for `run --save-traces` artifacts.
            let mut artifact = TraceArtifact::from_bug(shrunk, spec, case_seed, bug);
            artifact.minimized = true;
            artifact
        }
        (None, witness) => {
            // A witness trace: the schedule replays to the state/class the
            // strategy missed. Record whatever outcome the witness run
            // itself has (a missed *state* can be a deadlocked terminal),
            // so replay classification matches the artifact.
            let schedule = witness.clone().unwrap_or_default();
            let run = lazylocks_runtime::run_schedule(shrunk, &schedule)
                .expect("DFS witness schedules replay");
            let kind = if let lazylocks_runtime::RunStatus::Deadlock { waiting } = &run.status {
                Some(lazylocks::BugKind::Deadlock {
                    waiting: waiting.clone(),
                })
            } else {
                run.faults
                    .first()
                    .map(|f| lazylocks::BugKind::Fault(f.clone()))
            };
            TraceArtifact {
                tool_version: env!("CARGO_PKG_VERSION").to_string(),
                program_name: shrunk.name().to_string(),
                program_fingerprint: lazylocks_runtime::program_fingerprint(shrunk),
                program_source: shrunk.to_source(),
                strategy_spec: spec.clone(),
                seed: case_seed,
                schedule,
                // The raw DFS witness schedule never went through
                // minimize_schedule; program-level shrinking is a
                // different operation and must not claim this flag.
                minimized: false,
                bug: kind,
                trace_len: run.trace.len(),
                stats: None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::default_oracle_specs;

    fn quick_config(cases: usize, seed: u64) -> FuzzConfig {
        FuzzConfig {
            profiles: ShapeProfile::ALL.to_vec(),
            cases,
            seed,
            budget: 10_000,
            max_size: 2,
        }
    }

    #[test]
    fn fuzz_reports_are_deterministic_and_agree() {
        let oracle = default_oracle_specs();
        let run = || {
            run_fuzz(
                &quick_config(10, 99),
                &oracle,
                None,
                &CancelToken::new(),
                &MetricsHandle::disabled(),
                |_| {},
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.cases.len(), b.cases.len());
        assert_eq!(a.total_disagreements(), 0, "{:#?}", a.cases);
        for (x, y) in a.cases.iter().zip(&b.cases) {
            assert_eq!(x.program_name, y.program_name);
            assert_eq!(x.fingerprint, y.fingerprint);
            assert_eq!(x.status, y.status);
            assert_eq!(x.dfs, y.dfs);
        }
        // A different seed shifts the corpus.
        let c = run_fuzz(
            &quick_config(10, 100),
            &oracle,
            None,
            &CancelToken::new(),
            &MetricsHandle::disabled(),
            |_| {},
        );
        assert!(
            a.cases
                .iter()
                .zip(&c.cases)
                .any(|(x, y)| x.fingerprint != y.fingerprint),
            "different seeds generate different corpora"
        );
    }

    #[test]
    fn cancellation_stops_the_corpus_early() {
        let oracle = default_oracle_specs();
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = run_fuzz(
            &quick_config(50, 1),
            &oracle,
            None,
            &cancel,
            &MetricsHandle::disabled(),
            |_| {},
        );
        assert!(report.cancelled);
        assert!(report.cases.len() <= 1);
    }

    #[test]
    fn progress_fires_once_per_case_in_order() {
        let oracle = default_oracle_specs();
        let mut seen = Vec::new();
        let report = run_fuzz(
            &quick_config(6, 3),
            &oracle,
            None,
            &CancelToken::new(),
            &MetricsHandle::disabled(),
            |case| seen.push(case.index),
        );
        assert_eq!(seen, (0..6).collect::<Vec<_>>());
        assert_eq!(report.cases.len(), 6);
    }
}
