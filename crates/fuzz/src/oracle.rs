//! The differential exploration oracle.
//!
//! For one guest program, exhaustive DFS establishes ground truth — the
//! exact sets of terminal-state and regular-HBR fingerprints, the lazy-HBR
//! class count, and which bug classes exist — and every other strategy
//! is then checked against the **agreement contract** of its
//! [`Agreement`] level. Anything the contract promises that does not hold
//! becomes a structured [`Disagreement`] with a machine-readable kind and,
//! where one exists, a witness schedule demonstrating the divergence.
//!
//! The levels mirror what each strategy documents (and what the
//! integration test suite already pins on the curated corpus):
//!
//! * [`Agreement::FullParity`] — identical terminal-state, regular-HBR and
//!   lazy-HBR class sets/counts, bug-class parity, and no more schedules
//!   than DFS: `dpor` (sleep-set DPOR) and `caching`.
//! * [`Agreement::StateParity`] — identical state set and lazy-HBR count;
//!   regular HBR classes may legitimately collapse (`caching(mode=lazy)`
//!   prunes on the lazy relation, which identifies more prefixes).
//! * [`Agreement::BugParity`] — finds a deadlock/fault iff DFS does, and
//!   reaches only true states: the lazy-dependence DPORs, `lazy-dpor`
//!   (empirically state-preserving) and `dpor(deps=lazy-locks)` (drops
//!   terminal states on some suite benchmarks, e.g. workqueue-w3-i2),
//!   neither with a completeness proof — the paper's §4 open problem.
//! * [`Agreement::Sound`] — may miss anything, but everything it reports
//!   must be real: states a subset of DFS's, bugs only where DFS finds the
//!   same class (`random`, `bounded`).
//!
//! Every level additionally re-checks the paper's §3 counting inequality
//! on the strategy's own counters.

use lazylocks::{
    registry, CancelToken, DfsEnumeration, ExploreConfig, ExploreOutcome, ExploreSession, Explorer,
    SpecError,
};
use lazylocks_model::{Program, ThreadId};
use std::collections::BTreeMap;
use std::fmt;

/// What a strategy promises relative to exhaustive DFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agreement {
    /// States, regular-HBR classes, lazy-HBR count, bug classes, and
    /// schedule economy all match.
    FullParity,
    /// State set and lazy-HBR count match; regular HBR classes may
    /// collapse.
    StateParity,
    /// Bug classes match; states are a subset.
    BugParity,
    /// Everything reported is real; nothing is promised found.
    Sound,
}

impl Agreement {
    /// Stable label for reports.
    pub fn name(self) -> &'static str {
        match self {
            Agreement::FullParity => "full-parity",
            Agreement::StateParity => "state-parity",
            Agreement::BugParity => "bug-parity",
            Agreement::Sound => "sound",
        }
    }
}

/// One strategy the oracle runs, with its promised agreement level.
pub struct OracleSpec {
    /// The spec string reports name the strategy by.
    pub spec: String,
    /// The contract checked against ground truth.
    pub agreement: Agreement,
    /// The explorer checked, built once.
    explorer: Box<dyn Explorer>,
}

impl OracleSpec {
    /// Checks the strategy `spec` names.
    pub fn new(spec: impl Into<String>, agreement: Agreement) -> Result<OracleSpec, SpecError> {
        let spec = spec.into();
        let explorer = registry::create(&spec)?;
        Ok(OracleSpec {
            spec,
            agreement,
            explorer,
        })
    }

    /// Checks `explorer`, reported as `spec`: any [`Explorer`], not only
    /// one a spec names.
    pub fn with_explorer(
        spec: impl Into<String>,
        agreement: Agreement,
        explorer: impl Explorer + 'static,
    ) -> OracleSpec {
        OracleSpec {
            spec: spec.into(),
            agreement,
            explorer: Box::new(explorer),
        }
    }
}

/// The default oracle: every strategy family at its documented
/// agreement level.
pub fn default_oracle_specs() -> Vec<OracleSpec> {
    use Agreement::*;
    [
        ("dpor", FullParity),
        ("caching", FullParity),
        ("caching(mode=lazy)", StateParity),
        ("lazy-dpor", BugParity),
        ("dpor(deps=lazy-locks)", BugParity),
        ("bounded", Sound),
        ("random", Sound),
    ]
    .into_iter()
    .map(|(spec, agreement)| OracleSpec::new(spec, agreement).expect("every table spec resolves"))
    .collect()
}

/// Exhaustive ground truth for one program: fingerprint sets with one
/// witness schedule per class, plus the DFS outcome itself.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Terminal-state fingerprints → witness schedule.
    pub states: BTreeMap<u128, Vec<ThreadId>>,
    /// Terminal regular-HBR fingerprints → witness schedule.
    pub hbrs: BTreeMap<u128, Vec<ThreadId>>,
    /// Distinct terminal lazy-HBR classes.
    pub lazy_hbrs: usize,
    /// The full DFS outcome (stats, distinct bugs, verdict).
    pub outcome: ExploreOutcome,
}

impl GroundTruth {
    /// `true` when DFS found at least one deadlocking schedule.
    pub fn has_deadlock(&self) -> bool {
        self.outcome.stats.deadlocks > 0
    }

    /// `true` when DFS found at least one faulting schedule.
    pub fn has_fault(&self) -> bool {
        self.outcome.stats.faulted_schedules > 0
    }
}

/// A machine-readable divergence class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisagreementKind {
    /// DFS reached a terminal state the strategy never produced.
    MissingState { fingerprint: u128 },
    /// The strategy produced a terminal state DFS never reached —
    /// impossible for a sound executor; always reported.
    UnsoundState { fingerprint: u128 },
    /// DFS reached a regular-HBR class the strategy never produced.
    MissingHbrClass { fingerprint: u128 },
    /// The strategy produced a regular-HBR class DFS never reached.
    UnsoundHbrClass { fingerprint: u128 },
    /// Lazy-HBR class counts differ.
    LazyHbrCount { expected: usize, found: usize },
    /// DFS deadlocks, the strategy never did.
    MissedDeadlock,
    /// The strategy deadlocked, DFS never did.
    InventedDeadlock,
    /// DFS faults, the strategy never did.
    MissedFault,
    /// The strategy faulted, DFS never did.
    InventedFault,
    /// A reduction explored more complete schedules than plain DFS.
    ScheduleInflation { dfs: usize, found: usize },
    /// The strategy's own counters violate the §3 counting inequality.
    InequalityViolation { message: String },
}

impl DisagreementKind {
    /// Short stable label (the JSON `kind` field).
    pub fn label(&self) -> &'static str {
        match self {
            DisagreementKind::MissingState { .. } => "missing-state",
            DisagreementKind::UnsoundState { .. } => "unsound-state",
            DisagreementKind::MissingHbrClass { .. } => "missing-hbr-class",
            DisagreementKind::UnsoundHbrClass { .. } => "unsound-hbr-class",
            DisagreementKind::LazyHbrCount { .. } => "lazy-hbr-count",
            DisagreementKind::MissedDeadlock => "missed-deadlock",
            DisagreementKind::InventedDeadlock => "invented-deadlock",
            DisagreementKind::MissedFault => "missed-fault",
            DisagreementKind::InventedFault => "invented-fault",
            DisagreementKind::ScheduleInflation { .. } => "schedule-inflation",
            DisagreementKind::InequalityViolation { .. } => "inequality-violation",
        }
    }

    /// `true` when two kinds describe the same *class* of divergence
    /// (ignoring fingerprints and counts) — the shrinker's invariant while
    /// it deletes program pieces.
    pub fn same_class(&self, other: &DisagreementKind) -> bool {
        self.label() == other.label()
    }
}

impl fmt::Display for DisagreementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisagreementKind::MissingState { fingerprint } => {
                write!(f, "missing terminal state {fingerprint:032x}")
            }
            DisagreementKind::UnsoundState { fingerprint } => {
                write!(f, "unsound terminal state {fingerprint:032x}")
            }
            DisagreementKind::MissingHbrClass { fingerprint } => {
                write!(f, "missing regular-HBR class {fingerprint:032x}")
            }
            DisagreementKind::UnsoundHbrClass { fingerprint } => {
                write!(f, "unsound regular-HBR class {fingerprint:032x}")
            }
            DisagreementKind::LazyHbrCount { expected, found } => {
                write!(f, "lazy-HBR classes: expected {expected}, found {found}")
            }
            DisagreementKind::MissedDeadlock => write!(f, "missed a deadlock DFS finds"),
            DisagreementKind::InventedDeadlock => write!(f, "reported a deadlock DFS never finds"),
            DisagreementKind::MissedFault => write!(f, "missed a fault DFS finds"),
            DisagreementKind::InventedFault => write!(f, "reported a fault DFS never finds"),
            DisagreementKind::ScheduleInflation { dfs, found } => {
                write!(f, "explored {found} schedules where DFS needs {dfs}")
            }
            DisagreementKind::InequalityViolation { message } => {
                write!(f, "counting inequality violated: {message}")
            }
        }
    }
}

/// One broken promise: which strategy, what went wrong, and a witness
/// schedule where one exists (a DFS schedule reaching a missed state or
/// class).
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// The spec string of the offending [`OracleSpec`].
    pub spec: String,
    /// The strategy's stable `Explorer::name`.
    pub strategy_id: String,
    /// The contract level that was broken.
    pub agreement: Agreement,
    /// What diverged.
    pub kind: DisagreementKind,
    /// A DFS witness schedule demonstrating the divergence, if one exists.
    pub witness: Option<Vec<ThreadId>>,
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, promised {}): {}",
            self.spec,
            self.strategy_id,
            self.agreement.name(),
            self.kind
        )
    }
}

/// How one differential check over a program ended.
#[derive(Debug, Clone)]
pub enum DifferentialVerdict {
    /// Every strategy honoured its contract.
    Agreement,
    /// At least one contract was broken.
    Disagreements(Vec<Disagreement>),
    /// DFS hit the schedule budget; no ground truth, nothing compared.
    Unexhausted,
    /// The cancel token stopped the check.
    Cancelled,
}

/// The full result of one differential check.
#[derive(Debug, Clone)]
pub struct DifferentialCase {
    /// How it ended.
    pub verdict: DifferentialVerdict,
    /// Ground truth, present unless the case was unexhausted/cancelled
    /// before DFS completed.
    pub truth: Option<GroundTruth>,
}

fn witness_config(budget: usize, seed: u64) -> ExploreConfig {
    let mut config = ExploreConfig::with_limit(budget).seeded(seed);
    config.collect_state_witnesses = true;
    config
}

fn run(
    program: &Program,
    explorer: &dyn Explorer,
    budget: usize,
    seed: u64,
    cancel: &CancelToken,
) -> ExploreOutcome {
    // Sharing the token (rather than bridging it through an observer)
    // stops a fuzzing session mid-strategy rather than mid-corpus.
    ExploreSession::new(program)
        .with_config(witness_config(budget, seed))
        .progress_every(0)
        .cancel_with(cancel.clone())
        .run(explorer)
}

/// Establishes exhaustive ground truth for `program`, or `None` when the
/// schedule space exceeds `budget` (the caller should skip comparisons).
pub fn ground_truth(
    program: &Program,
    budget: usize,
    seed: u64,
    cancel: &CancelToken,
) -> Option<GroundTruth> {
    let outcome = run(program, &DfsEnumeration, budget, seed, cancel);
    if outcome.stats.limit_hit || outcome.stats.truncated_runs > 0 || outcome.stats.cancelled {
        return None;
    }
    let states = outcome
        .stats
        .state_witnesses
        .iter()
        .cloned()
        .collect::<BTreeMap<_, _>>();
    let hbrs = outcome
        .stats
        .hbr_witnesses
        .iter()
        .cloned()
        .collect::<BTreeMap<_, _>>();
    debug_assert_eq!(states.len(), outcome.stats.unique_states);
    debug_assert_eq!(hbrs.len(), outcome.stats.unique_hbrs);
    Some(GroundTruth {
        states,
        hbrs,
        lazy_hbrs: outcome.stats.unique_lazy_hbrs,
        outcome,
    })
}

/// Checks one strategy against ground truth, returning every broken
/// promise.
pub fn check_strategy(
    program: &Program,
    oracle: &OracleSpec,
    truth: &GroundTruth,
    budget: usize,
    seed: u64,
    cancel: &CancelToken,
) -> Vec<Disagreement> {
    let outcome = run(program, &*oracle.explorer, budget, seed, cancel);
    if outcome.stats.cancelled {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut push = |kind: DisagreementKind, witness: Option<Vec<ThreadId>>| {
        out.push(Disagreement {
            spec: oracle.spec.clone(),
            strategy_id: outcome.strategy_id.clone(),
            agreement: oracle.agreement,
            kind,
            witness,
        });
    };

    let found_states: BTreeMap<u128, Vec<ThreadId>> =
        outcome.stats.state_witnesses.iter().cloned().collect();
    let found_hbrs: BTreeMap<u128, Vec<ThreadId>> =
        outcome.stats.hbr_witnesses.iter().cloned().collect();

    // Soundness holds at every level: reported states and classes must be
    // reachable (every strategy records only real executions, all of
    // which exhaustive DFS enumerated), and reported bug classes must
    // exist.
    for (&fp, witness) in &found_states {
        if !truth.states.contains_key(&fp) {
            push(
                DisagreementKind::UnsoundState { fingerprint: fp },
                Some(witness.clone()),
            );
        }
    }
    for (&fp, witness) in &found_hbrs {
        if !truth.hbrs.contains_key(&fp) {
            push(
                DisagreementKind::UnsoundHbrClass { fingerprint: fp },
                Some(witness.clone()),
            );
        }
    }
    if outcome.stats.deadlocks > 0 && !truth.has_deadlock() {
        push(DisagreementKind::InventedDeadlock, None);
    }
    if outcome.stats.faulted_schedules > 0 && !truth.has_fault() {
        push(DisagreementKind::InventedFault, None);
    }
    if let Err(message) = outcome.stats.check_inequality() {
        push(DisagreementKind::InequalityViolation { message }, None);
    }

    // Completeness obligations per level — but only for complete runs: a
    // strategy truncated by the schedule budget (or the run-length cap)
    // has an incomplete result set, and reporting that as missing
    // states/bugs would conflate budget exhaustion with a broken
    // contract. (The reduced strategies of the table always finish when
    // DFS does; this guards other explorers with less economy.)
    if outcome.stats.limit_hit || outcome.stats.truncated_runs > 0 {
        return out;
    }
    let state_parity = matches!(
        oracle.agreement,
        Agreement::FullParity | Agreement::StateParity
    );
    let bug_parity = matches!(
        oracle.agreement,
        Agreement::FullParity | Agreement::StateParity | Agreement::BugParity
    );
    if state_parity {
        for (&fp, witness) in &truth.states {
            if !found_states.contains_key(&fp) {
                push(
                    DisagreementKind::MissingState { fingerprint: fp },
                    Some(witness.clone()),
                );
            }
        }
        if outcome.stats.unique_lazy_hbrs != truth.lazy_hbrs {
            push(
                DisagreementKind::LazyHbrCount {
                    expected: truth.lazy_hbrs,
                    found: outcome.stats.unique_lazy_hbrs,
                },
                None,
            );
        }
    }
    if matches!(oracle.agreement, Agreement::FullParity) {
        for (&fp, witness) in &truth.hbrs {
            if !found_hbrs.contains_key(&fp) {
                push(
                    DisagreementKind::MissingHbrClass { fingerprint: fp },
                    Some(witness.clone()),
                );
            }
        }
        if outcome.stats.schedules > truth.outcome.stats.schedules {
            push(
                DisagreementKind::ScheduleInflation {
                    dfs: truth.outcome.stats.schedules,
                    found: outcome.stats.schedules,
                },
                None,
            );
        }
    }
    if bug_parity {
        if truth.has_deadlock() && outcome.stats.deadlocks == 0 {
            push(DisagreementKind::MissedDeadlock, None);
        }
        if truth.has_fault() && outcome.stats.faulted_schedules == 0 {
            push(DisagreementKind::MissedFault, None);
        }
    }
    out
}

/// Runs the full differential check: ground truth, then every oracle spec.
pub fn differential_check(
    program: &Program,
    oracle: &[OracleSpec],
    budget: usize,
    seed: u64,
    cancel: &CancelToken,
) -> DifferentialCase {
    if cancel.is_cancelled() {
        return DifferentialCase {
            verdict: DifferentialVerdict::Cancelled,
            truth: None,
        };
    }
    let Some(truth) = ground_truth(program, budget, seed, cancel) else {
        let verdict = if cancel.is_cancelled() {
            DifferentialVerdict::Cancelled
        } else {
            DifferentialVerdict::Unexhausted
        };
        return DifferentialCase {
            verdict,
            truth: None,
        };
    };
    let mut disagreements = Vec::new();
    for spec in oracle {
        if cancel.is_cancelled() {
            return DifferentialCase {
                verdict: DifferentialVerdict::Cancelled,
                truth: Some(truth),
            };
        }
        disagreements.extend(check_strategy(program, spec, &truth, budget, seed, cancel));
    }
    // Re-check after the loop: a token fired during the *final* spec left
    // that strategy's contract unchecked (check_strategy returns no
    // findings for a cancelled partial run) — that must not read as
    // agreement.
    let verdict = if cancel.is_cancelled() {
        DifferentialVerdict::Cancelled
    } else if disagreements.is_empty() {
        DifferentialVerdict::Agreement
    } else {
        DifferentialVerdict::Disagreements(disagreements)
    };
    DifferentialCase {
        verdict,
        truth: Some(truth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::{ProgramBuilder, Reg};

    fn racy() -> Program {
        let mut b = ProgramBuilder::new("racy");
        let x = b.var("x", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.fetch_add_racy(x, 1);
                t.set(Reg(0), 0);
            });
        }
        b.build()
    }

    fn abba() -> Program {
        let mut b = ProgramBuilder::new("abba");
        let l0 = b.mutex("l0");
        let l1 = b.mutex("l1");
        b.thread("T1", |t| {
            t.lock(l0);
            t.lock(l1);
            t.unlock(l1);
            t.unlock(l0);
        });
        b.thread("T2", |t| {
            t.lock(l1);
            t.lock(l0);
            t.unlock(l0);
            t.unlock(l1);
        });
        b.build()
    }

    #[test]
    fn default_oracle_agrees_on_reference_programs() {
        let oracle = default_oracle_specs();
        let cancel = CancelToken::new();
        for program in [racy(), abba()] {
            let case = differential_check(&program, &oracle, 50_000, 1, &cancel);
            match case.verdict {
                DifferentialVerdict::Agreement => {}
                other => panic!("{}: {other:?}", program.name()),
            }
        }
    }

    #[test]
    fn ground_truth_collects_witnessed_fingerprints() {
        let truth =
            ground_truth(&racy(), 10_000, 1, &CancelToken::new()).expect("racy is exhaustible");
        assert_eq!(truth.states.len(), 2, "lost update => two states");
        let program = racy();
        for (fp, witness) in &truth.states {
            // The witness replays to exactly the fingerprinted state.
            let mut exec = lazylocks_runtime::Executor::new(&program);
            for t in witness {
                exec.step(*t);
            }
            while exec.phase() == lazylocks_runtime::ExecPhase::Running {
                let t = exec.enabled_iter().next().unwrap();
                exec.step(t);
            }
            assert_eq!(exec.state_fingerprint(), *fp);
        }
    }

    #[test]
    fn unexhausted_budget_yields_no_ground_truth() {
        let case = differential_check(&racy(), &default_oracle_specs(), 2, 1, &CancelToken::new());
        assert!(matches!(case.verdict, DifferentialVerdict::Unexhausted));
        assert!(case.truth.is_none());
    }

    #[test]
    fn pre_cancelled_token_short_circuits() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let case = differential_check(&racy(), &default_oracle_specs(), 10_000, 1, &cancel);
        assert!(matches!(case.verdict, DifferentialVerdict::Cancelled));
    }

    #[test]
    fn lossy_strategy_is_flagged_with_a_witness() {
        use lazylocks::ExploreStats;

        /// DFS that silently stops after one schedule — the canonical
        /// fault injection for oracle tests.
        struct LossyDfs;
        impl Explorer for LossyDfs {
            fn name(&self) -> String {
                "lossy-dfs".to_string()
            }
            fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
                let mut config = config.clone();
                config.schedule_limit = 1;
                let mut stats = DfsEnumeration.explore(program, &config);
                stats.limit_hit = false; // lie: pretend the tree is covered
                stats
            }
        }

        let oracle = [OracleSpec::with_explorer(
            "lossy-dfs",
            Agreement::FullParity,
            LossyDfs,
        )];
        let program = racy();
        let case = differential_check(&program, &oracle, 10_000, 1, &CancelToken::new());
        let DifferentialVerdict::Disagreements(disagreements) = &case.verdict else {
            panic!("lossy DFS must disagree: {:?}", case.verdict);
        };
        let missing = disagreements
            .iter()
            .find(|d| matches!(d.kind, DisagreementKind::MissingState { .. }))
            .expect("a missing state is diagnosed");
        assert_eq!(missing.spec, "lossy-dfs");
        let witness = missing
            .witness
            .as_ref()
            .expect("missed states carry a witness");
        // The witness replays to the state the lossy strategy missed.
        let DisagreementKind::MissingState { fingerprint } = missing.kind else {
            unreachable!()
        };
        let mut exec = lazylocks_runtime::Executor::new(&program);
        for t in witness {
            exec.step(*t);
        }
        while exec.phase() == lazylocks_runtime::ExecPhase::Running {
            let t = exec.enabled_iter().next().unwrap();
            exec.step(t);
        }
        assert_eq!(exec.state_fingerprint(), fingerprint);
        assert!(missing.to_string().contains("missing terminal state"));
    }
}
