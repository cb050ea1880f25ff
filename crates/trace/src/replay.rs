//! Replay verification of trace artifacts.
//!
//! Loading an artifact and re-running its schedule classifies the result:
//!
//! * [`ReplayVerdict::Reproduced`] — the schedule replays and exhibits the
//!   same bug class the artifact recorded (or, for witness traces, the
//!   same clean outcome);
//! * [`ReplayVerdict::Diverged`] — the program still matches but the
//!   schedule is infeasible or produces a different outcome (a regression
//!   in the scheduler, or a stale hand-edited schedule);
//! * [`ReplayVerdict::ProgramChanged`] — the program under test no longer
//!   matches the artifact's fingerprint, so the schedule is meaningless.

use crate::artifact::{bug_class, TraceArtifact};
use lazylocks::obs::ids;
use lazylocks::obs::DocError;
use lazylocks::{BugKind, MetricsHandle};
use lazylocks_model::Program;
use lazylocks_runtime::{program_fingerprint, run_schedule, RunResult, RunStatus};
use std::fmt;

/// How a replay attempt classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// Same program, same bug class: the artifact is a live counterexample.
    Reproduced,
    /// Same program, different outcome: the artifact no longer reproduces.
    Diverged,
    /// The program's fingerprint does not match the artifact's.
    ProgramChanged,
}

impl fmt::Display for ReplayVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplayVerdict::Reproduced => "reproduced",
            ReplayVerdict::Diverged => "diverged",
            ReplayVerdict::ProgramChanged => "program-changed",
        })
    }
}

/// The result of replaying one artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The classification.
    pub verdict: ReplayVerdict,
    /// What the artifact promised (a bug class, or `"clean"`).
    pub expected: String,
    /// What the replay observed.
    pub observed: String,
    /// A human-readable diagnosis of the verdict.
    pub details: String,
}

impl ReplayReport {
    /// `true` iff the verdict is [`ReplayVerdict::Reproduced`].
    pub fn reproduced(&self) -> bool {
        self.verdict == ReplayVerdict::Reproduced
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.verdict, self.details)
    }
}

/// Replays `artifact` against the program embedded in the artifact itself
/// — the fresh-process path, needing nothing but the artifact file.
///
/// Errors only if the embedded source no longer parses (a corrupted
/// artifact); a source that parses to a *different* program than the
/// recorded fingerprint classifies as [`ReplayVerdict::ProgramChanged`].
/// Replay attempts and replayed event volumes are recorded into `metrics`
/// (`lazylocks_replays_total` / `lazylocks_replay_events_total`); pass
/// [`MetricsHandle::disabled`] to record nothing.
pub fn replay_embedded(
    artifact: &TraceArtifact,
    metrics: &MetricsHandle,
) -> Result<ReplayReport, DocError> {
    let program = Program::parse(&artifact.program_source)
        .map_err(|e| DocError::schema("program", format!("embedded source does not parse: {e}")))?;
    Ok(replay_against(artifact, &program, metrics))
}

/// Replays `artifact` against a caller-supplied `program` (e.g. the
/// current version of a benchmark), classifying the result and recording
/// into `metrics` as [`replay_embedded`] does.
pub fn replay_against(
    artifact: &TraceArtifact,
    program: &Program,
    metrics: &MetricsHandle,
) -> ReplayReport {
    metrics.inc(ids::REPLAYS);
    let expected = artifact.outcome_label();
    let actual_fp = program_fingerprint(program);
    if actual_fp != artifact.program_fingerprint {
        return ReplayReport {
            verdict: ReplayVerdict::ProgramChanged,
            expected,
            observed: "?".to_string(),
            details: format!(
                "program {:?} has fingerprint {:032x} but the artifact records \
                 {:032x}; the schedule is not applicable to this program",
                program.name(),
                actual_fp,
                artifact.program_fingerprint
            ),
        };
    }
    let run = match run_schedule(program, &artifact.schedule) {
        Ok(run) => run,
        Err(infeasible) => {
            return ReplayReport {
                verdict: ReplayVerdict::Diverged,
                expected,
                observed: "infeasible schedule".to_string(),
                details: format!("recorded schedule no longer replays: {infeasible}"),
            }
        }
    };
    metrics.add(ids::REPLAY_EVENTS, run.trace.len() as u64);
    let observed = observed_label(&run);
    let (verdict, details) = match &artifact.bug {
        Some(kind) if kind.matches(&run) => (
            ReplayVerdict::Reproduced,
            format!(
                "schedule of {} choices reproduces {expected} in {} events",
                artifact.schedule.len(),
                run.trace.len()
            ),
        ),
        Some(_) => (
            ReplayVerdict::Diverged,
            format!("artifact records {expected} but the replay observed {observed}"),
        ),
        None if !run.has_bug() => (
            ReplayVerdict::Reproduced,
            format!(
                "witness schedule of {} choices replays cleanly",
                artifact.schedule.len()
            ),
        ),
        None => (
            ReplayVerdict::Diverged,
            format!("witness artifact expected a clean run but observed {observed}"),
        ),
    };
    ReplayReport {
        verdict,
        expected,
        observed,
        details,
    }
}

fn observed_label(run: &RunResult) -> String {
    if let RunStatus::Deadlock { waiting } = &run.status {
        return bug_class(&BugKind::Deadlock {
            waiting: waiting.clone(),
        });
    }
    if let Some(fault) = run.faults.first() {
        return bug_class(&BugKind::Fault(fault.clone()));
    }
    match run.status {
        RunStatus::StepLimit => "step-limit".to_string(),
        _ => "clean".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks::{BugReport, Dpor, ExploreConfig, Explorer};
    use lazylocks_model::{ProgramBuilder, ThreadId};

    fn abba(noise_init: i64) -> Program {
        let mut b = ProgramBuilder::new("abba");
        let _noise = b.var("noise", noise_init);
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

    fn deadlock_bug(p: &Program) -> BugReport {
        Dpor::default()
            .explore(p, &ExploreConfig::with_limit(10_000).stopping_on_bug())
            .first_bug
            .expect("abba deadlocks")
    }

    #[test]
    fn reproduced_from_embedded_program() {
        let p = abba(0);
        let artifact = TraceArtifact::from_bug(&p, "dpor", 1, &deadlock_bug(&p));
        let report = replay_embedded(&artifact, &MetricsHandle::disabled()).unwrap();
        assert_eq!(report.verdict, ReplayVerdict::Reproduced);
        assert!(report.reproduced());
        assert_eq!(report.expected, "deadlock");
        assert_eq!(report.observed, "deadlock");
    }

    #[test]
    fn mutated_program_classifies_as_program_changed() {
        let p = abba(0);
        let artifact = TraceArtifact::from_bug(&p, "dpor", 1, &deadlock_bug(&p));
        let mutated = abba(1);
        let report = replay_against(&artifact, &mutated, &MetricsHandle::disabled());
        assert_eq!(report.verdict, ReplayVerdict::ProgramChanged);
        assert!(report.details.contains("fingerprint"));
    }

    #[test]
    fn wrong_bug_class_classifies_as_diverged() {
        let p = abba(0);
        let mut artifact = TraceArtifact::from_bug(&p, "dpor", 1, &deadlock_bug(&p));
        // Claim the schedule faults instead of deadlocking.
        artifact.bug = Some(BugKind::Fault(lazylocks_runtime::Fault {
            thread: ThreadId(0),
            pc: 0,
            kind: lazylocks_runtime::FaultKind::LocalStepBudget,
        }));
        let report = replay_against(&artifact, &p, &MetricsHandle::disabled());
        assert_eq!(report.verdict, ReplayVerdict::Diverged);
        assert!(report.details.contains("deadlock"));
    }

    #[test]
    fn infeasible_schedule_classifies_as_diverged() {
        let p = abba(0);
        let mut artifact = TraceArtifact::from_bug(&p, "dpor", 1, &deadlock_bug(&p));
        // T1 has only four visible operations; a fifth T1 choice asks for
        // a finished thread, which replay rejects as infeasible.
        artifact.schedule = vec![ThreadId(0); 5];
        let report = replay_against(&artifact, &p, &MetricsHandle::disabled());
        assert_eq!(report.verdict, ReplayVerdict::Diverged);
        assert!(report.observed.contains("infeasible"));
    }

    #[test]
    fn clean_witness_replays() {
        let p = abba(0);
        let mut artifact = TraceArtifact::from_bug(&p, "dpor", 1, &deadlock_bug(&p));
        // An empty prefix completes in thread order: T1 runs to completion
        // before T2 starts, which is deadlock-free.
        artifact.bug = None;
        artifact.schedule = Vec::new();
        let report = replay_against(&artifact, &p, &MetricsHandle::disabled());
        assert_eq!(report.verdict, ReplayVerdict::Reproduced);
        assert_eq!(report.expected, "clean");

        // A witness that actually deadlocks diverges.
        let mut bad = artifact;
        bad.schedule = vec![ThreadId(0), ThreadId(1)];
        let report = replay_against(&bad, &p, &MetricsHandle::disabled());
        assert_eq!(report.verdict, ReplayVerdict::Diverged);
    }

    #[test]
    fn corrupted_embedded_source_is_an_error() {
        let p = abba(0);
        let mut artifact = TraceArtifact::from_bug(&p, "dpor", 1, &deadlock_bug(&p));
        artifact.program_source = "not a program".to_string();
        assert!(replay_embedded(&artifact, &MetricsHandle::disabled()).is_err());
    }

    #[test]
    fn hand_edited_source_is_program_changed() {
        let p = abba(0);
        let mut artifact = TraceArtifact::from_bug(&p, "dpor", 1, &deadlock_bug(&p));
        // Valid replacement source that is a different program.
        artifact.program_source = abba(1).to_source();
        let report = replay_embedded(&artifact, &MetricsHandle::disabled()).unwrap();
        assert_eq!(report.verdict, ReplayVerdict::ProgramChanged);
    }
}
