//! Bug reports with replayable schedules.

use lazylocks_model::{MutexId, Program, ThreadId};
use lazylocks_runtime::{run_schedule, Fault, InfeasibleSchedule, RunResult};
use std::fmt;

/// What kind of safety violation was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BugKind {
    /// No enabled thread while some threads wait on locks.
    Deadlock {
        /// The blocked threads and the mutexes they wait on.
        waiting: Vec<(ThreadId, MutexId)>,
    },
    /// An assertion failure, unlock-without-hold or local-step-budget
    /// fault.
    Fault(Fault),
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BugKind::Deadlock { waiting } => {
                write!(f, "deadlock:")?;
                for (t, m) in waiting {
                    write!(f, " {t} waits on {m};")?;
                }
                Ok(())
            }
            BugKind::Fault(fault) => write!(f, "fault: {fault}"),
        }
    }
}

impl BugKind {
    /// Does `run` exhibit a bug of this class? Any deadlock matches a
    /// deadlock; a fault matches a fault raised by the same thread with
    /// the same fault kind. Minimisation keeps this class, and replay
    /// checks it.
    pub fn matches(&self, run: &RunResult) -> bool {
        match self {
            BugKind::Deadlock { .. } => run.status.is_deadlock(),
            BugKind::Fault(original) => run
                .faults
                .iter()
                .any(|f| f.thread == original.thread && f.kind == original.kind),
        }
    }
}

/// A bug found during exploration, together with the exact schedule that
/// triggers it — the CHESS-style "reproducible Heisenbug".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BugReport {
    /// The violation.
    pub kind: BugKind,
    /// Thread choices that deterministically reproduce the bug via
    /// [`BugReport::reproduce`].
    pub schedule: Vec<ThreadId>,
    /// Number of visible events in the buggy execution.
    pub trace_len: usize,
}

impl BugReport {
    /// Replays the recorded schedule, reproducing the buggy execution
    /// deterministically.
    pub fn reproduce(&self, program: &Program) -> Result<RunResult, InfeasibleSchedule> {
        run_schedule(program, &self.schedule)
    }

    /// `true` for deadlocks.
    pub fn is_deadlock(&self) -> bool {
        matches!(self.kind, BugKind::Deadlock { .. })
    }
}

impl fmt::Display for BugReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (schedule of {} choices, trace of {} events)",
            self.kind,
            self.schedule.len(),
            self.trace_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::ProgramBuilder;

    #[test]
    fn deadlock_report_reproduces() {
        let mut b = ProgramBuilder::new("abba");
        let a = b.mutex("a");
        let c = b.mutex("b");
        b.thread("T1", |t| {
            t.lock(a);
            t.lock(c);
        });
        b.thread("T2", |t| {
            t.lock(c);
            t.lock(a);
        });
        let p = b.build();
        let report = BugReport {
            kind: BugKind::Deadlock {
                waiting: vec![(ThreadId(0), c), (ThreadId(1), a)],
            },
            schedule: vec![ThreadId(0), ThreadId(1)],
            trace_len: 2,
        };
        assert!(report.is_deadlock());
        let run = report.reproduce(&p).unwrap();
        assert!(run.status.is_deadlock());
        assert_eq!(run.trace.len(), 2);
    }

    #[test]
    fn display_formats() {
        let report = BugReport {
            kind: BugKind::Deadlock {
                waiting: vec![(ThreadId(0), MutexId(1))],
            },
            schedule: vec![ThreadId(0)],
            trace_len: 1,
        };
        let text = report.to_string();
        assert!(text.contains("deadlock"));
        assert!(text.contains("t0 waits on m1"));
        assert!(text.contains("schedule of 1 choices"));
    }
}
