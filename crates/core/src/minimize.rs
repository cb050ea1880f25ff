//! Bug-schedule minimisation.
//!
//! A schedule recorded by an explorer reproduces its bug deterministically,
//! but often contains irrelevant context switches. [`minimize_schedule`]
//! shrinks it with replay-based delta debugging: repeatedly try removing
//! chunks of scheduling choices and keep any shortened schedule that still
//! exhibits *the same class of bug*. The result is typically close to the
//! minimal preemption pattern a human would write in a regression test.
//!
//! Removal works because [`run_schedule`] treats its input as a prefix:
//! deleted choices are re-filled deterministically (thread order), so every
//! candidate is a feasible complete run.

use crate::bug::BugReport;
use lazylocks_model::{Program, ThreadId};
use lazylocks_runtime::run_schedule;

/// Minimises the schedule of `report` by delta debugging (ddmin over the
/// choice list, then single-choice elimination). Returns a new report whose
/// schedule is no longer than the original and reproduces the same bug.
///
/// ```
/// use lazylocks::{minimize_schedule, Dpor, ExploreConfig, Explorer};
/// use lazylocks_model::ProgramBuilder;
///
/// // The classic AB-BA deadlock with noise around it.
/// let mut b = ProgramBuilder::new("abba");
/// let noise = b.var("noise", 0);
/// let l0 = b.mutex("l0");
/// let l1 = b.mutex("l1");
/// b.thread("T1", |t| {
///     t.store(noise, 1);
///     t.lock(l0);
///     t.lock(l1);
///     t.unlock(l1);
///     t.unlock(l0);
/// });
/// b.thread("T2", |t| {
///     t.store(noise, 2);
///     t.lock(l1);
///     t.lock(l0);
///     t.unlock(l0);
///     t.unlock(l1);
/// });
/// let program = b.build();
///
/// let stats = Dpor::default()
///     .explore(&program, &ExploreConfig::with_limit(10_000).stopping_on_bug());
/// let bug = stats.first_bug.unwrap();
/// let minimal = minimize_schedule(&program, &bug);
/// assert!(minimal.schedule.len() <= bug.schedule.len());
/// assert!(minimal.reproduce(&program).unwrap().status.is_deadlock());
/// ```
pub fn minimize_schedule(program: &Program, report: &BugReport) -> BugReport {
    // Does a schedule still reproduce a bug of the report's class?
    let still_buggy = |schedule: &[ThreadId]| {
        run_schedule(program, schedule).is_ok_and(|run| report.kind.matches(&run))
    };
    let mut schedule = report.schedule.clone();
    debug_assert!(still_buggy(&schedule), "the input report must reproduce");

    // Phase 1: ddmin-style chunk removal with shrinking granularity.
    let mut chunk = (schedule.len() / 2).max(1);
    while chunk >= 1 {
        let mut start = 0;
        let mut removed_any = false;
        while start < schedule.len() {
            let end = (start + chunk).min(schedule.len());
            let mut candidate = schedule.clone();
            candidate.drain(start..end);
            if still_buggy(&candidate) {
                schedule = candidate;
                removed_any = true;
                // Retry the same position: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk /= 2;
        }
    }

    // Phase 2: trim the feasible-prefix tail — trailing choices that the
    // deterministic completion re-creates anyway.
    while !schedule.is_empty() {
        let candidate = &schedule[..schedule.len() - 1];
        if still_buggy(candidate) {
            schedule.pop();
        } else {
            break;
        }
    }

    let run = run_schedule(program, &schedule).expect("minimised schedule replays");
    BugReport {
        kind: report.kind.clone(),
        schedule,
        trace_len: run.trace.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExploreConfig;
    use crate::explore::{Dpor, Explorer};
    use lazylocks_model::{ProgramBuilder, Reg};

    fn find_bug(program: &Program) -> BugReport {
        Dpor::default()
            .explore(
                program,
                &ExploreConfig::with_limit(50_000).stopping_on_bug(),
            )
            .first_bug
            .expect("program must have a bug")
    }

    #[test]
    fn minimised_deadlock_still_deadlocks() {
        let bench = philosophers(3);
        let bug = find_bug(&bench);
        let minimal = minimize_schedule(&bench, &bug);
        assert!(minimal.schedule.len() <= bug.schedule.len());
        let run = minimal.reproduce(&bench).unwrap();
        assert!(run.status.is_deadlock());
    }

    #[test]
    fn minimised_assertion_failure_keeps_the_fault() {
        let mut b = ProgramBuilder::new("buggy");
        let x = b.var("x", 0);
        let noise = b.var("noise", 0);
        b.thread("T1", |t| {
            // Irrelevant noise before the relevant write.
            t.repeat(4, |t, i| t.store(noise, i as i64));
            t.store(x, 1);
        });
        b.thread("T2", |t| {
            t.repeat(4, |t, i| t.store(noise, 10 + i as i64));
            t.load(Reg(0), x);
            t.assert_true(Reg(0), "x must be set");
        });
        let p = b.build();
        let bug = find_bug(&p);
        let minimal = minimize_schedule(&p, &bug);
        let run = minimal.reproduce(&p).unwrap();
        assert!(
            run.faults
                .iter()
                .any(|f| f.to_string().contains("x must be set")),
            "minimised schedule keeps the fault"
        );
        assert!(minimal.schedule.len() <= bug.schedule.len());
    }

    #[test]
    fn empty_tail_is_trimmed() {
        // A bug reproducible by the empty schedule (thread-order completion
        // already fails) minimises to an empty choice list.
        let mut b = ProgramBuilder::new("always");
        let x = b.var("x", 0);
        b.thread("T1", |t| {
            t.load(Reg(0), x);
            t.assert_true(Reg(0), "always fails first");
        });
        b.thread("T2", |t| t.store(x, 1));
        let p = b.build();
        let bug = find_bug(&p);
        let minimal = minimize_schedule(&p, &bug);
        assert!(minimal.schedule.is_empty());
        assert!(!minimal.reproduce(&p).unwrap().faults.is_empty());
    }

    /// Local philosophers builder (the suite crate depends on this crate,
    /// so tests here cannot use the corpus).
    fn philosophers(n: usize) -> Program {
        let mut b = ProgramBuilder::new("philosophers");
        let forks = b.mutex_array("fork", n);
        let plates = b.var_array("plate", n, 0);
        for i in 0..n {
            let left = forks[i];
            let right = forks[(i + 1) % n];
            let plate = plates[i];
            b.thread(format!("P{i}"), move |t| {
                t.lock(left);
                t.lock(right);
                t.store(plate, (i + 1) as i64);
                t.unlock(right);
                t.unlock(left);
            });
        }
        b.build()
    }
}
