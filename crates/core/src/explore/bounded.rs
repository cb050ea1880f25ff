//! Iterative preemption bounding (CHESS-style context bounding).
//!
//! Explores the schedule tree in waves of increasing preemption budget:
//! first every schedule with 0 preemptive context switches, then 1, then 2…
//! Most real concurrency bugs manifest within one or two preemptions
//! (Musuvathi & Qadeer), so this ordering front-loads the schedules most
//! likely to expose them — and gives partial explorations a meaningful
//! coverage statement ("correct up to k preemptions") instead of an
//! arbitrary truncation.
//!
//! Each wave reuses the prefix-caching explorer
//! ([`IterativeBounding::caching`]) restricted to the wave's bound; the
//! schedule budget is shared across waves.

use crate::config::ExploreConfig;
use crate::explore::{Explorer, HbrCaching};
use crate::stats::ExploreStats;
use lazylocks_hbr::HbMode;
use lazylocks_model::Program;
use std::time::Instant;

/// The iterative preemption-bounding explorer.
#[derive(Debug, Clone, Copy)]
pub struct IterativeBounding {
    /// First preemption bound to try.
    pub start_bound: u32,
    /// Highest preemption bound to try (inclusive).
    pub max_bound: u32,
    /// Increment between waves (must be positive). A step above 1 trades
    /// the per-bound coverage statement for fewer re-explorations.
    pub bound_step: u32,
    /// The per-wave prefix-caching explorer, regular or lazy. Lazy
    /// composes the paper's contribution with context bounding — exactly
    /// the setting of Musuvathi & Qadeer's HBR-caching report.
    pub caching: HbrCaching,
}

impl Default for IterativeBounding {
    fn default() -> Self {
        IterativeBounding {
            start_bound: 0,
            max_bound: 3,
            bound_step: 1,
            caching: HbrCaching::lazy(),
        }
    }
}

/// Result of an iterative run: the merged stats plus the per-wave detail.
#[derive(Debug, Clone)]
pub struct BoundedRun {
    /// Stats of the final (largest-bound) wave — cumulative over the whole
    /// schedule tree visible at that bound.
    pub final_stats: ExploreStats,
    /// `(bound, stats)` per completed wave, in order.
    pub waves: Vec<(u32, ExploreStats)>,
    /// The smallest preemption bound at which a bug appeared, if any.
    pub bug_bound: Option<u32>,
}

impl IterativeBounding {
    /// Runs waves of increasing bound until a bug is found (when
    /// `config.stop_on_bug`), the budget is spent, or `max_bound` is done.
    pub fn run(&self, program: &Program, config: &ExploreConfig) -> BoundedRun {
        let start = Instant::now();
        let mut waves: Vec<(u32, ExploreStats)> = Vec::new();
        let mut bug_bound = None;
        let mut remaining = config.schedule_limit;
        let step = self.bound_step.max(1) as usize;

        for bound in (self.start_bound..=self.max_bound).step_by(step) {
            if remaining == 0 {
                break;
            }
            if config.control.cancel_requested() {
                if let Some(&mut (_, ref mut s)) = waves.last_mut() {
                    s.cancelled = true;
                }
                break;
            }
            let mut wave_config = config.clone();
            wave_config.schedule_limit = remaining;
            wave_config.preemption_bound = Some(bound);
            let stats = self.caching.explore(program, &wave_config);
            remaining = remaining.saturating_sub(stats.schedules);
            let found = stats.found_bug();
            waves.push((bound, stats));
            if found && bug_bound.is_none() {
                bug_bound = Some(bound);
                if config.stop_on_bug {
                    break;
                }
            }
            // A wave that was not cut short by the bound has seen the whole
            // tree: higher bounds cannot add anything.
            if waves
                .last()
                .is_some_and(|(_, s)| s.bound_prunes == 0 && !s.limit_hit)
            {
                break;
            }
        }

        let mut final_stats = waves.last().map(|(_, s)| s.clone()).unwrap_or_default();
        if waves.is_empty() && config.control.cancel_requested() {
            // Cancelled before the first wave could run: record the
            // truncation so the outcome is not mistaken for a clean finish.
            final_stats.cancelled = true;
        }
        final_stats.wall_time = start.elapsed();
        BoundedRun {
            final_stats,
            waves,
            bug_bound,
        }
    }
}

impl Explorer for IterativeBounding {
    fn name(&self) -> String {
        match self.caching.mode() {
            HbMode::Regular => "bounded-regular".to_string(),
            _ => "bounded".to_string(),
        }
    }

    /// Runs the waves and reports the final wave's (cumulative) stats —
    /// the per-wave detail of [`IterativeBounding::run`] is collapsed, the
    /// total wall time is kept. A bug found in an *earlier* wave is
    /// carried over: the final wave shares its budget with its
    /// predecessors and may not re-reach the buggy schedule.
    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        let run = self.run(program, config);
        let mut stats = run.final_stats;
        if stats.first_bug.is_none() {
            stats.first_bug = run.waves.into_iter().find_map(|(_, s)| s.first_bug);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::{ProgramBuilder, Reg};

    fn racy_counter() -> Program {
        let mut b = ProgramBuilder::new("racy");
        let x = b.var("x", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0);
            });
        }
        b.build()
    }

    #[test]
    fn lost_update_found_at_bound_one() {
        // Turn the racy counter into an assertion so the bug is visible.
        let mut b = ProgramBuilder::new("racy-assert");
        let x = b.var("x", 0);
        let done = b.var("done", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.load(Reg(1), done);
                t.add(Reg(1), Reg(1), 1);
                t.store(done, Reg(1));
                // When I finish second, the counter must show 2 — false
                // under the lost update.
                let skip = t.label();
                t.ne(Reg(1), Reg(1), 2);
                t.branch_if(Reg(1), skip);
                t.load(Reg(0), x);
                t.eq(Reg(0), Reg(0), 2);
                t.assert_true(Reg(0), "lost update");
                t.bind(skip);
                t.set(Reg(0), 0);
                t.set(Reg(1), 0);
            });
        }
        let p = b.build();
        let run = IterativeBounding::default().run(&p, &ExploreConfig::with_limit(50_000));
        assert_eq!(run.bug_bound, Some(1), "one preemption exposes the race");
        // Wave 0 must have been clean.
        assert!(!run.waves[0].1.found_bug());
    }

    #[test]
    fn waves_stop_once_the_tree_is_fully_covered() {
        let p = racy_counter();
        let run = IterativeBounding {
            max_bound: 10,
            caching: HbrCaching::regular(),
            ..IterativeBounding::default()
        }
        .run(&p, &ExploreConfig::with_limit(100_000));
        // The schedule tree has at most 3 preemptions; waves end early.
        assert!(run.waves.len() <= 5);
        let (_, last) = run.waves.last().unwrap();
        assert_eq!(last.bound_prunes, 0, "final wave saw the whole tree");
        assert_eq!(last.unique_states, 2, "both outcomes reached");
    }

    #[test]
    fn budget_is_shared_across_waves() {
        let p = racy_counter();
        let run = IterativeBounding::default().run(&p, &ExploreConfig::with_limit(4));
        let total: usize = run.waves.iter().map(|(_, s)| s.schedules).sum();
        assert!(total <= 4, "waves must share the schedule budget");
    }

    #[test]
    fn stop_on_bug_halts_at_the_bug_bound() {
        let mut b = ProgramBuilder::new("abba");
        let l0 = b.mutex("a");
        let l1 = b.mutex("b");
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
        let p = b.build();
        let run = IterativeBounding::default()
            .run(&p, &ExploreConfig::with_limit(50_000).stopping_on_bug());
        let bound = run.bug_bound.expect("deadlock found");
        assert!(
            bound <= 1,
            "the AB-BA deadlock needs at most one preemption"
        );
        assert_eq!(
            run.waves.last().unwrap().0,
            bound,
            "stopped at the bug wave"
        );
    }
}
