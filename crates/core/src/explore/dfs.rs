//! Naive depth-first enumeration of every schedule.
//!
//! The baseline every reduction is measured against: visits the entire
//! schedule tree (bounded by the budget), optionally restricted by a
//! CHESS-style preemption bound. Exhaustive and therefore exact — on small
//! programs it defines the ground-truth sets of terminal states and
//! happens-before classes that the partial-order techniques must preserve.

use crate::config::ExploreConfig;
use crate::explore::Explorer;
use crate::stats::{Collector, Continue, Counter, ExploreStats, LeafFingerprints};
use lazylocks_model::{Program, ThreadId};
use lazylocks_obs::ids;
use lazylocks_runtime::{Event, ExecPhase, Executor};

/// Exhaustive DFS over all schedules.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfsEnumeration;

impl Explorer for DfsEnumeration {
    fn name(&self) -> String {
        "dfs".to_string()
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        let mut ctx = DfsCtx {
            program,
            collector: Collector::new(config),
            trace: Vec::new(),
            schedule: Vec::new(),
        };
        let root = Executor::new(program);
        ctx.visit(&root, None, 0);
        ctx.collector.into_stats()
    }
}

struct DfsCtx<'p> {
    program: &'p Program,
    collector: Collector,
    trace: Vec<Event>,
    schedule: Vec<ThreadId>,
}

impl<'p> DfsCtx<'p> {
    /// Explores the subtree rooted at `exec`. `last` is the thread that
    /// took the previous step; `preemptions` counts preemptive switches on
    /// the path so far.
    fn visit(&mut self, exec: &Executor<'p>, last: Option<ThreadId>, preemptions: u32) -> Continue {
        if self.collector.cancel_requested() {
            return Continue::Stop;
        }
        if !matches!(exec.phase(), ExecPhase::Running) {
            return self.collector.record_terminal(
                self.program,
                exec,
                &self.trace,
                &self.schedule,
                LeafFingerprints::NONE,
            );
        }
        if self.trace.len() >= self.collector.config().max_run_length {
            self.collector.record_truncated();
            return Continue::Yes;
        }

        for t in exec.enabled_iter() {
            // A preemption switches away from a thread that could have
            // continued.
            let preempt = last.is_some_and(|l| l != t && exec.is_enabled(l));
            let p = preemptions + u32::from(preempt);
            if let Some(bound) = self.collector.config().preemption_bound {
                if p > bound {
                    self.collector.count(Counter::BoundPrunes, 1);
                    continue;
                }
            }
            let mut child = exec.clone();
            let mut phases = self.collector.metrics().phase_clock();
            let out = child.step(t);
            phases.lap(ids::PHASE_EXECUTOR_STEP);
            self.schedule.push(t);
            let pushed_event = out.event.is_some();
            if let Some(e) = out.event {
                self.trace.push(e);
            }
            let cont = self.visit(&child, Some(t), p);
            if pushed_event {
                self.trace.pop();
            }
            self.schedule.pop();
            if cont == Continue::Stop {
                return Continue::Stop;
            }
        }
        Continue::Yes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::{ProgramBuilder, Reg};

    fn config(limit: usize) -> ExploreConfig {
        ExploreConfig::with_limit(limit)
    }

    #[test]
    fn counts_all_interleavings_of_independent_writes() {
        // 2 threads × 1 event each → 2 schedules; every terminal state
        // equal, one lazy HBR, one regular HBR.
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(y, 1));
        let p = b.build();
        let stats = DfsEnumeration.explore(&p, &config(1000));
        assert_eq!(stats.schedules, 2);
        assert_eq!(stats.unique_states, 1);
        assert_eq!(stats.unique_hbrs, 1);
        assert_eq!(stats.unique_lazy_hbrs, 1);
        assert!(!stats.limit_hit);
        stats.check_inequality().unwrap();
    }

    #[test]
    fn interleaving_count_matches_formula() {
        // Two threads with 2 independent events each: C(4,2) = 6 schedules.
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        b.thread("T1", |t| {
            t.store(x, 1);
            t.store(x, 2);
        });
        b.thread("T2", |t| {
            t.store(y, 1);
            t.store(y, 2);
        });
        let p = b.build();
        let stats = DfsEnumeration.explore(&p, &config(1000));
        assert_eq!(stats.schedules, 6);
        assert_eq!(stats.unique_states, 1);
        stats.check_inequality().unwrap();
    }

    #[test]
    fn racy_counter_loses_updates() {
        // Two unsynchronised increments: load/load/store/store loses one.
        let mut b = ProgramBuilder::new("racy");
        let x = b.var("x", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0); // normalise registers out of the state
            });
        }
        let p = b.build();
        let stats = DfsEnumeration.explore(&p, &config(10_000));
        assert_eq!(stats.schedules, 6, "C(4,2) interleavings of 2+2 events");
        // Final x ∈ {1, 2}: the lost-update bug shows as two states.
        assert_eq!(stats.unique_states, 2);
        stats.check_inequality().unwrap();
    }

    #[test]
    fn schedule_limit_stops_exploration() {
        let mut b = ProgramBuilder::new("p");
        let vars: Vec<_> = (0..5).map(|i| b.var(format!("v{i}"), 0)).collect();
        for (i, &v) in vars.iter().enumerate() {
            b.thread(format!("T{i}"), move |t| {
                t.store(v, 1);
                t.store(v, 2);
            });
        }
        let p = b.build();
        let stats = DfsEnumeration.explore(&p, &config(50));
        assert_eq!(stats.schedules, 50);
        assert!(stats.limit_hit);
    }

    #[test]
    fn deadlock_counted_and_reported() {
        let mut b = ProgramBuilder::new("abba");
        let a = b.mutex("a");
        let c = b.mutex("b");
        b.thread("T1", |t| {
            t.lock(a);
            t.lock(c);
            t.unlock(c);
            t.unlock(a);
        });
        b.thread("T2", |t| {
            t.lock(c);
            t.lock(a);
            t.unlock(a);
            t.unlock(c);
        });
        let p = b.build();
        let stats = DfsEnumeration.explore(&p, &config(10_000));
        assert!(stats.deadlocks > 0);
        let bug = stats.first_bug.as_ref().expect("deadlock bug reported");
        assert!(bug.is_deadlock());
        // The recorded schedule reproduces the deadlock.
        let rerun = bug.reproduce(&p).unwrap();
        assert!(rerun.status.is_deadlock());
    }

    #[test]
    fn stop_on_bug_halts_early() {
        let mut b = ProgramBuilder::new("buggy");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| {
            t.load(Reg(0), x);
            t.assert_true(Reg(0), "x must be set"); // fails if T2 runs first
        });
        let p = b.build();
        let mut cfg = config(10_000);
        cfg.stop_on_bug = true;
        let stats = DfsEnumeration.explore(&p, &cfg);
        assert!(stats.found_bug());
        assert!(stats.schedules < 3, "stops at the first buggy schedule");
    }

    #[test]
    fn preemption_bound_zero_explores_non_preemptive_schedules() {
        // With bound 0 each thread runs to completion once scheduled:
        // the number of schedules equals the number of thread orderings
        // that are feasible without preemption (2 here).
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0); // normalise registers out of the state
            });
        }
        let p = b.build();
        let stats = DfsEnumeration.explore(&p, &config(10_000).preemptions(0));
        assert_eq!(stats.schedules, 2);
        assert!(stats.bound_prunes > 0);
        // Non-preemptive schedules see only the correct final value.
        assert_eq!(stats.unique_states, 1);
    }

    #[test]
    fn preemption_bound_one_finds_the_lost_update() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0); // normalise registers out of the state
            });
        }
        let p = b.build();
        let stats = DfsEnumeration.explore(&p, &config(10_000).preemptions(1));
        assert!(stats.schedules > 2);
        assert_eq!(stats.unique_states, 2, "one preemption exposes the race");
    }

    #[test]
    fn run_length_cap_truncates() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T", |t| {
            t.repeat(50, |t, i| t.store(x, i as i64));
        });
        let p = b.build();
        let mut cfg = config(10);
        cfg.max_run_length = 5;
        let stats = DfsEnumeration.explore(&p, &cfg);
        assert_eq!(stats.schedules, 0);
        assert_eq!(stats.truncated_runs, 1);
    }

    #[test]
    fn blocked_lock_branches_are_not_schedulable() {
        // Two lock/unlock pairs: only the two serializations exist.
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex("m");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.with_lock(m, |t| t.store(x, 1)));
        b.thread("T2", |t| t.with_lock(m, |t| t.store(x, 2)));
        let p = b.build();
        let stats = DfsEnumeration.explore(&p, &config(10_000));
        // Schedules: choose the lock order; inside a critical section the
        // other thread is blocked, so 2 × 1 = 2 × (interleavings of the
        // trailing unlock-free suffix) — T2 can only start after unlock.
        // Trace: l1 w1 u1 l2 w2 u2 and the swap: exactly 2 schedules.
        assert_eq!(stats.schedules, 2);
        assert_eq!(stats.unique_hbrs, 2);
        assert_eq!(
            stats.unique_lazy_hbrs, 2,
            "different writes → different states"
        );
        assert_eq!(stats.unique_states, 2);
        stats.check_inequality().unwrap();
    }
}
