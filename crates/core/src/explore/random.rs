//! Uniform random schedule sampling — the unreduced baseline.
//!
//! Runs `schedule_limit` independent random walks: at every scheduling
//! point a uniformly random enabled thread takes a step. A walk cut off by
//! the run-length cap counts against the limit too. No reduction, no
//! completeness guarantee; useful as a coverage baseline and for quick
//! smoke-testing large programs.
//!
//! Each walk resets one frame body from the root, folds every event into
//! the relations the collector reads and ends in the stepping core's
//! `FrameBody::record_leaf`, so a leaf is never replayed.

use crate::config::{ExploreConfig, RunSetting};
use crate::explore::frame::{FrameBody, Leaf};
use crate::explore::Explorer;
use crate::rng::SplitMix64;
use crate::stats::{Collector, Continue, ExploreStats};
use lazylocks_model::{Program, ThreadId, ThreadSet};
use lazylocks_obs::ids;
use lazylocks_runtime::Event;

/// The random-walk explorer.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomWalk;

impl Explorer for RandomWalk {
    fn name(&self) -> String {
        "random".to_string()
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        let mut collector = Collector::new(config);
        let mut rng = SplitMix64::new(config.seed);
        let root = FrameBody::root(program, None, false, &collector);
        // One body folds each walk forward; every walk starts as a copy of
        // the root, reusing the body's and the trace's buffers.
        let mut body = root.clone();
        let mut trace: Vec<Event> = Vec::new();
        let mut schedule: Vec<ThreadId> = Vec::new();

        for _ in 0..config.schedule_limit {
            if collector.cancel_requested() {
                break;
            }
            body.assign_from(&root);
            trace.clear();
            schedule.clear();
            let mut last: Option<ThreadId> = None;
            let mut preemptions = 0u32;

            let leaf = loop {
                if let Some(leaf) = body.record_leaf(&trace, &schedule, false, &mut collector) {
                    break leaf;
                }
                let exec = &body.exec;
                let enabled = exec.enabled_set();
                // Respect the preemption bound by restricting the choice
                // set once the budget is spent.
                let choices: ThreadSet = match config.preemption_bound {
                    Some(bound) if preemptions >= bound => enabled
                        .iter()
                        .filter(|&t| !last.is_some_and(|l| l != t && exec.is_enabled(l)))
                        .collect(),
                    _ => enabled,
                };
                debug_assert!(
                    !choices.is_empty(),
                    "continuing the running thread is never a preemption"
                );
                let t = choices
                    .nth(rng.gen_range(choices.len()))
                    .expect("choice index in range");
                if last.is_some_and(|l| l != t && exec.is_enabled(l)) {
                    preemptions += 1;
                }
                let mut phases = collector.metrics().phase_clock();
                let out = body.exec.step(t);
                phases.lap(ids::PHASE_EXECUTOR_STEP);
                schedule.push(t);
                if let Some(e) = out.event {
                    body.absorb(&e);
                    phases.lap(ids::PHASE_HBR_APPLY);
                    trace.push(e);
                }
                last = Some(t);
            };
            if leaf == Leaf::Terminal(Continue::Stop) {
                break;
            }
        }

        let mut stats = collector.into_stats();
        // Random walks run to their budget by construction; "limit hit"
        // would be noise, so it only reports early stop-on-bug.
        stats.limit_hit = false;
        stats
    }

    fn honours(&self, setting: RunSetting) -> bool {
        setting == RunSetting::PreemptionBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ExploreSession;
    use lazylocks_model::{ProgramBuilder, Reg};
    use std::time::Duration;

    #[test]
    fn runs_exactly_the_budgeted_walks() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(x, 2));
        let p = b.build();
        let stats = RandomWalk.explore(&p, &ExploreConfig::with_limit(64));
        assert_eq!(stats.schedules, 64);
        // Both final values show up with overwhelming probability.
        assert_eq!(stats.unique_states, 2);
        stats.check_inequality().unwrap();
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        for name in ["T1", "T2", "T3"] {
            b.thread(name, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0); // normalise registers out of the state
            });
        }
        let p = b.build();
        let a = RandomWalk.explore(&p, &ExploreConfig::with_limit(50).seeded(7));
        let b2 = RandomWalk.explore(&p, &ExploreConfig::with_limit(50).seeded(7));
        assert_eq!(a.unique_states, b2.unique_states);
        assert_eq!(a.unique_hbrs, b2.unique_hbrs);
        assert_eq!(a.events, b2.events);
        let c = RandomWalk.explore(&p, &ExploreConfig::with_limit(50).seeded(8));
        // Different seeds may of course coincide, but events usually differ;
        // only check that the run completes.
        assert_eq!(c.schedules, 50);
    }

    #[test]
    fn stop_on_bug_halts_walks() {
        let mut b = ProgramBuilder::new("abba");
        let l1 = b.mutex("a");
        let l2 = b.mutex("b");
        b.thread("T1", |t| {
            t.lock(l1);
            t.lock(l2);
            t.unlock(l2);
            t.unlock(l1);
        });
        b.thread("T2", |t| {
            t.lock(l2);
            t.lock(l1);
            t.unlock(l1);
            t.unlock(l2);
        });
        let p = b.build();
        let stats = RandomWalk.explore(
            &p,
            &ExploreConfig::with_limit(10_000)
                .stopping_on_bug()
                .seeded(3),
        );
        assert!(stats.found_bug());
        assert!(stats.schedules < 10_000, "stops well before the budget");
        // The bug replays deterministically.
        let rerun = stats.first_bug.unwrap().reproduce(&p).unwrap();
        assert!(rerun.status.is_deadlock());
    }

    #[test]
    fn walks_cut_by_the_run_length_cap_count_against_the_limit() {
        // One thread storing forever: every walk reaches the cap, none is
        // a schedule, and the run still returns well before the deadline.
        let mut b = ProgramBuilder::new("spin");
        let x = b.var("x", 0);
        b.thread("T", |t| {
            let top = t.here();
            t.store(x, 1);
            t.jump(top);
        });
        let p = b.build();
        let outcome = ExploreSession::new(&p)
            .with_config(ExploreConfig::with_limit(5))
            .deadline(Duration::from_secs(2))
            .run(&RandomWalk);
        assert!(!outcome.stats.cancelled, "the walks ran into the deadline");
        assert_eq!(outcome.stats.truncated_runs, 5);
        assert_eq!(outcome.stats.schedules, 0);
    }

    #[test]
    fn preemption_bound_zero_only_runs_threads_to_completion() {
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
        let stats = RandomWalk.explore(&p, &ExploreConfig::with_limit(200).preemptions(0));
        assert_eq!(
            stats.unique_states, 1,
            "without preemption the increments never interleave"
        );
    }
}
