//! Naive depth-first enumeration of every schedule.
//!
//! The baseline every reduction is measured against: visits the entire
//! schedule tree (bounded by the budget), optionally restricted by a
//! CHESS-style preemption bound. Exhaustive and therefore exact — on small
//! programs it defines the ground-truth sets of terminal states and
//! happens-before classes that the partial-order techniques must preserve.
//!
//! The walk is an explicit stack over one frame-body slot per depth, shared
//! with [`HbrCaching`](crate::HbrCaching), that steps and records leaves
//! through the stepping core (`explore::frame`) as DPOR does: a step folds
//! the event into each relation the collector reads, so a leaf hands its
//! fingerprints over and is never replayed.

use crate::config::{ExploreConfig, RunSetting};
use crate::explore::dpor::profile_obj;
use crate::explore::frame::{self, FrameBody, Leaf};
use crate::explore::Explorer;
use crate::stats::{profile_dims, Collector, Continue, Counter, ExploreStats};
use lazylocks_hbr::HbMode;
use lazylocks_model::{Program, ThreadId};
use lazylocks_obs::{ids, site, FingerprintTable, ProfileSites};
use lazylocks_runtime::Event;

/// Exhaustive DFS over all schedules.
#[derive(Debug, Clone, Copy, Default)]
pub struct DfsEnumeration;

impl Explorer for DfsEnumeration {
    fn name(&self) -> String {
        "dfs".to_string()
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        walk(program, config, None)
    }

    fn honours(&self, setting: RunSetting) -> bool {
        setting == RunSetting::PreemptionBound
    }
}

/// A running node on the walk's path; its state is the body in the slot
/// at the same depth.
#[derive(Clone, Copy)]
struct Node {
    /// Index of the next thread to try from this node.
    next: usize,
    /// The thread that stepped into this node.
    last: Option<ThreadId>,
    /// Preemptive switches on the path to this node.
    preemptions: u32,
    /// The trace length before the step into this node.
    trace_mark: usize,
}

/// The depth-first walk of [`DfsEnumeration`] and
/// [`HbrCaching`](crate::HbrCaching) over one body slot per depth.
struct Walk<'p> {
    collector: Collector,
    slots: Vec<FrameBody<'p>>,
    nodes: Vec<Node>,
    trace: Vec<Event>,
    schedule: Vec<ThreadId>,
    /// Digests of every prefix explored so far, when caching.
    cache: Option<FingerprintTable>,
    /// Per-program-point prune attribution (inert unless caching with the
    /// profiler on).
    sites: ProfileSites,
}

/// Runs [`Walk`] to its end. With `cache: None` it visits every schedule
/// the preemption bound allows; with `Some(mode)` it also prunes each edge
/// whose prefix digest under `mode`'s relation was already explored.
pub(crate) fn walk(
    program: &Program,
    config: &ExploreConfig,
    cache: Option<HbMode>,
) -> ExploreStats {
    let mut collector = Collector::new(config);
    if let Some(mode) = cache {
        collector.derive_classes(mode);
    }
    let root = FrameBody::root(program, cache, true, &collector);
    let mut walk = Walk {
        collector,
        slots: vec![root],
        nodes: Vec::new(),
        trace: Vec::new(),
        schedule: Vec::new(),
        cache: cache.map(|_| FingerprintTable::new()),
        sites: match cache {
            Some(_) => config.profile.sites(&profile_dims(program)),
            None => ProfileSites::disabled(),
        },
    };
    let bound = config.preemption_bound;
    let mut cont = walk.enter(None, 0, 0);
    while let (Continue::Yes, Some(top)) = (cont, walk.nodes.len().checked_sub(1)) {
        let node = walk.nodes[top];
        let exec = &walk.slots[top].exec;
        let pick = program
            .thread_ids()
            .skip(node.next)
            .find(|&t| exec.is_enabled(t));
        let Some(t) = pick else {
            walk.nodes.pop();
            walk.leave(node.trace_mark);
            continue;
        };
        walk.nodes[top].next = t.index() + 1;
        // A preemption switches away from a thread that could have
        // continued.
        let preempt = node.last.is_some_and(|l| l != t && exec.is_enabled(l));
        let preemptions = node.preemptions + u32::from(preempt);
        if bound.is_some_and(|bound| preemptions > bound) {
            walk.collector.count(Counter::BoundPrunes, 1);
            continue;
        }

        let mut phases = walk.collector.metrics().phase_clock();
        let (out, _) = frame::step(&mut walk.slots, top, t, &mut phases);
        let child = &mut walk.slots[top + 1];
        let trace_mark = walk.trace.len();
        if let Some(event) = out.event {
            if let Some(cache) = &mut walk.cache {
                let key = child.absorb_own(&event);
                phases.lap(ids::PHASE_HBR_APPLY);
                // Prefix cache: an equivalent prefix reaches the same state
                // (Theorems 2.1/2.2) and was already fully explored. Only a
                // surviving edge folds the other relations.
                if !cache.insert(key) {
                    walk.collector.count(Counter::CachePrunes, 1);
                    // Attribute the prune to the event whose execution
                    // completed the already-seen prefix.
                    let thread = event.thread().index() as u32;
                    let obj = profile_obj(event.kind);
                    walk.sites.add(thread, event.pc, obj, site::CACHE_PRUNES, 1);
                    continue;
                }
                child.absorb_rest(&event);
            } else {
                child.absorb(&event);
                phases.lap(ids::PHASE_HBR_APPLY);
            }
            walk.trace.push(event);
        }
        walk.schedule.push(t);
        cont = walk.enter(Some(t), preemptions, trace_mark);
    }
    walk.collector.into_stats()
}

impl Walk<'_> {
    /// Visits the body just stepped into, one slot past the path's last
    /// node: records it if it is a leaf or the run-length cap truncates
    /// it, else pushes its node.
    fn enter(&mut self, last: Option<ThreadId>, preemptions: u32, trace_mark: usize) -> Continue {
        if self.collector.cancel_requested() {
            return Continue::Stop;
        }
        let body = &self.slots[self.nodes.len()];
        // A caching step that pushed an event got past the cache, so it
        // inserted a fresh key.
        let fresh = self.cache.is_some() && self.trace.len() > trace_mark;
        let leaf = body.record_leaf(&self.trace, &self.schedule, fresh, &mut self.collector);
        let cont = match leaf {
            Some(Leaf::Terminal(cont)) => cont,
            Some(Leaf::Truncated) => Continue::Yes,
            None => {
                self.nodes.push(Node {
                    next: 0,
                    last,
                    preemptions,
                    trace_mark,
                });
                return Continue::Yes;
            }
        };
        self.leave(trace_mark);
        cont
    }

    /// Pops the trace and schedule entries of the step into the slot one
    /// past the path's last node.
    fn leave(&mut self, trace_mark: usize) {
        self.trace.truncate(trace_mark);
        self.schedule.truncate(self.nodes.len().saturating_sub(1));
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
