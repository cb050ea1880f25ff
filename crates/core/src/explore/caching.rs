//! HBR caching (Musuvathi & Qadeer) and the paper's lazy HBR caching.
//!
//! A simple form of partial-order reduction: after every executed event the
//! happens-before relation of the *schedule prefix* is fingerprinted and
//! looked up in a cache. A hit means an equivalent prefix — one with the
//! same relation, hence (Theorem 2.1, or Theorem 2.2 for the lazy relation)
//! the same machine state — was already fully explored, so the subtree is
//! pruned.
//!
//! The lazy variant ([`HbrCaching::lazy`]) is the paper's contribution in
//! executable form: because the lazy relation identifies strictly more
//! prefixes (mutex-induced orderings are invisible), it prunes more and,
//! under the same schedule budget, reaches more distinct behaviours —
//! the effect Figure 3 measures.

use crate::config::ExploreConfig;
use crate::explore::Explorer;
use crate::stats::{profile_dims, Collector, Continue, Counter, ExploreStats, LeafFingerprints};
use lazylocks_hbr::{event_record_hash, ClockEngine, HbMode, PrefixAccumulator};
use lazylocks_model::{Program, ThreadId, VisibleKind};
use lazylocks_obs::{ids, site, ProfileObj, ProfileSites};
use lazylocks_runtime::{Event, ExecPhase, Executor};
use std::collections::HashSet;

/// The prefix-caching explorer, parameterised by the happens-before
/// relation used for cache keys.
#[derive(Debug, Clone, Copy)]
pub struct HbrCaching {
    /// Relation used for prefix fingerprints. [`HbMode::Regular`] gives
    /// Musuvathi–Qadeer HBR caching; [`HbMode::Lazy`] gives the paper's
    /// lazy HBR caching.
    pub mode: HbMode,
}

impl HbrCaching {
    /// Regular HBR caching.
    pub fn regular() -> Self {
        HbrCaching {
            mode: HbMode::Regular,
        }
    }

    /// Lazy HBR caching (the paper's technique).
    pub fn lazy() -> Self {
        HbrCaching { mode: HbMode::Lazy }
    }
}

impl Explorer for HbrCaching {
    fn name(&self) -> String {
        match self.mode {
            HbMode::Regular => "caching".to_string(),
            HbMode::Lazy => "lazy-caching".to_string(),
            HbMode::SyncOnly => "sync-caching".to_string(),
        }
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        let mut ctx = CachingCtx {
            program,
            collector: Collector::new(config),
            cache: HashSet::new(),
            trace: Vec::new(),
            schedule: Vec::new(),
            sites: config.profile.sites(&profile_dims(program)),
        };
        let root = Executor::new(program);
        let clocks = ClockEngine::for_program(self.mode, program);
        ctx.visit(&root, clocks, PrefixAccumulator::new(), None, 0);
        ctx.collector.into_stats()
    }
}

struct CachingCtx<'p> {
    program: &'p Program,
    collector: Collector,
    /// Fingerprints of every prefix relation explored so far.
    cache: HashSet<u128>,
    trace: Vec<Event>,
    schedule: Vec<ThreadId>,
    /// Per-program-point prune attribution (inert when the profiler is
    /// off).
    sites: ProfileSites,
}

impl<'p> CachingCtx<'p> {
    fn visit(
        &mut self,
        exec: &Executor<'p>,
        clocks: ClockEngine,
        acc: PrefixAccumulator,
        last: Option<ThreadId>,
        preemptions: u32,
    ) -> Continue {
        if self.collector.cancel_requested() {
            return Continue::Stop;
        }
        if !matches!(exec.phase(), ExecPhase::Running) {
            return self.collector.record_terminal(
                self.program,
                exec,
                &self.trace,
                &self.schedule,
                LeafFingerprints::NONE.with(clocks.mode(), acc.fingerprint()),
            );
        }
        if self.trace.len() >= self.collector.config().max_run_length {
            self.collector.record_truncated();
            return Continue::Yes;
        }

        for t in exec.enabled_iter() {
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
            let mut child_clocks = clocks.clone();
            let mut child_acc = acc;
            if let Some(event) = out.event {
                let clock = child_clocks.apply(&event);
                phases.lap(ids::PHASE_HBR_APPLY);
                child_acc.absorb(event_record_hash(&event, clock));
                // Prefix cache: an equivalent prefix reaches the same state
                // (Theorems 2.1/2.2) and was already fully explored.
                if !self.cache.insert(child_acc.fingerprint()) {
                    self.collector.count(Counter::CachePrunes, 1);
                    // Attribute the prune to the event whose execution
                    // completed the already-seen prefix.
                    let obj = match event.kind {
                        VisibleKind::Read(x) | VisibleKind::Write(x) => {
                            Some(ProfileObj::Var(x.index() as u32))
                        }
                        VisibleKind::Lock(m) | VisibleKind::Unlock(m) => {
                            Some(ProfileObj::Mutex(m.index() as u32))
                        }
                    };
                    self.sites.add(
                        event.thread().index() as u32,
                        event.pc,
                        obj,
                        site::CACHE_PRUNES,
                        1,
                    );
                    continue;
                }
            }

            self.schedule.push(t);
            let pushed_event = out.event.is_some();
            if let Some(e) = out.event {
                self.trace.push(e);
            }
            let cont = self.visit(&child, child_clocks, child_acc, Some(t), p);
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
    use crate::explore::dfs::DfsEnumeration;
    use lazylocks_model::{ProgramBuilder, Reg};

    fn config(limit: usize) -> ExploreConfig {
        ExploreConfig::with_limit(limit)
    }

    /// Under an exhaustive budget, both caching variants must preserve the
    /// set of distinct terminal states that plain DFS finds.
    fn assert_state_coverage(p: &Program, limit: usize) {
        let dfs = DfsEnumeration.explore(p, &config(limit));
        assert!(!dfs.limit_hit);
        for explorer in [HbrCaching::regular(), HbrCaching::lazy()] {
            let stats = explorer.explore(p, &config(limit));
            assert!(!stats.limit_hit, "{} hit the limit", explorer.name());
            assert_eq!(
                stats.unique_states,
                dfs.unique_states,
                "{} missed states",
                explorer.name()
            );
            assert!(stats.schedules <= dfs.schedules);
            stats.check_inequality().unwrap();
        }
    }

    #[test]
    fn caching_preserves_states_on_racy_counter() {
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
        assert_state_coverage(&p, 100_000);
    }

    #[test]
    fn caching_preserves_states_with_locks() {
        let mut b = ProgramBuilder::new("locked");
        let x = b.var("x", 0);
        let m = b.mutex("m");
        b.thread("T1", |t| {
            t.with_lock(m, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
            })
        });
        b.thread("T2", |t| {
            t.with_lock(m, |t| {
                t.load(Reg(0), x);
                t.mul(Reg(0), Reg(0), 10);
                t.store(x, Reg(0));
            })
        });
        let p = b.build();
        assert_state_coverage(&p, 100_000);
    }

    #[test]
    fn lazy_caching_explores_fewer_schedules_on_disjoint_critical_sections() {
        // The motivating pattern: one global lock, disjoint data. Regular
        // caching distinguishes every lock order; lazy caching identifies
        // them all.
        let mut b = ProgramBuilder::new("coarse-disjoint");
        let m = b.mutex("m");
        let vars: Vec<_> = (0..3).map(|i| b.var(format!("v{i}"), 0)).collect();
        for (i, &v) in vars.iter().enumerate() {
            b.thread(format!("T{i}"), move |t| {
                t.with_lock(m, |t| {
                    t.load(Reg(0), v);
                    t.add(Reg(0), Reg(0), 1);
                    t.store(v, Reg(0));
                });
            });
        }
        let p = b.build();
        let regular = HbrCaching::regular().explore(&p, &config(100_000));
        let lazy = HbrCaching::lazy().explore(&p, &config(100_000));
        assert!(!regular.limit_hit && !lazy.limit_hit);
        assert_eq!(regular.unique_states, 1);
        assert_eq!(lazy.unique_states, 1);
        assert_eq!(lazy.unique_lazy_hbrs, 1);
        assert!(
            lazy.schedules < regular.schedules,
            "lazy caching must prune lock-order permutations: lazy={} regular={}",
            lazy.schedules,
            regular.schedules
        );
    }

    #[test]
    fn identical_work_is_pruned_to_one_schedule_by_lazy_caching() {
        // Both threads read the same variable under the lock: only one
        // lazy class exists at every prefix, so lazy caching explores a
        // single schedule.
        let mut b = ProgramBuilder::new("readonly");
        let m = b.mutex("m");
        let x = b.var("x", 7);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.with_lock(m, |t| {
                    t.load(Reg(0), x);
                });
            });
        }
        let p = b.build();
        let lazy = HbrCaching::lazy().explore(&p, &config(100_000));
        assert_eq!(lazy.unique_lazy_hbrs, 1);
        assert!(lazy.cache_prunes > 0);
        let regular = HbrCaching::regular().explore(&p, &config(100_000));
        assert_eq!(regular.unique_hbrs, 2, "two lock orders remain distinct");
        assert!(lazy.schedules < regular.schedules);
    }

    #[test]
    fn budgeted_lazy_caching_reaches_at_least_as_many_lazy_classes() {
        // The Figure 3 property on a schedule-limited exploration: the lazy
        // variant never reaches fewer distinct lazy HBRs.
        let mut b = ProgramBuilder::new("mixed");
        let m = b.mutex("m");
        let shared = b.var("s", 0);
        let vars: Vec<_> = (0..2).map(|i| b.var(format!("v{i}"), 0)).collect();
        for (i, &v) in vars.iter().enumerate() {
            b.thread(format!("T{i}"), move |t| {
                t.with_lock(m, |t| {
                    t.load(Reg(0), v);
                    t.add(Reg(0), Reg(0), 1);
                    t.store(v, Reg(0));
                });
                t.fetch_add_racy(shared, 1);
            });
        }
        let p = b.build();
        for limit in [2usize, 4, 8, 1000] {
            let regular = HbrCaching::regular().explore(&p, &config(limit));
            let lazy = HbrCaching::lazy().explore(&p, &config(limit));
            assert!(
                lazy.unique_lazy_hbrs >= regular.unique_lazy_hbrs,
                "limit {limit}: lazy caching reached fewer lazy classes \
                 ({} < {})",
                lazy.unique_lazy_hbrs,
                regular.unique_lazy_hbrs
            );
        }
    }

    #[test]
    fn cache_prunes_are_counted() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(y, 1));
        let p = b.build();
        let stats = HbrCaching::regular().explore(&p, &config(1000));
        // The two interleavings share the same relation after both events;
        // at least one prefix is pruned.
        assert_eq!(stats.schedules, 1);
        assert!(stats.cache_prunes >= 1);
    }

    #[test]
    fn preemption_bound_composes_with_caching() {
        // Musuvathi–Qadeer's setting: context-bounded search + caching.
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
        let stats = HbrCaching::regular().explore(&p, &config(10_000).preemptions(0));
        assert_eq!(stats.unique_states, 1, "no preemption → no lost update");
        let stats = HbrCaching::regular().explore(&p, &config(10_000).preemptions(1));
        assert_eq!(stats.unique_states, 2, "one preemption exposes the race");
    }
}
