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
//!
//! It is the [`dfs`](crate::explore::dfs) walk over per-depth frame-body
//! slots with a prefix cache keyed on the body's running digest of its
//! own relation. The other relations the collector reads are folded only
//! on edges the cache lets through, and a leaf hands their digests over:
//! nothing is cloned per edge or replayed per leaf.
//!
//! The cache also tells the collector which leaves are new classes: a
//! leaf whose last step inserted a fresh key has a relation no earlier
//! leaf had. So the cache's relation (and, for the lazy mode, the
//! regular one too) is counted, not stored in a class set, and a release
//! build of lazy caching folds no relation but its own. A leaf whose
//! last step faulted with no event repeats an old key and is counted
//! once per digest.

use crate::config::{ExploreConfig, RunSetting};
use crate::explore::dfs::walk;
use crate::explore::Explorer;
use crate::stats::ExploreStats;
use lazylocks_hbr::HbMode;
use lazylocks_model::Program;

/// The prefix-caching explorer, keyed on the regular
/// ([`HbrCaching::regular`]) or the lazy ([`HbrCaching::lazy`]) relation:
/// the two for which equal relations mean equal states (Theorems 2.1/2.2).
#[derive(Debug, Clone, Copy)]
pub struct HbrCaching {
    mode: HbMode,
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

    /// The relation the cache keys on.
    pub fn mode(&self) -> HbMode {
        self.mode
    }
}

impl Explorer for HbrCaching {
    fn name(&self) -> String {
        match self.mode {
            HbMode::Lazy => "lazy-caching".to_string(),
            _ => "caching".to_string(),
        }
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        walk(program, config, Some(self.mode))
    }

    fn honours(&self, setting: RunSetting) -> bool {
        setting == RunSetting::PreemptionBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::dfs::DfsEnumeration;
    use crate::explore::frame::tests::explore_checked;
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
    fn keyless_fault_leaves_count_one_class_per_digest() {
        // B's and C's unlocks fault with no event, so the only key is
        // A's store: the second leaf ends on the same trace as the first,
        // its last step inserted no key, and it is no new class.
        let mut b = ProgramBuilder::new("unlock-fault");
        let x = b.var("x", 0);
        let m = b.mutex("m");
        b.thread("A", |t| t.store(x, 1));
        b.thread("B", |t| t.unlock(m));
        b.thread("C", |t| t.unlock(m));
        let p = b.build();
        for explorer in [HbrCaching::regular(), HbrCaching::lazy()] {
            for stats in [
                explorer.explore(&p, &config(1000)),
                explore_checked(&explorer, &p),
            ] {
                let counts = (
                    stats.schedules,
                    stats.unique_states,
                    stats.unique_hbrs,
                    stats.unique_lazy_hbrs,
                    stats.faulted_schedules,
                    stats.cache_prunes,
                );
                assert_eq!(counts, (2, 1, 1, 1, 2, 4), "{}", explorer.name());
            }
        }
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
