//! Prototype **lazy DPOR** — the paper's §4 future work.
//!
//! The paper observes that the lazy HBR "cannot be immediately used in
//! place of the regular HBR during DPOR" because not every linearization of
//! a lazy HBR is feasible, and leaves a lazy DPOR algorithm to future work.
//! This module provides an executable prototype to measure what such an
//! algorithm could gain: race detection uses lazy (variable-only)
//! dependence **plus** lock-acquisition conflicts for nested acquisitions
//! ([`DependenceMode::LazyLockAcquisitions`]). Reversing those
//! acquisitions keeps deadlock detection and covers conflicting critical
//! sections, while the unlock-induced serialisation chains — exactly the
//! edges the lazy HBR deletes — generate no backtracking.
//!
//! [`LazyDpor`] runs that dependence *without* sleep sets; it is the only
//! sleep-free DPOR. The same dependence with sleep sets is
//! `Dpor { dependence: LazyLockAcquisitions }` (`dpor(deps=lazy-locks)`),
//! which explores fewer schedules but drops terminal states on some
//! benchmarks. In aggregate over the exhaustible corpus, sleep-free
//! `lazy-dpor` explores *more* schedules than sound sleep-set `dpor`.
//!
//! **Caveat (by design):** neither engine carries a completeness proof —
//! that is the open problem the paper states. The integration test suite
//! measures empirically how often they lose terminal states against
//! exhaustive enumeration, and the `Ablation` line of
//! `tests/golden/paper_figures.tsv` pins what `lazy-dpor` spends
//! against `dpor`.

use crate::config::{ExploreConfig, RunSetting};
use crate::explore::dpor::{explore_dpor, DependenceMode};
use crate::explore::Explorer;
use crate::stats::ExploreStats;
use lazylocks_model::Program;

/// The sleep-free lazy DPOR explorer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyDpor;

impl Explorer for LazyDpor {
    fn name(&self) -> String {
        "lazy-dpor".to_string()
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        // Sleep sets are deliberately disabled: their classic correctness
        // argument leans on the backtrack sets covering every reversible
        // race, which the lazily-thinned dependence no longer guarantees.
        // Making sleep sets and lazy backtracking compose is part of the
        // open problem the paper's §4 states.
        explore_dpor(program, config, false, DependenceMode::LazyLockAcquisitions)
    }

    fn honours(&self, setting: RunSetting) -> bool {
        setting == RunSetting::Checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::dfs::DfsEnumeration;
    use crate::explore::Dpor;
    use lazylocks_model::{ProgramBuilder, Reg};

    fn config(limit: usize) -> ExploreConfig {
        ExploreConfig::with_limit(limit)
    }

    /// One coarse lock over disjoint data: the pattern lazy DPOR targets.
    fn coarse_disjoint(n: usize) -> Program {
        let mut b = ProgramBuilder::new("coarse-disjoint");
        let m = b.mutex("m");
        let vars: Vec<_> = (0..n).map(|i| b.var(format!("v{i}"), 0)).collect();
        for (i, &v) in vars.iter().enumerate() {
            b.thread(format!("T{i}"), move |t| {
                t.with_lock(m, |t| {
                    t.load(Reg(0), v);
                    t.add(Reg(0), Reg(0), 1);
                    t.store(v, Reg(0));
                });
            });
        }
        b.build()
    }

    #[test]
    fn lazy_dpor_beats_regular_dpor_on_disjoint_critical_sections() {
        let p = coarse_disjoint(3);
        let regular = Dpor::default().explore(&p, &config(100_000));
        let lazy = LazyDpor.explore(&p, &config(100_000));
        assert!(!regular.limit_hit && !lazy.limit_hit);
        // Same single terminal state...
        assert_eq!(regular.unique_states, 1);
        assert_eq!(lazy.unique_states, 1);
        // ...with strictly fewer schedules for the lazy prototype.
        assert!(
            lazy.schedules < regular.schedules,
            "lazy {} vs regular {}",
            lazy.schedules,
            regular.schedules
        );
    }

    #[test]
    fn lock_acquisition_style_still_finds_deadlocks() {
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
        let stats = LazyDpor.explore(&p, &config(10_000));
        assert!(
            stats.deadlocks > 0,
            "lock-acquisition conflicts must reverse the lock order"
        );
    }

    #[test]
    fn lock_acquisition_style_preserves_states_on_conflicting_sections() {
        // Critical sections that actually conflict on data: the var
        // conflicts plus lock-lock reversals must still reach both final
        // states.
        let mut b = ProgramBuilder::new("conflict");
        let m = b.mutex("m");
        let x = b.var("x", 0);
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
        let dfs = DfsEnumeration.explore(&p, &config(100_000));
        let lazy = LazyDpor.explore(&p, &config(100_000));
        assert_eq!(lazy.unique_states, dfs.unique_states);
    }

    #[test]
    fn schedule_counts_ordered_lazy_leq_regular() {
        for n in 2..=4 {
            let p = coarse_disjoint(n);
            let regular = Dpor::default().explore(&p, &config(100_000));
            let lazy = LazyDpor.explore(&p, &config(100_000));
            assert!(lazy.schedules <= regular.schedules);
        }
    }
}
