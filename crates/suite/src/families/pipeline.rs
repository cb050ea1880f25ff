//! Staged hand-off pipelines.
//!
//! Stage `k` spins (bounded) on `flag[k-1]`, then computes
//! `data[k] = data[k-1] + 1` and raises `flag[k]`. Stage 0 produces
//! immediately. When every stage wins its spin the pipeline delivers
//! `stages` at the sink; starved stages abort and deliver nothing.

use super::Register;
use crate::registry::Expectations;
use lazylocks_model::{Program, ProgramBuilder};

/// A `stages`-deep hand-off chain with `spins` bounded wait probes.
pub fn pipeline(stages: usize, spins: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("pipeline-{stages}-s{spins}"));
    let data = b.var_array("data", stages + 1, 0);
    let flag = b.var_array("flag", stages + 1, 0);
    for k in 0..=stages {
        let (d_in, d_out) = (data[k.saturating_sub(1)], data[k]);
        let (f_in, f_out) = (flag[k.saturating_sub(1)], flag[k]);
        b.thread(format!("stage{k}"), move |t| {
            let rf = t.alloc_reg();
            let rv = t.alloc_reg();
            if k == 0 {
                t.store(d_out, 1);
                t.store(f_out, 1);
            } else {
                let go = t.label();
                let give_up = t.label();
                for _ in 0..spins {
                    t.load(rf, f_in);
                    t.branch_if(rf, go);
                }
                t.jump(give_up);
                t.bind(go);
                t.load(rv, d_in);
                t.add(rv, rv, 1);
                t.store(d_out, rv);
                t.store(f_out, 1);
                t.bind(give_up);
            }
            t.set(rf, 0);
            t.set(rv, 0);
        });
    }
    b.build()
}

/// Registers the family (4 benchmarks).
pub fn register(add: Register) {
    for (stages, spins) in [(1, 2), (2, 2), (2, 3), (3, 2)] {
        add(
            format!("pipeline-{stages}-s{spins}"),
            "pipeline",
            format!("{stages}-stage hand-off chain with {spins} bounded wait probes"),
            pipeline(stages, spins),
            Expectations::default(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks::{DfsEnumeration, ExploreConfig, Explorer};

    #[test]
    fn pipeline_is_mutex_free_and_on_the_diagonal() {
        let stats = DfsEnumeration.explore(&pipeline(1, 2), &ExploreConfig::with_limit(200_000));
        assert!(!stats.limit_hit);
        assert_eq!(stats.unique_hbrs, stats.unique_lazy_hbrs);
        stats.check_inequality().unwrap();
    }

    #[test]
    fn full_delivery_is_reachable() {
        use lazylocks::Dpor;
        // At least one schedule carries the item all the way: distinct
        // terminal states include the fully-delivered one.
        let stats = Dpor::default().explore(&pipeline(2, 2), &ExploreConfig::with_limit(100_000));
        assert!(stats.unique_states >= 2);
        assert_eq!(stats.deadlocks, 0);
    }
}
