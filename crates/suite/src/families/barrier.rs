//! Spin barrier over a mutex-protected counter.
//!
//! Each thread increments the arrival counter under the lock, then spins
//! (bounded) reading the counter until everyone has arrived, and finally
//! performs its post-barrier write to a private slot. The counter itself
//! is shared mutable data, so the arrival orders stay distinguishable, but
//! the post-barrier phase is disjoint — a mixed-profile benchmark.

use super::Register;
use crate::registry::Expectations;
use lazylocks_model::{Program, ProgramBuilder, Value};

/// `n` threads, one barrier; each thread spins at most `spins` times.
pub fn spin_barrier(n: usize, spins: usize) -> Program {
    let mut b = ProgramBuilder::new(format!("barrier-{n}-s{spins}"));
    let m = b.mutex("barrier");
    let arrived = b.var("arrived", 0);
    let after = b.var_array("after", n, 0);
    #[allow(clippy::needless_range_loop)] // i is the thread id, not just an index
    for i in 0..n {
        let out = after[i];
        b.thread(format!("T{i}"), move |t| {
            let rc = t.alloc_reg();
            // Arrive.
            t.with_lock(m, |t| {
                t.load(rc, arrived);
                t.add(rc, rc, 1);
                t.store(arrived, rc);
            });
            // Wait for the others (bounded; give up silently if starved —
            // the post-write still happens, recording how far we saw).
            let go = t.label();
            let give_up = t.label();
            for _ in 0..spins {
                t.load(rc, arrived);
                t.ge(rc, rc, n as Value);
                t.branch_if(rc, go);
            }
            t.jump(give_up);
            t.bind(go);
            t.store(out, (i + 1) as Value);
            t.bind(give_up);
            t.set(rc, 0);
        });
    }
    b.build()
}

/// Registers the family (4 benchmarks).
pub fn register(add: Register) {
    for (n, spins) in [(2, 1), (2, 2), (3, 1), (3, 2)] {
        add(
            format!("barrier-{n}-s{spins}"),
            "barrier",
            format!("{n}-thread spin barrier with {spins} bounded wait probes"),
            spin_barrier(n, spins),
            Expectations::default(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks::{Dpor, ExploreConfig, Explorer};

    #[test]
    fn barrier_never_deadlocks() {
        let stats =
            Dpor::default().explore(&spin_barrier(2, 2), &ExploreConfig::with_limit(50_000));
        assert_eq!(stats.deadlocks, 0);
        assert!(stats.schedules > 0);
        stats.check_inequality().unwrap();
    }

    #[test]
    fn some_thread_can_pass_the_barrier() {
        use lazylocks::DfsEnumeration;
        // In the all-arrive-then-spin schedule everyone passes; in eager
        // schedules early threads give up. Multiple states exist.
        let stats =
            DfsEnumeration.explore(&spin_barrier(2, 1), &ExploreConfig::with_limit(200_000));
        assert!(!stats.limit_hit);
        assert!(stats.unique_states >= 2);
    }
}
