//! Bounded producer/consumer ring buffer guarded by one mutex.
//!
//! Producers and consumers retry a bounded number of times when the buffer
//! is full/empty (bounded retries keep every execution finite, which the
//! exhaustive engines require). The buffer state (`count`, slots) is shared
//! mutable data, so most lock orders are also data orders — these
//! benchmarks sit near the diagonal, with modest lazy wins from the retry
//! interleavings.

use super::Register;
use crate::registry::Expectations;
use lazylocks_model::{Program, ProgramBuilder, Value};

/// A ring of `capacity` slots; `producers` threads each try to put one
/// item, `consumers` threads each try to take one. Every full/empty retry
/// re-enters the critical section at most `retries` times.
pub fn bounded_buffer(
    capacity: usize,
    producers: usize,
    consumers: usize,
    retries: usize,
) -> Program {
    let mut b = ProgramBuilder::new(format!("buffer-c{capacity}-p{producers}x{consumers}"));
    let m = b.mutex("buf");
    let count = b.var("count", 0);
    let head = b.var("head", 0);
    let tail = b.var("tail", 0);
    let slots = b.var_array("slot", capacity, 0);
    let consumed = b.var_array("consumed", consumers, -1);

    for i in 0..producers {
        let slots = slots.clone();
        b.thread(format!("P{i}"), move |t| {
            let rc = t.alloc_reg();
            let rp = t.alloc_reg();
            let done = t.label();
            for _ in 0..retries {
                let next_try = t.label();
                t.lock(m);
                t.load(rc, count);
                t.ge(rp, rc, capacity as Value);
                t.branch_if(rp, next_try); // full: unlock and retry
                                           // slot[tail % capacity] = item; tail++; count++.
                t.load(rp, tail);
                // Compute tail % capacity into rp (capacity is a power of
                // two in the registry; modulo keeps it general).
                t.bin(rp, lazylocks_model::BinOp::Rem, rp, capacity as Value);
                // Store to the selected slot: guest IR has no indexed
                // addressing, so emit a branch ladder over the slots.
                let after = t.label();
                for (s, &slot) in slots.iter().enumerate() {
                    let skip = t.label();
                    let rs = t.alloc_reg();
                    t.eq(rs, rp, s as Value);
                    t.branch_if_zero(rs, skip);
                    t.store(slot, (i + 1) as Value);
                    t.jump(after);
                    t.bind(skip);
                    t.set(rs, 0);
                }
                t.bind(after);
                t.load(rp, tail);
                t.add(rp, rp, 1);
                t.store(tail, rp);
                t.load(rc, count);
                t.add(rc, rc, 1);
                t.store(count, rc);
                t.unlock(m);
                t.jump(done);
                t.bind(next_try);
                t.unlock(m);
            }
            t.bind(done);
            t.set(rc, 0);
            t.set(rp, 0);
        });
    }

    #[allow(clippy::needless_range_loop)] // i is the thread id, not just an index
    for i in 0..consumers {
        let slots = slots.clone();
        let out = consumed[i];
        b.thread(format!("C{i}"), move |t| {
            let rc = t.alloc_reg();
            let rp = t.alloc_reg();
            let rv = t.alloc_reg();
            let done = t.label();
            for _ in 0..retries {
                let next_try = t.label();
                t.lock(m);
                t.load(rc, count);
                t.branch_if_zero(rc, next_try); // empty: unlock and retry
                t.load(rp, head);
                t.bin(rp, lazylocks_model::BinOp::Rem, rp, capacity as Value);
                let after = t.label();
                for (s, &slot) in slots.iter().enumerate() {
                    let skip = t.label();
                    let rs = t.alloc_reg();
                    t.eq(rs, rp, s as Value);
                    t.branch_if_zero(rs, skip);
                    t.load(rv, slot);
                    t.jump(after);
                    t.bind(skip);
                    t.set(rs, 0);
                }
                t.bind(after);
                t.load(rp, head);
                t.add(rp, rp, 1);
                t.store(head, rp);
                t.load(rc, count);
                t.sub(rc, rc, 1);
                t.store(count, rc);
                t.unlock(m);
                t.store(out, rv);
                t.jump(done);
                t.bind(next_try);
                t.unlock(m);
            }
            t.bind(done);
            t.set(rc, 0);
            t.set(rp, 0);
            t.set(rv, 0);
        });
    }
    b.build()
}

/// Registers the family (6 benchmarks).
pub fn register(add: Register) {
    for (capacity, producers, consumers, retries) in [
        (1, 1, 1, 2),
        (1, 2, 1, 2),
        (1, 1, 2, 2),
        (2, 1, 1, 2),
        (2, 2, 1, 2),
        (2, 1, 2, 2),
    ] {
        add(
            format!("buffer-c{capacity}-p{producers}x{consumers}"),
            "buffer",
            format!(
                "bounded ring (capacity {capacity}) with {producers} producer(s) and \
                 {consumers} consumer(s), {retries} bounded retries"
            ),
            bounded_buffer(capacity, producers, consumers, retries),
            Expectations::default(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks::{Dpor, ExploreConfig, Explorer};

    #[test]
    fn single_producer_consumer_terminates_cleanly() {
        let p = bounded_buffer(1, 1, 1, 2);
        let stats = Dpor::default().explore(&p, &ExploreConfig::with_limit(50_000));
        assert!(stats.schedules > 0);
        assert_eq!(stats.deadlocks, 0, "retries never block inside the lock");
        stats.check_inequality().unwrap();
    }

    #[test]
    fn lazy_classes_never_exceed_regular() {
        for (c, pr, co) in [(1, 1, 1), (2, 1, 1), (1, 2, 1)] {
            let p = bounded_buffer(c, pr, co, 2);
            let stats = Dpor::default().explore(&p, &ExploreConfig::with_limit(20_000));
            assert!(stats.unique_lazy_hbrs <= stats.unique_hbrs);
        }
    }
}
