//! The lean clock engine: happens-before vector-clock state without record
//! storage.
//!
//! Every exploration engine copies the happens-before state of the parent
//! node into the child's slot on every edge, so the copy is the engine's
//! hottest operation. [`ClockEngine`] holds only the *live* clock state (one
//! clock per thread, per variable read/write site, per mutex) as rows of one
//! flat `u32` slab: the copy is one `memcpy` of O(program size) whatever the
//! depth, and a reset is one fill. [`HbBuilder`](crate::HbBuilder) itself is
//! a thin wrapper over this engine that additionally retains records.

use crate::clock::VectorClock;
use crate::mode::HbMode;
use lazylocks_model::VisibleKind;
use lazylocks_runtime::{Event, Fnv128};

/// Mode-aware happens-before clock state, updated event by event.
///
/// Every clock is a row of `n_threads` counters in **one flat slab**, rows
/// laid out as `[thread clocks | variable write clocks | variable read
/// clocks | mutex clocks]`. [`ClockEngine::assign_from`] is a single slice
/// copy and [`ClockEngine::reset`] a single fill, at any width; `apply`
/// joins and copies rows in place.
#[derive(Debug, Clone)]
pub struct ClockEngine {
    mode: HbMode,
    n_threads: usize,
    n_vars: usize,
    /// `n_threads + 2 * n_vars + n_mutexes` rows of `n_threads` counters;
    /// see the layout above.
    slab: Vec<u32>,
    /// The clock the latest [`ClockEngine::apply`] returned: a copy of
    /// the acting thread's row, allocated once in `new` and not part of
    /// the engine's state.
    last: VectorClock,
}

/// `dst ⊔= src`, component-wise.
#[inline]
pub(crate) fn join(dst: &mut [u32], src: &[u32]) {
    for (a, &b) in dst.iter_mut().zip(src) {
        *a = (*a).max(b);
    }
}

impl ClockEngine {
    /// Creates an engine for a program shape.
    pub fn new(mode: HbMode, n_threads: usize, n_vars: usize, n_mutexes: usize) -> Self {
        ClockEngine {
            mode,
            n_threads,
            n_vars,
            slab: vec![0; n_threads * (n_threads + 2 * n_vars + n_mutexes)],
            last: VectorClock::new(n_threads),
        }
    }

    /// Creates an engine sized for `program`.
    pub fn for_program(mode: HbMode, program: &lazylocks_model::Program) -> Self {
        ClockEngine::new(
            mode,
            program.thread_count(),
            program.vars().len(),
            program.mutexes().len(),
        )
    }

    /// The happens-before mode.
    pub fn mode(&self) -> HbMode {
        self.mode
    }

    /// Number of threads the clocks range over.
    pub fn thread_width(&self) -> usize {
        self.n_threads
    }

    /// Applies the next event of the schedule and returns its clock (the
    /// event's causal past, inclusive) — a borrow valid until the next
    /// `apply`; clone it only if it must outlive that.
    ///
    /// Allocation-free: the thread's row is ticked and joined in place,
    /// the per-site rows are updated with in-place copies, and the
    /// returned clock is a reused copy of the thread's row.
    pub fn apply(&mut self, event: &Event) -> &VectorClock {
        let w = self.n_threads;
        let t = event.thread().index();
        debug_assert!(t < w, "event from undeclared thread");
        // Thread rows occupy the slab's prefix, per-site rows the rest;
        // splitting there hands out the two disjoint mutable views the
        // join/copy pairs below need.
        let (threads, sites) = self.slab.split_at_mut(w * w);
        let clock = &mut threads[t * w..(t + 1) * w];
        debug_assert_eq!(
            event.id.ordinal, clock[t],
            "events of a thread must be applied in ordinal order"
        );
        let row = |i: usize| i * w..(i + 1) * w;
        let (writes, reads, mutexes) = (0, self.n_vars, 2 * self.n_vars);

        clock[t] += 1;
        match event.kind {
            VisibleKind::Read(x) if self.mode != HbMode::SyncOnly => {
                join(clock, &sites[row(writes + x.index())]);
                join(&mut sites[row(reads + x.index())], clock);
            }
            VisibleKind::Write(x) if self.mode != HbMode::SyncOnly => {
                join(clock, &sites[row(writes + x.index())]);
                join(clock, &sites[row(reads + x.index())]);
                // No read-row reset: the row is under this clock, so under every later read's.
                sites[row(writes + x.index())].copy_from_slice(clock);
            }
            VisibleKind::Lock(m) | VisibleKind::Unlock(m) if self.mode != HbMode::Lazy => {
                join(clock, &sites[row(mutexes + m.index())]);
                sites[row(mutexes + m.index())].copy_from_slice(clock);
            }
            _ => {}
        }
        self.last.assign_counts(clock);
        &self.last
    }

    /// Clock of `thread`'s latest event (zero clock if none) — the causal
    /// past of whatever `thread` does next, as used by DPOR's
    /// "already-ordered" check. One counter per thread.
    pub fn thread_clock(&self, thread: lazylocks_model::ThreadId) -> &[u32] {
        let w = self.n_threads;
        &self.slab[thread.index() * w..(thread.index() + 1) * w]
    }

    /// Makes `self` an exact copy of `other` **in place**: one slice copy
    /// into the reused slab, no allocation. Semantically identical to
    /// `*self = other.clone()`; the frame-slot path of the exploration
    /// engines.
    ///
    /// # Panics
    /// Panics when the two engines have different shapes; frame slots only
    /// ever hold engines of the same program.
    pub fn assign_from(&mut self, other: &ClockEngine) {
        debug_assert_eq!(self.n_threads, other.n_threads, "shape mismatch");
        self.mode = other.mode;
        self.n_vars = other.n_vars;
        self.slab.copy_from_slice(&other.slab);
    }

    /// Resets every clock to zero, keeping the shape — so one engine can
    /// fingerprint many traces without reallocating.
    pub fn reset(&mut self) {
        self.slab.fill(0);
    }

    /// Fingerprints the relation of a complete `trace` in one pass,
    /// resetting the engine first. Produces exactly the digest of
    /// [`HbBuilder::from_trace(mode, program, trace).fingerprint()`]
    /// (asserted by the test suite) without materialising any event
    /// records — the allocation-free leaf-processing path of the
    /// exploration engines.
    ///
    /// [`HbBuilder::from_trace(mode, program, trace).fingerprint()`]:
    ///     crate::HbBuilder::from_trace
    pub fn trace_fingerprint(&mut self, trace: &[Event]) -> u128 {
        self.reset();
        let mut acc = PrefixAccumulator::new();
        for e in trace {
            let clock = self.apply(e);
            acc.absorb(event_record_hash(e, clock));
        }
        acc.fingerprint()
    }
}

/// Digest of one event record `(thread, ordinal, pc, kind, clock)` — the
/// per-event ingredient of all trace fingerprints. `clock` is the event's
/// clock, hashed as each counter's little-endian bytes in thread order.
/// Deterministic across runs and platforms.
pub fn event_record_hash(event: &Event, clock: &[u32]) -> u128 {
    let mut h = Fnv128::new();
    h.write(&event.id.thread.0.to_le_bytes());
    h.write_u32(event.id.ordinal);
    h.write_u32(event.pc);
    let (tag, target): (u8, u16) = match event.kind {
        VisibleKind::Read(v) => (0, v.0),
        VisibleKind::Write(v) => (1, v.0),
        VisibleKind::Lock(m) => (2, m.0),
        VisibleKind::Unlock(m) => (3, m.0),
    };
    h.write(&[tag]);
    h.write(&target.to_le_bytes());
    for &c in clock {
        h.write_u32(c);
    }
    h.finish()
}

/// Order-insensitive accumulator over event record hashes: the running
/// prefix fingerprint used by HBR caching. Two schedule prefixes that are
/// linearizations of the same partial order produce identical digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixAccumulator {
    xor_acc: u128,
    sum_acc: u128,
    len: u64,
}

impl PrefixAccumulator {
    /// Empty accumulator (zero events).
    pub fn new() -> Self {
        PrefixAccumulator::default()
    }

    /// Absorbs one event record hash.
    #[inline]
    pub fn absorb(&mut self, record_hash: u128) {
        self.xor_acc ^= record_hash;
        self.sum_acc = self.sum_acc.wrapping_add(record_hash);
        self.len += 1;
    }

    /// Number of events absorbed.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if nothing was absorbed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current digest.
    pub fn fingerprint(&self) -> u128 {
        let mut h = Fnv128::new();
        h.write(&self.xor_acc.to_le_bytes());
        h.write(&self.sum_acc.to_le_bytes());
        h.write_u64(self.len);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::{ThreadId, VarId};
    use lazylocks_runtime::EventId;

    fn ev(thread: u16, ordinal: u32, kind: VisibleKind) -> Event {
        Event {
            id: EventId {
                thread: ThreadId(thread),
                ordinal,
            },
            kind,
            pc: ordinal,
        }
    }

    #[test]
    fn engine_matches_builder_clocks() {
        use crate::builder::HbBuilder;
        let trace = vec![
            ev(0, 0, VisibleKind::Write(VarId(0))),
            ev(1, 0, VisibleKind::Read(VarId(0))),
            ev(1, 1, VisibleKind::Write(VarId(1))),
            ev(0, 1, VisibleKind::Read(VarId(1))),
        ];
        for mode in HbMode::ALL {
            let mut engine = ClockEngine::new(mode, 2, 2, 0);
            let mut builder = HbBuilder::new(mode, 2, 2, 0);
            for &e in &trace {
                let clock = engine.apply(&e).clone();
                let record = builder.push(e).clone();
                assert_eq!(clock, record.clock, "{mode:?}");
                assert_eq!(event_record_hash(&e, &clock), record.hash, "{mode:?}");
            }
        }
    }

    #[test]
    fn record_hash_feeds_the_clock_little_endian_in_thread_order() {
        let mut h = Fnv128::new();
        h.write(&1u16.to_le_bytes());
        h.write_u32(0);
        h.write_u32(0);
        h.write(&[1]);
        h.write(&2u16.to_le_bytes());
        h.write(&[1, 0, 0, 0, 2, 1, 0, 0]);
        let event = ev(1, 0, VisibleKind::Write(VarId(2)));
        assert_eq!(event_record_hash(&event, &[1, 258]), h.finish());
    }

    #[test]
    fn prefix_accumulator_matches_builder_fingerprint() {
        use crate::builder::HbBuilder;
        let trace = vec![
            ev(0, 0, VisibleKind::Write(VarId(0))),
            ev(1, 0, VisibleKind::Read(VarId(0))),
        ];
        let mut engine = ClockEngine::new(HbMode::Regular, 2, 2, 0);
        let mut acc = PrefixAccumulator::new();
        let mut builder = HbBuilder::new(HbMode::Regular, 2, 2, 0);
        assert_eq!(acc.fingerprint(), builder.prefix_fingerprint());
        for &e in &trace {
            let clock = engine.apply(&e).clone();
            acc.absorb(event_record_hash(&e, &clock));
            builder.push(e);
            assert_eq!(acc.fingerprint(), builder.prefix_fingerprint());
        }
        assert_eq!(acc.len(), 2);
    }

    #[test]
    fn accumulator_is_order_insensitive() {
        let h1 = 0xdead_beef_u128;
        let h2 = 0x1234_5678_u128;
        let mut a = PrefixAccumulator::new();
        a.absorb(h1);
        a.absorb(h2);
        let mut b = PrefixAccumulator::new();
        b.absorb(h2);
        b.absorb(h1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), PrefixAccumulator::new().fingerprint());
    }

    #[test]
    fn trace_fingerprint_matches_builder_and_resets() {
        use crate::builder::HbBuilder;
        let trace = vec![
            ev(0, 0, VisibleKind::Write(VarId(0))),
            ev(1, 0, VisibleKind::Read(VarId(0))),
            ev(1, 1, VisibleKind::Write(VarId(1))),
            ev(0, 1, VisibleKind::Read(VarId(1))),
        ];
        for mode in HbMode::ALL {
            let mut engine = ClockEngine::new(mode, 2, 2, 0);
            let expected = {
                let mut b = HbBuilder::new(mode, 2, 2, 0);
                for &e in &trace {
                    b.push(e);
                }
                b.finish().fingerprint()
            };
            assert_eq!(engine.trace_fingerprint(&trace), expected, "{mode:?}");
            // A second run on the same engine must reset cleanly.
            assert_eq!(engine.trace_fingerprint(&trace), expected, "{mode:?}");
            // And a different trace digests differently.
            assert_ne!(engine.trace_fingerprint(&trace[..2]), expected);
        }
    }

    #[test]
    fn assign_from_matches_clone() {
        let mut src = ClockEngine::new(HbMode::Regular, 2, 2, 1);
        src.apply(&ev(0, 0, VisibleKind::Write(VarId(0))));
        src.apply(&ev(1, 0, VisibleKind::Read(VarId(0))));
        let mut dst = ClockEngine::new(HbMode::Regular, 2, 2, 1);
        dst.apply(&ev(1, 0, VisibleKind::Write(VarId(1))));
        dst.assign_from(&src);
        for t in 0..2 {
            assert_eq!(dst.thread_clock(ThreadId(t)), src.thread_clock(ThreadId(t)));
        }
        // The copy is independent: advancing it leaves the source alone.
        dst.apply(&ev(0, 1, VisibleKind::Write(VarId(1))));
        assert_eq!(src.thread_clock(ThreadId(0)), [1, 0]);
        assert_eq!(dst.thread_clock(ThreadId(0)), [2, 0]);
    }

    #[test]
    fn engine_clone_is_independent_snapshot() {
        let mut e1 = ClockEngine::new(HbMode::Regular, 2, 1, 0);
        e1.apply(&ev(0, 0, VisibleKind::Write(VarId(0))));
        let snapshot = e1.clone();
        e1.apply(&ev(1, 0, VisibleKind::Read(VarId(0))));
        assert_eq!(snapshot.thread_clock(ThreadId(1)), [0, 0]);
        assert_eq!(e1.thread_clock(ThreadId(1)), [1, 1]);
    }
}
