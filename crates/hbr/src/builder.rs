//! Incremental construction of happens-before relations with vector clocks.

use crate::clock::VectorClock;
use crate::engine::{event_record_hash, ClockEngine, PrefixAccumulator};
use crate::mode::HbMode;
use crate::relation::HbRelation;
use lazylocks_runtime::Event;

/// One event of the trace together with its happens-before vector clock.
///
/// The clock of an event summarises the event's entire causal past
/// *including the event itself*: component `t` is the number of events of
/// thread `t` that happen-before-or-equal this event. Clocks are a property
/// of the partial order only — two linearizations of the same relation
/// assign identical clocks to identical events — which makes them the
/// canonical representation underlying all fingerprints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// The event.
    pub event: Event,
    /// Vector clock of the event (causal past, inclusive).
    pub clock: VectorClock,
    /// 128-bit digest of `(thread, ordinal, pc, kind, clock)` — the
    /// per-event ingredient of trace fingerprints.
    pub hash: u128,
}

impl EventRecord {
    fn new(event: Event, clock: VectorClock) -> Self {
        let hash = event_record_hash(&event, &clock);
        EventRecord { event, clock, hash }
    }
}

/// Incremental happens-before computation over a growing trace.
///
/// Feed events in schedule order with [`push`](HbBuilder::push); at any
/// point, [`prefix_fingerprint`](HbBuilder::prefix_fingerprint) digests the
/// relation over the events so far, and [`finish`](HbBuilder::finish) turns
/// the builder into an immutable [`HbRelation`].
///
/// The prefix fingerprint is **linearization-invariant**: it combines the
/// per-event record hashes with commutative accumulators (XOR and a
/// wrapping sum), so two different schedule prefixes that are
/// linearizations of the same partial order — which assign the same clocks
/// to the same events — digest identically, regardless of interleaving
/// order. This is exactly the property HBR caching needs: the cache key for
/// "have we been in an equivalent prefix before?" must not depend on which
/// linearization got there first.
///
/// The builder is `Clone`, so exploration engines snapshot it alongside the
/// executor at each scheduling point.
#[derive(Debug, Clone)]
pub struct HbBuilder {
    engine: ClockEngine,
    records: Vec<EventRecord>,
    acc: PrefixAccumulator,
}

impl HbBuilder {
    /// Creates a builder for a program shape: `n_threads` threads,
    /// `n_vars` shared variables, `n_mutexes` mutexes.
    pub fn new(mode: HbMode, n_threads: usize, n_vars: usize, n_mutexes: usize) -> Self {
        HbBuilder {
            engine: ClockEngine::new(mode, n_threads, n_vars, n_mutexes),
            records: Vec::new(),
            acc: PrefixAccumulator::new(),
        }
    }

    /// Creates a builder sized for `program`.
    pub fn for_program(mode: HbMode, program: &lazylocks_model::Program) -> Self {
        HbBuilder::new(
            mode,
            program.thread_count(),
            program.vars().len(),
            program.mutexes().len(),
        )
    }

    /// The mode this builder computes.
    pub fn mode(&self) -> HbMode {
        self.engine.mode()
    }

    /// Number of events pushed so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no events have been pushed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records the next event of the schedule and returns its record.
    pub fn push(&mut self, event: Event) -> &EventRecord {
        let clock = self.engine.apply(&event).clone();
        let record = EventRecord::new(event, clock);
        self.acc.absorb(record.hash);
        self.records.push(record);
        self.records.last().unwrap()
    }

    /// Linearization-invariant digest of the relation over the events
    /// pushed so far. Constant time.
    pub fn prefix_fingerprint(&self) -> u128 {
        self.acc.fingerprint()
    }

    /// The records pushed so far, in schedule order.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Clock of the latest event of `thread` (zero clock if none).
    pub fn thread_clock(&self, thread: lazylocks_model::ThreadId) -> &[u32] {
        self.engine.thread_clock(thread)
    }

    /// Freezes the builder into an immutable relation.
    pub fn finish(self) -> HbRelation {
        HbRelation::from_parts(self.engine.mode(), self.engine.thread_width(), self.records)
    }

    /// Computes the relation of a complete trace in one call.
    pub fn from_trace(
        mode: HbMode,
        program: &lazylocks_model::Program,
        trace: &[Event],
    ) -> HbRelation {
        let mut b = HbBuilder::for_program(mode, program);
        for &e in trace {
            b.push(e);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::{MutexId, ThreadId, VarId, VisibleKind};
    use lazylocks_runtime::EventId;

    fn ev(thread: u16, ordinal: u32, kind: VisibleKind) -> Event {
        Event {
            id: EventId {
                thread: ThreadId(thread),
                ordinal,
            },
            kind,
            pc: ordinal, // arbitrary but deterministic
        }
    }

    /// The trace of the paper's Figure 1:
    /// T1: lock(m) read(x) unlock(m) write(y)
    /// T2: write(z) lock(m) read(x) unlock(m)
    /// scheduled as all of T1 then all of T2.
    fn figure1_trace() -> Vec<Event> {
        let m = MutexId(0);
        let (x, y, z) = (VarId(0), VarId(1), VarId(2));
        vec![
            ev(0, 0, VisibleKind::Lock(m)),
            ev(0, 1, VisibleKind::Read(x)),
            ev(0, 2, VisibleKind::Unlock(m)),
            ev(0, 3, VisibleKind::Write(y)),
            ev(1, 0, VisibleKind::Write(z)),
            ev(1, 1, VisibleKind::Lock(m)),
            ev(1, 2, VisibleKind::Read(x)),
            ev(1, 3, VisibleKind::Unlock(m)),
        ]
    }

    fn build(mode: HbMode, trace: &[Event]) -> HbBuilder {
        let mut b = HbBuilder::new(mode, 2, 3, 1);
        for &e in trace {
            b.push(e);
        }
        b
    }

    #[test]
    fn program_order_is_always_present() {
        for mode in HbMode::ALL {
            let b = build(mode, &figure1_trace());
            let recs = b.records();
            // T1's events have strictly increasing clocks.
            for i in 1..4 {
                assert!(
                    recs[i - 1].clock.lt(&recs[i].clock),
                    "{mode:?}: program order lost at {i}"
                );
            }
        }
    }

    #[test]
    fn figure1_regular_hbr_has_mutex_edge() {
        let b = build(HbMode::Regular, &figure1_trace());
        let recs = b.records();
        // T2's lock (index 5) is after T1's unlock (index 2): the clock of
        // the lock must dominate the unlock's clock.
        assert!(recs[2].clock.lt(&recs[5].clock));
        // Hence T2's read of x is also causally after T1's read? No:
        // read-read is not an edge, but the lock edge orders them here.
        assert!(recs[1].clock.lt(&recs[6].clock));
    }

    #[test]
    fn figure1_lazy_hbr_has_no_inter_thread_edges() {
        // In Figure 1 the only inter-thread edge is mutex-induced; the lazy
        // HBR drops it, so every T1 event is concurrent with every T2 event.
        let b = build(HbMode::Lazy, &figure1_trace());
        let recs = b.records();
        for r1 in &recs[0..4] {
            for r2 in &recs[4..8] {
                assert!(
                    r1.clock.concurrent(&r2.clock),
                    "lazy HBR must not order {} and {}",
                    r1.event,
                    r2.event
                );
            }
        }
    }

    #[test]
    fn figure1_lazy_fingerprint_is_schedule_independent() {
        // Schedule A: all of T1, then all of T2 (the feasible order above).
        let fp_a = build(HbMode::Lazy, &figure1_trace()).prefix_fingerprint();
        // Schedule B: T2's write(z) first, then T1, then the rest of T2 —
        // another feasible schedule of the same program.
        let tr = figure1_trace();
        let reordered = vec![tr[4], tr[0], tr[1], tr[2], tr[3], tr[5], tr[6], tr[7]];
        let fp_b = build(HbMode::Lazy, &reordered).prefix_fingerprint();
        assert_eq!(fp_a, fp_b, "same lazy HBR must fingerprint identically");

        // Under the regular HBR these two schedules also have the same
        // relation (the mutex edge direction is unchanged) — but a schedule
        // where T2 takes the lock first differs.
        let fp_ra = build(HbMode::Regular, &tr).prefix_fingerprint();
        let fp_rb = build(HbMode::Regular, &reordered).prefix_fingerprint();
        assert_eq!(fp_ra, fp_rb);
        let swapped = vec![tr[4], tr[5], tr[6], tr[7], tr[0], tr[1], tr[2], tr[3]];
        // Re-number ordinals? Not needed: each thread's own sequence is
        // unchanged, only the interleaving differs.
        let fp_rc = build(HbMode::Regular, &swapped).prefix_fingerprint();
        assert_ne!(fp_ra, fp_rc, "lock-order reversal changes the regular HBR");
        let fp_lc = build(HbMode::Lazy, &swapped).prefix_fingerprint();
        assert_eq!(
            fp_a, fp_lc,
            "lock-order reversal is invisible to the lazy HBR"
        );
    }

    #[test]
    fn write_read_edge_exists_in_regular_and_lazy() {
        let x = VarId(0);
        let trace = vec![
            ev(0, 0, VisibleKind::Write(x)),
            ev(1, 0, VisibleKind::Read(x)),
        ];
        for mode in [HbMode::Regular, HbMode::Lazy] {
            let b = build(mode, &trace);
            assert!(
                b.records()[0].clock.lt(&b.records()[1].clock),
                "{mode:?}: write→read edge missing"
            );
        }
        // Sync-only sees no variable edges.
        let b = build(HbMode::SyncOnly, &trace);
        assert!(b.records()[0].clock.concurrent(&b.records()[1].clock));
    }

    #[test]
    fn read_read_is_unordered() {
        let x = VarId(0);
        let trace = vec![
            ev(0, 0, VisibleKind::Read(x)),
            ev(1, 0, VisibleKind::Read(x)),
        ];
        for mode in HbMode::ALL {
            let b = build(mode, &trace);
            assert!(
                b.records()[0].clock.concurrent(&b.records()[1].clock),
                "{mode:?}: read-read must stay unordered"
            );
        }
    }

    #[test]
    fn read_to_write_edge_exists() {
        let x = VarId(0);
        let trace = vec![
            ev(0, 0, VisibleKind::Read(x)),
            ev(1, 0, VisibleKind::Write(x)),
        ];
        let b = build(HbMode::Regular, &trace);
        assert!(b.records()[0].clock.lt(&b.records()[1].clock));
    }

    #[test]
    fn reads_before_older_write_are_covered_transitively() {
        let x = VarId(0);
        // r0(T0) w1(T1) w2(T2): r0→w1→w2; clock of w2 must dominate r0.
        let trace = vec![
            ev(0, 0, VisibleKind::Read(x)),
            ev(1, 0, VisibleKind::Write(x)),
            ev(2, 0, VisibleKind::Write(x)),
        ];
        let mut b = HbBuilder::new(HbMode::Regular, 3, 1, 0);
        for &e in &trace {
            b.push(e);
        }
        let recs = b.records();
        assert!(recs[0].clock.lt(&recs[2].clock));
        assert!(recs[1].clock.lt(&recs[2].clock));
    }

    #[test]
    fn prefix_fingerprint_changes_with_each_event() {
        let mut b = HbBuilder::new(HbMode::Regular, 2, 1, 1);
        let fp0 = b.prefix_fingerprint();
        b.push(ev(0, 0, VisibleKind::Write(VarId(0))));
        let fp1 = b.prefix_fingerprint();
        b.push(ev(1, 0, VisibleKind::Read(VarId(0))));
        let fp2 = b.prefix_fingerprint();
        assert_ne!(fp0, fp1);
        assert_ne!(fp1, fp2);
        assert_ne!(fp0, fp2);
    }

    #[test]
    fn fingerprint_distinguishes_edge_direction() {
        let x = VarId(0);
        // write then read vs read then write: different partial orders.
        let wr = build(
            HbMode::Regular,
            &[
                ev(0, 0, VisibleKind::Write(x)),
                ev(1, 0, VisibleKind::Read(x)),
            ],
        );
        let rw = build(
            HbMode::Regular,
            &[
                ev(1, 0, VisibleKind::Read(x)),
                ev(0, 0, VisibleKind::Write(x)),
            ],
        );
        assert_ne!(wr.prefix_fingerprint(), rw.prefix_fingerprint());
    }

    // The check is a `debug_assert_eq!`, compiled out of release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ordinal order")]
    fn out_of_order_ordinals_rejected_in_debug() {
        let mut b = HbBuilder::new(HbMode::Regular, 1, 1, 0);
        b.push(ev(0, 1, VisibleKind::Read(VarId(0))));
    }

    #[test]
    fn builder_clone_is_independent() {
        let mut b = HbBuilder::new(HbMode::Lazy, 2, 1, 0);
        b.push(ev(0, 0, VisibleKind::Write(VarId(0))));
        let saved = b.clone();
        b.push(ev(1, 0, VisibleKind::Read(VarId(0))));
        assert_eq!(saved.len(), 1);
        assert_eq!(b.len(), 2);
        assert_ne!(saved.prefix_fingerprint(), b.prefix_fingerprint());
    }
}
