//! Immutable happens-before relations and their canonical forms.

use crate::builder::EventRecord;
use crate::clock::VectorClock;
use crate::engine::PrefixAccumulator;
use crate::foata::foata_layers;
use crate::linearize::Linearizations;
use crate::mode::HbMode;
use lazylocks_model::VisibleKind;
use lazylocks_runtime::{Event, EventId};

/// A finished happens-before relation over one execution trace.
///
/// The relation is stored as the trace's events (in the schedule order that
/// produced them) with their vector clocks. All identity queries are
/// linearization-invariant: two `HbRelation`s over different schedules
/// compare as "the same relation" exactly when they are linearizations of
/// the same labelled partial order.
#[derive(Debug, Clone)]
pub struct HbRelation {
    mode: HbMode,
    n_threads: usize,
    records: Vec<EventRecord>,
}

impl HbRelation {
    pub(crate) fn from_parts(mode: HbMode, n_threads: usize, records: Vec<EventRecord>) -> Self {
        HbRelation {
            mode,
            n_threads,
            records,
        }
    }

    /// The mode the relation was computed under.
    pub fn mode(&self) -> HbMode {
        self.mode
    }

    /// Number of threads of the underlying program.
    pub fn thread_width(&self) -> usize {
        self.n_threads
    }

    /// Number of events in the relation.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the relation is over the empty trace.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The event records in the schedule order that produced the relation.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Linearization-invariant 128-bit identity of the relation (same
    /// digest as [`HbBuilder::prefix_fingerprint`] after pushing the whole
    /// trace).
    ///
    /// [`HbBuilder::prefix_fingerprint`]: crate::HbBuilder::prefix_fingerprint
    pub fn fingerprint(&self) -> u128 {
        let mut acc = PrefixAccumulator::new();
        for r in &self.records {
            acc.absorb(r.hash);
        }
        acc.fingerprint()
    }

    /// The exact canonical form: per-thread event sequences with clocks,
    /// independent of interleaving order. Collision-free (unlike the
    /// fingerprint) and `Eq + Hash`; the test suite uses it to validate
    /// fingerprint equality.
    pub fn canonical(&self) -> CanonicalHb {
        let mut per_thread: Vec<Vec<(VisibleKind, u32, VectorClock)>> =
            vec![Vec::new(); self.n_threads];
        for r in &self.records {
            per_thread[r.event.thread().index()].push((r.event.kind, r.event.pc, r.clock.clone()));
        }
        CanonicalHb { per_thread }
    }

    /// `true` iff the event at trace index `i` happens-before (or equals)
    /// the event at trace index `j`.
    ///
    /// Uses the standard vector-clock criterion: `e ≤ f` in the partial
    /// order iff `clock(f)[thread(e)] ≥ clock(e)[thread(e)]`.
    pub fn happens_before_or_equal(&self, i: usize, j: usize) -> bool {
        let (ri, rj) = (&self.records[i], &self.records[j]);
        let t = ri.event.thread().index();
        rj.clock.get(t) >= ri.clock.get(t)
    }

    /// `true` iff event `i` strictly happens-before event `j`.
    pub fn happens_before(&self, i: usize, j: usize) -> bool {
        i != j && self.happens_before_or_equal(i, j)
    }

    /// `true` iff events `i` and `j` are unordered by the relation.
    pub fn concurrent(&self, i: usize, j: usize) -> bool {
        i != j && !self.happens_before_or_equal(i, j) && !self.happens_before_or_equal(j, i)
    }

    /// Counts the unordered pairs — a size measure of how much freedom the
    /// relation leaves a partial-order reduction.
    pub fn concurrent_pair_count(&self) -> usize {
        let n = self.records.len();
        let mut count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if self.concurrent(i, j) {
                    count += 1;
                }
            }
        }
        count
    }

    /// The Foata normal form: the canonical layered decomposition of the
    /// partial order. Layer `k` holds the events whose longest chain of
    /// predecessors has length `k`, sorted by event id. Two relations are
    /// equal iff their Foata forms are equal — an independent canonical
    /// representation used to cross-validate [`canonical`](Self::canonical)
    /// in the test suite.
    pub fn foata_normal_form(&self) -> Vec<Vec<Event>> {
        foata_layers(self)
    }

    /// Enumerates the linearizations of the relation (all total orders
    /// compatible with it), up to `limit`. See [`Linearizations`].
    pub fn linearizations(&self, limit: usize) -> Linearizations {
        Linearizations::new(self, limit)
    }

    /// Looks up a record by event identity.
    pub fn record_for(&self, id: EventId) -> Option<&EventRecord> {
        self.records.iter().find(|r| r.event.id == id)
    }
}

/// Exact canonical representation of a happens-before relation: for each
/// thread, its events (kind, pc) with their clocks, in program order.
///
/// Because per-thread order is fixed and every event's clock encodes its
/// full causal past, two traces have equal `CanonicalHb` iff they are
/// linearizations of the same labelled partial order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalHb {
    per_thread: Vec<Vec<(VisibleKind, u32, VectorClock)>>,
}

impl CanonicalHb {
    /// Per-thread sequences of `(kind, pc, clock)`.
    pub fn per_thread(&self) -> &[Vec<(VisibleKind, u32, VectorClock)>] {
        &self.per_thread
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.per_thread.iter().map(|v| v.len()).sum()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HbBuilder;
    use lazylocks_model::{MutexId, ThreadId, VarId};

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

    fn relation(mode: HbMode, trace: &[Event]) -> HbRelation {
        let mut b = HbBuilder::new(mode, 3, 3, 2);
        for &e in trace {
            b.push(e);
        }
        b.finish()
    }

    #[test]
    fn happens_before_includes_program_order_and_transitivity() {
        let x = VarId(0);
        let y = VarId(1);
        let trace = vec![
            ev(0, 0, VisibleKind::Write(x)), // 0
            ev(1, 0, VisibleKind::Read(x)),  // 1: after 0
            ev(1, 1, VisibleKind::Write(y)), // 2: after 1 (program order)
            ev(2, 0, VisibleKind::Read(y)),  // 3: after 2, hence after 0
        ];
        let r = relation(HbMode::Regular, &trace);
        assert!(r.happens_before(0, 1));
        assert!(r.happens_before(1, 2));
        assert!(r.happens_before(0, 3), "transitive edge 0→1→2→3");
        assert!(!r.happens_before(3, 0));
        assert!(!r.happens_before(0, 0), "strict relation is irreflexive");
        assert!(r.happens_before_or_equal(0, 0));
    }

    #[test]
    fn concurrent_pairs_counted() {
        let x = VarId(0);
        let z = VarId(2);
        let trace = vec![
            ev(0, 0, VisibleKind::Write(x)),
            ev(1, 0, VisibleKind::Write(z)),
        ];
        let r = relation(HbMode::Regular, &trace);
        assert!(r.concurrent(0, 1));
        assert_eq!(r.concurrent_pair_count(), 1);
    }

    #[test]
    fn fingerprint_equals_builder_prefix_fingerprint() {
        let x = VarId(0);
        let trace = vec![
            ev(0, 0, VisibleKind::Write(x)),
            ev(1, 0, VisibleKind::Read(x)),
        ];
        let mut b = HbBuilder::new(HbMode::Regular, 3, 3, 2);
        for &e in &trace {
            b.push(e);
        }
        let fp = b.prefix_fingerprint();
        assert_eq!(fp, b.finish().fingerprint());
    }

    #[test]
    fn canonical_is_interleaving_invariant() {
        let x = VarId(0);
        let z = VarId(2);
        // Two independent writes: either interleaving, same relation.
        let ab = relation(
            HbMode::Regular,
            &[
                ev(0, 0, VisibleKind::Write(x)),
                ev(1, 0, VisibleKind::Write(z)),
            ],
        );
        let ba = relation(
            HbMode::Regular,
            &[
                ev(1, 0, VisibleKind::Write(z)),
                ev(0, 0, VisibleKind::Write(x)),
            ],
        );
        assert_eq!(ab.canonical(), ba.canonical());
        assert_eq!(ab.fingerprint(), ba.fingerprint());
        // Dependent accesses: interleaving order matters.
        let wr = relation(
            HbMode::Regular,
            &[
                ev(0, 0, VisibleKind::Write(x)),
                ev(1, 0, VisibleKind::Read(x)),
            ],
        );
        let rw = relation(
            HbMode::Regular,
            &[
                ev(1, 0, VisibleKind::Read(x)),
                ev(0, 0, VisibleKind::Write(x)),
            ],
        );
        assert_ne!(wr.canonical(), rw.canonical());
        assert_ne!(wr.fingerprint(), rw.fingerprint());
    }

    #[test]
    fn lazy_mode_identifies_lock_reorderings() {
        let m = MutexId(0);
        let t1 = [
            ev(0, 0, VisibleKind::Lock(m)),
            ev(0, 1, VisibleKind::Unlock(m)),
        ];
        let t2 = [
            ev(1, 0, VisibleKind::Lock(m)),
            ev(1, 1, VisibleKind::Unlock(m)),
        ];
        let order_a = relation(HbMode::Lazy, &[t1[0], t1[1], t2[0], t2[1]]);
        let order_b = relation(HbMode::Lazy, &[t2[0], t2[1], t1[0], t1[1]]);
        assert_eq!(order_a.canonical(), order_b.canonical());
        assert_eq!(order_a.fingerprint(), order_b.fingerprint());

        let reg_a = relation(HbMode::Regular, &[t1[0], t1[1], t2[0], t2[1]]);
        let reg_b = relation(HbMode::Regular, &[t2[0], t2[1], t1[0], t1[1]]);
        assert_ne!(reg_a.canonical(), reg_b.canonical());
        assert_ne!(reg_a.fingerprint(), reg_b.fingerprint());
    }

    #[test]
    fn record_lookup_by_event_id() {
        let x = VarId(0);
        let trace = vec![
            ev(0, 0, VisibleKind::Write(x)),
            ev(1, 0, VisibleKind::Read(x)),
        ];
        let r = relation(HbMode::Regular, &trace);
        let id = EventId {
            thread: ThreadId(1),
            ordinal: 0,
        };
        assert_eq!(r.record_for(id).unwrap().event.kind, VisibleKind::Read(x));
        let missing = EventId {
            thread: ThreadId(2),
            ordinal: 0,
        };
        assert!(r.record_for(missing).is_none());
    }

    #[test]
    fn empty_relation_behaves() {
        let r = relation(HbMode::Regular, &[]);
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.concurrent_pair_count(), 0);
        assert!(r.canonical().is_empty());
        // Two empty relations agree.
        assert_eq!(r.fingerprint(), relation(HbMode::Lazy, &[]).fingerprint());
    }
}
