//! Happens-before data-race detection over execution traces.
//!
//! A *data race* is a pair of accesses to the same shared variable, at
//! least one a write, from different threads, unordered by the
//! synchronisation-only happens-before relation (program order plus mutex
//! edges — [`HbMode::SyncOnly`]). This is the classical dynamic race
//! detector (FastTrack-style, simplified to full vector clocks), applied to
//! the traces the exploration engines produce.

use lazylocks_hbr::{ClockEngine, HbMode};
use lazylocks_model::{Program, VarId, VisibleKind};
use lazylocks_runtime::Event;
use std::collections::HashSet;
use std::fmt;

/// A data race: two conflicting, concurrent accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The variable raced on.
    pub var: VarId,
    /// The earlier access in the analysed trace.
    pub first: Event,
    /// The later access (always a conflicting one).
    pub second: Event,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race on {}: {} is concurrent with {}",
            self.var, self.first, self.second
        )
    }
}

/// Per-variable access history for the detector. An access is ordered
/// before a later event by that event's clock alone, so no access keeps
/// a clock of its own.
#[derive(Clone, Default)]
struct VarHistory {
    /// The last write.
    last_write: Option<Event>,
    /// Reads since the last write.
    reads: Vec<Event>,
}

/// Scans a trace for data races. Returns every racing pair, deduplicated
/// by `(variable, first pc, second pc)` so a loop does not report the same
/// source-level race repeatedly.
pub fn detect_races(program: &Program, trace: &[Event]) -> Vec<RaceReport> {
    let mut engine = ClockEngine::for_program(HbMode::SyncOnly, program);
    let mut history: Vec<VarHistory> = vec![VarHistory::default(); program.vars().len()];
    let mut seen: HashSet<(
        VarId,
        lazylocks_model::ThreadId,
        u32,
        lazylocks_model::ThreadId,
        u32,
    )> = HashSet::new();
    let mut races = Vec::new();

    for &event in trace {
        let clock = engine.apply(&event);
        let mut report = |first: &Event, races: &mut Vec<RaceReport>| {
            let var = first.kind.var().expect("race on variable access");
            if seen.insert((var, first.thread(), first.pc, event.thread(), event.pc)) {
                races.push(RaceReport {
                    var,
                    first: *first,
                    second: event,
                });
            }
        };
        // `old` happens-before `event` iff event's clock already covers
        // old's own component.
        let ordered = |old: &Event| clock.get(old.thread().index()) > old.id.ordinal;

        match event.kind {
            VisibleKind::Read(x) => {
                let h = &mut history[x.index()];
                if let Some(w) = &h.last_write {
                    if w.thread() != event.thread() && !ordered(w) {
                        report(w, &mut races);
                    }
                }
                h.reads.push(event);
            }
            VisibleKind::Write(x) => {
                let h = &mut history[x.index()];
                if let Some(w) = &h.last_write {
                    if w.thread() != event.thread() && !ordered(w) {
                        report(w, &mut races);
                    }
                }
                for r in &h.reads {
                    if r.thread() != event.thread() && !ordered(r) {
                        report(r, &mut races);
                    }
                }
                h.last_write = Some(event);
                h.reads.clear();
            }
            VisibleKind::Lock(_) | VisibleKind::Unlock(_) => {}
        }
    }
    races
}

/// `true` if the trace is race-free.
pub fn is_race_free(program: &Program, trace: &[Event]) -> bool {
    detect_races(program, trace).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::{ProgramBuilder, Reg, ThreadId};
    use lazylocks_runtime::run_schedule;

    fn t(i: u16) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn unsynchronised_write_write_is_a_race() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T1", |tb| tb.store(x, 1));
        b.thread("T2", |tb| tb.store(x, 2));
        let p = b.build();
        let run = run_schedule(&p, &[t(0), t(1)]).unwrap();
        let races = detect_races(&p, &run.trace);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].var, x);
        assert!(races[0].to_string().contains("data race on v0"));
    }

    #[test]
    fn lock_protected_accesses_are_not_races() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let m = b.mutex("m");
        b.thread("T1", |tb| tb.with_lock(m, |tb| tb.store(x, 1)));
        b.thread("T2", |tb| tb.with_lock(m, |tb| tb.store(x, 2)));
        let p = b.build();
        let run = run_schedule(&p, &[t(0), t(0), t(0), t(1), t(1), t(1)]).unwrap();
        assert!(is_race_free(&p, &run.trace));
    }

    #[test]
    fn read_write_race_detected_but_read_read_is_not() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("R1", |tb| {
            tb.load(Reg(0), x);
        });
        b.thread("R2", |tb| {
            tb.load(Reg(0), x);
        });
        b.thread("W", |tb| tb.store(x, 1));
        let p = b.build();
        let run = run_schedule(&p, &[t(0), t(1), t(2)]).unwrap();
        let races = detect_races(&p, &run.trace);
        // Both reads race with the write; the reads do not race each other.
        assert_eq!(races.len(), 2);
        assert!(races.iter().all(|r| r.second.thread() == t(2)));
    }

    #[test]
    fn program_order_is_never_a_race() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T", |tb| {
            tb.store(x, 1);
            tb.load(Reg(0), x);
            tb.store(x, 2);
        });
        let p = b.build();
        let run = run_schedule(&p, &[t(0), t(0), t(0)]).unwrap();
        assert!(is_race_free(&p, &run.trace));
    }

    #[test]
    fn release_acquire_chain_orders_accesses() {
        // T1 writes x under the lock; T2 locks afterwards and reads x:
        // ordered through the mutex, no race.
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let m = b.mutex("m");
        b.thread("T1", |tb| {
            tb.lock(m);
            tb.store(x, 1);
            tb.unlock(m);
        });
        b.thread("T2", |tb| {
            tb.lock(m);
            tb.load(Reg(0), x);
            tb.unlock(m);
        });
        let p = b.build();
        let run = run_schedule(&p, &[t(0), t(0), t(0), t(1), t(1), t(1)]).unwrap();
        assert!(is_race_free(&p, &run.trace));
    }

    #[test]
    fn partial_locking_still_races() {
        // T1 writes under the lock but T2 reads without it: race.
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let m = b.mutex("m");
        b.thread("T1", |tb| tb.with_lock(m, |tb| tb.store(x, 1)));
        b.thread("T2", |tb| {
            tb.load(Reg(0), x);
        });
        let p = b.build();
        let run = run_schedule(&p, &[t(0), t(0), t(0), t(1)]).unwrap();
        let races = detect_races(&p, &run.trace);
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn duplicate_source_races_are_deduplicated() {
        // The same racy pair executed in a loop reports once per pc pair.
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T1", |tb| {
            tb.repeat(3, |tb, i| tb.store(x, i as i64));
        });
        b.thread("T2", |tb| tb.store(x, 99));
        let p = b.build();
        // Interleave so every loop iteration races with T2's write.
        let run = run_schedule(&p, &[t(0), t(1), t(0), t(0)]).unwrap();
        let races = detect_races(&p, &run.trace);
        // T2's write races with writes at 3 distinct pcs of T1, but each
        // (var, pc, pc) pair appears once.
        let mut keys: Vec<_> = races.iter().map(|r| (r.first.pc, r.second.pc)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), races.len());
    }
}
