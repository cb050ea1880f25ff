//! Property tests for the flat-slab `ClockEngine`: on random traces over
//! 1..=12 threads and under every `HbMode`, it must agree event by event
//! with a reference engine that keeps one `Vec<u32>` clock per thread,
//! variable site and mutex and updates them one clock at a time.
//!
//! Cases are drawn from a deterministic generator (fixed seed, fixed case
//! count) instead of an external property-testing crate, so failures
//! always reproduce bit-for-bit.

use lazylocks_hbr::{event_record_hash, ClockEngine, HbBuilder, HbMode, PrefixAccumulator};
use lazylocks_model::{MutexId, Program, ProgramBuilder, Reg, ThreadId, VarId, VisibleKind};
use lazylocks_runtime::{Event, EventId};

const CASES: usize = 24;
const MAX_WIDTH: usize = 12;

/// A tiny deterministic SplitMix64 (duplicated here rather than depending
/// on the core crate, which sits above this one).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference: one clock per thread, per variable's writes and reads,
/// and per mutex, updated one clock at a time.
#[derive(Clone)]
struct Model {
    mode: HbMode,
    threads: Vec<Vec<u32>>,
    writes: Vec<Vec<u32>>,
    reads: Vec<Vec<u32>>,
    mutexes: Vec<Vec<u32>>,
}

impl Model {
    fn new(mode: HbMode, n_threads: usize, n_vars: usize, n_mutexes: usize) -> Self {
        let clocks = |n| vec![vec![0; n_threads]; n];
        Model {
            mode,
            threads: clocks(n_threads),
            writes: clocks(n_vars),
            reads: clocks(n_vars),
            mutexes: clocks(n_mutexes),
        }
    }

    fn apply(&mut self, event: &Event) -> Vec<u32> {
        let t = event.thread().index();
        let mut clock = self.threads[t].clone();
        clock[t] += 1;
        match event.kind {
            VisibleKind::Read(x) if self.mode != HbMode::SyncOnly => {
                join(&mut clock, &self.writes[x.index()]);
                join(&mut self.reads[x.index()], &clock);
            }
            VisibleKind::Write(x) if self.mode != HbMode::SyncOnly => {
                join(&mut clock, &self.writes[x.index()]);
                join(&mut clock, &self.reads[x.index()]);
                self.writes[x.index()] = clock.clone();
                self.reads[x.index()].fill(0);
            }
            VisibleKind::Lock(m) | VisibleKind::Unlock(m) if self.mode != HbMode::Lazy => {
                join(&mut clock, &self.mutexes[m.index()]);
                self.mutexes[m.index()] = clock.clone();
            }
            _ => {}
        }
        self.threads[t] = clock.clone();
        clock
    }
}

/// `dst ⊔= src`, component-wise.
fn join(dst: &mut [u32], src: &[u32]) {
    for (a, &b) in dst.iter_mut().zip(src) {
        *a = (*a).max(b);
    }
}

/// A program of the given shape; the engine reads nothing else of it.
fn program(n_threads: usize, n_vars: usize, n_mutexes: usize) -> Program {
    let mut b = ProgramBuilder::new("engine-props");
    let vars = b.var_array("x", n_vars, 0);
    b.mutex_array("m", n_mutexes);
    for i in 0..n_threads {
        b.thread(format!("T{i}"), |t| t.load(Reg(0), vars[0]));
    }
    b.build()
}

/// A random event sequence with per-thread ordinals in order. The engine
/// does not need a feasible schedule, so lock discipline is not kept.
fn trace(rng: &mut Rng, n_threads: usize, n_vars: usize, n_mutexes: usize) -> Vec<Event> {
    let mut ordinals = vec![0u32; n_threads];
    let len = rng.below(48);
    (0..len)
        .map(|_| {
            let t = rng.below(n_threads);
            let var = VarId(rng.below(n_vars) as u16);
            let kind = match (rng.below(4), n_mutexes) {
                (0, _) | (2, 0) => VisibleKind::Read(var),
                (1, _) | (3, 0) => VisibleKind::Write(var),
                (2, m) => VisibleKind::Lock(MutexId(rng.below(m) as u16)),
                (_, m) => VisibleKind::Unlock(MutexId(rng.below(m) as u16)),
            };
            let ordinal = ordinals[t];
            ordinals[t] += 1;
            Event {
                id: EventId {
                    thread: ThreadId(t as u16),
                    ordinal,
                },
                kind,
                pc: rng.below(16) as u32,
            }
        })
        .collect()
}

/// Every thread's row of `engine` equals the model's clock.
fn assert_threads_agree(engine: &ClockEngine, model: &Model, context: &str) {
    for (t, clock) in model.threads.iter().enumerate() {
        assert_eq!(
            engine.thread_clock(ThreadId(t as u16)),
            clock,
            "{context}: thread {t}"
        );
    }
}

#[test]
fn slab_engine_matches_the_per_clock_model() {
    let mut rng = Rng(0x51ab_c10c);
    for width in 1..=MAX_WIDTH {
        for mode in HbMode::ALL {
            for case in 0..CASES {
                let (n_vars, n_mutexes) = (1 + rng.below(3), rng.below(3));
                let program = program(width, n_vars, n_mutexes);
                let trace = trace(&mut rng, width, n_vars, n_mutexes);
                let context = format!("width {width}, {mode:?}, case {case}");
                let mut engine = ClockEngine::for_program(mode, &program);
                let mut model = Model::new(mode, width, n_vars, n_mutexes);
                let mut acc = PrefixAccumulator::new();
                let mid = rng.below(trace.len().max(1));
                for (i, e) in trace.iter().enumerate() {
                    if i == mid {
                        check_copy(&engine, &model, &trace, i, &context);
                    }
                    let expected = model.apply(e);
                    let clock = engine.apply(e);
                    assert_eq!(**clock, *expected, "{context}: event {i}");
                    acc.absorb(event_record_hash(e, &expected));
                    assert_threads_agree(&engine, &model, &context);
                }

                let from_trace = HbBuilder::from_trace(mode, &program, &trace).fingerprint();
                assert_eq!(acc.fingerprint(), from_trace, "{context}");
                assert_eq!(engine.trace_fingerprint(&trace), from_trace, "{context}");

                engine.reset();
                let zero = Model::new(mode, width, n_vars, n_mutexes);
                assert_threads_agree(&engine, &zero, &context);
                assert_eq!(engine.trace_fingerprint(&trace), from_trace, "{context}");
            }
        }
    }
}

/// `assign_from` into an engine that has seen a whole trace makes an
/// independent copy of `engine`, which has seen `trace[..mid]`: the copy
/// runs on through the rest in step with a clone of the model, and
/// `engine` does not move.
fn check_copy(engine: &ClockEngine, model: &Model, trace: &[Event], mid: usize, context: &str) {
    let mut copy = ClockEngine::new(
        engine.mode(),
        engine.thread_width(),
        model.writes.len(),
        model.mutexes.len(),
    );
    copy.trace_fingerprint(trace);
    copy.assign_from(engine);
    assert_threads_agree(&copy, model, context);
    let mut ahead = model.clone();
    for e in &trace[mid..] {
        assert_eq!(**copy.apply(e), *ahead.apply(e), "{context}: copy");
    }
    assert_threads_agree(&copy, &ahead, context);
    assert_threads_agree(engine, model, context);
}
