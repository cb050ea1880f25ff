//! The explorer-neutral stepping core. A [`FrameBody`] is an explorer's
//! state at one node of the schedule tree: the executor snapshot and, for
//! the explorer's own relation (DPOR's race-detection clocks, a prefix
//! cache's key) and each relation the [`Collector`] reads, the clocks and
//! the digest of the trace so far. Each event is folded into every digest
//! once, so a leaf hands its fingerprints over in O(1) and nothing replays
//! the trace. The depth-first explorers keep one body per depth reached
//! and move down with [`step`], so only a descent deeper than any before
//! allocates; every explorer ends a path in [`FrameBody::record_leaf`].

use crate::stats::{Collector, Continue, LeafFingerprints};
use lazylocks_hbr::{event_record_hash, ClockEngine, HbMode, PrefixAccumulator};
use lazylocks_model::{Program, ThreadId};
use lazylocks_obs::{ids, PhaseClock};
use lazylocks_runtime::{Event, ExecPhase, Executor, StepOutcome};

/// One relation a body keeps: its clocks and, when read, its digest.
#[derive(Clone)]
struct Relation {
    clocks: ClockEngine,
    acc: Option<PrefixAccumulator>,
}

impl Relation {
    fn absorb(&mut self, event: &Event) {
        let clock = self.clocks.apply(event);
        if let Some(acc) = &mut self.acc {
            acc.absorb(event_record_hash(event, clock));
        }
    }
}

/// The machine snapshot and happens-before state at one node.
#[derive(Clone)]
pub(crate) struct FrameBody<'p> {
    pub(crate) exec: Executor<'p>,
    /// The explorer's own relation first, when it has one, then every
    /// other relation whose leaf fingerprint the collector reads.
    rels: Vec<Relation>,
}

/// How [`FrameBody::record_leaf`] ended a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Leaf {
    /// A terminal execution, recorded; the collector says whether to go on.
    Terminal(Continue),
    /// A running execution cut off by the run-length cap.
    Truncated,
}

impl<'p> FrameBody<'p> {
    /// The root body of `program`. The clocks of `own` are always kept,
    /// its digest when `own_digest` is set or the collector reads it.
    pub(crate) fn root(
        program: &'p Program,
        own: Option<HbMode>,
        own_digest: bool,
        collector: &Collector,
    ) -> Self {
        let others = [HbMode::Regular, HbMode::Lazy]
            .into_iter()
            .filter(|&mode| own != Some(mode) && collector.reads(mode));
        let rels = own.into_iter().chain(others).map(|mode| Relation {
            clocks: ClockEngine::for_program(mode, program),
            acc: ((own_digest && own == Some(mode)) || collector.reads(mode))
                .then(PrefixAccumulator::new),
        });
        FrameBody {
            exec: Executor::new(program),
            rels: rels.collect(),
        }
    }

    /// Makes `self` a copy of `src` in place, reusing its buffers (both
    /// are copies of one root, so they keep the same relations).
    pub(crate) fn assign_from(&mut self, src: &FrameBody<'p>) {
        self.exec.assign_from(&src.exec);
        for (rel, src) in self.rels.iter_mut().zip(&src.rels) {
            rel.clocks.assign_from(&src.clocks);
            rel.acc = src.acc;
        }
    }

    /// The clocks of the explorer's own relation.
    pub(crate) fn clocks(&self) -> &ClockEngine {
        &self.rels[0].clocks
    }

    /// Advances every relation past `event`.
    pub(crate) fn absorb(&mut self, event: &Event) {
        self.rels.iter_mut().for_each(|rel| rel.absorb(event));
    }

    /// Advances only the own relation past `event` and returns its digest,
    /// so an explorer can look it up before it pays for
    /// [`FrameBody::absorb_rest`].
    pub(crate) fn absorb_own(&mut self, event: &Event) -> u128 {
        self.rels[0].absorb(event);
        self.rels[0].acc.expect("a keyed relation").fingerprint()
    }

    /// Advances every relation but the own one past `event`.
    pub(crate) fn absorb_rest(&mut self, event: &Event) {
        self.rels[1..].iter_mut().for_each(|rel| rel.absorb(event));
    }

    /// Records this body, reached by `trace` and `schedule`, if it ends a
    /// path: a terminal execution with the digests the body folded and
    /// whether it is `fresh` (see [`LeafFingerprints::fresh`]), or a
    /// running one whose trace reached the run-length cap as truncated.
    /// Returns `None` for a body to expand.
    pub(crate) fn record_leaf(
        &self,
        trace: &[Event],
        schedule: &[ThreadId],
        fresh: bool,
        collector: &mut Collector,
    ) -> Option<Leaf> {
        if matches!(self.exec.phase(), ExecPhase::Running) {
            if trace.len() < collector.config().max_run_length {
                return None;
            }
            collector.record_truncated();
            return Some(Leaf::Truncated);
        }
        let digest = |mode| {
            let rel = self.rels.iter().find(|r| r.clocks.mode() == mode)?;
            Some(rel.acc?.fingerprint())
        };
        let known = LeafFingerprints {
            regular: digest(HbMode::Regular),
            lazy: digest(HbMode::Lazy),
            fresh,
        };
        let cont = collector.record_terminal(&self.exec, trace, schedule, known);
        Some(Leaf::Terminal(cont))
    }
}

/// Copies `slots[depth]` into `slots[depth + 1]` and steps thread `t`
/// there, lapping `frame_checkpoint` and `executor_step` on `phases`. The
/// flag says the child's slot existed, so the copy reused its buffers
/// rather than heap-clone; deeper slots are spares, never dropped.
pub(crate) fn step(
    slots: &mut Vec<FrameBody<'_>>,
    depth: usize,
    t: ThreadId,
    phases: &mut PhaseClock,
) -> (StepOutcome, bool) {
    let pooled = slots.len() > depth + 1;
    if pooled {
        let (live, spare) = slots.split_at_mut(depth + 1);
        spare[0].assign_from(&live[depth]);
    } else {
        slots.push(slots[depth].clone());
    }
    phases.lap(ids::PHASE_FRAME_CHECKPOINT);
    let out = slots[depth + 1].exec.step(t);
    phases.lap(ids::PHASE_EXECUTOR_STEP);
    (out, pooled)
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::config::ExploreConfig;
    use crate::explore::{DfsEnumeration, Dpor, Explorer, HbrCaching, RandomWalk};
    use crate::session::ExploreSession;
    use crate::stats::ExploreStats;
    use lazylocks_hbr::{ClockEngine, HbMode};
    use lazylocks_model::{Program, ProgramBuilder, Reg};
    use lazylocks_runtime::run_schedule;
    use std::time::Duration;

    /// Explores `program` with witnesses on and checks every regular class
    /// the explorer reported against a replay of its witness schedule.
    /// Debug builds also replay every digest handed over at every leaf.
    pub(crate) fn explore_checked(explorer: &dyn Explorer, program: &Program) -> ExploreStats {
        let mut config = ExploreConfig::with_limit(10_000);
        config.collect_state_witnesses = true;
        let stats = explorer.explore(program, &config);
        let mut engine = ClockEngine::for_program(HbMode::Regular, program);
        for (fp, schedule) in &stats.hbr_witnesses {
            let run = run_schedule(program, schedule).expect("a witness replays");
            let replayed = engine.trace_fingerprint(&run.trace);
            assert_eq!(*fp, replayed, "{}: {schedule:?}", explorer.name());
        }
        assert_eq!(stats.hbr_witnesses.len(), stats.unique_hbrs);
        stats.check_inequality().unwrap();
        stats
    }

    fn explorers() -> [Box<dyn Explorer>; 5] {
        [
            Box::new(DfsEnumeration),
            Box::new(HbrCaching::regular()),
            Box::new(HbrCaching::lazy()),
            Box::new(RandomWalk),
            Box::new(Dpor::default()),
        ]
    }

    #[test]
    fn a_terminal_root_hands_over_the_empty_trace_digests() {
        let mut b = ProgramBuilder::new("local-only");
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.set(Reg(0), 1);
                t.add(Reg(0), Reg(0), 2);
            });
        }
        let p = b.build();
        let empty = ClockEngine::for_program(HbMode::Regular, &p).trace_fingerprint(&[]);
        for explorer in explorers() {
            let stats = explore_checked(&*explorer, &p);
            let name = explorer.name();
            // A random walk records a leaf per walk; the others one.
            assert!(stats.schedules >= 1, "{name}");
            assert_eq!(stats.events, 0, "{name}");
            assert_eq!(
                (
                    stats.unique_states,
                    stats.unique_hbrs,
                    stats.unique_lazy_hbrs
                ),
                (1, 1, 1),
                "{name}"
            );
            assert_eq!(stats.hbr_witnesses[0].0, empty, "{name}");
        }
    }

    #[test]
    fn a_zero_run_length_cap_truncates_every_root() {
        let mut b = ProgramBuilder::new("one-store");
        let x = b.var("x", 0);
        b.thread("T", |t| t.store(x, 1));
        let p = b.build();
        let mut config = ExploreConfig::with_limit(3);
        config.max_run_length = 0;
        for explorer in explorers() {
            let stats = ExploreSession::new(&p)
                .with_config(config.clone())
                .deadline(Duration::from_secs(2))
                .run(&*explorer)
                .stats;
            let name = explorer.name();
            assert!(!stats.cancelled, "{name} ran into the deadline");
            assert_eq!((stats.schedules, stats.events), (0, 0), "{name}");
            // Each random walk is cut at its root; the others have one root.
            let walks = if name == "random" { 3 } else { 1 };
            assert_eq!(stats.truncated_runs, walks, "{name}");
        }
    }

    #[test]
    fn every_explorer_hands_over_checked_digests_on_locks_and_races() {
        let mut b = ProgramBuilder::new("locked-and-racy");
        let m = b.mutex("m");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.with_lock(m, |t| t.store(x, 1));
                t.load(Reg(0), y);
                t.add(Reg(0), Reg(0), 1);
                t.store(y, Reg(0));
                t.set(Reg(0), 0);
            });
        }
        let p = b.build();
        for explorer in explorers() {
            explore_checked(&*explorer, &p);
        }
    }
}
