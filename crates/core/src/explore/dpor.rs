//! Dynamic partial-order reduction (Flanagan & Godefroid, POPL 2005).
//!
//! Stateless-model-checking DPOR with clock vectors, implemented over
//! snapshot cloning (the executor and the happens-before clock state are
//! cloned at each stack level, so backtracking restores state without
//! re-execution), refined with **sleep sets**.
//!
//! The algorithm walks one schedule at a time. After appending an event `e`
//! by thread `p` at depth `d`, it looks up the *latest* earlier event `f`
//! that is dependent with `e` (per object: last write / latest read for
//! variables, last operation for mutexes). If `f` is not already ordered
//! before `p`'s next transition by the happens-before relation built so far
//! (checked with `p`'s clock), the pair is a *race*: the exploration must
//! also try schedules in which the race is reversed, so `p` (or, if `p` was
//! not enabled there, every enabled thread) is added to the *backtrack set*
//! of the stack frame from which `f` was executed.
//!
//! The *dependence* notion is a parameter ([`DependenceMode`]): the classic
//! algorithm uses the regular happens-before dependence; the lazy-DPOR
//! experiments of the paper's §4 plug in the lazy lock-acquisition
//! variant (see [`lazy_dpor`](crate::explore::lazy_dpor)).
//!
//! ## Engine structure
//!
//! `DporCore` owns the whole exploration state: the frame stack (each
//! frame's backtrack / done / sleep sets), one executor/clock snapshot
//! slot per depth reached, the current trace and schedule, the
//! per-object access indices driving race detection, and the scratch
//! buffers. `run_dpor` is the depth-first pick/step/unwind loop over
//! it.
//!
//! Frame creation is allocation-free in the steady state: a popped
//! frame leaves its `Executor`/`ClockEngine` body in its slot, and the
//! next push to that depth clones *into* it
//! ([`Executor::assign_from`], [`ClockEngine::assign_from`]) instead of
//! cloning afresh. A slot is allocated only when the stack grows past
//! the deepest it has been.

use crate::checkpoint::{CheckpointState, FrameSets};
use crate::config::ExploreConfig;
use crate::explore::Explorer;
use crate::stats::{profile_dims, Collector, Continue, Counter, ExploreStats};
use lazylocks_clock::VectorClock;
use lazylocks_hbr::{ClockEngine, HbMode};
use lazylocks_model::{Program, ThreadId, ThreadSet, VisibleKind};
use lazylocks_obs::{ids, site, ProfileObj, ProfileSites};
use lazylocks_runtime::{Event, ExecPhase, Executor};

/// Which dependence relation drives race detection and backtracking.
///
/// Backtrack candidates are restricted to pairs that *may be co-enabled*
/// (Flanagan–Godefroid): for mutexes that means `lock`/`lock` pairs only —
/// an `unlock` is never co-enabled with another operation on its mutex
/// (whoever could unlock holds the lock), so unlock-induced serialisation
/// edges order events but never create backtrack points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DependenceMode {
    /// Classic DPOR: variable conflicts plus lock-acquisition conflicts.
    #[default]
    Regular,
    /// Variable conflicts plus lock-acquisition conflicts for *nested*
    /// acquisitions only (a thread locking while already holding a mutex)
    /// — the deadlock-relevant reversals. Disjoint flat critical sections
    /// generate no backtracking, which is exactly the reduction the lazy
    /// HBR promises. When a variable race cannot be reversed directly
    /// because the racing thread is blocked on a lock, the backtrack point
    /// is *redirected* to the acquisition of the blocking mutex.
    LazyLockAcquisitions,
}

impl DependenceMode {
    /// The clock mode used for the "already ordered" check.
    fn hb_mode(self) -> HbMode {
        match self {
            DependenceMode::Regular => HbMode::Regular,
            // The lazy mode must treat fewer pairs as ordered, never more,
            // so it uses the lazy relation for the ordering check too.
            DependenceMode::LazyLockAcquisitions => HbMode::Lazy,
        }
    }
}

/// The DPOR explorer: source-set style race reversal refined with sleep
/// sets.
///
/// With the regular dependence it explores at least one schedule per
/// happens-before (Mazurkiewicz) class — sleep sets with backtracking
/// that never targets a sleeping thread keep every class (Abdulla et al.,
/// *Optimal Dynamic Partial Order Reduction*, POPL 2014) — and, because
/// sleep sets also rule out re-exploring a class, on the corpus exactly
/// one: `schedules == unique_hbrs`, validated against exhaustive
/// enumeration on every suite benchmark that can be enumerated. The
/// wakeup trees of optimal DPOR would only remove the sleep-blocked
/// explorations, which end without reaching a leaf.
///
/// [`DependenceMode::LazyLockAcquisitions`] keeps the sleep sets but
/// backtracks on the lazy dependence; it carries no completeness
/// argument (see [`lazy_dpor`](crate::explore::lazy_dpor)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dpor {
    /// Dependence notion for race detection.
    pub dependence: DependenceMode,
}

impl Explorer for Dpor {
    fn name(&self) -> String {
        match self.dependence {
            DependenceMode::Regular => "dpor".to_string(),
            DependenceMode::LazyLockAcquisitions => "dpor-lazy-locks".to_string(),
        }
    }

    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats {
        explore_dpor(program, config, true, self.dependence)
    }
}

/// Runs the DPOR engine once. `sleep_sets: false` is reserved for the
/// sleep-free [`LazyDpor`](crate::explore::LazyDpor) prototype.
pub(crate) fn explore_dpor(
    program: &Program,
    config: &ExploreConfig,
    sleep_sets: bool,
    dependence: DependenceMode,
) -> ExploreStats {
    let mut collector = Collector::new(config);
    let mut core = DporCore::new(
        program,
        sleep_sets,
        dependence,
        config.profile.sites(&profile_dims(program)),
    );
    run_dpor(&mut core, &mut collector);
    core.profile_flush(collector.stats.schedules as u64);
    collector.into_stats()
}

/// The heap-backed part of one stack frame: the machine snapshot and the
/// happens-before clock state *before* the transition recorded at the
/// same depth of the trace.
#[derive(Clone)]
struct FrameBody<'p> {
    exec: Executor<'p>,
    clocks: ClockEngine,
}

/// One frame of the DPOR stack: the three DPOR thread sets of the state
/// whose snapshot sits in the body slot at the same depth.
///
/// The thread sets are `u64` bitmasks ([`ThreadSet`]): frames are pushed
/// and popped on every step, and `BTreeSet`s here used to be the dominant
/// allocation churn of the hot loop.
struct Frame {
    backtrack: ThreadSet,
    done: ThreadSet,
    sleep: ThreadSet,
    /// Trace/schedule lengths when the frame was pushed (for unwinding).
    trace_mark: usize,
    sched_mark: usize,
}

/// What one [`DporCore::take_step`] produced.
enum Stepped {
    /// The child state is running and was pushed as a new frame.
    Pushed,
    /// The child state is a leaf: a terminal execution, or a running state
    /// truncated by the run-length cap. Its snapshot sits in the slot one
    /// past the top frame; [`run_dpor`] records it and then calls
    /// [`DporCore::finish_leaf`].
    Leaf { truncated: bool, pushed_event: bool },
}

/// The DPOR engine: the frame stack and its body slots, current
/// trace/schedule, the per-object access indices and race-detection
/// scratch. It keeps no counts: every step counts into the [`Collector`]
/// it is handed, which also carries the metrics handle its phase timers
/// use.
struct DporCore<'p> {
    program: &'p Program,
    sleep_sets: bool,
    dependence: DependenceMode,
    /// The frame stack; the top frame is the state being expanded.
    frames: Vec<Frame>,
    /// One frame body per depth the search has reached: `bodies[d]` is
    /// the snapshot of `frames[d]`, the slot one past the top holds the
    /// leaf being recorded, and deeper slots are spares the next descent
    /// clones into. Never shrinks, so steady-state pushes allocate
    /// nothing.
    bodies: Vec<FrameBody<'p>>,
    trace: Vec<Event>,
    schedule: Vec<ThreadId>,
    /// For each trace position, the depth of the frame the event was
    /// executed from. Identical to the position itself while every step
    /// appends an event; a no-event step (an unlock-without-hold fault)
    /// pushes a frame without a trace entry and shifts every later event
    /// one frame past its index. Race handling must target *frames*, so
    /// every trace index crossing into frame space maps through here.
    trace_depths: Vec<usize>,
    /// Per-variable trace indices of writes, in trace order. Maintained
    /// incrementally: pushed when an event is appended, popped when the
    /// trace is truncated on unwind — so race detection enumerates only
    /// the accesses of the conflicting object instead of scanning the
    /// whole trace (O(depth)) per step.
    var_writes: Vec<Vec<usize>>,
    /// Per-variable trace indices of reads, in trace order.
    var_reads: Vec<Vec<usize>>,
    /// Per-mutex trace indices of acquisitions, in trace order. Doubles as
    /// the O(1) "owner's live acquisition" lookup (its last entry) that
    /// previously required a reverse scan of the trace per blocked thread.
    mutex_locks: Vec<Vec<usize>>,
    /// Scratch buffer for uncovered race-partner indices, reused across
    /// steps so the common no-race path performs no allocation.
    race_buf: Vec<usize>,
    /// Per-program-point attribution slab (inert when the profiler is
    /// off: each attribution point then costs one branch).
    sites: ProfileSites,
    /// Backtrack insertions awaiting their first claim, indexed by the
    /// frame depth they were inserted at, so re-executed schedules can be
    /// charged to the race that caused them. Entries are dropped
    /// wholesale when the frame unwinds. Kept only while profiling.
    resched_pending: Vec<Vec<PendingResched>>,
    /// Claimed backtrack choices whose subtrees are still being
    /// explored, innermost last (their depths are strictly increasing).
    open_spans: Vec<OpenSpan>,
}

/// A backtrack thread inserted by a race, waiting to be claimed by the
/// pick loop — carries the site that caused the insertion.
#[derive(Debug, Clone, Copy)]
struct PendingResched {
    choice: ThreadId,
    thread: u32,
    pc: u32,
    obj: Option<ProfileObj>,
}

/// A claimed backtrack choice whose subtree is in progress; closed (and
/// its schedule delta charged to the causing site) when the pick loop
/// returns to its depth.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    depth: usize,
    thread: u32,
    pc: u32,
    obj: Option<ProfileObj>,
    schedules_at_open: u64,
}

/// The profiler object an event touches.
fn profile_obj(kind: VisibleKind) -> Option<ProfileObj> {
    match kind {
        VisibleKind::Read(x) | VisibleKind::Write(x) => Some(ProfileObj::Var(x.index() as u32)),
        VisibleKind::Lock(m) | VisibleKind::Unlock(m) => Some(ProfileObj::Mutex(m.index() as u32)),
    }
}

/// `clock` summarises (at least) event `f`'s causal past.
fn covers(clock: &VectorClock, f: &Event) -> bool {
    clock.get(f.thread().index()) > f.id.ordinal
}

impl<'p> DporCore<'p> {
    fn new(
        program: &'p Program,
        sleep_sets: bool,
        dependence: DependenceMode,
        sites: ProfileSites,
    ) -> Self {
        DporCore {
            program,
            sleep_sets,
            dependence,
            frames: Vec::new(),
            bodies: Vec::new(),
            trace: Vec::new(),
            schedule: Vec::new(),
            trace_depths: Vec::new(),
            var_writes: vec![Vec::new(); program.vars().len()],
            var_reads: vec![Vec::new(); program.vars().len()],
            mutex_locks: vec![Vec::new(); program.mutexes().len()],
            race_buf: Vec::new(),
            sites,
            resched_pending: Vec::new(),
            open_spans: Vec::new(),
        }
    }

    /// Appends `event` (about to sit at trace position `i`) to its
    /// per-object access index.
    fn index_event(&mut self, i: usize, event: &Event) {
        match event.kind {
            VisibleKind::Read(x) => self.var_reads[x.index()].push(i),
            VisibleKind::Write(x) => self.var_writes[x.index()].push(i),
            VisibleKind::Lock(m) => self.mutex_locks[m.index()].push(i),
            VisibleKind::Unlock(_) => {}
        }
    }

    /// Removes every trace event at position `mark` or later from the
    /// per-object access indices (the inverse of [`Self::index_event`],
    /// called before the trace itself is truncated to `mark`). Amortised
    /// O(1) per popped event.
    fn unindex_tail(&mut self, mark: usize) {
        for i in (mark..self.trace.len()).rev() {
            let popped = match self.trace[i].kind {
                VisibleKind::Read(x) => self.var_reads[x.index()].pop(),
                VisibleKind::Write(x) => self.var_writes[x.index()].pop(),
                VisibleKind::Lock(m) => self.mutex_locks[m.index()].pop(),
                VisibleKind::Unlock(_) => continue,
            };
            debug_assert_eq!(popped, Some(i), "access index out of sync");
        }
    }

    /// Pops the trace/schedule entries of a frame being unwound.
    fn truncate_to(&mut self, trace_mark: usize, sched_mark: usize) {
        self.unindex_tail(trace_mark);
        self.trace.truncate(trace_mark);
        self.trace_depths.truncate(trace_mark);
        self.schedule.truncate(sched_mark);
    }

    /// The initial backtrack set of a fresh frame: the first enabled
    /// thread outside the sleep set (one representative; races add the
    /// rest on demand). Counts a sleep prune when everything enabled is
    /// asleep (the subtree is redundant).
    fn initial_backtrack(
        &self,
        exec: &Executor<'p>,
        sleep: ThreadSet,
        collector: &mut Collector,
    ) -> ThreadSet {
        let init = exec.enabled_iter().find(|&t| !sleep.contains(t));
        let mut backtrack = ThreadSet::new();
        match init {
            Some(t) => {
                backtrack.insert(t);
            }
            None => {
                collector.count(Counter::SleepPrunes, 1);
                // The subtree below the event just executed is entirely
                // asleep: charge the prune to that event's site.
                if let Some(e) = self.trace.last() {
                    self.sites.add(
                        e.thread().index() as u32,
                        e.pc,
                        profile_obj(e.kind),
                        site::SLEEP_BLOCKS,
                        1,
                    );
                }
            }
        }
        backtrack
    }

    /// Executes `p` from the top frame, performs race detection, and
    /// pushes the child frame — or returns the leaf for [`run_dpor`] to
    /// record. `run_cap` is [`ExploreConfig::max_run_length`]; the step's
    /// counts go to `collector`.
    fn take_step(&mut self, p: ThreadId, run_cap: usize, collector: &mut Collector) -> Stepped {
        let top = self.frames.len() - 1;
        let child = top + 1;
        let entry_trace_mark = self.trace.len();
        let entry_sched_mark = self.schedule.len();
        let timer = collector.metrics().timer_start(ids::PHASE_FRAME_CHECKPOINT);
        // Clone the parent into the child's slot; a slot exists at every
        // depth reached before, so only a new deepest descent allocates.
        let pooled = self.bodies.len() > child;
        if pooled {
            let (live, spare) = self.bodies.split_at_mut(child);
            spare[0].exec.assign_from(&live[top].exec);
            spare[0].clocks.assign_from(&live[top].clocks);
        } else {
            let body = self.bodies[top].clone();
            self.bodies.push(body);
        }
        collector
            .metrics()
            .timer_stop(ids::PHASE_FRAME_CHECKPOINT, timer);
        collector.count(Counter::FramesPooled, u64::from(pooled));
        let timer = collector.metrics().timer_start(ids::PHASE_EXECUTOR_STEP);
        let out = self.bodies[child].exec.step(p);
        collector
            .metrics()
            .timer_stop(ids::PHASE_EXECUTOR_STEP, timer);

        // Race-partner candidates examined by both passes below.
        let mut compared = 0u64;
        if let Some(event) = out.event {
            let race_timer = collector.metrics().timer_start(ids::PHASE_RACE_DETECTION);
            // --- race detection (source-DPOR style, Abdulla et al. 2014) ---
            // A *reversible race* partner of `event` is an earlier event f
            // that is dependent-and-may-be-co-enabled with it, not already
            // ordered before p's pending transition (f outside p's clock),
            // and adjacent in the happens-before relation (no intermediate
            // g with f <HB g <HB event). Every reversible race is processed
            // — handling only the latest one interacts unsoundly with sleep
            // sets (the "sleep-set blocking" problem).
            //
            // Candidates come from the per-object access indices, not a
            // trace scan: only accesses of the conflicting variable (all
            // writes for a read; writes and reads for a write) or
            // acquisitions of the conflicting mutex can be dependent.
            //
            // Partner indices are *trace* positions; everything that
            // touches a frame maps them through `trace_depths`, so
            // no-event fault steps (which push a frame without a trace
            // entry) cannot shift backtrack insertions one frame early.
            // `tests/hostile_input.rs` pins DFS parity on exactly those
            // programs.
            let p_nested = self.bodies[top].exec.holds_any_mutex(p);
            let mut race_buf = std::mem::take(&mut self.race_buf);
            debug_assert!(race_buf.is_empty());
            {
                let cp = self.bodies[top].clocks.thread_clock(p);
                match event.kind {
                    VisibleKind::Read(x) => {
                        compared += self.collect_partners(
                            &self.var_writes[x.index()],
                            event.kind,
                            p,
                            cp,
                            p_nested,
                            &mut race_buf,
                        );
                    }
                    VisibleKind::Write(x) => {
                        compared += self.collect_partners(
                            &self.var_writes[x.index()],
                            event.kind,
                            p,
                            cp,
                            p_nested,
                            &mut race_buf,
                        );
                        compared += self.collect_partners(
                            &self.var_reads[x.index()],
                            event.kind,
                            p,
                            cp,
                            p_nested,
                            &mut race_buf,
                        );
                    }
                    VisibleKind::Lock(m) => {
                        compared += self.collect_partners(
                            &self.mutex_locks[m.index()],
                            event.kind,
                            p,
                            cp,
                            p_nested,
                            &mut race_buf,
                        );
                    }
                    // An unlock is never co-enabled with another operation
                    // on its mutex: no candidates at all.
                    VisibleKind::Unlock(_) => {}
                }
            }
            collector
                .metrics()
                .timer_stop(ids::PHASE_RACE_DETECTION, race_timer);
            let timer = collector.metrics().timer_start(ids::PHASE_HBR_APPLY);
            self.bodies[child].clocks.apply(&event);
            collector.metrics().timer_stop(ids::PHASE_HBR_APPLY, timer);
            self.index_event(self.trace.len(), &event);
            self.trace.push(event);
            self.trace_depths.push(top);
            for &i in &race_buf {
                self.handle_race(i, p);
            }
            race_buf.clear();
            self.race_buf = race_buf;
        }
        self.schedule.push(p);

        // --- blocked-acquisition races ---
        // A thread whose pending `lock(m)` is blocked races with the
        // owner's acquisition of `m`. That lock never *executes* in this
        // subtree (it may stay blocked all the way into a deadlock leaf),
        // so the append-based detection above cannot see the race; this is
        // the per-state pending-transition check of the original algorithm,
        // specialised to the only transitions that can pend: acquisitions.
        // Skipped outright for mutex-free programs, where nothing can ever
        // block.
        if !self.program.mutexes().is_empty() {
            for q in self.program.thread_ids() {
                let state = &self.bodies[child];
                let Some(VisibleKind::Lock(m)) = state.exec.next_visible(q) else {
                    continue;
                };
                let Some(owner) = state.exec.mutex_owner(m) else {
                    continue; // free: not blocked
                };
                if owner == q {
                    continue; // self-relock: no reversal exists
                }
                // The owner's live acquisition is the last of its indexed
                // Lock(m) events (no trace scan).
                let Some(&j) = self.mutex_locks[m.index()]
                    .iter()
                    .rev()
                    .find(|&&j| self.trace[j].thread() == owner)
                else {
                    continue;
                };
                compared += 1;
                let q_nested = state.exec.holds_any_mutex(q);
                let cq = state.clocks.thread_clock(q);
                if !self.is_race_partner(VisibleKind::Lock(m), q, cq, j, q_nested) {
                    continue;
                }
                self.handle_race(j, q);
            }
        }
        collector.count(Counter::EventsCompared, compared);

        // --- sleep set for the child ---
        let child_sleep = if self.sleep_sets {
            let parent = &self.frames[top];
            let (done, sleep) = (parent.done, parent.sleep);
            let parent_exec = &self.bodies[top].exec;
            let mut child_sleep = ThreadSet::new();
            for r in sleep.union(done).iter() {
                if r == p {
                    continue;
                }
                // r stays asleep only if its pending transition is
                // independent of the one just executed.
                // Independence must be judged with the sound (regular)
                // dependence even in the lazy mode: waking a sleeping
                // thread too rarely would prune real behaviours.
                let keep = match (out.event, parent_exec.next_visible(r)) {
                    (Some(e), Some(rk)) => !e.kind.dependent_regular(rk),
                    // Fault step (no event): it only changed p's own
                    // status, independent of everything.
                    (None, Some(_)) => true,
                    (_, None) => false,
                };
                if keep {
                    child_sleep.insert(r);
                }
            }
            child_sleep
        } else {
            ThreadSet::new()
        };

        match self.bodies[child].exec.phase() {
            ExecPhase::Running => {
                if self.trace.len() >= run_cap {
                    Stepped::Leaf {
                        truncated: true,
                        pushed_event: out.event.is_some(),
                    }
                } else {
                    let backtrack =
                        self.initial_backtrack(&self.bodies[child].exec, child_sleep, collector);
                    self.frames.push(Frame {
                        backtrack,
                        done: ThreadSet::new(),
                        sleep: child_sleep,
                        trace_mark: entry_trace_mark,
                        sched_mark: entry_sched_mark,
                    });
                    Stepped::Pushed
                }
            }
            _ => Stepped::Leaf {
                truncated: false,
                pushed_event: out.event.is_some(),
            },
        }
    }

    /// Pops the trace/schedule entries a leaf's step pushed. Call after
    /// recording the leaf; its body stays in its slot for the next push.
    fn finish_leaf(&mut self, pushed_event: bool) {
        if pushed_event {
            self.unindex_tail(self.trace.len() - 1);
            self.trace.pop();
            self.trace_depths.pop();
        }
        self.schedule.pop();
    }

    /// Is the earlier event `f` (at trace position `i`) a backtracking
    /// dependence for a new event of kind `kind`?
    ///
    /// Variable conflicts count in both modes. Mutex conflicts are
    /// restricted to may-be-co-enabled pairs — `lock`/`lock` on the same
    /// mutex (an `unlock` is never co-enabled with another operation on its
    /// mutex). The lazy lock-acquisition mode further restricts lock pairs
    /// to the deadlock-relevant ones, where at least one side acquired
    /// while holding another mutex.
    fn backtrack_dependent(&self, kind: VisibleKind, f: &Event, i: usize, p_nested: bool) -> bool {
        if kind.dependent_lazy(f.kind) {
            return true;
        }
        match (kind, f.kind) {
            (VisibleKind::Lock(m1), VisibleKind::Lock(m2)) if m1 == m2 => match self.dependence {
                DependenceMode::Regular => true,
                DependenceMode::LazyLockAcquisitions => {
                    p_nested
                        || self.bodies[self.trace_depths[i]]
                            .exec
                            .holds_any_mutex(f.thread())
                }
            },
            _ => false,
        }
    }

    /// The shared candidate filter of both race passes: is the earlier
    /// event at trace position `i` a reversible-race partner for a
    /// transition of `actor` (kind `kind`, causal past `actor_clock`,
    /// nested-lock status `nested`)?
    fn is_race_partner(
        &self,
        kind: VisibleKind,
        actor: ThreadId,
        actor_clock: &VectorClock,
        i: usize,
        nested: bool,
    ) -> bool {
        let f = &self.trace[i];
        f.thread() != actor // program order: never a race
            && self.backtrack_dependent(kind, f, i, nested)
            && !covers(actor_clock, f) // not already ordered before actor
    }

    /// Filters one per-object candidate list through
    /// [`Self::is_race_partner`], appending the survivors to `buf`.
    /// Returns the number of candidates examined (the `events_compared`
    /// contribution).
    fn collect_partners(
        &self,
        candidates: &[usize],
        kind: VisibleKind,
        actor: ThreadId,
        actor_clock: &VectorClock,
        nested: bool,
        buf: &mut Vec<usize>,
    ) -> u64 {
        for &i in candidates {
            if self.is_race_partner(kind, actor, actor_clock, i, nested) {
                buf.push(i);
            }
        }
        candidates.len() as u64
    }

    /// Registers a backtrack point for the race between the event at trace
    /// position `i` and the pending transition of thread `p`.
    ///
    /// Schedule `p` at the event's pre-state frame (`trace_depths[i]`) when
    /// it is runnable and awake there; when it is not — blocked, or parked
    /// in that frame's sleep set, where the pick loop would silently skip
    /// it — wake the frame up by adding every runnable thread that is not
    /// asleep. The lazy mode additionally *redirects* a `p` blocked on a
    /// mutex to the acquisition of the blocking mutex, where reversing the
    /// race is actually possible.
    fn handle_race(&mut self, i: usize, p: ThreadId) {
        let mut target = self.trace_depths[i];
        // Attribute the race to its earlier partner — the program point
        // whose reversal the backtracking will attempt.
        let (site_thread, site_pc, site_obj) = {
            let f = &self.trace[i];
            (f.thread().index() as u32, f.pc, profile_obj(f.kind))
        };
        self.sites
            .add(site_thread, site_pc, site_obj, site::RACES, 1);
        let exec = &self.bodies[target].exec;
        if self.dependence != DependenceMode::Regular && !exec.is_enabled(p) {
            if let Some(VisibleKind::Lock(mb)) = exec.next_visible(p) {
                if let Some(owner) = exec.mutex_owner(mb) {
                    // The owner's most recent acquisition of `mb` at or
                    // before position i is the blocking one (held ever
                    // since): the last indexed Lock(mb) below i, no trace
                    // scan.
                    let locks = &self.mutex_locks[mb.index()];
                    let below = locks.partition_point(|&j| j < i);
                    if let Some(&j) = locks[..below]
                        .iter()
                        .rev()
                        .find(|&&j| self.trace[j].thread() == owner)
                    {
                        target = self.trace_depths[j];
                    }
                }
            }
        }
        let exec = &self.bodies[target].exec;
        let frame = &mut self.frames[target];
        let inserted = if exec.is_enabled(p) && !frame.sleep.contains(p) {
            let inserted = frame.backtrack.insert(p) as u64;
            if inserted > 0 && self.sites.is_enabled() {
                // Remember who caused this insertion: when the pick loop
                // claims `p` at `target`, the whole re-explored subtree
                // is charged back to this site as RESCHEDULES.
                if self.resched_pending.len() <= target {
                    self.resched_pending.resize_with(target + 1, Vec::new);
                }
                self.resched_pending[target].push(PendingResched {
                    choice: p,
                    thread: site_thread,
                    pc: site_pc,
                    obj: site_obj,
                });
            }
            inserted
        } else {
            // p cannot run here, or is asleep (a sleeping backtrack entry
            // is never picked): wake the frame up with every enabled
            // thread that is awake.
            let added = exec.enabled_set() - frame.sleep - frame.backtrack;
            frame.backtrack |= added;
            added.len() as u64
        };
        if inserted > 0 {
            self.sites
                .add(site_thread, site_pc, site_obj, site::BACKTRACKS, inserted);
        }
    }

    /// Closes every open re-exploration span rooted at `depth` or deeper,
    /// charging the schedules completed since it opened to the causing
    /// site.
    fn close_spans_at(&mut self, depth: usize, schedules: u64) {
        while let Some(span) = self.open_spans.last() {
            if span.depth < depth {
                break;
            }
            let span = self.open_spans.pop().unwrap();
            let delta = schedules - span.schedules_at_open;
            if delta > 0 {
                self.sites
                    .add(span.thread, span.pc, span.obj, site::RESCHEDULES, delta);
            }
        }
    }

    /// The pick loop is about to run `p` from the frame at depth `top`
    /// (with `schedules` complete schedules so far).
    /// Closes spans of sibling subtrees and, when `p` was inserted by a
    /// race, opens a span charging the coming subtree to that race's site.
    fn profile_claim(&mut self, top: usize, p: ThreadId, schedules: u64) {
        if !self.sites.is_enabled() {
            return;
        }
        self.close_spans_at(top, schedules);
        let Some(pending) = self.resched_pending.get_mut(top) else {
            return;
        };
        let Some(pos) = pending.iter().position(|e| e.choice == p) else {
            return;
        };
        let entry = pending.swap_remove(pos);
        self.open_spans.push(OpenSpan {
            depth: top,
            thread: entry.thread,
            pc: entry.pc,
            obj: entry.obj,
            schedules_at_open: schedules,
        });
    }

    /// The frame at depth `depth` is being popped. Closes its spans and
    /// drops its unclaimed insertions.
    fn profile_unwind(&mut self, depth: usize, schedules: u64) {
        if !self.sites.is_enabled() {
            return;
        }
        self.close_spans_at(depth, schedules);
        if let Some(pending) = self.resched_pending.get_mut(depth) {
            pending.clear();
        }
    }

    /// Closes every span still open at the end of a run.
    fn profile_flush(&mut self, schedules: u64) {
        self.close_spans_at(0, schedules);
    }
}

/// Snapshots the current frontier — schedule prefix, per-frame sets, and
/// the collector's accumulated statistics.
fn capture_checkpoint(core: &DporCore<'_>, collector: &Collector) -> CheckpointState {
    let mut cp = CheckpointState {
        schedule: core.schedule.clone(),
        frames: core
            .frames
            .iter()
            .map(|f| FrameSets {
                backtrack: f.backtrack.bits(),
                done: f.done.bits(),
                sleep: f.sleep.bits(),
            })
            .collect(),
        ..CheckpointState::default()
    };
    collector.export_checkpoint(&mut cp);
    cp.pool_free = (core.bodies.len() - core.frames.len()) as u64;
    cp
}

/// Rebuilds the frame stack of a checkpointed frontier by re-executing
/// its schedule prefix, then overlays the recorded backtrack/done/sleep
/// sets and seeds `collector` with the checkpoint's statistics. The
/// rebuild's own steps re-do work those statistics already include, so
/// they count into a scratch collector — the seeded collector plus the
/// post-resume counts then reproduce the uninterrupted totals exactly,
/// and the metrics registry counts only this process's work.
fn resume_frontier(
    core: &mut DporCore<'_>,
    collector: &mut Collector,
    cp: &CheckpointState,
    run_cap: usize,
) {
    if let Err(e) = cp
        .validate()
        .and_then(|()| cp.check_pool(core.program.thread_count(), run_cap))
    {
        panic!("cannot resume: {e}");
    }
    let mut rebuild = Collector::scratch();
    for (i, &choice) in cp.schedule.iter().enumerate() {
        match core.take_step(choice, run_cap, &mut rebuild) {
            Stepped::Pushed => {}
            Stepped::Leaf { .. } => panic!(
                "cannot resume: checkpoint schedule step {i} ({choice}) left the program \
                 in a non-running state — the checkpoint was taken from a different \
                 program, strategy or configuration"
            ),
        }
    }
    debug_assert_eq!(core.frames.len(), cp.frames.len());
    for (frame, sets) in core.frames.iter_mut().zip(&cp.frames) {
        frame.backtrack = ThreadSet::from_bits(sets.backtrack);
        frame.done = ThreadSet::from_bits(sets.done);
        frame.sleep = ThreadSet::from_bits(sets.sleep);
    }
    collector.seed_from_checkpoint(cp);
    collector
        .metrics()
        .add(ids::RESUME_FRAMES_RESTORED, core.frames.len() as u64);
    // Restore the spare slots: the replay above allocated exactly one
    // slot per frame, while the uninterrupted engine had also reached
    // `pool_free` depths deeper than this frontier. Without them, every push
    // into such a depth becomes a miss instead of a hit and
    // `frames_pooled` drifts below the uninterrupted run's count. The
    // contents are irrelevant: a push overwrites its slot.
    let spare = core.bodies[0].clone();
    core.bodies
        .resize(core.frames.len() + cp.pool_free as usize, spare);
}

/// The depth-first pick/step/unwind loop over [`DporCore`]'s frame
/// stack.
fn run_dpor(core: &mut DporCore<'_>, collector: &mut Collector) {
    assert!(
        core.program.thread_count() <= ThreadSet::MAX_THREADS,
        "DPOR supports at most {} threads",
        ThreadSet::MAX_THREADS
    );
    let root_exec = Executor::new(core.program);
    if !matches!(root_exec.phase(), ExecPhase::Running) {
        collector.record_terminal(core.program, &root_exec, &[], &[]);
        return;
    }
    let clocks = ClockEngine::for_program(core.dependence.hb_mode(), core.program);
    let backtrack = core.initial_backtrack(&root_exec, ThreadSet::new(), collector);
    core.bodies.push(FrameBody {
        exec: root_exec,
        clocks,
    });
    core.frames.push(Frame {
        backtrack,
        done: ThreadSet::new(),
        sleep: ThreadSet::new(),
        trace_mark: 0,
        sched_mark: 0,
    });
    let run_cap = collector.config().max_run_length;
    let checkpoint_every = collector.config().checkpoint_every;
    if let Some(cp) = collector.config().resume_from.clone() {
        resume_frontier(core, collector, &cp, run_cap);
    }

    while let Some(top) = core.frames.len().checked_sub(1) {
        if collector.cancel_requested() {
            return;
        }
        let pick = {
            let frame = &core.frames[top];
            (frame.backtrack - frame.done - frame.sleep).first()
        };
        let Some(p) = pick else {
            // Frame exhausted: unwind; its body stays as a spare slot.
            core.profile_unwind(top, collector.stats.schedules as u64);
            let frame = core.frames.pop().unwrap();
            core.truncate_to(frame.trace_mark, frame.sched_mark);
            continue;
        };
        core.profile_claim(top, p, collector.stats.schedules as u64);
        core.frames[top].done.insert(p);
        match core.take_step(p, run_cap, collector) {
            Stepped::Pushed => {}
            Stepped::Leaf {
                truncated,
                pushed_event,
            } => {
                let cont = if truncated {
                    collector.record_truncated();
                    Continue::Yes
                } else {
                    let leaf = &core.bodies[core.frames.len()].exec;
                    collector.record_terminal(core.program, leaf, &core.trace, &core.schedule)
                };
                core.finish_leaf(pushed_event);
                if cont == Continue::Stop {
                    return;
                }
                // `finish_leaf` restored the trace/schedule to the frame
                // stack, so the frontier is in its resumable between-leaves
                // state — exactly what a checkpoint must capture.
                if checkpoint_every > 0
                    && !truncated
                    && collector.stats.schedules.is_multiple_of(checkpoint_every)
                {
                    let cp = capture_checkpoint(core, collector);
                    collector.config().control.note_checkpoint(&cp);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::dfs::DfsEnumeration;
    use crate::explore::LazyDpor;
    use lazylocks_model::{ProgramBuilder, Reg};

    fn config(limit: usize) -> ExploreConfig {
        ExploreConfig::with_limit(limit)
    }

    /// DPOR must match exhaustive DFS exactly on states and HBR classes,
    /// exploring exactly one schedule per class.
    fn assert_agrees_with_dfs(p: &Program, limit: usize) -> (ExploreStats, ExploreStats) {
        let dfs = DfsEnumeration.explore(p, &config(limit));
        assert!(!dfs.limit_hit, "ground truth must be exhaustive");
        let dpor = Dpor::default().explore(p, &config(limit));
        assert!(!dpor.limit_hit);
        assert_eq!(dpor.unique_states, dfs.unique_states, "DPOR missed states");
        assert_eq!(dpor.unique_hbrs, dfs.unique_hbrs, "DPOR missed HBR classes");
        assert_eq!(dpor.schedules, dpor.unique_hbrs, "one schedule per class");
        assert_eq!(dpor.deadlocks > 0, dfs.deadlocks > 0, "deadlock parity");
        assert_eq!(
            dpor.faulted_schedules > 0,
            dfs.faulted_schedules > 0,
            "fault parity"
        );
        dpor.check_inequality().unwrap();
        (dpor, dfs)
    }

    #[test]
    fn independent_writes_need_one_schedule() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(y, 1));
        let p = b.build();
        let (dpor, dfs) = assert_agrees_with_dfs(&p, 10_000);
        assert_eq!(dfs.schedules, 2);
        assert_eq!(dpor.schedules, 1, "independent events need no backtracking");
    }

    #[test]
    fn conflicting_writes_need_both_orders() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(x, 2));
        let p = b.build();
        let (dpor, _) = assert_agrees_with_dfs(&p, 10_000);
        assert_eq!(dpor.schedules, 2);
        assert_eq!(dpor.unique_states, 2);
    }

    #[test]
    fn racy_increments_fully_covered() {
        let mut b = ProgramBuilder::new("racy");
        let x = b.var("x", 0);
        for name in ["T1", "T2"] {
            b.thread(name, |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0); // normalise registers out of the state
            });
        }
        let p = b.build();
        let (dpor, dfs) = assert_agrees_with_dfs(&p, 10_000);
        assert_eq!(dfs.unique_states, 2);
        assert_eq!(dpor.unique_states, 2);
    }

    #[test]
    fn three_thread_mixed_conflicts_covered() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        b.thread("T1", |t| {
            t.store(x, 1);
            t.load(Reg(0), y);
            t.store(x, Reg(0));
        });
        b.thread("T2", |t| {
            t.store(y, 5);
            t.load(Reg(0), x);
        });
        b.thread("T3", |t| {
            t.store(y, 9);
        });
        let p = b.build();
        assert_agrees_with_dfs(&p, 100_000);
    }

    #[test]
    fn mutex_protected_sections_covered() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let m = b.mutex("m");
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
        // (0+1)*10 = 10 vs 0*10+1 = 1 → two states, two lock orders.
        let (dpor, dfs) = assert_agrees_with_dfs(&p, 10_000);
        assert_eq!(dfs.unique_states, 2);
        assert_eq!(dpor.unique_states, 2);
    }

    #[test]
    fn deadlocks_are_found_by_dpor() {
        let mut b = ProgramBuilder::new("abba");
        let a = b.mutex("a");
        let c = b.mutex("b");
        b.thread("T1", |t| {
            t.lock(a);
            t.lock(c);
            t.unlock(c);
            t.unlock(a);
        });
        b.thread("T2", |t| {
            t.lock(c);
            t.lock(a);
            t.unlock(a);
            t.unlock(c);
        });
        let p = b.build();
        let stats = Dpor::default().explore(&p, &config(10_000));
        assert!(stats.deadlocks > 0, "DPOR must reverse the lock order");
        assert!(stats.first_bug.as_ref().unwrap().is_deadlock());
    }

    #[test]
    fn sleep_sets_reduce_schedules() {
        // Each thread writes its own flag and reads its neighbour's: the
        // sleep-free engine re-explores classes that sleep sets prune.
        let mut b = ProgramBuilder::new("p");
        let flags: Vec<_> = (0..3).map(|i| b.var(format!("f{i}"), 0)).collect();
        for i in 0..3 {
            let (own, next) = (flags[i], flags[(i + 1) % 3]);
            b.thread(format!("T{i}"), move |t| {
                t.store(own, 1);
                t.load(Reg(0), next);
                t.set(Reg(0), 0);
            });
        }
        let p = b.build();
        let with = Dpor::default().explore(&p, &config(100_000));
        let without = explore_dpor(&p, &config(100_000), false, DependenceMode::Regular);
        // Sleep sets prune only redundant schedules: every state and class
        // is kept.
        assert_eq!(with.unique_states, without.unique_states);
        assert_eq!(with.unique_hbrs, without.unique_hbrs);
        assert_eq!(with.schedules, with.unique_hbrs);
        assert!(
            with.schedules < without.schedules,
            "sleep sets must reduce schedules here: {} vs {}",
            with.schedules,
            without.schedules
        );
    }

    #[test]
    fn figure1_program_needs_two_schedules_regular_dpor() {
        // The paper's Figure 1: DPOR with the regular HBR needs one
        // schedule per lock order (2 classes), even though both reach the
        // same state.
        let mut b = ProgramBuilder::new("figure1");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        let z = b.var("z", 0);
        let m = b.mutex("m");
        b.thread("T1", |t| {
            t.lock(m);
            t.load(Reg(0), x);
            t.unlock(m);
            t.store(y, Reg(0));
        });
        b.thread("T2", |t| {
            t.store(z, 1);
            t.lock(m);
            t.load(Reg(0), x);
            t.unlock(m);
        });
        let p = b.build();
        let dpor = Dpor::default().explore(&p, &config(10_000));
        assert_eq!(dpor.unique_hbrs, 2, "two lock orders, two HBRs");
        assert_eq!(dpor.unique_lazy_hbrs, 1, "one lazy class (paper §2)");
        assert_eq!(dpor.unique_states, 1);
        assert!(dpor.schedules >= 2);
        dpor.check_inequality().unwrap();
    }

    #[test]
    fn blocked_acquisition_race_is_detected() {
        // Regression: AB-BA locking with NON-commuting critical sections.
        // The T1-first class is reachable only by reversing the lk0
        // acquisition, and the only trace exhibiting that race has T1
        // *blocked* on lk0 (the deadlock leaf). Append-only race detection
        // misses it; the pending-acquisition check must find it.
        let mut b = ProgramBuilder::new("abba-noncommute");
        let l0 = b.mutex("l0");
        let l1 = b.mutex("l1");
        let x = b.var("x", 1);
        b.thread("T0", |t| {
            t.lock(l0);
            t.lock(l1);
            t.load(Reg(0), x);
            t.add(Reg(0), Reg(0), 1);
            t.store(x, Reg(0));
            t.unlock(l1);
            t.unlock(l0);
            t.set(Reg(0), 0);
        });
        b.thread("T1", |t| {
            t.lock(l1);
            t.lock(l0);
            t.load(Reg(0), x);
            t.mul(Reg(0), Reg(0), 10);
            t.store(x, Reg(0));
            t.unlock(l0);
            t.unlock(l1);
            t.set(Reg(0), 0);
        });
        let p = b.build();
        let (dpor, dfs) = assert_agrees_with_dfs(&p, 100_000);
        // x ∈ {20, 11} plus the deadlock state.
        assert_eq!(dfs.unique_states, 3);
        assert_eq!(dpor.unique_states, 3);
        assert!(dpor.deadlocks > 0);
    }

    #[test]
    fn race_detection_examines_only_dependence_candidates() {
        // Four threads, each writing its private variable twice. A
        // full-trace race scan would compare every new event against every
        // earlier one — 0+1+…+7 = 28 candidate pairs over the single
        // schedule. The indexed detector only consults the per-variable
        // access lists: one candidate per second write (the thread's own
        // first write, then discarded by the program-order check), four in
        // total. The program is mutex-free, so the blocked-acquisition
        // pass contributes nothing (it is skipped outright).
        let mut b = ProgramBuilder::new("disjoint");
        let vars: Vec<_> = (0..4).map(|i| b.var(format!("v{i}"), 0)).collect();
        for (i, &v) in vars.iter().enumerate() {
            b.thread(format!("T{i}"), move |t| {
                t.store(v, 1);
                t.store(v, 2);
            });
        }
        let p = b.build();
        let stats = Dpor::default().explore(&p, &config(10_000));
        assert_eq!(stats.schedules, 1, "independent writes need no reversal");
        assert_eq!(stats.events, 8);
        assert_eq!(
            stats.events_compared, 4,
            "only per-variable candidates may be examined (full scan: 28)"
        );

        // With genuine conflicts the counter must be live.
        let mut b = ProgramBuilder::new("shared");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(x, 2));
        let stats = Dpor::default().explore(&b.build(), &config(10_000));
        assert!(stats.events_compared > 0);
    }

    #[test]
    fn frame_pool_reuses_bodies_in_steady_state() {
        // Every schedule beyond the first pushes frames into body slots
        // an earlier descent allocated: slot reuses grow with the
        // exploration, and there is never more than one slot per depth.
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        for i in 0..3 {
            b.thread(format!("T{i}"), |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0);
            });
        }
        let p = b.build();
        let stats = Dpor::default().explore(&p, &config(100_000));
        assert!(stats.schedules > 10);
        // One slot is filled per tree *edge* (shared prefixes step once,
        // so edges are fewer than `stats.events`, which re-counts prefixes
        // per schedule); slots are allocated only along the first
        // full-depth descent. Each schedule contributes at least its leaf
        // edge plus an unshared suffix, so slot reuses must comfortably
        // dominate the schedule count.
        assert!(
            stats.frames_pooled >= 2 * stats.schedules as u64,
            "steady-state frames must reuse slots: {} pooled, {} schedules",
            stats.frames_pooled,
            stats.schedules
        );
    }

    #[test]
    fn schedule_limit_respected() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        for i in 0..4 {
            b.thread(format!("T{i}"), |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0); // normalise registers out of the state
            });
        }
        let p = b.build();
        let stats = Dpor::default().explore(&p, &config(7));
        assert_eq!(stats.schedules, 7);
        assert!(stats.limit_hit);
    }

    #[test]
    fn checkpoint_resume_reaches_identical_stats() {
        use crate::session::{CancelToken, ExploreControl, Observer};
        use std::sync::{Arc, Mutex};

        /// Captures checkpoints and cancels the run after `after` of them —
        /// the in-process stand-in for a crash.
        struct Capture {
            cancel: CancelToken,
            after: usize,
            seen: Mutex<Vec<CheckpointState>>,
        }
        impl Observer for Capture {
            fn on_checkpoint(&self, cp: &CheckpointState) {
                let mut seen = self.seen.lock().unwrap();
                seen.push(cp.clone());
                if seen.len() >= self.after {
                    self.cancel.cancel();
                }
            }
        }

        let mut b = ProgramBuilder::new("deep");
        let x = b.var("x", 0);
        for i in 0..4 {
            b.thread(format!("T{i}"), |t| {
                t.load(Reg(0), x);
                t.add(Reg(0), Reg(0), 1);
                t.store(x, Reg(0));
                t.set(Reg(0), 0);
            });
        }
        let p = b.build();

        // Both engines: sleep-set DPOR and the sleep-free lazy prototype.
        let engines: [&dyn Explorer; 2] = [&Dpor::default(), &LazyDpor];
        for dpor in engines {
            let name = dpor.name();
            let full = dpor.explore(&p, &config(100_000));
            assert!(full.schedules > 40, "program too shallow for the test");

            let cancel = CancelToken::new();
            let capture = Arc::new(Capture {
                cancel: cancel.clone(),
                after: 3,
                seen: Mutex::new(Vec::new()),
            });
            let interrupted = dpor.explore(
                &p,
                &config(100_000)
                    .checkpointing_every(5)
                    .controlled(ExploreControl::new(cancel, None, vec![capture.clone()], 0)),
            );
            assert!(interrupted.cancelled, "capture observer must cancel");
            let cp = Arc::new(capture.seen.lock().unwrap().last().unwrap().clone());
            assert!(cp.stats.schedules < full.schedules);
            cp.validate().unwrap();

            let resumed = dpor.explore(&p, &config(100_000).resuming_from(cp));
            assert_eq!(resumed.schedules, full.schedules, "{name}");
            assert_eq!(resumed.events, full.events, "{name}");
            assert_eq!(resumed.unique_states, full.unique_states);
            assert_eq!(resumed.unique_hbrs, full.unique_hbrs);
            assert_eq!(resumed.unique_lazy_hbrs, full.unique_lazy_hbrs);
            assert_eq!(resumed.max_depth, full.max_depth);
            assert_eq!(resumed.deadlocks, full.deadlocks);
            assert_eq!(resumed.faulted_schedules, full.faulted_schedules);
            assert_eq!(resumed.sleep_prunes, full.sleep_prunes, "{name}");
            assert_eq!(resumed.events_compared, full.events_compared, "{name}");
            // Exact, not approximate: the checkpoint's `pool_free` spare
            // slots make even the slot-reuse count resumable.
            assert_eq!(resumed.frames_pooled, full.frames_pooled, "{name}");
            assert!(!resumed.limit_hit && !resumed.cancelled);
        }
    }

    #[test]
    #[should_panic(expected = "pool_free")]
    fn resume_refuses_more_spare_slots_than_a_run_can_hold() {
        use crate::session::{CancelToken, ExploreControl, Observer};
        use std::sync::{Arc, Mutex};

        struct Last(Mutex<Option<CheckpointState>>);
        impl Observer for Last {
            fn on_checkpoint(&self, cp: &CheckpointState) {
                *self.0.lock().unwrap() = Some(cp.clone());
            }
        }
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        for i in 0..3 {
            b.thread(format!("T{i}"), |t| {
                t.load(Reg(0), x);
                t.store(x, Reg(0));
            });
        }
        let p = b.build();
        let last = Arc::new(Last(Mutex::new(None)));
        let mut cfg = config(100_000)
            .checkpointing_every(2)
            .controlled(ExploreControl::new(
                CancelToken::new(),
                None,
                vec![last.clone()],
                0,
            ));
        cfg.max_run_length = 50;
        Dpor::default().explore(&p, &cfg);
        let mut cp = last.0.lock().unwrap().take().expect("a checkpoint");
        // 50 events + 3 threads + 1 bodies at most; ask for 1,000 spares.
        cp.pool_free = 1_000;
        let mut resume = config(100_000).resuming_from(Arc::new(cp));
        resume.max_run_length = 50;
        Dpor::default().explore(&p, &resume);
    }

    #[test]
    fn checkpointing_disabled_produces_no_callbacks() {
        use crate::session::{CancelToken, ExploreControl, Observer};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct Count(AtomicUsize);
        impl Observer for Count {
            fn on_checkpoint(&self, _: &CheckpointState) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        b.thread("T2", |t| t.store(x, 2));
        let p = b.build();
        let count = Arc::new(Count(AtomicUsize::new(0)));
        let cfg = config(10_000).controlled(ExploreControl::new(
            CancelToken::new(),
            None,
            vec![count.clone()],
            0,
        ));
        Dpor::default().explore(&p, &cfg);
        assert_eq!(count.0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn empty_program_has_one_schedule() {
        let mut b = ProgramBuilder::new("p");
        b.thread("T", |_| {});
        let p = b.build();
        let stats = Dpor::default().explore(&p, &config(10));
        assert_eq!(stats.schedules, 1);
        assert_eq!(stats.unique_states, 1);
    }
}
