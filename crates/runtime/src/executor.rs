//! The [`Executor`]: stepwise controlled execution of a guest program.

use crate::event::{Event, EventId};
use crate::state::StateSnapshot;
use lazylocks_model::{
    Instr, MutexId, Operand, Program, Reg, ThreadId, ThreadSet, Value, VisibleKind,
};
use std::fmt;

/// Safety valve: maximum local (invisible) instructions executed in one
/// stretch before the thread is failed with
/// [`FaultKind::LocalStepBudget`]. Guards against invisible infinite loops
/// (`top: jump top`), which would otherwise hang the interpreter without
/// the scheduler ever regaining control.
pub const LOCAL_STEP_BUDGET: usize = 65_536;

/// Scheduling status of one guest thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadStatus {
    /// Has more instructions to run (though it may currently be *disabled*
    /// if its next operation is a `lock` on a held mutex).
    Runnable,
    /// Ran to the end of its code.
    Finished,
    /// Stopped by a fault (failed assertion, unlock-without-hold, local
    /// step budget).
    Failed,
}

impl ThreadStatus {
    fn discriminant(self) -> u8 {
        match self {
            ThreadStatus::Runnable => 0,
            ThreadStatus::Finished => 1,
            ThreadStatus::Failed => 2,
        }
    }
}

/// Why a thread was failed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `assert` with a zero condition.
    AssertFailed {
        /// The assertion's message.
        msg: String,
    },
    /// `unlock m` while not owning `m`.
    UnlockNotHeld {
        /// The mutex that was not held.
        mutex: MutexId,
    },
    /// More than [`LOCAL_STEP_BUDGET`] invisible instructions without a
    /// visible operation.
    LocalStepBudget,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::AssertFailed { msg } => write!(f, "assertion failed: {msg}"),
            FaultKind::UnlockNotHeld { mutex } => {
                write!(f, "unlocked {mutex} without holding it")
            }
            FaultKind::LocalStepBudget => write!(f, "local step budget exhausted"),
        }
    }
}

/// A fault that stopped a thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulting thread.
    pub thread: ThreadId,
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// What went wrong.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at pc {}: {}", self.thread, self.pc, self.kind)
    }
}

/// Result of one [`Executor::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// The visible operation performed, if the step got that far. `None`
    /// only when the visible instruction itself faulted
    /// (unlock-without-hold).
    pub event: Option<Event>,
    /// A fault raised by this step — either by the visible instruction or
    /// by the invisible instructions that ran immediately after it.
    pub fault: Option<Fault>,
}

/// Overall phase of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecPhase {
    /// At least one thread is enabled.
    Running,
    /// Every thread is finished or failed.
    Done,
    /// No thread is enabled but at least one is runnable: every runnable
    /// thread is blocked on a lock. The classic deadlock.
    Deadlock {
        /// The blocked threads and the mutexes they wait on.
        waiting: Vec<(ThreadId, MutexId)>,
    },
}

/// Per-thread control state. Registers live in the executor's flat
/// register file (`Executor::regs`), located by `reg_base`/`reg_len`, so
/// cloning an executor copies a fixed number of flat vectors instead of
/// one heap allocation per thread — the executor clone is the single most
/// frequent operation of snapshot-based exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    pc: usize,
    status: ThreadStatus,
    reg_base: u32,
    reg_len: u32,
}

/// Stepwise interpreter for one execution of a program.
///
/// The executor maintains the invariant that every runnable thread's `pc`
/// rests on a *visible* instruction (invisible instructions are run eagerly
/// after initialisation and after every step). The scheduler — whoever calls
/// [`step`](Executor::step) — therefore always chooses between visible
/// operations, exactly the granularity of the paper's schedules.
///
/// Cloning an executor snapshots the machine; exploration engines clone at
/// every scheduling point and restore by dropping back to an earlier clone.
#[derive(Clone)]
pub struct Executor<'p> {
    program: &'p Program,
    shared: Vec<Value>,
    mutex_owner: Vec<Option<ThreadId>>,
    frames: Vec<Frame>,
    /// Flat register file of every thread, located by the frames'
    /// `reg_base`/`reg_len`.
    regs: Vec<Value>,
    /// Number of visible events each thread has performed.
    event_counts: Vec<u32>,
    /// Total visible events performed.
    events_total: u64,
    /// Faults raised so far, in order.
    faults: Vec<Fault>,
}

impl<'p> Executor<'p> {
    /// Starts a fresh execution: shared variables at their initial values,
    /// registers zeroed, every thread at its first visible instruction.
    pub fn new(program: &'p Program) -> Self {
        let mut reg_total = 0u32;
        let frames: Vec<Frame> = program
            .threads()
            .iter()
            .map(|t| {
                let reg_len = thread_reg_count(&t.code) as u32;
                let reg_base = reg_total;
                reg_total += reg_len;
                Frame {
                    pc: 0,
                    status: if t.code.is_empty() {
                        ThreadStatus::Finished
                    } else {
                        ThreadStatus::Runnable
                    },
                    reg_base,
                    reg_len,
                }
            })
            .collect();
        let mut exec = Executor {
            program,
            shared: program.vars().iter().map(|v| v.init).collect(),
            mutex_owner: vec![None; program.mutexes().len()],
            frames,
            regs: vec![0; reg_total as usize],
            event_counts: vec![0; program.thread_count()],
            events_total: 0,
            faults: Vec::new(),
        };
        for t in 0..exec.frames.len() {
            exec.advance_locals(ThreadId::from_index(t));
        }
        exec
    }

    /// The register slice of thread `tix`.
    #[inline]
    fn thread_regs(&self, tix: usize) -> &[Value] {
        let f = &self.frames[tix];
        &self.regs[f.reg_base as usize..(f.reg_base + f.reg_len) as usize]
    }

    /// One register of thread `tix`, writable.
    #[inline]
    fn reg_mut(&mut self, tix: usize, reg: usize) -> &mut Value {
        let f = &self.frames[tix];
        debug_assert!(reg < f.reg_len as usize);
        &mut self.regs[f.reg_base as usize + reg]
    }

    /// The program being executed.
    #[inline]
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Current status of `thread`.
    #[inline]
    pub fn status(&self, thread: ThreadId) -> ThreadStatus {
        self.frames[thread.index()].status
    }

    /// The next visible operation `thread` would perform, or `None` if the
    /// thread is finished or failed.
    pub fn next_visible(&self, thread: ThreadId) -> Option<VisibleKind> {
        let frame = &self.frames[thread.index()];
        if frame.status != ThreadStatus::Runnable {
            return None;
        }
        let code = &self.program.threads()[thread.index()].code;
        debug_assert!(frame.pc < code.len(), "runnable thread parked off-code");
        code[frame.pc].visible_kind()
    }

    /// `true` if `thread` can take a step right now: it is runnable and its
    /// next operation is not a `lock` on a mutex someone (including itself)
    /// already holds.
    pub fn is_enabled(&self, thread: ThreadId) -> bool {
        match self.next_visible(thread) {
            Some(VisibleKind::Lock(m)) => self.mutex_owner[m.index()].is_none(),
            Some(_) => true,
            None => false,
        }
    }

    /// The enabled threads, in thread-id order.
    ///
    /// Allocates; exploration hot loops should prefer
    /// [`enabled_iter`](Self::enabled_iter) or
    /// [`enabled_set`](Self::enabled_set).
    pub fn enabled_threads(&self) -> Vec<ThreadId> {
        self.enabled_iter().collect()
    }

    /// Iterates the enabled threads in thread-id order without allocating.
    #[inline]
    pub fn enabled_iter(&self) -> impl Iterator<Item = ThreadId> + '_ {
        self.program.thread_ids().filter(|&t| self.is_enabled(t))
    }

    /// The enabled threads as an allocation-free bitmask set.
    ///
    /// # Panics
    /// Panics if the program declares more than
    /// [`ThreadSet::MAX_THREADS`] threads (no such program is explorable
    /// in practice).
    pub fn enabled_set(&self) -> ThreadSet {
        self.enabled_iter().collect()
    }

    /// Overall phase: running, done, or deadlocked.
    pub fn phase(&self) -> ExecPhase {
        if self.program.thread_ids().any(|t| self.is_enabled(t)) {
            return ExecPhase::Running;
        }
        let waiting: Vec<(ThreadId, MutexId)> = self
            .program
            .thread_ids()
            .filter_map(|t| match self.next_visible(t) {
                Some(VisibleKind::Lock(m)) => Some((t, m)),
                _ => None,
            })
            .collect();
        if waiting.is_empty() {
            ExecPhase::Done
        } else {
            ExecPhase::Deadlock { waiting }
        }
    }

    /// Faults raised so far.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Total visible events performed so far.
    #[inline]
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    /// Number of visible events `thread` has performed.
    #[inline]
    pub fn event_count(&self, thread: ThreadId) -> u32 {
        self.event_counts[thread.index()]
    }

    /// Current owner of `mutex`.
    #[inline]
    pub fn mutex_owner(&self, mutex: MutexId) -> Option<ThreadId> {
        self.mutex_owner[mutex.index()]
    }

    /// `true` if `thread` currently holds at least one mutex.
    pub fn holds_any_mutex(&self, thread: ThreadId) -> bool {
        self.mutex_owner.contains(&Some(thread))
    }

    /// Current value of a shared variable.
    #[inline]
    pub fn shared_value(&self, var: lazylocks_model::VarId) -> Value {
        self.shared[var.index()]
    }

    /// Executes one visible operation of `thread`, then runs its invisible
    /// instructions up to the next visible operation.
    ///
    /// # Panics
    /// Panics if `thread` is not enabled — schedulers must consult
    /// [`is_enabled`](Self::is_enabled) (or
    /// [`enabled_threads`](Self::enabled_threads)) first; calling with a
    /// blocked or finished
    /// thread is an exploration-engine bug, not a guest-program bug.
    pub fn step(&mut self, thread: ThreadId) -> StepOutcome {
        assert!(
            self.is_enabled(thread),
            "step() on non-enabled thread {thread}"
        );
        let tix = thread.index();
        let code = &self.program.threads()[tix].code;
        let pc = self.frames[tix].pc;
        let instr = &code[pc];

        let kind = match *instr {
            Instr::Load { dst, var } => {
                let v = self.shared[var.index()];
                *self.reg_mut(tix, dst.index()) = v;
                VisibleKind::Read(var)
            }
            Instr::Store { var, src } => {
                let v = self.eval(thread, src);
                self.shared[var.index()] = v;
                VisibleKind::Write(var)
            }
            Instr::Lock(m) => {
                debug_assert!(self.mutex_owner[m.index()].is_none());
                self.mutex_owner[m.index()] = Some(thread);
                VisibleKind::Lock(m)
            }
            Instr::Unlock(m) => {
                if self.mutex_owner[m.index()] != Some(thread) {
                    let fault = self.fail(thread, pc, FaultKind::UnlockNotHeld { mutex: m });
                    return StepOutcome {
                        event: None,
                        fault: Some(fault),
                    };
                }
                self.mutex_owner[m.index()] = None;
                VisibleKind::Unlock(m)
            }
            ref other => unreachable!("pc parked on invisible instruction {other:?}"),
        };

        let ordinal = self.event_counts[tix];
        self.event_counts[tix] += 1;
        self.events_total += 1;
        let event = Event {
            id: EventId { thread, ordinal },
            kind,
            pc: pc as u32,
        };
        self.frames[tix].pc += 1;
        let fault = self.advance_locals(thread);
        StepOutcome {
            event: Some(event),
            fault,
        }
    }

    /// Makes `self` an exact copy of `other` **in place**, reusing every
    /// buffer `self` already owns.
    ///
    /// Semantically identical to `*self = other.clone()` (asserted by the
    /// test suite), but allocation-free in the steady state: exploration
    /// engines reuse one executor body per stack depth, and two
    /// executors of the same program always have equal buffer sizes, so
    /// the per-step snapshot turns into a handful of `memcpy`s.
    pub fn assign_from(&mut self, other: &Executor<'p>) {
        self.program = other.program;
        self.shared.clone_from(&other.shared);
        self.mutex_owner.clone_from(&other.mutex_owner);
        self.frames.clone_from(&other.frames);
        self.regs.clone_from(&other.regs);
        self.event_counts.clone_from(&other.event_counts);
        self.events_total = other.events_total;
        self.faults.clone_from(&other.faults);
    }

    /// Captures the complete machine state.
    pub fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            shared: self.shared.clone(),
            regs: (0..self.frames.len())
                .map(|t| self.thread_regs(t).to_vec())
                .collect(),
            pcs: self.frames.iter().map(|f| f.pc as u32).collect(),
            statuses: self
                .frames
                .iter()
                .map(|f| f.status.discriminant())
                .collect(),
            mutex_owner: self.mutex_owner.clone(),
        }
    }

    /// The fingerprint of [`snapshot`](Self::snapshot), computed directly
    /// from the live machine state — no intermediate snapshot allocation.
    /// Identical to `self.snapshot().fingerprint()` byte for byte
    /// (asserted by the test suite); this is the per-terminal path of the
    /// exploration engines.
    pub fn state_fingerprint(&self) -> u128 {
        let mut h = crate::fingerprint::Fnv128::new();
        h.write_usize(self.shared.len());
        for &v in &self.shared {
            h.write_i64(v);
        }
        h.write_usize(self.frames.len());
        for t in 0..self.frames.len() {
            let regs = self.thread_regs(t);
            h.write_usize(regs.len());
            for &v in regs {
                h.write_i64(v);
            }
        }
        for f in &self.frames {
            h.write_u32(f.pc as u32);
        }
        for f in &self.frames {
            h.write(&[f.status.discriminant()]);
        }
        for owner in &self.mutex_owner {
            match owner {
                None => h.write(&[0xff, 0xff, 0xfe]),
                Some(t) => {
                    h.write(&[0x01]);
                    h.write(&t.0.to_le_bytes());
                }
            }
        }
        h.finish()
    }

    fn eval(&self, thread: ThreadId, op: Operand) -> Value {
        match op {
            Operand::Const(v) => v,
            Operand::Reg(r) => self.thread_regs(thread.index())[r.index()],
        }
    }

    fn fail(&mut self, thread: ThreadId, pc: usize, kind: FaultKind) -> Fault {
        self.frames[thread.index()].status = ThreadStatus::Failed;
        let fault = Fault {
            thread,
            pc: pc as u32,
            kind,
        };
        self.faults.push(fault.clone());
        fault
    }

    /// Runs invisible instructions of `thread` until its pc rests on a
    /// visible instruction, the thread finishes, or a fault occurs.
    fn advance_locals(&mut self, thread: ThreadId) -> Option<Fault> {
        let tix = thread.index();
        if self.frames[tix].status != ThreadStatus::Runnable {
            return None;
        }
        let code = &self.program.threads()[tix].code;
        let mut budget = LOCAL_STEP_BUDGET;
        loop {
            let pc = self.frames[tix].pc;
            if pc >= code.len() {
                self.frames[tix].status = ThreadStatus::Finished;
                return None;
            }
            let instr = &code[pc];
            if instr.is_visible() {
                return None;
            }
            if budget == 0 {
                return Some(self.fail(thread, pc, FaultKind::LocalStepBudget));
            }
            budget -= 1;
            match *instr {
                Instr::Set { dst, src } => {
                    let v = self.eval(thread, src);
                    *self.reg_mut(tix, dst.index()) = v;
                    self.frames[tix].pc += 1;
                }
                Instr::Bin { dst, op, lhs, rhs } => {
                    let v = op.apply(self.eval(thread, lhs), self.eval(thread, rhs));
                    *self.reg_mut(tix, dst.index()) = v;
                    self.frames[tix].pc += 1;
                }
                Instr::Un { dst, op, src } => {
                    let v = op.apply(self.eval(thread, src));
                    *self.reg_mut(tix, dst.index()) = v;
                    self.frames[tix].pc += 1;
                }
                Instr::Jump { target } => {
                    self.frames[tix].pc = target;
                }
                Instr::Branch {
                    cond,
                    target,
                    when_zero,
                } => {
                    let c = self.eval(thread, cond);
                    let taken = (c == 0) == when_zero;
                    if taken {
                        self.frames[tix].pc = target;
                    } else {
                        self.frames[tix].pc += 1;
                    }
                }
                Instr::Assert { cond, ref msg } => {
                    if self.eval(thread, cond) == 0 {
                        let msg = msg.clone();
                        return Some(self.fail(thread, pc, FaultKind::AssertFailed { msg }));
                    }
                    self.frames[tix].pc += 1;
                }
                Instr::Nop => {
                    self.frames[tix].pc += 1;
                }
                Instr::Load { .. } | Instr::Store { .. } | Instr::Lock(_) | Instr::Unlock(_) => {
                    unreachable!("visible instruction reached invisible loop")
                }
            }
        }
    }
}

/// One more than the highest register index referenced by `code`; the size
/// of the register file the executor allocates for the thread.
fn thread_reg_count(code: &[Instr]) -> usize {
    fn reg_width(r: Reg) -> usize {
        r.index() + 1
    }
    fn op_width(op: &Operand) -> usize {
        match op {
            Operand::Reg(r) => reg_width(*r),
            Operand::Const(_) => 0,
        }
    }
    code.iter()
        .map(|instr| match instr {
            Instr::Load { dst, .. } => reg_width(*dst),
            Instr::Store { src, .. } => op_width(src),
            Instr::Set { dst, src } => reg_width(*dst).max(op_width(src)),
            Instr::Bin { dst, lhs, rhs, .. } => {
                reg_width(*dst).max(op_width(lhs)).max(op_width(rhs))
            }
            Instr::Un { dst, src, .. } => reg_width(*dst).max(op_width(src)),
            Instr::Branch { cond, .. } => op_width(cond),
            Instr::Assert { cond, .. } => op_width(cond),
            Instr::Lock(_) | Instr::Unlock(_) | Instr::Jump { .. } | Instr::Nop => 0,
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::ProgramBuilder;

    fn t(i: u16) -> ThreadId {
        ThreadId(i)
    }

    #[test]
    fn threads_park_on_first_visible_instruction() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T", |tb| {
            tb.set(Reg(0), 5);
            tb.add(Reg(0), Reg(0), 2);
            tb.store(x, Reg(0));
        });
        let p = b.build();
        let exec = Executor::new(&p);
        // Local prefix already ran; pc rests on the store.
        assert_eq!(exec.next_visible(t(0)), Some(VisibleKind::Write(x)));
        assert_eq!(exec.snapshot().regs()[0][0], 7);
    }

    #[test]
    fn step_executes_visible_op_and_following_locals() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 3);
        let y = b.var("y", 0);
        b.thread("T", |tb| {
            tb.load(Reg(0), x);
            tb.mul(Reg(0), Reg(0), 10);
            tb.store(y, Reg(0));
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        let out = exec.step(t(0));
        let event = out.event.unwrap();
        assert_eq!(event.kind, VisibleKind::Read(x));
        assert_eq!(event.id.ordinal, 0);
        assert_eq!(event.pc, 0);
        // Multiplication already happened; next stop is the store.
        assert_eq!(exec.next_visible(t(0)), Some(VisibleKind::Write(y)));
        let out = exec.step(t(0));
        assert_eq!(out.event.unwrap().id.ordinal, 1);
        assert_eq!(exec.shared_value(y), 30);
        assert_eq!(exec.status(t(0)), ThreadStatus::Finished);
        assert_eq!(exec.phase(), ExecPhase::Done);
        assert_eq!(exec.events_total(), 2);
    }

    #[test]
    fn lock_blocks_and_unlock_releases() {
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex("m");
        b.thread("T1", |tb| {
            tb.lock(m);
            tb.unlock(m);
        });
        b.thread("T2", |tb| {
            tb.lock(m);
            tb.unlock(m);
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        assert!(exec.is_enabled(t(0)) && exec.is_enabled(t(1)));
        exec.step(t(0)); // T1 locks
        assert_eq!(exec.mutex_owner(m), Some(t(0)));
        assert!(!exec.is_enabled(t(1)), "T2 must block on held mutex");
        assert_eq!(exec.enabled_threads(), vec![t(0)]);
        exec.step(t(0)); // T1 unlocks
        assert!(exec.is_enabled(t(1)));
        exec.step(t(1));
        exec.step(t(1));
        assert_eq!(exec.phase(), ExecPhase::Done);
    }

    #[test]
    #[should_panic(expected = "non-enabled thread")]
    fn stepping_blocked_thread_panics() {
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex("m");
        b.thread("T1", |tb| tb.lock(m));
        b.thread("T2", |tb| tb.lock(m));
        let p = b.build();
        let mut exec = Executor::new(&p);
        exec.step(t(0));
        exec.step(t(1)); // blocked: panics
    }

    #[test]
    fn classic_ab_ba_deadlock_detected() {
        let mut b = ProgramBuilder::new("p");
        let a = b.mutex("a");
        let mb = b.mutex("b");
        b.thread("T1", |tb| {
            tb.lock(a);
            tb.lock(mb);
            tb.unlock(mb);
            tb.unlock(a);
        });
        b.thread("T2", |tb| {
            tb.lock(mb);
            tb.lock(a);
            tb.unlock(a);
            tb.unlock(mb);
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        exec.step(t(0)); // T1 locks a
        exec.step(t(1)); // T2 locks b
        match exec.phase() {
            ExecPhase::Deadlock { waiting } => {
                assert_eq!(waiting, vec![(t(0), mb), (t(1), a)]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn self_relock_is_deadlock_not_panic() {
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex("m");
        b.thread("T", |tb| {
            tb.lock(m);
            tb.lock(m); // non-reentrant: blocks on itself
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        exec.step(t(0));
        assert!(!exec.is_enabled(t(0)));
        assert!(matches!(exec.phase(), ExecPhase::Deadlock { .. }));
    }

    #[test]
    fn unlock_without_hold_faults_thread() {
        let mut b = ProgramBuilder::new("p");
        let m = b.mutex("m");
        b.thread("T", |tb| tb.unlock(m));
        let p = b.build();
        let mut exec = Executor::new(&p);
        let out = exec.step(t(0));
        assert!(out.event.is_none());
        let fault = out.fault.unwrap();
        assert_eq!(fault.kind, FaultKind::UnlockNotHeld { mutex: m });
        assert_eq!(exec.status(t(0)), ThreadStatus::Failed);
        assert_eq!(exec.faults().len(), 1);
        assert_eq!(exec.phase(), ExecPhase::Done);
    }

    #[test]
    fn failed_assertion_faults_thread_and_reports_message() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T", |tb| {
            tb.load(Reg(0), x);
            tb.assert_true(Reg(0), "x must be non-zero");
            tb.store(x, 99); // unreachable
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        let out = exec.step(t(0)); // the read; assert runs in local advance
        assert!(out.event.is_some());
        let fault = out.fault.unwrap();
        assert_eq!(
            fault.kind,
            FaultKind::AssertFailed {
                msg: "x must be non-zero".to_string()
            }
        );
        assert_eq!(exec.status(t(0)), ThreadStatus::Failed);
        assert_eq!(exec.shared_value(x), 0, "store after fault must not run");
    }

    #[test]
    fn passing_assertion_is_invisible() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 1);
        b.thread("T", |tb| {
            tb.load(Reg(0), x);
            tb.assert_true(Reg(0), "fine");
            tb.store(x, 2);
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        let out = exec.step(t(0));
        assert!(out.fault.is_none());
        exec.step(t(0));
        assert_eq!(exec.shared_value(x), 2);
    }

    #[test]
    fn invisible_infinite_loop_hits_local_budget() {
        let mut b = ProgramBuilder::new("p");
        b.thread("T", |tb| {
            let top = tb.here();
            tb.jump(top);
        });
        let p = b.build();
        let exec = Executor::new(&p);
        // The loop already ran at construction; the thread is failed.
        assert_eq!(exec.status(t(0)), ThreadStatus::Failed);
        assert_eq!(exec.faults()[0].kind, FaultKind::LocalStepBudget);
    }

    #[test]
    fn branch_directions_both_work() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        b.thread("T", |tb| {
            // if 1 goto skip_store_x
            let skip = tb.label();
            tb.branch_if(1, skip);
            tb.store(x, 1);
            tb.bind(skip);
            // ifz 1 goto skip_store_y (not taken)
            let skip2 = tb.label();
            tb.branch_if_zero(1, skip2);
            tb.store(y, 1);
            tb.bind(skip2);
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        while exec.is_enabled(t(0)) {
            exec.step(t(0));
        }
        assert_eq!(exec.shared_value(x), 0, "first branch skips the store");
        assert_eq!(exec.shared_value(y), 1, "second branch is not taken");
    }

    #[test]
    fn clone_snapshots_machine_state() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T", |tb| {
            tb.store(x, 1);
            tb.store(x, 2);
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        exec.step(t(0));
        let saved = exec.clone();
        exec.step(t(0));
        assert_eq!(exec.shared_value(x), 2);
        assert_eq!(saved.shared_value(x), 1);
        assert_eq!(saved.snapshot().pcs()[0], 1);
        // Resume from the clone.
        let mut resumed = saved;
        resumed.step(t(0));
        assert_eq!(resumed.snapshot(), exec.snapshot());
    }

    #[test]
    fn assign_from_matches_clone_at_every_step() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 3);
        let m = b.mutex("m");
        b.thread("T1", |tb| {
            tb.lock(m);
            tb.load(Reg(0), x);
            tb.add(Reg(0), Reg(0), 1);
            tb.store(x, Reg(0));
            tb.unlock(m);
        });
        b.thread("T2", |tb| {
            tb.lock(m);
            tb.store(x, 9);
            tb.unlock(m);
        });
        let p = b.build();
        let mut exec = Executor::new(&p);
        // A recycled body starts out at a *different* machine state.
        let mut recycled = Executor::new(&p);
        recycled.step(t(1));
        while let Some(next) = exec.enabled_set().first() {
            recycled.assign_from(&exec);
            assert_eq!(recycled.snapshot(), exec.snapshot());
            assert_eq!(recycled.state_fingerprint(), exec.state_fingerprint());
            exec.step(next);
        }
        // The assigned copy diverges independently, like a clone would.
        assert_ne!(recycled.snapshot(), exec.snapshot());
    }

    #[test]
    fn state_fingerprint_matches_snapshot_fingerprint() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 3);
        let m = b.mutex("m");
        b.thread("T1", |tb| {
            tb.lock(m);
            tb.load(Reg(0), x);
            tb.add(Reg(0), Reg(0), 1);
            tb.store(x, Reg(0));
            tb.unlock(m);
        });
        b.thread("T2", |tb| {
            tb.lock(m);
            tb.store(x, 9);
            tb.unlock(m);
        });
        b.thread("E", |_| {});
        let p = b.build();
        let mut exec = Executor::new(&p);
        assert_eq!(exec.state_fingerprint(), exec.snapshot().fingerprint());
        // Check at every step of one full schedule, including mid-critical
        // section (held mutex) and post-fault/finished states.
        while let Some(t) = exec.enabled_set().first() {
            exec.step(t);
            assert_eq!(exec.state_fingerprint(), exec.snapshot().fingerprint());
        }
    }

    #[test]
    fn empty_thread_is_finished_immediately() {
        let mut b = ProgramBuilder::new("p");
        b.thread("T", |_| {});
        let p = b.build();
        let exec = Executor::new(&p);
        assert_eq!(exec.status(t(0)), ThreadStatus::Finished);
        assert_eq!(exec.phase(), ExecPhase::Done);
    }

    #[test]
    fn reg_count_is_minimal() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T", |tb| tb.load(Reg(6), x));
        b.thread("S", |_| {});
        let p = b.build();
        let exec = Executor::new(&p);
        assert_eq!(exec.snapshot().regs()[0].len(), 7);
        assert_eq!(exec.snapshot().regs()[1].len(), 0);
    }

    #[test]
    fn event_ordinals_count_per_thread() {
        let mut b = ProgramBuilder::new("p");
        let x = b.var("x", 0);
        b.thread("T1", |tb| {
            tb.store(x, 1);
            tb.store(x, 2);
        });
        b.thread("T2", |tb| tb.store(x, 3));
        let p = b.build();
        let mut exec = Executor::new(&p);
        assert_eq!(exec.step(t(0)).event.unwrap().id.ordinal, 0);
        assert_eq!(exec.step(t(1)).event.unwrap().id.ordinal, 0);
        assert_eq!(exec.step(t(0)).event.unwrap().id.ordinal, 1);
        assert_eq!(exec.event_count(t(0)), 2);
        assert_eq!(exec.event_count(t(1)), 1);
    }
}
