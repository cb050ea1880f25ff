//! The [`Program`] container and its validation pass.

use crate::error::ValidateError;
use crate::ids::{MutexId, ThreadId, Value, VarId};
use crate::instr::{Instr, Operand};
use std::collections::HashSet;
use std::fmt;

/// Number of thread-private registers available to each thread.
pub const MAX_REGS: usize = 32;

/// Maximum number of threads a program may declare. Exploration cost is
/// exponential in practice, so this is generous. Tied to the
/// [`ThreadSet`](crate::ThreadSet) bitmask capacity: validation at this
/// bound is what lets every runtime thread-set operation stay a single
/// `u64` with no overflow path.
pub const MAX_THREADS: usize = crate::ThreadSet::MAX_THREADS;

/// Declaration of a shared variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarDecl {
    /// Human-readable name (unique within the program).
    pub name: String,
    /// Initial value at the start of every execution.
    pub init: Value,
}

/// Declaration of a mutex. Mutexes are non-reentrant and initially free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutexDecl {
    /// Human-readable name (unique within the program).
    pub name: String,
}

/// One guest thread: a name and straight-line-with-jumps code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadDef {
    /// Human-readable name (unique within the program).
    pub name: String,
    /// The thread's instructions; control flow targets index into this list.
    pub code: Vec<Instr>,
}

impl ThreadDef {
    /// Number of visible operations on the longest straight-line path, used
    /// as a rough size metric by reports. Counts visible instructions
    /// statically (loops may execute them many times).
    pub fn visible_instruction_count(&self) -> usize {
        self.code.iter().filter(|i| i.is_visible()).count()
    }
}

/// A complete guest program: declarations plus one code body per thread.
///
/// Construct with [`ProgramBuilder`](crate::ProgramBuilder) or
/// [`Program::parse`], or assemble the fields manually and call
/// [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    vars: Vec<VarDecl>,
    mutexes: Vec<MutexDecl>,
    threads: Vec<ThreadDef>,
}

impl Program {
    /// Assembles a program from parts and validates it.
    pub fn new(
        name: impl Into<String>,
        vars: Vec<VarDecl>,
        mutexes: Vec<MutexDecl>,
        threads: Vec<ThreadDef>,
    ) -> Result<Self, ValidateError> {
        let p = Program {
            name: name.into(),
            vars,
            mutexes,
            threads,
        };
        p.validate()?;
        Ok(p)
    }

    /// Parses the text format; see the [`parse`](crate::parse) module for
    /// the grammar.
    pub fn parse(source: &str) -> Result<Self, crate::ParseError> {
        crate::parse::parse_program(source)
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared-variable declarations, indexed by [`VarId`].
    pub fn vars(&self) -> &[VarDecl] {
        &self.vars
    }

    /// Mutex declarations, indexed by [`MutexId`].
    pub fn mutexes(&self) -> &[MutexDecl] {
        &self.mutexes
    }

    /// Thread definitions, indexed by [`ThreadId`].
    pub fn threads(&self) -> &[ThreadDef] {
        &self.threads
    }

    /// Number of threads.
    #[inline]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Iterator over all thread ids.
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> {
        (0..self.threads.len()).map(ThreadId::from_index)
    }

    /// Looks up a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(VarId::from_index)
    }

    /// Looks up a mutex by name.
    pub fn mutex_by_name(&self, name: &str) -> Option<MutexId> {
        self.mutexes
            .iter()
            .position(|m| m.name == name)
            .map(MutexId::from_index)
    }

    /// Looks up a thread by name.
    pub fn thread_by_name(&self, name: &str) -> Option<ThreadId> {
        self.threads
            .iter()
            .position(|t| t.name == name)
            .map(ThreadId::from_index)
    }

    /// Total number of instructions across all threads.
    pub fn instruction_count(&self) -> usize {
        self.threads.iter().map(|t| t.code.len()).sum()
    }

    /// Static count of visible instructions across all threads — an upper
    /// bound on trace length only for loop-free programs.
    pub fn visible_instruction_count(&self) -> usize {
        self.threads
            .iter()
            .map(|t| t.visible_instruction_count())
            .sum()
    }

    /// Renders the program in the text format accepted by
    /// [`Program::parse`].
    pub fn to_source(&self) -> String {
        crate::pretty::program_to_source(self)
    }

    /// The canonical byte encoding of this program, used as the substrate
    /// for program fingerprinting (trace artifacts key their validity on
    /// it).
    ///
    /// The encoding is the pretty-printed source form, which is canonical:
    /// the printer is deterministic, prints every structural field, and
    /// `parse ∘ to_source` is the structural identity (asserted by the
    /// `pretty` module's tests). Consequently two programs have the
    /// same canonical bytes **iff** they are structurally equal, and a
    /// program survives a print → parse round trip with its canonical
    /// bytes — hence its fingerprint — intact.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.to_source().into_bytes()
    }

    /// Checks structural well-formedness: jump targets in range, registers
    /// within [`MAX_REGS`], variable/mutex references declared, names
    /// unique and representable in the text format, at least one thread.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.threads.is_empty() {
            return Err(ValidateError::NoThreads);
        }
        if self.threads.len() > MAX_THREADS {
            return Err(ValidateError::TooManyThreads {
                count: self.threads.len(),
                max: MAX_THREADS,
            });
        }

        // Name discipline mirrors the parser exactly: what validates here
        // is what `to_source` can print and `parse` will read back — the
        // round trip trace artifacts and the fuzz generator rely on.
        if !is_valid_program_name(&self.name) {
            return Err(ValidateError::BadName {
                kind: "program",
                name: self.name.clone(),
            });
        }
        let mut names = HashSet::new();
        for (kind, name) in self
            .vars
            .iter()
            .map(|v| ("var", &v.name))
            .chain(self.mutexes.iter().map(|m| ("mutex", &m.name)))
            .chain(self.threads.iter().map(|t| ("thread", &t.name)))
        {
            if !is_valid_ident(name) {
                return Err(ValidateError::BadName {
                    kind,
                    name: name.clone(),
                });
            }
            if !names.insert(name.as_str()) {
                return Err(ValidateError::DuplicateName { name: name.clone() });
            }
        }

        for (tix, thread) in self.threads.iter().enumerate() {
            for (pc, instr) in thread.code.iter().enumerate() {
                self.validate_instr(tix, pc, instr, thread.code.len())?;
            }
        }
        Ok(())
    }

    fn validate_instr(
        &self,
        thread: usize,
        pc: usize,
        instr: &Instr,
        code_len: usize,
    ) -> Result<(), ValidateError> {
        let check_reg = |reg: crate::Reg| -> Result<(), ValidateError> {
            if reg.index() >= MAX_REGS {
                Err(ValidateError::BadRegister {
                    thread,
                    pc,
                    reg: reg.0,
                })
            } else {
                Ok(())
            }
        };
        let check_operand = |op: Operand| -> Result<(), ValidateError> {
            match op {
                Operand::Reg(r) => check_reg(r),
                Operand::Const(_) => Ok(()),
            }
        };
        let check_var = |var: VarId| -> Result<(), ValidateError> {
            if var.index() >= self.vars.len() {
                Err(ValidateError::BadVar {
                    thread,
                    pc,
                    var: var.0,
                })
            } else {
                Ok(())
            }
        };
        let check_mutex = |mutex: MutexId| -> Result<(), ValidateError> {
            if mutex.index() >= self.mutexes.len() {
                Err(ValidateError::BadMutex {
                    thread,
                    pc,
                    mutex: mutex.0,
                })
            } else {
                Ok(())
            }
        };
        let check_target = |target: usize| -> Result<(), ValidateError> {
            // A target equal to code_len is allowed: it means "jump to end"
            // (thread termination), which the builder uses for forward exits.
            if target > code_len {
                Err(ValidateError::BadJumpTarget { thread, pc, target })
            } else {
                Ok(())
            }
        };

        match instr {
            Instr::Load { dst, var } => {
                check_reg(*dst)?;
                check_var(*var)
            }
            Instr::Store { var, src } => {
                check_var(*var)?;
                check_operand(*src)
            }
            Instr::Lock(m) | Instr::Unlock(m) => check_mutex(*m),
            Instr::Set { dst, src } => {
                check_reg(*dst)?;
                check_operand(*src)
            }
            Instr::Bin { dst, lhs, rhs, .. } => {
                check_reg(*dst)?;
                check_operand(*lhs)?;
                check_operand(*rhs)
            }
            Instr::Un { dst, src, .. } => {
                check_reg(*dst)?;
                check_operand(*src)
            }
            Instr::Jump { target } => check_target(*target),
            Instr::Branch { cond, target, .. } => {
                check_operand(*cond)?;
                check_target(*target)
            }
            Instr::Assert { cond, .. } => check_operand(*cond),
            Instr::Nop => Ok(()),
        }
    }
}

/// Is `s` an identifier the text format accepts for variable, mutex and
/// thread names? The rule is the parser's: `[A-Za-z_][A-Za-z0-9_]*`.
pub fn is_valid_ident(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        _ => false,
    }
}

/// Is `s` a program name the text format can carry? Program names are a
/// single token on the `program` line, so any non-empty run of printable
/// ASCII works as long as it contains no whitespace, no `#` (the comment
/// marker) and no `"` (the string-literal delimiter the comment stripper
/// honours). Benchmark names such as `paper-figure1` remain valid.
pub fn is_valid_program_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_graphic() && c != '#' && c != '"')
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Reg;

    fn thread(name: &str, code: Vec<Instr>) -> ThreadDef {
        ThreadDef {
            name: name.to_string(),
            code,
        }
    }

    fn var(name: &str, init: Value) -> VarDecl {
        VarDecl {
            name: name.to_string(),
            init,
        }
    }

    #[test]
    fn empty_thread_list_rejected() {
        let err = Program::new("p", vec![], vec![], vec![]).unwrap_err();
        assert_eq!(err, ValidateError::NoThreads);
    }

    #[test]
    fn minimal_program_validates() {
        let p = Program::new("p", vec![], vec![], vec![thread("T", vec![Instr::Nop])]).unwrap();
        assert_eq!(p.thread_count(), 1);
        assert_eq!(p.instruction_count(), 1);
        assert_eq!(p.visible_instruction_count(), 0);
    }

    #[test]
    fn undeclared_variable_rejected() {
        let err = Program::new(
            "p",
            vec![],
            vec![],
            vec![thread(
                "T",
                vec![Instr::Load {
                    dst: Reg(0),
                    var: VarId(0),
                }],
            )],
        )
        .unwrap_err();
        assert!(matches!(err, ValidateError::BadVar { var: 0, .. }));
    }

    #[test]
    fn undeclared_mutex_rejected() {
        let err = Program::new(
            "p",
            vec![],
            vec![],
            vec![thread("T", vec![Instr::Lock(MutexId(3))])],
        )
        .unwrap_err();
        assert!(matches!(err, ValidateError::BadMutex { mutex: 3, .. }));
    }

    #[test]
    fn jump_past_end_rejected_but_to_end_allowed() {
        // Target == len is "jump to end": fine.
        let ok = Program::new(
            "p",
            vec![],
            vec![],
            vec![thread("T", vec![Instr::Jump { target: 1 }])],
        );
        assert!(ok.is_ok());
        // Target > len: rejected.
        let err = Program::new(
            "p",
            vec![],
            vec![],
            vec![thread("T", vec![Instr::Jump { target: 2 }])],
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ValidateError::BadJumpTarget { target: 2, .. }
        ));
    }

    #[test]
    fn register_out_of_range_rejected() {
        let err = Program::new(
            "p",
            vec![var("x", 0)],
            vec![],
            vec![thread(
                "T",
                vec![Instr::Load {
                    dst: Reg(MAX_REGS as u8),
                    var: VarId(0),
                }],
            )],
        )
        .unwrap_err();
        assert!(matches!(err, ValidateError::BadRegister { .. }));
    }

    #[test]
    fn duplicate_names_rejected_across_namespaces() {
        let err = Program::new(
            "p",
            vec![var("x", 0)],
            vec![MutexDecl {
                name: "x".to_string(),
            }],
            vec![thread("T", vec![Instr::Nop])],
        )
        .unwrap_err();
        assert!(matches!(err, ValidateError::DuplicateName { .. }));
    }

    #[test]
    fn name_lookups() {
        let p = Program::new(
            "p",
            vec![var("x", 1), var("y", 2)],
            vec![MutexDecl {
                name: "m".to_string(),
            }],
            vec![thread("T0", vec![Instr::Nop]), thread("T1", vec![])],
        )
        .unwrap();
        assert_eq!(p.var_by_name("y"), Some(VarId(1)));
        assert_eq!(p.var_by_name("z"), None);
        assert_eq!(p.mutex_by_name("m"), Some(MutexId(0)));
        assert_eq!(p.thread_by_name("T1"), Some(ThreadId(1)));
        assert_eq!(p.thread_ids().count(), 2);
    }

    #[test]
    fn canonical_bytes_survive_source_round_trip() {
        let p = Program::new(
            "canon",
            vec![var("x", 3)],
            vec![MutexDecl {
                name: "m".to_string(),
            }],
            vec![thread(
                "T",
                vec![
                    Instr::Lock(MutexId(0)),
                    Instr::Store {
                        var: VarId(0),
                        src: Operand::Const(7),
                    },
                    Instr::Unlock(MutexId(0)),
                ],
            )],
        )
        .unwrap();
        let reparsed = Program::parse(&p.to_source()).unwrap();
        assert_eq!(p.canonical_bytes(), reparsed.canonical_bytes());

        // Any structural change perturbs the canonical bytes.
        let renamed = Program::new(
            "canon2",
            p.vars().to_vec(),
            p.mutexes().to_vec(),
            p.threads().to_vec(),
        )
        .unwrap();
        assert_ne!(p.canonical_bytes(), renamed.canonical_bytes());
    }

    #[test]
    fn operand_register_checked_in_all_instruction_forms() {
        let bad = Operand::Reg(Reg(200));
        let cases: Vec<Instr> = vec![
            Instr::Store {
                var: VarId(0),
                src: bad,
            },
            Instr::Set {
                dst: Reg(0),
                src: bad,
            },
            Instr::Bin {
                dst: Reg(0),
                op: crate::BinOp::Add,
                lhs: bad,
                rhs: Operand::Const(0),
            },
            Instr::Un {
                dst: Reg(0),
                op: crate::UnOp::Neg,
                src: bad,
            },
            Instr::Branch {
                cond: bad,
                target: 0,
                when_zero: false,
            },
            Instr::Assert {
                cond: bad,
                msg: String::new(),
            },
        ];
        for instr in cases {
            let err = Program::new(
                "p",
                vec![var("x", 0)],
                vec![],
                vec![thread("T", vec![instr.clone()])],
            )
            .unwrap_err();
            assert!(
                matches!(err, ValidateError::BadRegister { .. }),
                "{instr:?} should be rejected"
            );
        }
    }
}
