//! Hostile `.llk` input: programs no disciplined frontend would produce,
//! but which can now arrive over the network via `lazylocks-server`.
//!
//! The central regression here is the DPOR trace-index/frame-depth
//! mapping. A thread executing `unlock m` without holding `m` takes a
//! *no-event fault step*: the exploration pushes a stack frame with no
//! trace entry, after which trace indices and frame depths diverge.
//! Race handling used to treat trace indices as frame depths, landing
//! backtrack insertions one frame early — a no-op whenever the racing
//! thread was already in that frame's `done` set, silently dropping the
//! reversal. These tests pin full DFS parity on programs that start with
//! exactly such a fault.

use lazylocks::{DependenceMode, Dpor, ExploreConfig, Explorer};
use lazylocks_model::Program;

/// The minimal failing shape found by enumeration: a faulting thread
/// followed by two threads that each take the same lock twice. The four
/// critical sections admit six happens-before classes; the one-frame-early
/// insertions collapsed them to two (the racing thread was in `done` at
/// the mis-targeted frame, so the insertion was silently dropped).
const UNLOCK_FAULT_SHIFT: &str = "\
program unlock-fault-shift
var x = 0
mutex m
mutex l

thread F {
  unlock m
}

thread A {
  lock l
  store x = 1
  unlock l
  lock l
  store x = 1
  unlock l
}

thread B {
  lock l
  store x = 1
  unlock l
  r0 = load x
}
";

/// Same shape with the fault thread declared *between* the workers, so the
/// no-event frame appears mid-trace in backtracked subtrees too.
const FAULT_BETWEEN: &str = "\
program unlock-fault-between
var x = 0
mutex m
mutex l

thread A {
  lock l
  store x = 1
  unlock l
  lock l
  store x = 2
  unlock l
}

thread F {
  unlock m
}

thread B {
  lock l
  store x = 3
  unlock l
  lock l
  store x = 4
  unlock l
}
";

/// Two faulting threads: every later event's index is shifted two frames.
const DOUBLE_FAULT: &str = "\
program unlock-double-fault
var x = 0
mutex m
mutex l

thread F {
  unlock m
}

thread G {
  unlock m
}

thread A {
  lock l
  store x = 1
  unlock l
  lock l
  store x = 1
  unlock l
}

thread B {
  lock l
  store x = 1
  unlock l
  r0 = load x
}
";

fn assert_dfs_parity(source: &str) {
    let program = Program::parse(source).expect("hostile program still parses");
    let cfg = ExploreConfig::with_limit(1_000_000);
    let dfs = lazylocks::DfsEnumeration.explore(&program, &cfg);
    assert!(!dfs.limit_hit, "ground truth must be exhaustive");
    assert!(
        dfs.faulted_schedules > 0,
        "the program must actually exercise the no-event fault path"
    );

    let dpor = Dpor::default().explore(&program, &cfg);
    assert_eq!(
        dpor.unique_states,
        dfs.unique_states,
        "DPOR missed states on {}",
        program.name()
    );
    assert_eq!(
        dpor.unique_hbrs,
        dfs.unique_hbrs,
        "DPOR missed HBR classes on {}",
        program.name()
    );
    assert!(dpor.schedules <= dfs.schedules);
}

#[test]
fn unlock_fault_shift_keeps_dfs_parity() {
    assert_dfs_parity(UNLOCK_FAULT_SHIFT);
}

#[test]
fn fault_between_workers_keeps_dfs_parity() {
    assert_dfs_parity(FAULT_BETWEEN);
}

#[test]
fn double_fault_keeps_dfs_parity() {
    assert_dfs_parity(DOUBLE_FAULT);
}

#[test]
fn sleep_sets_keep_bug_parity_under_faults() {
    // Sleep-set DPOR on the lazy dependence holds bug parity: every fault
    // that DFS can reach is still reported. (Regular `dpor` is pinned to
    // full DFS parity by `assert_dfs_parity` above.)
    for source in [UNLOCK_FAULT_SHIFT, FAULT_BETWEEN, DOUBLE_FAULT] {
        let program = Program::parse(source).unwrap();
        let cfg = ExploreConfig::with_limit(1_000_000);
        let dfs = lazylocks::DfsEnumeration.explore(&program, &cfg);
        let sleep = Dpor {
            dependence: DependenceMode::LazyLockAcquisitions,
        }
        .explore(&program, &cfg);
        assert_eq!(
            sleep.faulted_schedules > 0,
            dfs.faulted_schedules > 0,
            "sleep-set lazy DPOR lost fault parity on {}",
            program.name()
        );
        assert!(sleep.schedules <= dfs.schedules);
    }
}
