//! # lazylocks — systematic concurrency testing with the lazy happens-before relation
//!
//! A Rust reproduction of *“The Lazy Happens-Before Relation: Better
//! Partial-Order Reduction for Systematic Concurrency Testing”* (Thomson &
//! Donaldson, PPoPP 2015), complete with every substrate the paper's
//! `LAZYLOCKS` tool relies on:
//!
//! * a guest-program model and deterministic controlled scheduler
//!   ([`lazylocks_model`], [`lazylocks_runtime`]);
//! * the regular / lazy / sync-only happens-before engines and their
//!   vector clocks ([`lazylocks_hbr`]);
//! * exploration strategies: exhaustive DFS, **DPOR** (Flanagan–Godefroid
//!   with sleep sets), **HBR caching** and **lazy HBR caching**
//!   (Musuvathi–Qadeer style), a prototype **lazy DPOR** (the paper's §4
//!   future work), random walks and CHESS-style iterative preemption
//!   bounding ([`explore`]);
//! * safety-property checkers: deadlocks, assertion failures, and a
//!   happens-before data-race detector ([`race`]);
//! * statistics matching the paper's evaluation: schedules, unique terminal
//!   states, unique terminal HBRs and lazy HBRs, with the §3 inequality
//!   `#states ≤ #lazy HBRs ≤ #HBRs ≤ #schedules` checked throughout.
//!
//! ## Quick start
//!
//! Explorations run through an [`ExploreSession`]: it owns a program plus
//! an [`ExploreConfig`], takes strategies as **spec strings**
//! (`dpor`, `caching(mode=lazy)`, `bounded(max=2)`, …),
//! supports [`Observer`] hooks, wall-clock deadlines and cooperative
//! cancellation, and returns a structured [`ExploreOutcome`]:
//!
//! ```
//! use lazylocks::{ExploreConfig, ExploreSession, Verdict};
//! use lazylocks_model::{ProgramBuilder, Reg};
//!
//! // The paper's Figure 1: two threads, a mutex, disjoint extra writes.
//! let mut b = ProgramBuilder::new("figure1");
//! let x = b.var("x", 0);
//! let y = b.var("y", 0);
//! let z = b.var("z", 0);
//! let m = b.mutex("m");
//! b.thread("T1", |t| {
//!     t.lock(m);
//!     t.load(Reg(0), x);
//!     t.unlock(m);
//!     t.store(y, Reg(0));
//! });
//! b.thread("T2", |t| {
//!     t.store(z, 1);
//!     t.lock(m);
//!     t.load(Reg(0), x);
//!     t.unlock(m);
//! });
//! let program = b.build();
//!
//! let session = ExploreSession::new(&program)
//!     .with_config(ExploreConfig::with_limit(10_000));
//!
//! // DPOR distinguishes the two lock orders (two regular HBR classes)...
//! let outcome = session.run_spec("dpor").unwrap();
//! assert_eq!(outcome.verdict, Verdict::Clean);
//! assert_eq!(outcome.stats.unique_hbrs, 2);       // two lock orders
//! assert_eq!(outcome.stats.unique_lazy_hbrs, 1);  // ...but a single lazy class
//! assert_eq!(outcome.stats.unique_states, 1);     // ...reaching a single state
//!
//! // ...while lazy HBR caching needs a single schedule for this program.
//! let outcome = session.run_spec("caching(mode=lazy)").unwrap();
//! assert_eq!(outcome.stats.schedules, 1);
//! ```
//!
//! Strategies can also be constructed and run directly through the
//! [`Explorer`] trait; [`registry::create`] builds the one a spec names:
//!
//! ```
//! use lazylocks::{DependenceMode, Dpor, ExploreConfig, Explorer};
//! # use lazylocks_model::ProgramBuilder;
//! # let mut b = ProgramBuilder::new("p");
//! # let x = b.var("x", 0);
//! # b.thread("T1", |t| t.store(x, 1));
//! # let program = b.build();
//!
//! let dpor = Dpor {
//!     dependence: DependenceMode::LazyLockAcquisitions,
//! };
//! let stats = dpor.explore(&program, &ExploreConfig::with_limit(100));
//! assert_eq!(stats.schedules, 1);
//! ```

mod bug;
pub mod checkpoint;
mod config;
pub mod explore;
mod minimize;
pub mod race;
pub mod registry;
pub mod rng;
mod session;
mod stats;

pub use bug::{BugKind, BugReport};
pub use checkpoint::{CheckpointState, FrameSets};
pub use config::{ExploreConfig, RunSetting};
pub use explore::{
    BoundedRun, DependenceMode, DfsEnumeration, Dpor, Explorer, HbrCaching, IterativeBounding,
    LazyDpor, RandomWalk,
};
pub use minimize::minimize_schedule;
pub use race::{detect_races, is_race_free, RaceReport};
pub use registry::{SpecError, StrategyRegistry};
pub use session::{
    CancelToken, ExploreControl, ExploreOutcome, ExploreSession, Observer, Progress, Verdict,
};
pub use stats::ExploreStats;

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use lazylocks_hbr as hbr;
pub use lazylocks_model as model;
pub use lazylocks_obs as obs;
pub use lazylocks_runtime as runtime;

/// [`hbr::VectorClock`] at the path the benchmark probe
/// (`lazybench/probe`) imports it from.
pub mod clock {
    pub use lazylocks_hbr::VectorClock;
}

// The metrics switch appears directly on [`ExploreConfig`], so surface
// its types at the crate root too.
pub use lazylocks_obs::{MetricsHandle, MetricsSnapshot, ProfileHandle, ProfileSnapshot};
