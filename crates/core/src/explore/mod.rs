//! Exploration strategies for systematic concurrency testing.
//!
//! Every strategy explores the schedule tree of a program under a common
//! budget ([`ExploreConfig`]) and reports the same counters
//! ([`ExploreStats`]):
//!
//! | Strategy | Module | Reduction idea |
//! |----------|--------|----------------|
//! | [`DfsEnumeration`] | [`dfs`] | none (every schedule), optional preemption bound |
//! | [`Dpor`] | [`dpor`] | Flanagan–Godefroid dynamic partial-order reduction with clock vectors and sleep sets |
//! | [`HbrCaching`] | [`caching`] | Musuvathi–Qadeer prefix caching on the regular **or lazy** HBR fingerprint |
//! | [`LazyDpor`] | [`lazy_dpor`] | prototype of the paper's §4 future work: sleep-free DPOR driven by lazy dependence |
//! | [`RandomWalk`] | [`random`] | uniform random schedules (no reduction; baseline) |
//! | [`IterativeBounding`] | [`bounded`] | CHESS-style waves of increasing preemption budget over the caching explorer |

pub mod bounded;
pub mod caching;
pub mod dfs;
pub mod dpor;
pub(crate) mod frame;
pub mod lazy_dpor;
pub mod random;

pub use bounded::{BoundedRun, IterativeBounding};
pub use caching::HbrCaching;
pub use dfs::DfsEnumeration;
pub use dpor::{DependenceMode, Dpor};
pub use lazy_dpor::LazyDpor;
pub use random::RandomWalk;

use crate::config::{ExploreConfig, RunSetting};
use crate::stats::ExploreStats;
use lazylocks_model::Program;

/// A schedule-space exploration strategy.
pub trait Explorer {
    /// Short stable name for reports.
    fn name(&self) -> String;

    /// Explores `program` under `config`.
    fn explore(&self, program: &Program, config: &ExploreConfig) -> ExploreStats;

    /// Whether `explore` acts on `setting`. The default is no, so a
    /// caller refuses the setting rather than have it ignored.
    fn honours(&self, setting: RunSetting) -> bool {
        let _ = setting;
        false
    }
}
