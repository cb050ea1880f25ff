//! # lazylocks-fuzz — grammar-directed program generation and a
//! differential exploration oracle.
//!
//! The curated 79-benchmark corpus pins known behaviours; this crate
//! manufactures *adversarial* guest programs and cross-checks every
//! exploration strategy against exhaustive ground truth, in the
//! swarm/differential style of Chatterjee et al.'s value-centric DPOR
//! evaluation. Four pieces:
//!
//! * [`gen`] — deterministic program generation through
//!   [`lazylocks_model::ProgramBuilder`], organised around named
//!   [`ShapeProfile`]s (lock-heavy, data-race-rich, deadlock-prone,
//!   branchy, wide-fan-out) with a size dial, so each corpus slice
//!   stresses a different explorer code path;
//! * [`oracle`] — the differential oracle: exhaustive DFS establishes the
//!   exact terminal-state and HBR-class fingerprint sets, and every
//!   strategy is then held to its documented [`Agreement`] contract, with
//!   structured [`Disagreement`] diagnoses on any broken promise;
//! * [`shrink`] — program-level delta debugging (threads → instructions →
//!   operands) that reduces a disagreeing or buggy program to a
//!   near-minimal repro while the failure class keeps reproducing,
//!   composing with the schedule-level
//!   [`minimize_schedule`](lazylocks::minimize_schedule);
//! * [`harness`] — the fuzz loop behind the CLI `fuzz` subcommand:
//!   deterministic corpus, per-case progress, cooperative cancellation
//!   through a shared cancel token, and persistence of shrunk repros as
//!   replayable [`lazylocks_trace`] artifacts.
//!
//! ```
//! use lazylocks::{CancelToken, MetricsHandle};
//! use lazylocks_fuzz::{default_oracle_specs, run_fuzz, FuzzConfig, ShapeProfile};
//!
//! let config = FuzzConfig {
//!     profiles: vec![ShapeProfile::DataRaceRich],
//!     cases: 3,
//!     seed: 7,
//!     budget: 10_000,
//!     max_size: 1,
//! };
//! let report = run_fuzz(
//!     &config,
//!     &default_oracle_specs(),
//!     None,
//!     &CancelToken::new(),
//!     &MetricsHandle::disabled(),
//!     |_| {},
//! );
//! assert_eq!(report.cases.len(), 3);
//! assert_eq!(report.total_disagreements(), 0);
//! ```

pub mod gen;
pub mod harness;
pub mod oracle;
pub mod shrink;

pub use gen::{corpus, generate, CorpusCase, ShapeProfile, MAX_SIZE};
pub use harness::{
    run_fuzz, CaseReport, CaseStatus, DfsSummary, FuzzConfig, FuzzReport, Repro, FUZZ_REPORT_FORMAT,
};
pub use oracle::{
    check_strategy, default_oracle_specs, differential_check, ground_truth, Agreement,
    DifferentialCase, DifferentialVerdict, Disagreement, DisagreementKind, GroundTruth, OracleSpec,
};
pub use shrink::shrink_program;
