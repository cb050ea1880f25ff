//! # lazylocks-trace — persistent counterexamples, corpus management and
//! replay verification.
//!
//! The paper's value proposition is *reproducible* schedules: a bug found
//! by lazy-HBR DPOR is only useful if the failing interleaving can be
//! stored, replayed in a fresh process, and shrunk later. This crate is
//! that operational substrate, with zero external dependencies:
//!
//! * [`json`] — the workspace's self-contained JSON codec, re-exported
//!   from `lazylocks-obs` together with [`DocFormat`], the one marker and
//!   version check every persisted document goes through;
//! * [`TraceArtifact`] — the versioned artifact format: tool version,
//!   canonical program fingerprint **and embedded source**, strategy spec,
//!   seed, schedule choice list, bug, and exploration counters;
//! * [`CorpusStore`] — a directory of artifacts with fingerprint-keyed
//!   dedup, atomic writes, listing and pruning;
//! * [`replay_embedded`] / [`replay_against`] — replay verification that
//!   classifies an artifact as [`Reproduced`](ReplayVerdict::Reproduced),
//!   [`Diverged`](ReplayVerdict::Diverged) or
//!   [`ProgramChanged`](ReplayVerdict::ProgramChanged) with a
//!   human-readable diagnosis;
//! * [`TraceRecorder`] — a session [`Observer`](lazylocks::Observer) that
//!   auto-saves (by default minimised) artifacts for every bug found;
//! * [`drive`] — the one exploration entry point shared by the CLI `run`
//!   command, the fuzz repro paths and the `lazylocks-server` job runner:
//!   session build, observer/cancellation wiring, recording, spec
//!   resolution and minimisation in a single call;
//! * [`CheckpointDoc`] / [`CheckpointWriter`] — the versioned on-disk
//!   checkpoint format and the observer that persists exploration
//!   frontiers durably, so an interrupted run resumes where it left off;
//! * [`FaultPlan`] / [`write_atomic_durable`] — the shared
//!   temp-file + fsync + rename + directory-fsync write path, with hooks
//!   for injecting torn writes, fsync failures and short reads in tests.
//!
//! ```
//! use lazylocks::{Dpor, ExploreConfig, Explorer, MetricsHandle};
//! use lazylocks_model::ProgramBuilder;
//! use lazylocks_trace::{replay_embedded, ReplayVerdict, TraceArtifact};
//!
//! // Find the AB-BA deadlock...
//! let mut b = ProgramBuilder::new("abba");
//! let l0 = b.mutex("l0");
//! let l1 = b.mutex("l1");
//! b.thread("T1", |t| { t.lock(l0); t.lock(l1); });
//! b.thread("T2", |t| { t.lock(l1); t.lock(l0); });
//! let program = b.build();
//! let stats = Dpor::default()
//!     .explore(&program, &ExploreConfig::with_limit(1_000).stopping_on_bug());
//! let bug = stats.first_bug.unwrap();
//!
//! // ...persist it as a self-contained artifact...
//! let artifact = TraceArtifact::from_bug(&program, "dpor", 0, &bug);
//! let text = artifact.to_json_string();
//!
//! // ...and replay it from the text alone, program included.
//! let loaded = TraceArtifact::parse(&text).unwrap();
//! let report = replay_embedded(&loaded, &MetricsHandle::disabled()).unwrap();
//! assert_eq!(report.verdict, ReplayVerdict::Reproduced);
//! ```

pub mod artifact;
pub mod checkpoint;
pub mod drive;
pub mod fault;
pub mod profile;
pub mod recorder;
pub mod replay;
pub mod store;

pub use artifact::{
    bug_class, bug_kind_from_json, bug_kind_to_json, stats_from_json, stats_to_json, TraceArtifact,
    ARTIFACT_FORMAT,
};
pub use checkpoint::{
    load_checkpoint, CheckpointDoc, CheckpointWriter, CHECKPOINT_FILE, CHECKPOINT_FORMAT,
};
pub use drive::{drive, outcome_json, DriveRequest, DriveResult};
pub use fault::{fsync_dir, read_with, write_atomic_durable, FaultPlan};
pub use json::{Json, JsonError};
pub use lazylocks::obs::json;
pub use lazylocks::obs::{DocError, DocFormat};
pub use profile::{render_profile, ProfileDoc, PROFILE_DOC_FORMAT};
pub use recorder::{FinalizedTrace, TraceRecorder};
pub use replay::{replay_against, replay_embedded, ReplayReport, ReplayVerdict};
pub use store::{CorpusEntry, CorpusStore, PruneReport, SaveOutcome};
