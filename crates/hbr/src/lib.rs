//! Happens-before relations for systematic concurrency testing.
//!
//! This crate implements the paper's central objects:
//!
//! * the **regular happens-before relation** (HBR): `e1` happens-before
//!   `e2` iff `e1` precedes `e2` in the schedule and (a) they are from the
//!   same thread, (b) they access the same variable *or mutex* with at
//!   least one access a modification, or (c) transitivity;
//! * the **lazy happens-before relation** (lazy HBR): clause (b) restricted
//!   to *non-mutex* variables — mutex-induced inter-thread edges are
//!   dropped ([`HbMode::Lazy`]);
//! * the **sync-only relation** ([`HbMode::SyncOnly`]): program order plus
//!   mutex edges only — the relation classical happens-before *data-race
//!   detectors* use.
//!
//! The relation over a trace is computed incrementally by [`HbBuilder`]
//! with one [`VectorClock`] per event; the finished [`HbRelation`] supports:
//!
//! * canonical identity: [`HbRelation::fingerprint`] is equal for two
//!   traces iff they are linearizations of the same labelled partial order
//!   (up to 128-bit hash collisions; [`HbRelation::canonical`] is the exact
//!   form used to validate the fingerprints in tests);
//! * **prefix fingerprints** ([`HbBuilder::prefix_fingerprint`]): a
//!   linearization-invariant running digest, the key ingredient of HBR
//!   caching (Musuvathi & Qadeer) and the paper's lazy HBR caching;
//! * order queries ([`HbRelation::happens_before`],
//!   [`HbRelation::concurrent`]);
//! * the Foata normal form ([`HbRelation::foata_normal_form`]) as an
//!   independent canonical representation;
//! * enumeration of all linearizations ([`HbRelation::linearizations`]) and
//!   replay-based feasibility checks, which power the machine-checked
//!   versions of the paper's Theorems 2.1 and 2.2 in the test suite.

mod builder;
mod clock;
mod engine;
mod foata;
mod linearize;
mod mode;
mod relation;

pub use builder::{EventRecord, HbBuilder};
pub use clock::VectorClock;
pub use engine::{event_record_hash, ClockEngine, PrefixAccumulator};
pub use foata::foata_layers;
pub use linearize::{
    linearization_schedule, replay_events, LinearizationEnumeration, Linearizations,
};
pub use mode::HbMode;
pub use relation::{CanonicalHb, HbRelation};
