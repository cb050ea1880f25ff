//! # lazylocks-obs — metrics and structured events for the exploration stack
//!
//! The paper's evaluation counts *schedules*; the engineering work around
//! it needs to know *where the time goes and why*. This crate is the
//! shared observability substrate: a metrics registry of counters and
//! fixed-bucket histograms behind a [`MetricsHandle`], a sampled
//! [`PhaseClock`] for the exploration hot loops, the exploration
//! profiler behind a [`ProfileHandle`], and a leveled structured event
//! log ([`TraceEvent`]) that replaces ad-hoc progress prints.
//!
//! ## Design constraints
//!
//! * **Zero dependencies, std only.** This crate sits *below*
//!   `lazylocks` (core) in the dependency graph so the exploration
//!   engines themselves can be instrumented. It therefore owns the
//!   workspace's JSON codec ([`Json`]) and the versioned-document
//!   descriptor ([`DocFormat`]); snapshots and events build [`Json`]
//!   values directly, and `lazylocks-trace` re-exports the codec for the
//!   documents it persists.
//! * **Disabled cost is a branch.** Every handle is an
//!   `Option<Arc<...>>`; with metrics off (the default) each
//!   instrumentation point is one `is_none` check. No allocation, no
//!   atomics, no time syscalls.
//! * **One slab per registry.** Every exploration runs one sequential
//!   search, so each registry has one writer at a time: the explorer's
//!   collector, the checkpoint writer on the same thread, the replay and
//!   fuzz loops, or a daemon job's worker. A metrics registry is one
//!   fixed `AtomicU64` slab allocated when the handle is created; a
//!   profile registry is one site slab plus one leaf state. Recording is
//!   relaxed atomic adds. The slots stay atomic because `GET /metrics`
//!   scrapes a running job's registry from another thread; a snapshot
//!   reads them as they are, with no merge.
//! * **Enabled cost stays off the allocator.** The frame-pool allocation
//!   test runs with metrics and the profiler enabled to pin this.
//! * **Deterministic snapshots.** [`MetricsSnapshot::scrubbed`] zeroes
//!   every time-derived series so identical explorations serialize to
//!   byte-identical JSON — the same determinism contract the server's
//!   result documents already keep for `wall_time_us`.
//!
//! ## Sampling
//!
//! An explorer step's phases run in tens to hundreds of nanoseconds,
//! about what one clock read costs, so timing every step would dwarf the
//! work. Each step opens a [`PhaseClock`] and *laps* its phases in turn
//! (`frame_checkpoint`, `executor_step`, `race_detection`, `hbr_apply`
//! in DPOR); a lap charges the time since the previous one, so a timed
//! step's phases add up to it. One step in 64 is timed, decided once per
//! step, and each lap is recorded with weight 64 in a bucketless
//! histogram whose `count` and `sum` estimate every step's.

mod doc;
mod event;
mod fingerprint;
pub mod json;
mod metrics;
mod profile;

pub use doc::{require, DocError, DocFormat};
pub use event::{write_stderr, EventLog, LogLevel, TraceEvent};
pub use fingerprint::FingerprintTable;
pub use json::{Json, JsonError};
pub use metrics::{
    builtin_defs, ids, MetricDef, MetricId, MetricKind, MetricSnap, MetricValue, MetricsHandle,
    MetricsSnapshot, PhaseClock, METRICS_FORMAT,
};
pub use profile::{
    pack_prefix, site, ClassSnap, DepthSnap, ObjSnap, ProfileDims, ProfileHandle, ProfileObj,
    ProfileSites, ProfileSnapshot, SiteSnap, SpanSnap, PROFILE_DEPTH_BUCKETS, PROFILE_FORMAT,
    SPAN_PREFIX_LEN, TOP_CLASSES, TOP_SPANS,
};
