//! # lazylocks-obs — metrics and structured events for the exploration stack
//!
//! The paper's evaluation counts *schedules*; the engineering work around
//! it needs to know *where the time goes and why*. This crate is the
//! shared observability substrate: a metrics registry of counters and
//! fixed-bucket histograms behind a [`MetricsHandle`], lightweight
//! sampled phase timers for the exploration hot loops, the exploration
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
//! The hot phases (`executor_step`, `hbr_apply`, `race_detection`) run in
//! tens-to-hundreds of nanoseconds, so timing every call would dwarf the
//! work. Their histograms are *sampled*: one call in `2^sample_shift` is
//! timed, and each sampled observation is recorded with weight
//! `2^sample_shift`, keeping the histogram an unbiased estimate whose
//! bucket counts, `count` and `sum` stay mutually consistent (the
//! Prometheus invariant `sum(buckets) + inf == count` holds).
//! `frame_checkpoint` is cheaper to time relative to its work and is
//! sampled 1/16.

mod doc;
mod event;
pub mod json;
mod metrics;
mod profile;

pub use doc::{require, DocError, DocFormat};
pub use event::{EventLog, LogLevel, TraceEvent};
pub use json::{Json, JsonError};
pub use metrics::{
    builtin_defs, ids, MetricDef, MetricId, MetricKind, MetricSnap, MetricValue, MetricsHandle,
    MetricsSnapshot, METRICS_FORMAT,
};
pub use profile::{
    pack_prefix, site, ClassSnap, DepthSnap, ObjSnap, ProfileDims, ProfileHandle, ProfileObj,
    ProfileSites, ProfileSnapshot, SiteSnap, SpanSnap, PROFILE_DEPTH_BUCKETS, PROFILE_FORMAT,
    SPAN_PREFIX_LEN, TOP_CLASSES, TOP_SPANS,
};
