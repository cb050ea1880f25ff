//! # lazylocks-obs — metrics and structured events for the exploration stack
//!
//! The paper's evaluation counts *schedules*; the engineering work around
//! it needs to know *where the time goes and why*. This crate is the
//! shared observability substrate: a [`MetricsRegistry`] of counters,
//! gauges and fixed-bucket histograms backed by lock-free shards, lightweight sampled phase timers for the exploration hot
//! loops, and a leveled structured event log ([`TraceEvent`]) that
//! replaces ad-hoc progress prints.
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
//! * **Enabled cost stays off the allocator.** Shards are fixed
//!   `AtomicU64` slabs acquired once per collector; recording is relaxed
//!   atomic adds. The frame-pool allocation test runs with metrics
//!   enabled to pin this.
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
    MetricsRegistry, MetricsShard, MetricsSnapshot, METRICS_FORMAT,
};
pub use profile::{
    pack_prefix, site, ClassSnap, DepthSnap, ObjSnap, ProfileDims, ProfileHandle, ProfileLeaf,
    ProfileObj, ProfileRegistry, ProfileSites, ProfileSnapshot, SiteSnap, SpanSnap,
    PROFILE_DEPTH_BUCKETS, PROFILE_FORMAT, SPAN_PREFIX_LEN, TOP_CLASSES, TOP_SPANS,
};
