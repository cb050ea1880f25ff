//! The metrics registry: static catalogue, one slab per registry, snapshots.

use crate::doc::{require, DocError, DocFormat};
use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Fixed-bucket distribution (none for a phase) with `count` and `sum`.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` name.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One entry of the metric catalogue. The catalogue is `'static` so a
/// registry's slab is sized once, at construction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Prometheus-style family name (`lazylocks_..._total`, `..._ns`).
    pub name: &'static str,
    /// One-line help text, rendered as `# HELP`.
    pub help: &'static str,
    pub kind: MetricKind,
    /// Upper bucket bounds for histograms (ascending; `+Inf` is implicit).
    /// Empty for counters and phases.
    pub buckets: &'static [u64],
    /// Values derive from wall-clock time, so snapshots of identical
    /// explorations differ; [`MetricsSnapshot::scrubbed`] zeroes these.
    pub time_based: bool,
}

impl MetricDef {
    const fn counter(name: &'static str, help: &'static str) -> MetricDef {
        MetricDef {
            name,
            help,
            kind: MetricKind::Counter,
            buckets: &[],
            time_based: false,
        }
    }

    const fn histogram(
        name: &'static str,
        help: &'static str,
        buckets: &'static [u64],
    ) -> MetricDef {
        MetricDef {
            name,
            help,
            kind: MetricKind::Histogram,
            buckets,
            time_based: false,
        }
    }

    /// A bucketless time-based histogram charged by [`PhaseClock::lap`].
    const fn phase(name: &'static str, help: &'static str) -> MetricDef {
        MetricDef {
            time_based: true,
            ..MetricDef::histogram(name, help, &[])
        }
    }

    /// Slab slots this metric occupies: one for a counter, one per
    /// bucket plus `count` and `sum` for a histogram.
    fn slot_count(&self) -> usize {
        match self.kind {
            MetricKind::Counter => 1,
            MetricKind::Histogram => self.buckets.len() + 2,
        }
    }
}

/// Schedule depth in events per complete schedule.
const DEPTH_BUCKETS: &[u64] = &[4, 8, 16, 32, 64, 128, 256, 512];
/// A [`PhaseClock`] times one explorer step in this many and charges
/// each lap with this weight.
const PHASE_SAMPLE: u64 = 64;

/// Ids into [`builtin_defs`], in catalogue order. Instrumentation sites
/// name their metric through these.
pub mod ids {
    use super::MetricId;

    pub const SCHEDULES: MetricId = MetricId(0);
    pub const EVENTS: MetricId = MetricId(1);
    pub const BUGS: MetricId = MetricId(2);
    pub const DEADLOCKS: MetricId = MetricId(3);
    pub const FAULTS: MetricId = MetricId(4);
    pub const TRUNCATED_RUNS: MetricId = MetricId(5);
    pub const SLEEP_PRUNES: MetricId = MetricId(6);
    pub const CACHE_PRUNES: MetricId = MetricId(7);
    pub const BOUND_PRUNES: MetricId = MetricId(8);
    pub const EVENTS_COMPARED: MetricId = MetricId(9);
    pub const FRAMES_POOLED: MetricId = MetricId(10);
    pub const REPLAYS: MetricId = MetricId(11);
    pub const REPLAY_EVENTS: MetricId = MetricId(12);
    pub const FUZZ_CASES: MetricId = MetricId(13);
    pub const FUZZ_DISAGREEMENTS: MetricId = MetricId(14);
    pub const SCHEDULE_DEPTH: MetricId = MetricId(15);
    pub const PHASE_EXECUTOR_STEP: MetricId = MetricId(16);
    pub const PHASE_HBR_APPLY: MetricId = MetricId(17);
    pub const PHASE_RACE_DETECTION: MetricId = MetricId(18);
    pub const PHASE_FRAME_CHECKPOINT: MetricId = MetricId(19);
    pub const JOBS_RECOVERED: MetricId = MetricId(20);
    pub const CHECKPOINTS_WRITTEN: MetricId = MetricId(21);
    pub const CHECKPOINT_BYTES: MetricId = MetricId(22);
    pub const RESUME_FRAMES_RESTORED: MetricId = MetricId(23);
}

/// The catalogue every registry records. Order is the id
/// order in [`ids`]; snapshots render in this order, which is what makes
/// two identical runs serialize byte-identically.
pub fn builtin_defs() -> &'static [MetricDef] {
    const DEFS: &[MetricDef] = &[
        MetricDef::counter("lazylocks_schedules_total", "Complete schedules executed"),
        MetricDef::counter(
            "lazylocks_events_total",
            "Visible events executed across all schedules",
        ),
        MetricDef::counter("lazylocks_bugs_total", "Buggy terminal executions observed"),
        MetricDef::counter(
            "lazylocks_deadlocks_total",
            "Terminal executions that deadlocked",
        ),
        MetricDef::counter(
            "lazylocks_faults_total",
            "Terminal executions with at least one fault",
        ),
        MetricDef::counter(
            "lazylocks_truncated_runs_total",
            "Runs abandoned for exceeding max_run_length",
        ),
        MetricDef::counter(
            "lazylocks_sleep_prunes_total",
            "Subtrees pruned by sleep sets (DPOR)",
        ),
        MetricDef::counter(
            "lazylocks_cache_prunes_total",
            "Subtrees pruned by the prefix-HBR cache",
        ),
        MetricDef::counter(
            "lazylocks_bound_prunes_total",
            "Choices skipped by the preemption bound",
        ),
        MetricDef::counter(
            "lazylocks_events_compared_total",
            "Race-partner candidates examined by DPOR race detection",
        ),
        MetricDef::counter(
            "lazylocks_frames_pooled_total",
            "DPOR frame pushes that cloned into an existing per-depth slot instead of allocating",
        ),
        MetricDef::counter("lazylocks_replays_total", "Trace artifacts replayed"),
        MetricDef::counter(
            "lazylocks_replay_events_total",
            "Events executed while replaying artifacts",
        ),
        MetricDef::counter("lazylocks_fuzz_cases_total", "Fuzz cases executed"),
        MetricDef::counter(
            "lazylocks_fuzz_disagreements_total",
            "Fuzz cases with a broken strategy-agreement contract",
        ),
        MetricDef::histogram(
            "lazylocks_schedule_depth",
            "Events per complete schedule",
            DEPTH_BUCKETS,
        ),
        MetricDef::phase(
            "lazylocks_phase_executor_step_ns",
            "Guest executor step, every explorer (one step in 64 timed, weight 64)",
        ),
        MetricDef::phase(
            "lazylocks_phase_hbr_apply_ns",
            "Happens-before update per event: DPOR, dfs and random apply and fold every relation, \
             caching its own relation only (one step in 64 timed, weight 64)",
        ),
        MetricDef::phase(
            "lazylocks_phase_race_detection_ns",
            "DPOR walk over the event's race-partner candidates (one step in 64 timed, weight 64)",
        ),
        MetricDef::phase(
            "lazylocks_phase_frame_checkpoint_ns",
            "DPOR, dfs and caching copy of the parent frame body into the child's slot \
             (one step in 64 timed, weight 64)",
        ),
        MetricDef::counter(
            "lazylocks_jobs_recovered_total",
            "Jobs re-enqueued from the journal after a daemon restart",
        ),
        MetricDef::counter(
            "lazylocks_checkpoints_written_total",
            "Exploration frontier checkpoints persisted to disk",
        ),
        MetricDef::counter(
            "lazylocks_checkpoint_bytes_total",
            "Bytes of checkpoint data persisted to disk",
        ),
        MetricDef::counter(
            "lazylocks_resume_frames_restored_total",
            "Frontier frames rebuilt when resuming from a checkpoint",
        ),
    ];
    DEFS
}

/// An index into [`builtin_defs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(pub usize);

fn atomic_slab(len: usize) -> Box<[AtomicU64]> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

/// The metric store of one exploration (or one server job): one slab of
/// relaxed atomics laid out in catalogue order. One thread records into
/// it; the slots are atomic because a `GET /metrics` scrape snapshots a
/// running job's registry from another thread.
#[derive(Debug)]
struct MetricsRegistry {
    /// First slot of each metric in `slots`.
    offsets: Vec<usize>,
    slots: Box<[AtomicU64]>,
    /// Explorer steps that opened a [`PhaseClock`] (not snapshotted).
    steps: AtomicU64,
}

impl MetricsRegistry {
    fn new() -> MetricsRegistry {
        let defs = builtin_defs();
        let mut offsets = Vec::with_capacity(defs.len());
        let mut slots = 0;
        for def in defs {
            offsets.push(slots);
            slots += def.slot_count();
        }
        MetricsRegistry {
            offsets,
            slots: atomic_slab(slots),
            steps: AtomicU64::new(0),
        }
    }

    /// Reads the slab into a snapshot. Safe to call while the registry is
    /// still recording (relaxed reads; the scrape path of a running job).
    fn snapshot(&self) -> MetricsSnapshot {
        let metrics = builtin_defs()
            .iter()
            .zip(&self.offsets)
            .map(|(def, &off)| {
                let read = |i: usize| self.slots[off + i].load(Ordering::Relaxed);
                let n = def.buckets.len();
                let total = match def.kind {
                    MetricKind::Counter => MetricValue::Scalar(read(0)),
                    MetricKind::Histogram => MetricValue::Histogram {
                        counts: (0..n).map(read).collect(),
                        count: read(n),
                        sum: read(n + 1),
                    },
                };
                MetricSnap {
                    name: def.name.to_string(),
                    help: def.help.to_string(),
                    kind: def.kind,
                    buckets: def.buckets.to_vec(),
                    time_based: def.time_based,
                    total,
                }
            })
            .collect();
        MetricsSnapshot { metrics }
    }
}

/// The cloneable on/off switch threaded through `ExploreConfig`, and the
/// recording handle: `None` (the default) makes every operation a no-op
/// that costs one branch; `Some` records into one registry with relaxed
/// atomic adds — no locks, no allocation.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle(Option<Arc<MetricsRegistry>>);

impl MetricsHandle {
    /// The inert default: every operation is a no-op.
    pub fn disabled() -> MetricsHandle {
        MetricsHandle(None)
    }

    /// A live handle over a fresh registry.
    pub fn enabled() -> MetricsHandle {
        MetricsHandle(Some(Arc::new(MetricsRegistry::new())))
    }

    /// `true` when recording is live.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&self, id: MetricId) {
        self.add(id, 1);
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        if let Some(registry) = &self.0 {
            registry.slots[registry.offsets[id.0]].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&self, id: MetricId, value: u64) {
        self.observe_weighted(id, value, 1);
    }

    /// Records a histogram observation that stands for `weight` of them.
    pub fn observe_weighted(&self, id: MetricId, value: u64, weight: u64) {
        let Some(registry) = &self.0 else { return };
        let buckets = builtin_defs()[id.0].buckets;
        let off = registry.offsets[id.0];
        if let Some(b) = buckets.iter().position(|&le| value <= le) {
            registry.slots[off + b].fetch_add(weight, Ordering::Relaxed);
        }
        let n = buckets.len();
        registry.slots[off + n].fetch_add(weight, Ordering::Relaxed);
        registry.slots[off + n + 1].fetch_add(value.saturating_mul(weight), Ordering::Relaxed);
    }

    /// Opens the phase clock of one explorer step. One step in 64 that
    /// this registry sees is timed; for the others, and with metrics off,
    /// every lap is a no-op.
    #[inline]
    pub fn phase_clock(&self) -> PhaseClock {
        let Some(registry) = &self.0 else {
            return PhaseClock(None);
        };
        let timed = registry.steps.fetch_add(1, Ordering::Relaxed) % PHASE_SAMPLE == 0;
        PhaseClock(timed.then(|| (self.clone(), Instant::now())))
    }

    /// Snapshot of the registry; `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.0.as_ref().map(|r| r.snapshot())
    }
}

/// The clock of one explorer step, from [`MetricsHandle::phase_clock`].
/// Each lap charges the time since the previous lap (or since the clock
/// opened) to one phase, so the phases of a timed step add up to it.
#[derive(Debug)]
pub struct PhaseClock(Option<(MetricsHandle, Instant)>);

impl PhaseClock {
    /// Charges the time since the previous lap to `phase`, with weight 64
    /// so the totals estimate every step.
    #[inline]
    pub fn lap(&mut self, phase: MetricId) {
        if let Some((handle, last)) = &mut self.0 {
            let now = Instant::now();
            let ns = now.duration_since(*last).as_nanos().min(u64::MAX as u128) as u64;
            *last = now;
            handle.observe_weighted(phase, ns, PHASE_SAMPLE);
        }
    }
}

/// A merged point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    Scalar(u64),
    Histogram {
        counts: Vec<u64>,
        count: u64,
        sum: u64,
    },
}

impl MetricValue {
    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Scalar(a), MetricValue::Scalar(b)) => *a += *b,
            (
                MetricValue::Histogram { counts, count, sum },
                MetricValue::Histogram {
                    counts: oc,
                    count: on,
                    sum: os,
                },
            ) => {
                for (a, b) in counts.iter_mut().zip(oc) {
                    *a += *b;
                }
                *count += *on;
                *sum += *os;
            }
            _ => unreachable!("metric kinds diverged between snapshots of one catalogue"),
        }
    }

    fn zeroed(&self) -> MetricValue {
        match self {
            MetricValue::Scalar(_) => MetricValue::Scalar(0),
            MetricValue::Histogram { counts, .. } => MetricValue::Histogram {
                counts: vec![0; counts.len()],
                count: 0,
                sum: 0,
            },
        }
    }

    /// The scalar value, or a histogram's `count`.
    pub fn count(&self) -> u64 {
        match self {
            MetricValue::Scalar(v) => *v,
            MetricValue::Histogram { count, .. } => *count,
        }
    }

    /// A histogram's `sum` (0 for scalars).
    pub fn sum(&self) -> u64 {
        match self {
            MetricValue::Scalar(_) => 0,
            MetricValue::Histogram { sum, .. } => *sum,
        }
    }
}

/// One metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnap {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    pub buckets: Vec<u64>,
    pub time_based: bool,
    pub total: MetricValue,
}

impl MetricSnap {
    /// The quantile `q` (0..=1) estimated from the bucket counts by
    /// linear interpolation inside the winning bucket; `None` when the
    /// histogram is empty or the metric is a scalar.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let MetricValue::Histogram { counts, count, .. } = &self.total else {
            return None;
        };
        if *count == 0 {
            return None;
        }
        let rank = q.clamp(0.0, 1.0) * (*count as f64);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            let lower = if i == 0 { 0 } else { self.buckets[i - 1] };
            let upper = self.buckets[i];
            if (seen + c) as f64 >= rank && c > 0 {
                let within = (rank - seen as f64) / c as f64;
                return Some(lower as f64 + within * (upper - lower) as f64);
            }
            seen += c;
        }
        // The rank lands in the +Inf bucket; report the last finite bound.
        Some(*self.buckets.last().unwrap_or(&0) as f64)
    }
}

/// The metrics snapshot document format.
pub const METRICS_FORMAT: DocFormat = DocFormat {
    name: "lazylocks-metrics",
    version_key: "version",
    version: 1,
};

/// A merged, ordered point-in-time view of a registry — the unit that
/// serializes (JSON, Prometheus text) and merges across jobs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    pub metrics: Vec<MetricSnap>,
}

impl MetricsSnapshot {
    /// Looks a metric up by family name.
    pub fn get(&self, name: &str) -> Option<&MetricSnap> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The scalar / count value of a metric, 0 when absent.
    pub fn value(&self, name: &str) -> u64 {
        self.get(name).map(|m| m.total.count()).unwrap_or(0)
    }

    /// Element-wise merge of another snapshot of the *same catalogue*
    /// (the server's cross-job aggregation). Metrics are matched by
    /// position and name; a name mismatch panics — it means two different
    /// catalogues were mixed, which is a bug, not data.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.metrics.is_empty() {
            self.metrics = other.metrics.clone();
            return;
        }
        assert_eq!(
            self.metrics.len(),
            other.metrics.len(),
            "merging snapshots of different catalogues"
        );
        for (a, b) in self.metrics.iter_mut().zip(&other.metrics) {
            assert_eq!(a.name, b.name, "merging snapshots of different catalogues");
            a.total.merge(&b.total);
        }
    }

    /// A copy with every time-derived series zeroed — the determinism
    /// contract: two identical explorations scrub to byte-identical JSON.
    pub fn scrubbed(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .metrics
                .iter()
                .map(|m| {
                    if !m.time_based {
                        return m.clone();
                    }
                    MetricSnap {
                        total: m.total.zeroed(),
                        ..m.clone()
                    }
                })
                .collect(),
        }
    }

    /// The snapshot document, stable field order.
    pub fn to_json(&self) -> Json {
        let u64s = |values: &[u64]| Json::Arr(values.iter().map(|&v| Json::from(v)).collect());
        let metrics = self.metrics.iter().map(|m| {
            let mut pairs = vec![
                ("name", Json::from(m.name.as_str())),
                ("kind", Json::from(m.kind.as_str())),
            ];
            match &m.total {
                MetricValue::Scalar(v) => pairs.push(("value", Json::from(*v))),
                MetricValue::Histogram { counts, count, sum } => pairs.extend([
                    ("buckets", u64s(&m.buckets)),
                    ("counts", u64s(counts)),
                    ("count", Json::from(*count)),
                    ("sum", Json::from(*sum)),
                ]),
            }
            Json::obj(pairs)
        });
        METRICS_FORMAT.wrap([("metrics", Json::Arr(metrics.collect()))])
    }

    /// [`MetricsSnapshot::to_json`], encoded compactly.
    pub fn to_json_string(&self) -> String {
        self.to_json().encode()
    }

    /// Decodes a [`MetricsSnapshot::to_json`] document (extra keys, such
    /// as the daemon's `server` gauges, are ignored). Help text and the
    /// time-scrub flag are not part of the document: they come back
    /// empty and `false`.
    pub fn from_json(v: &Json) -> Result<MetricsSnapshot, DocError> {
        let v = METRICS_FORMAT.open(v)?;
        let u64s = |m: &Json, field: &'static str| -> Result<Vec<u64>, DocError> {
            require(m, field, Json::as_arr)?
                .iter()
                .map(|j| {
                    j.as_u64()
                        .ok_or_else(|| DocError::schema(field, "not an unsigned integer"))
                })
                .collect()
        };
        let metrics = require(v, "metrics", Json::as_arr)?
            .iter()
            .map(|m| {
                let kind = match require(m, "kind", Json::as_str)? {
                    "counter" => MetricKind::Counter,
                    "histogram" => MetricKind::Histogram,
                    other => {
                        return Err(DocError::schema(
                            "kind",
                            format!("unknown metric kind {other:?}"),
                        ))
                    }
                };
                let (buckets, total) = match kind {
                    MetricKind::Histogram => {
                        let buckets = u64s(m, "buckets")?;
                        let counts = u64s(m, "counts")?;
                        if counts.len() != buckets.len() {
                            return Err(DocError::schema("counts", "one count per bucket"));
                        }
                        let total = MetricValue::Histogram {
                            counts,
                            count: require(m, "count", Json::as_u64)?,
                            sum: require(m, "sum", Json::as_u64)?,
                        };
                        (buckets, total)
                    }
                    _ => (
                        Vec::new(),
                        MetricValue::Scalar(require(m, "value", Json::as_u64)?),
                    ),
                };
                Ok(MetricSnap {
                    name: require(m, "name", Json::as_str)?.to_string(),
                    help: String::new(),
                    kind,
                    buckets,
                    time_based: false,
                    total,
                })
            })
            .collect::<Result<_, DocError>>()?;
        Ok(MetricsSnapshot { metrics })
    }

    /// Prometheus text exposition format (`# HELP` / `# TYPE` + series).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            render_prometheus_family(&mut out, m);
        }
        out
    }

    /// A compact human-readable table (the CLI `--metrics` summary):
    /// non-zero metrics only, histograms with count and mean, plus p50 and
    /// p99 for those with buckets.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            match &m.total {
                MetricValue::Scalar(v) => {
                    if *v > 0 {
                        out.push_str(&format!("{:<42} {v}\n", m.name));
                    }
                }
                MetricValue::Histogram { count, sum, .. } => {
                    if *count > 0 {
                        let mean = *sum as f64 / *count as f64;
                        out.push_str(&format!("{:<42} count={count} mean={mean:.0}", m.name));
                        if !m.buckets.is_empty() {
                            out.push_str(&format!(
                                " p50={:.0} p99={:.0}",
                                m.quantile(0.50).unwrap_or(0.0),
                                m.quantile(0.99).unwrap_or(0.0),
                            ));
                        }
                        out.push('\n');
                    }
                }
            }
        }
        out
    }
}

fn render_prometheus_family(out: &mut String, m: &MetricSnap) {
    out.push_str("# HELP ");
    out.push_str(&m.name);
    out.push(' ');
    out.push_str(&m.help);
    out.push_str("\n# TYPE ");
    out.push_str(&m.name);
    out.push(' ');
    out.push_str(m.kind.as_str());
    out.push('\n');
    match &m.total {
        MetricValue::Scalar(v) => {
            out.push_str(&format!("{} {v}\n", m.name));
        }
        MetricValue::Histogram { counts, count, sum } => {
            let mut cumulative = 0u64;
            for (le, c) in m.buckets.iter().zip(counts) {
                cumulative += c;
                out.push_str(&format!("{}_bucket{{le=\"{le}\"}} {cumulative}\n", m.name));
            }
            out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {count}\n", m.name));
            out.push_str(&format!("{}_sum {sum}\n", m.name));
            out.push_str(&format!("{}_count {count}\n", m.name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEPTH: &str = "lazylocks_schedule_depth";

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let handle = MetricsHandle::disabled();
        assert!(!handle.is_enabled());
        handle.inc(ids::SCHEDULES);
        handle.observe(ids::SCHEDULE_DEPTH, 5);
        let mut clock = handle.phase_clock();
        assert!(clock.0.is_none());
        clock.lap(ids::PHASE_EXECUTOR_STEP);
        assert!(handle.snapshot().is_none());
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let handle = MetricsHandle::enabled();
        // One observation per boundary region of the depth buckets
        // [4, 8, 16, ..]: <4, ==4, 5, ==8, 9, ==512, and one overflow
        // into +Inf.
        for v in [1, 4, 5, 8, 9, 512, 513] {
            handle.observe(ids::SCHEDULE_DEPTH, v);
        }
        let snap = handle.snapshot().unwrap();
        match &snap.get(DEPTH).unwrap().total {
            MetricValue::Histogram { counts, count, sum } => {
                assert_eq!(counts, &vec![2, 2, 1, 0, 0, 0, 0, 1]);
                assert_eq!(*count, 7);
                assert_eq!(*sum, 1 + 4 + 5 + 8 + 9 + 512 + 513);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn phase_clock_samples_whole_steps_and_its_laps_add_up() {
        const PHASES: [MetricId; 3] = [
            ids::PHASE_FRAME_CHECKPOINT,
            ids::PHASE_EXECUTOR_STEP,
            ids::PHASE_RACE_DETECTION,
        ];
        let phase = |snap: &MetricsSnapshot, id: MetricId| {
            let m = &snap.metrics[id.0];
            assert!(m.buckets.is_empty(), "{} has buckets", m.name);
            (m.total.count(), m.total.sum())
        };
        // One sampling decision per step: of 128 steps exactly 2 are
        // timed, and every phase of a timed step is charged, each with
        // weight 64, so every phase counts every step.
        let handle = MetricsHandle::enabled();
        let mut timed = 0;
        for _ in 0..128 {
            let mut clock = handle.phase_clock();
            timed += usize::from(clock.0.is_some());
            for id in PHASES {
                clock.lap(id);
            }
        }
        assert_eq!(timed, 2);
        let snap = handle.snapshot().unwrap();
        for id in PHASES {
            assert_eq!(phase(&snap, id).0, 128);
        }
        // A timed step's laps partition it: a sleep before the second lap
        // lands in that phase only, and the laps sum to the step.
        let handle = MetricsHandle::enabled();
        let pause = std::time::Duration::from_millis(20);
        let started = Instant::now();
        let mut clock = handle.phase_clock();
        clock.lap(PHASES[0]);
        std::thread::sleep(pause);
        clock.lap(PHASES[1]);
        clock.lap(PHASES[2]);
        let step_ns = started.elapsed().as_nanos() as u64 * PHASE_SAMPLE;
        let snap = handle.snapshot().unwrap();
        let sums = PHASES.map(|id| phase(&snap, id).1);
        let slept_ns = pause.as_nanos() as u64 * PHASE_SAMPLE;
        assert!(sums[1] >= slept_ns, "{sums:?}");
        assert!(sums[0] < slept_ns && sums[2] < slept_ns, "{sums:?}");
        assert!(sums.iter().sum::<u64>() <= step_ns, "{sums:?} > {step_ns}");
    }

    #[test]
    fn scrub_zeroes_time_based_series_only() {
        let handle = MetricsHandle::enabled();
        handle.inc(ids::SCHEDULES);
        handle.observe(ids::SCHEDULE_DEPTH, 12);
        handle.observe_weighted(ids::PHASE_FRAME_CHECKPOINT, 500_000, 1);
        let scrubbed = handle.snapshot().unwrap().scrubbed();
        assert_eq!(scrubbed.value("lazylocks_schedules_total"), 1);
        assert_eq!(scrubbed.value("lazylocks_schedule_depth"), 1);
        assert_eq!(scrubbed.value("lazylocks_phase_frame_checkpoint_ns"), 0);
        assert_eq!(
            scrubbed
                .get("lazylocks_phase_frame_checkpoint_ns")
                .unwrap()
                .total
                .sum(),
            0
        );
    }

    #[test]
    fn identical_recordings_serialize_byte_identically() {
        let run = || {
            let handle = MetricsHandle::enabled();
            for d in [3, 9, 40, 700] {
                handle.inc(ids::SCHEDULES);
                handle.observe(ids::SCHEDULE_DEPTH, d);
            }
            handle.phase_clock().lap(ids::PHASE_FRAME_CHECKPOINT);
            handle.snapshot().unwrap().scrubbed().to_json_string()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn prometheus_text_has_well_formed_histograms() {
        let handle = MetricsHandle::enabled();
        handle.observe(ids::SCHEDULE_DEPTH, 6);
        handle.observe(ids::SCHEDULE_DEPTH, 1000);
        handle.add(ids::SLEEP_PRUNES, 2);
        let text = handle.snapshot().unwrap().to_prometheus_text();
        assert!(text.contains("# TYPE lazylocks_schedule_depth histogram"));
        assert!(text.contains("lazylocks_schedule_depth_bucket{le=\"8\"} 1"));
        // The 1000-event schedule overflows every finite bucket.
        assert!(text.contains("lazylocks_schedule_depth_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lazylocks_schedule_depth_count 2"));
        assert!(text.contains("lazylocks_sleep_prunes_total 2"));
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<u64>().is_ok(), "bad sample line: {line}");
        }
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let handle = MetricsHandle::enabled();
        // 10 observations in (8, 16]: p50 lands mid-bucket.
        for _ in 0..10 {
            handle.observe(ids::SCHEDULE_DEPTH, 12);
        }
        let snap = handle.snapshot().unwrap();
        let m = snap.get(DEPTH).unwrap();
        let p50 = m.quantile(0.5).unwrap();
        assert!((8.0..=16.0).contains(&p50), "{p50}");
        assert!(m.quantile(1.0).unwrap() <= 16.0);
        assert!(snap
            .get("lazylocks_schedules_total")
            .unwrap()
            .quantile(0.5)
            .is_none());
    }

    #[test]
    fn metric_names_are_escaped() {
        let snapshot = MetricsSnapshot {
            metrics: vec![MetricSnap {
                name: "a\"b\\c\nd\u{1}".to_string(),
                help: "odd name".to_string(),
                kind: MetricKind::Counter,
                buckets: Vec::new(),
                time_based: false,
                total: MetricValue::Scalar(1),
            }],
        };
        let text = snapshot.to_json_string();
        assert!(text.contains("\"a\\\"b\\\\c\\nd\\u0001\""), "{text}");
        let back = MetricsSnapshot::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.metrics[0].name, snapshot.metrics[0].name);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn from_json_rejects_malformed_snapshots() {
        let good = MetricsHandle::enabled().snapshot().unwrap().to_json();
        assert_eq!(
            MetricsSnapshot::from_json(&good).unwrap().to_json(),
            good,
            "decode inverts encode"
        );
        for (from, to) in [
            ("\"kind\":\"counter\"", "\"kind\":\"meter\""),
            ("\"counts\":[0,0,0,0,0,0,0,0]", "\"counts\":[0]"),
            ("\"version\":1", "\"version\":2"),
        ] {
            let text = good.encode().replacen(from, to, 1);
            assert_ne!(text, good.encode(), "{from} not found");
            let doc = Json::parse(&text).unwrap();
            assert!(MetricsSnapshot::from_json(&doc).is_err(), "{to} accepted");
        }
    }
}
