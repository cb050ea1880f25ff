//! The exploration profiler: per-program-point attribution slabs,
//! happens-before-class redundancy accounting, and subtree span profiling.
//!
//! Where the metrics registry answers "how much work happened", the
//! profiler answers "*which program point* caused it": every reversible
//! race, backtrack insertion, sleep-set prune and prefix-cache prune is
//! attributed to the instruction (and the variable or mutex it touches)
//! that caused it, and every complete schedule is attributed to its
//! happens-before equivalence class and its schedule-prefix subtree.
//!
//! The design mirrors [`MetricsHandle`](crate::MetricsHandle): the
//! handle threaded through `ExploreConfig` is an `Option<Arc<..>>`, so
//! the disabled cost at every instrumentation site is one branch. A
//! registry holds one dense site slab and one leaf state. Enabled
//! recording on the step path is relaxed atomic adds on the slab (no
//! locks, no allocation); the leaf path — executed once per complete
//! schedule, where a fingerprint walk of the whole trace already
//! happened — takes the leaf-state mutex once and updates hash maps
//! whose growth is amortised.
//!
//! This crate cannot see the program model, so sites are raw
//! `(thread, pc)` pairs and objects are raw variable/mutex indices; the
//! trace crate resolves them to source names when rendering reports.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::doc::{require, DocError, DocFormat};
use crate::json::Json;

/// Per-site counter kinds, in slab and serialisation order.
pub mod site {
    /// Reversible races in which the site's event was the earlier partner.
    pub const RACES: usize = 0;
    /// Backtrack threads newly inserted because of a race at the site.
    pub const BACKTRACKS: usize = 1;
    /// Sleep-set subtree prunes immediately after executing the site.
    pub const SLEEP_BLOCKS: usize = 2;
    /// Prefix-cache prunes of the site's event (caching strategies).
    pub const CACHE_PRUNES: usize = 3;
    /// Complete schedules re-executed from backtrack points the site
    /// caused (DPOR only).
    pub const RESCHEDULES: usize = 4;
    /// Number of counter kinds (the slab stride).
    pub const KINDS: usize = 5;
    /// Serialised field names, in counter order.
    pub const NAMES: [&str; KINDS] = [
        "races",
        "backtracks",
        "sleep_blocks",
        "cache_prunes",
        "reschedules",
    ];
}

/// Leaf-depth bucket upper bounds (events per complete schedule); the
/// final implicit bucket is `+Inf`. Matches the metric family
/// `lazylocks_schedule_depth`.
pub const PROFILE_DEPTH_BUCKETS: [u64; 8] = [4, 8, 16, 32, 64, 128, 256, 512];

/// Schedule-prefix choices packed into a span key (6 bits each).
pub const SPAN_PREFIX_LEN: usize = 8;

/// The profile snapshot document format.
pub const PROFILE_FORMAT: DocFormat = DocFormat {
    name: "lazylocks-profile",
    version_key: "version",
    version: 1,
};

/// Hot-subtree rows kept in a snapshot.
pub const TOP_SPANS: usize = 10;

/// Most-re-explored equivalence classes kept per relation.
pub const TOP_CLASSES: usize = 5;

/// Program shape the dense site slabs are sized from: per-thread
/// instruction counts plus the variable and mutex counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileDims {
    /// Instruction count of each thread's code body, in thread order.
    pub thread_ins: Vec<u32>,
    /// Number of shared variables.
    pub vars: u32,
    /// Number of mutexes.
    pub mutexes: u32,
}

impl ProfileDims {
    fn site_count(&self) -> usize {
        self.thread_ins.iter().map(|&n| n as usize).sum()
    }

    fn obj_count(&self) -> usize {
        (self.vars + self.mutexes) as usize
    }
}

/// The object an instrumented event touches, as raw model indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileObj {
    /// A shared variable, by `VarId` index.
    Var(u32),
    /// A mutex, by `MutexId` index.
    Mutex(u32),
}

/// The dense attribution slab: `site_count × KINDS` counters for
/// instructions plus `obj_count × KINDS` for variables/mutexes. Written
/// with relaxed adds, read concurrently by snapshots.
#[derive(Debug)]
struct SiteSlabInner {
    dims: ProfileDims,
    /// First site index of each thread (prefix sums of `dims.thread_ins`).
    offsets: Vec<u32>,
    sites: Box<[AtomicU64]>,
    objs: Box<[AtomicU64]>,
}

fn atomic_slab(len: usize) -> Box<[AtomicU64]> {
    (0..len).map(|_| AtomicU64::new(0)).collect()
}

impl SiteSlabInner {
    fn new(dims: ProfileDims) -> SiteSlabInner {
        let mut offsets = Vec::with_capacity(dims.thread_ins.len());
        let mut total = 0u32;
        for &n in &dims.thread_ins {
            offsets.push(total);
            total += n;
        }
        let sites = atomic_slab(dims.site_count() * site::KINDS);
        let objs = atomic_slab(dims.obj_count() * site::KINDS);
        SiteSlabInner {
            dims,
            offsets,
            sites,
            objs,
        }
    }

    #[inline]
    fn site_slot(&self, thread: u32, pc: u32, counter: usize) -> usize {
        debug_assert!(pc < self.dims.thread_ins[thread as usize]);
        (self.offsets[thread as usize] + pc) as usize * site::KINDS + counter
    }

    #[inline]
    fn obj_slot(&self, obj: ProfileObj, counter: usize) -> usize {
        let index = match obj {
            ProfileObj::Var(v) => v as usize,
            ProfileObj::Mutex(m) => (self.dims.vars + m) as usize,
        };
        index * site::KINDS + counter
    }
}

/// A per-program-point recording handle onto a registry's site slab.
/// All operations are relaxed atomic adds; no-ops when bound from a
/// disabled [`ProfileHandle`].
#[derive(Debug, Clone, Default)]
pub struct ProfileSites(Option<Arc<SiteSlabInner>>);

impl ProfileSites {
    /// An inert handle (what a disabled [`ProfileHandle`] returns).
    pub fn disabled() -> ProfileSites {
        ProfileSites(None)
    }

    /// `true` when recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds `n` to one counter of the site `(thread, pc)` and, when the
    /// event touches an object, to the same counter of that object.
    #[inline]
    pub fn add(&self, thread: u32, pc: u32, obj: Option<ProfileObj>, counter: usize, n: u64) {
        let Some(inner) = &self.0 else { return };
        inner.sites[inner.site_slot(thread, pc, counter)].fetch_add(n, Ordering::Relaxed);
        if let Some(obj) = obj {
            inner.objs[inner.obj_slot(obj, counter)].fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Per-span accumulation: one schedule-prefix subtree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SpanAgg {
    schedules: u64,
    events: u64,
    wall_ns: u64,
}

/// A registry's leaf-level state, behind a mutex taken once per complete
/// schedule (the leaf path already walks the whole trace to fingerprint
/// it, so one uncontended lock is noise).
#[derive(Debug, Default)]
struct LeafState {
    classes_regular: HashMap<u128, u64>,
    classes_lazy: HashMap<u128, u64>,
    spans: HashMap<u64, SpanAgg>,
    /// One bucket per [`PROFILE_DEPTH_BUCKETS`] bound plus `+Inf`. Every
    /// leaf lands in exactly one bucket, so the buckets also hold the
    /// registry's schedule and event totals.
    depth: [SpanAgg; PROFILE_DEPTH_BUCKETS.len() + 1],
    /// Wall-clock instant of the previous leaf: each leaf is charged the
    /// time since the last one (the registry's first leaf charges 0).
    last_leaf: Option<Instant>,
}

/// Packs a schedule prefix (thread indices) into a span key: up to
/// [`SPAN_PREFIX_LEN`] choices of 6 bits each plus the packed length, so
/// span keys are `Copy` and leaf recording allocates nothing per leaf.
pub fn pack_prefix(choices: impl IntoIterator<Item = u32>) -> u64 {
    let mut key = 0u64;
    let mut len = 0u64;
    for c in choices.into_iter().take(SPAN_PREFIX_LEN) {
        debug_assert!(c < 64, "span prefix packing assumes <=64 threads");
        key |= u64::from(c & 0x3f) << (len * 6);
        len += 1;
    }
    key | (len << 48)
}

fn unpack_prefix(key: u64) -> Vec<u32> {
    let len = (key >> 48) as usize;
    (0..len).map(|i| ((key >> (i * 6)) & 0x3f) as u32).collect()
}

/// The profile store of one exploration (or one server job): one site
/// slab, sized on the first bind, and one leaf state. Every pass of a
/// run — each wave of `bounded` — records into the same two.
#[derive(Debug, Default)]
struct ProfileRegistry {
    sites: OnceLock<Arc<SiteSlabInner>>,
    leaf: Mutex<LeafState>,
}

impl ProfileRegistry {
    fn bind_sites(&self, dims: &ProfileDims) -> Arc<SiteSlabInner> {
        let slab = self
            .sites
            .get_or_init(|| Arc::new(SiteSlabInner::new(dims.clone())));
        assert_eq!(
            &slab.dims, dims,
            "one profile registry serves one program: dims diverged"
        );
        slab.clone()
    }

    /// One deterministic snapshot (sorted sites, objects, classes and
    /// spans). Safe to call while the registry is still recording
    /// (relaxed reads; the scrape path of a running job).
    fn snapshot(&self) -> ProfileSnapshot {
        let mut sites: Vec<SiteSnap> = Vec::new();
        let mut objects: Vec<ObjSnap> = Vec::new();
        if let Some(slab) = self.sites.get() {
            let read = |slots: &[AtomicU64], base: usize| {
                let mut counts = [0u64; site::KINDS];
                for (k, c) in counts.iter_mut().enumerate() {
                    *c = slots[base + k].load(Ordering::Relaxed);
                }
                counts
            };
            let dims = &slab.dims;
            for (thread, &n) in dims.thread_ins.iter().enumerate() {
                for pc in 0..n {
                    let counts = read(&slab.sites, slab.site_slot(thread as u32, pc, 0));
                    if counts.iter().any(|&c| c > 0) {
                        sites.push(SiteSnap {
                            thread: thread as u32,
                            pc,
                            counts,
                        });
                    }
                }
            }
            for index in 0..dims.obj_count() as u32 {
                let obj = if index < dims.vars {
                    ProfileObj::Var(index)
                } else {
                    ProfileObj::Mutex(index - dims.vars)
                };
                let counts = read(&slab.objs, slab.obj_slot(obj, 0));
                if counts.iter().any(|&c| c > 0) {
                    objects.push(ObjSnap { obj, counts });
                }
            }
        }

        let st = self.leaf.lock().expect("profile leaf state poisoned");
        let classes = [
            ClassSnap::from_map("regular", &st.classes_regular),
            ClassSnap::from_map("lazy", &st.classes_lazy),
        ];
        let span_count = st.spans.len() as u64;
        let mut top_spans: Vec<(u64, SpanAgg)> = st.spans.iter().map(|(&k, &a)| (k, a)).collect();
        // Deterministic hot-subtree order: most schedules first, packed
        // prefix as the tie-break.
        top_spans.sort_by(|a, b| b.1.schedules.cmp(&a.1.schedules).then(a.0.cmp(&b.0)));
        top_spans.truncate(TOP_SPANS);
        let spans = top_spans
            .into_iter()
            .map(|(key, agg)| SpanSnap {
                prefix: unpack_prefix(key),
                schedules: agg.schedules,
                events: agg.events,
                wall_ns: agg.wall_ns,
            })
            .collect();
        let schedules = st.depth.iter().map(|d| d.schedules).sum();
        let events = st.depth.iter().map(|d| d.events).sum();
        let depth = st
            .depth
            .iter()
            .enumerate()
            .map(|(i, agg)| DepthSnap {
                le: PROFILE_DEPTH_BUCKETS.get(i).copied(),
                schedules: agg.schedules,
                events: agg.events,
                wall_ns: agg.wall_ns,
            })
            .collect();

        ProfileSnapshot {
            schedules,
            events,
            sites,
            objects,
            classes,
            span_count,
            spans,
            depth,
        }
    }
}

/// The cloneable on/off switch threaded through `ExploreConfig`: `None`
/// (the default) costs one branch per instrumentation point; `Some`
/// shares one `ProfileRegistry` between every recorder of a run.
#[derive(Debug, Clone, Default)]
pub struct ProfileHandle(Option<Arc<ProfileRegistry>>);

impl ProfileHandle {
    /// The inert default: every operation is a no-op.
    pub fn disabled() -> ProfileHandle {
        ProfileHandle(None)
    }

    /// A live handle over a fresh registry.
    pub fn enabled() -> ProfileHandle {
        ProfileHandle(Some(Arc::new(ProfileRegistry::default())))
    }

    /// `true` when recording is live.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Binds the registry's site slab, sizing it for `dims` on the first
    /// bind. Every bind of one registry must pass the same dims (one
    /// registry serves one program).
    pub fn sites(&self, dims: &ProfileDims) -> ProfileSites {
        ProfileSites(self.0.as_ref().map(|r| r.bind_sites(dims)))
    }

    /// Records one complete schedule: its event count, its packed
    /// schedule-prefix span key (see [`pack_prefix`]) and its terminal
    /// happens-before fingerprints under the regular and lazy relations
    /// (when the caller computed them).
    pub fn record_leaf(
        &self,
        events: u64,
        span_key: u64,
        fp_regular: Option<u128>,
        fp_lazy: Option<u128>,
    ) {
        let Some(registry) = &self.0 else { return };
        let now = Instant::now();
        let mut st = registry.leaf.lock().expect("profile leaf state poisoned");
        let wall_ns = match st.last_leaf {
            Some(prev) => now.duration_since(prev).as_nanos().min(u64::MAX as u128) as u64,
            None => 0,
        };
        st.last_leaf = Some(now);
        if let Some(fp) = fp_regular {
            *st.classes_regular.entry(fp).or_insert(0) += 1;
        }
        if let Some(fp) = fp_lazy {
            *st.classes_lazy.entry(fp).or_insert(0) += 1;
        }
        let span = st.spans.entry(span_key).or_default();
        span.schedules += 1;
        span.events += events;
        span.wall_ns += wall_ns;
        let bucket = PROFILE_DEPTH_BUCKETS
            .iter()
            .position(|&le| events <= le)
            .unwrap_or(PROFILE_DEPTH_BUCKETS.len());
        let d = &mut st.depth[bucket];
        d.schedules += 1;
        d.events += events;
        d.wall_ns += wall_ns;
    }

    /// Snapshot of the whole registry; `None` when disabled.
    pub fn snapshot(&self) -> Option<ProfileSnapshot> {
        self.0.as_ref().map(|r| r.snapshot())
    }
}

/// Attribution counters of one program point, `(thread, pc)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSnap {
    pub thread: u32,
    pub pc: u32,
    /// Counter values in [`site`] order.
    pub counts: [u64; site::KINDS],
}

/// Attribution counters of one variable or mutex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjSnap {
    pub obj: ProfileObj,
    /// Counter values in [`site`] order.
    pub counts: [u64; site::KINDS],
}

/// Schedules-per-equivalence-class accounting for one happens-before
/// relation: the paper's §3 redundancy metric
/// (`redundant = schedules − distinct classes`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSnap {
    /// `"regular"` or `"lazy"`.
    pub relation: &'static str,
    /// Distinct equivalence classes reached.
    pub distinct: u64,
    /// Schedules attributed to a class (leaves with a fingerprint).
    pub schedules: u64,
    /// The most re-explored classes: `(fingerprint, schedules)`, highest
    /// first, at most [`TOP_CLASSES`] rows.
    pub top: Vec<(u128, u64)>,
}

impl ClassSnap {
    fn from_map(relation: &'static str, map: &HashMap<u128, u64>) -> ClassSnap {
        let mut top: Vec<(u128, u64)> = map.iter().map(|(&fp, &n)| (fp, n)).collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(TOP_CLASSES);
        ClassSnap {
            relation,
            distinct: map.len() as u64,
            schedules: map.values().sum(),
            top,
        }
    }

    /// Schedules that re-explored an already-seen class.
    pub fn redundant(&self) -> u64 {
        self.schedules - self.distinct
    }
}

/// One hot subtree: a schedule prefix with its accumulated work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnap {
    /// The first ≤ [`SPAN_PREFIX_LEN`] schedule choices (thread indices).
    pub prefix: Vec<u32>,
    pub schedules: u64,
    pub events: u64,
    /// Wall time attributed to leaves of this subtree (time-based:
    /// zeroed by [`ProfileSnapshot::scrubbed`]).
    pub wall_ns: u64,
}

/// One leaf-depth bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthSnap {
    /// Upper bound in events; `None` is the `+Inf` bucket.
    pub le: Option<u64>,
    pub schedules: u64,
    pub events: u64,
    /// Time-based: zeroed by [`ProfileSnapshot::scrubbed`].
    pub wall_ns: u64,
}

/// An ordered point-in-time view of a `ProfileRegistry` — the
/// unit that serializes and scrubs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Complete schedules recorded at the leaf level (the sum over the
    /// depth buckets).
    pub schedules: u64,
    /// Events across those schedules (the sum over the depth buckets).
    pub events: u64,
    /// Non-zero program points, sorted by `(thread, pc)`.
    pub sites: Vec<SiteSnap>,
    /// Non-zero objects, variables first then mutexes.
    pub objects: Vec<ObjSnap>,
    /// Redundancy accounting under the regular and lazy relations.
    pub classes: [ClassSnap; 2],
    /// Distinct schedule-prefix subtrees seen.
    pub span_count: u64,
    /// The hottest subtrees (≤ [`TOP_SPANS`], most schedules first).
    pub spans: Vec<SpanSnap>,
    /// Per-depth-bucket accounting ([`PROFILE_DEPTH_BUCKETS`] + `+Inf`).
    pub depth: Vec<DepthSnap>,
}

impl ProfileSnapshot {
    /// A copy with every wall-time series zeroed — the determinism
    /// contract: two identical explorations scrub to byte-identical JSON.
    pub fn scrubbed(&self) -> ProfileSnapshot {
        let mut s = self.clone();
        for span in &mut s.spans {
            span.wall_ns = 0;
        }
        for d in &mut s.depth {
            d.wall_ns = 0;
        }
        s
    }

    /// The snapshot document, stable field order. Fingerprints are hex
    /// strings (they exceed the interoperable integer range).
    pub fn to_json(&self) -> Json {
        fn with_counts(mut pairs: Vec<(&'static str, Json)>, counts: &[u64]) -> Json {
            pairs.extend(
                site::NAMES
                    .into_iter()
                    .zip(counts.iter().map(|&c| Json::from(c))),
            );
            Json::obj(pairs)
        }
        let work = |schedules: u64, events: u64, wall_ns: u64| {
            [
                ("schedules", Json::from(schedules)),
                ("events", Json::from(events)),
                ("wall_ns", Json::from(wall_ns)),
            ]
        };
        let sites = self.sites.iter().map(|s| {
            with_counts(
                vec![("thread", Json::from(s.thread)), ("pc", Json::from(s.pc))],
                &s.counts,
            )
        });
        let objects = self.objects.iter().map(|o| {
            let (kind, index) = match o.obj {
                ProfileObj::Var(v) => ("var", v),
                ProfileObj::Mutex(m) => ("mutex", m),
            };
            with_counts(
                vec![("kind", Json::from(kind)), ("index", Json::from(index))],
                &o.counts,
            )
        });
        let classes = self.classes.iter().map(|c| {
            let top = c.top.iter().map(|&(fp, n)| {
                Json::obj([
                    ("fingerprint", Json::u128_hex(fp)),
                    ("schedules", Json::from(n)),
                ])
            });
            Json::obj([
                ("relation", Json::from(c.relation)),
                ("distinct", Json::from(c.distinct)),
                ("schedules", Json::from(c.schedules)),
                ("redundant", Json::from(c.redundant())),
                ("top", Json::Arr(top.collect())),
            ])
        });
        let spans = self.spans.iter().map(|s| {
            let prefix = Json::Arr(s.prefix.iter().map(|&c| Json::from(c)).collect());
            Json::obj([("prefix", prefix)].into_iter().chain(work(
                s.schedules,
                s.events,
                s.wall_ns,
            )))
        });
        let depth = self.depth.iter().map(|d| {
            let le = d.le.map_or_else(|| Json::from("inf"), Json::from);
            Json::obj(
                [("le", le)]
                    .into_iter()
                    .chain(work(d.schedules, d.events, d.wall_ns)),
            )
        });
        PROFILE_FORMAT.wrap([
            ("schedules", Json::from(self.schedules)),
            ("events", Json::from(self.events)),
            ("sites", Json::Arr(sites.collect())),
            ("objects", Json::Arr(objects.collect())),
            ("classes", Json::Arr(classes.collect())),
            (
                "subtrees",
                Json::obj([
                    ("distinct", Json::from(self.span_count)),
                    ("top", Json::Arr(spans.collect())),
                ]),
            ),
            ("depth", Json::Arr(depth.collect())),
        ])
    }

    /// [`ProfileSnapshot::to_json`], encoded compactly.
    pub fn to_json_string(&self) -> String {
        self.to_json().encode()
    }

    /// Decodes a [`ProfileSnapshot::to_json`] document, so saved
    /// profiles render without re-running the exploration. Thread, pc,
    /// object-index and prefix values must fit in `u32`.
    pub fn from_json(v: &Json) -> Result<ProfileSnapshot, DocError> {
        let v = PROFILE_FORMAT.open(v)?;
        let u64_of = |j: &Json, field: &'static str| require(j, field, Json::as_u64);
        let counts = |j: &Json| -> Result<[u64; site::KINDS], DocError> {
            let mut out = [0u64; site::KINDS];
            for (slot, name) in out.iter_mut().zip(site::NAMES) {
                *slot = u64_of(j, name)?;
            }
            Ok(out)
        };
        let sites = require(v, "sites", Json::as_arr)?
            .iter()
            .map(|s| {
                Ok(SiteSnap {
                    thread: require(s, "thread", Json::as_u32)?,
                    pc: require(s, "pc", Json::as_u32)?,
                    counts: counts(s)?,
                })
            })
            .collect::<Result<_, DocError>>()?;
        let objects = require(v, "objects", Json::as_arr)?
            .iter()
            .map(|o| {
                let index = require(o, "index", Json::as_u32)?;
                let obj = match require(o, "kind", Json::as_str)? {
                    "var" => ProfileObj::Var(index),
                    "mutex" => ProfileObj::Mutex(index),
                    _ => return Err(DocError::schema("kind", "must be 'var' or 'mutex'")),
                };
                Ok(ObjSnap {
                    obj,
                    counts: counts(o)?,
                })
            })
            .collect::<Result<_, DocError>>()?;
        let class = |c: &Json| -> Result<ClassSnap, DocError> {
            // The relation names are a closed set (the snapshot holds
            // `&'static str`), so decode by matching rather than cloning.
            let relation = match require(c, "relation", Json::as_str)? {
                "regular" => "regular",
                "lazy" => "lazy",
                _ => return Err(DocError::schema("relation", "must be 'regular' or 'lazy'")),
            };
            let top = require(c, "top", Json::as_arr)?
                .iter()
                .map(|t| {
                    Ok((
                        require(t, "fingerprint", Json::as_u128_hex)?,
                        u64_of(t, "schedules")?,
                    ))
                })
                .collect::<Result<_, DocError>>()?;
            Ok(ClassSnap {
                relation,
                distinct: u64_of(c, "distinct")?,
                schedules: u64_of(c, "schedules")?,
                top,
            })
        };
        let classes = match require(v, "classes", Json::as_arr)? {
            [regular, lazy] => [class(regular)?, class(lazy)?],
            _ => {
                return Err(DocError::schema(
                    "classes",
                    "expected exactly two relations",
                ))
            }
        };
        let subtrees = require(v, "subtrees", Some)?;
        let spans = require(subtrees, "top", Json::as_arr)?
            .iter()
            .map(|s| {
                Ok(SpanSnap {
                    prefix: require(s, "prefix", Json::as_arr)?
                        .iter()
                        .map(|c| {
                            c.as_u32()
                                .ok_or_else(|| DocError::schema("prefix", "not a thread index"))
                        })
                        .collect::<Result<_, DocError>>()?,
                    schedules: u64_of(s, "schedules")?,
                    events: u64_of(s, "events")?,
                    wall_ns: u64_of(s, "wall_ns")?,
                })
            })
            .collect::<Result<_, DocError>>()?;
        let depth = require(v, "depth", Json::as_arr)?
            .iter()
            .map(|d| {
                let le = match require(d, "le", Some)? {
                    Json::Str(s) if s == "inf" => None,
                    other => Some(
                        other
                            .as_u64()
                            .ok_or_else(|| DocError::schema("le", "not a bound or \"inf\""))?,
                    ),
                };
                Ok(DepthSnap {
                    le,
                    schedules: u64_of(d, "schedules")?,
                    events: u64_of(d, "events")?,
                    wall_ns: u64_of(d, "wall_ns")?,
                })
            })
            .collect::<Result<_, DocError>>()?;
        Ok(ProfileSnapshot {
            schedules: u64_of(v, "schedules")?,
            events: u64_of(v, "events")?,
            sites,
            objects,
            classes,
            span_count: u64_of(subtrees, "distinct")?,
            spans,
            depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> ProfileDims {
        ProfileDims {
            thread_ins: vec![3, 2],
            vars: 2,
            mutexes: 1,
        }
    }

    #[test]
    fn disabled_handle_is_inert_everywhere() {
        let handle = ProfileHandle::disabled();
        assert!(!handle.is_enabled());
        let sites = handle.sites(&dims());
        assert!(!sites.is_enabled());
        sites.add(0, 1, Some(ProfileObj::Var(0)), site::RACES, 1);
        handle.record_leaf(5, pack_prefix([0, 1]), Some(1), Some(2));
        assert!(handle.snapshot().is_none());
    }

    #[test]
    fn site_and_object_attribution_lands_on_the_right_slots() {
        let handle = ProfileHandle::enabled();
        let sites = handle.sites(&dims());
        sites.add(0, 2, Some(ProfileObj::Mutex(0)), site::BACKTRACKS, 3);
        sites.add(1, 0, Some(ProfileObj::Var(1)), site::RACES, 1);
        sites.add(1, 0, None, site::RESCHEDULES, 7);
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.sites.len(), 2);
        assert_eq!(snap.sites[0].thread, 0);
        assert_eq!(snap.sites[0].pc, 2);
        assert_eq!(snap.sites[0].counts[site::BACKTRACKS], 3);
        assert_eq!(snap.sites[1].thread, 1);
        assert_eq!(snap.sites[1].counts[site::RACES], 1);
        assert_eq!(snap.sites[1].counts[site::RESCHEDULES], 7);
        assert_eq!(snap.objects.len(), 2);
        assert_eq!(snap.objects[0].obj, ProfileObj::Var(1));
        assert_eq!(snap.objects[1].obj, ProfileObj::Mutex(0));
        assert_eq!(snap.objects[1].counts[site::BACKTRACKS], 3);
    }

    #[test]
    fn leaf_recording_accumulates_classes_spans_and_depth() {
        let handle = ProfileHandle::enabled();
        handle.record_leaf(6, pack_prefix([0, 1, 0]), Some(10), Some(20));
        handle.record_leaf(6, pack_prefix([0, 1, 0]), Some(11), Some(20));
        handle.record_leaf(600, pack_prefix([1]), Some(11), None);
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.schedules, 3);
        assert_eq!(snap.events, 612);
        let regular = &snap.classes[0];
        assert_eq!(regular.relation, "regular");
        assert_eq!(regular.distinct, 2);
        assert_eq!(regular.schedules, 3);
        assert_eq!(regular.redundant(), 1);
        let lazy = &snap.classes[1];
        assert_eq!(lazy.distinct, 1);
        assert_eq!(lazy.schedules, 2);
        assert_eq!(snap.span_count, 2);
        assert_eq!(snap.spans[0].prefix, vec![0, 1, 0]);
        assert_eq!(snap.spans[0].schedules, 2);
        // 6 ≤ 8 → second bucket; 600 overflows every bound → +Inf.
        assert_eq!(snap.depth[1].schedules, 2);
        assert_eq!(snap.depth.last().unwrap().schedules, 1);
        assert_eq!(snap.depth.last().unwrap().le, None);
    }

    #[test]
    fn every_bind_records_into_one_slab() {
        // Two binds of one registry (two waves of one run) and one bind
        // used twice must produce the same document.
        let run = |rebind: bool| {
            let handle = ProfileHandle::enabled();
            let a = handle.sites(&dims());
            let b = if rebind {
                handle.sites(&dims())
            } else {
                a.clone()
            };
            a.add(0, 0, Some(ProfileObj::Var(0)), site::RACES, 2);
            b.add(0, 0, Some(ProfileObj::Var(0)), site::RACES, 5);
            handle.record_leaf(4, pack_prefix([0]), Some(1), Some(1));
            handle.record_leaf(4, pack_prefix([0]), Some(1), Some(1));
            handle.snapshot().unwrap().scrubbed().to_json_string()
        };
        assert_eq!(run(true), run(false));
        assert!(run(true).contains("\"races\":7"));
    }

    #[test]
    fn scrub_zeroes_wall_time_only() {
        let handle = ProfileHandle::enabled();
        handle.record_leaf(4, pack_prefix([0]), Some(1), Some(1));
        std::thread::sleep(std::time::Duration::from_millis(2));
        handle.record_leaf(4, pack_prefix([0]), Some(1), Some(1));
        let snap = handle.snapshot().unwrap();
        assert!(snap.spans[0].wall_ns > 0, "second leaf must be charged");
        let scrubbed = snap.scrubbed();
        assert_eq!(scrubbed.spans[0].wall_ns, 0);
        assert!(scrubbed.depth.iter().all(|d| d.wall_ns == 0));
        assert_eq!(scrubbed.spans[0].schedules, snap.spans[0].schedules);
    }

    #[test]
    fn identical_recordings_serialize_byte_identically() {
        let run = || {
            let handle = ProfileHandle::enabled();
            let sites = handle.sites(&dims());
            sites.add(0, 1, Some(ProfileObj::Mutex(0)), site::RACES, 4);
            sites.add(1, 1, Some(ProfileObj::Var(0)), site::BACKTRACKS, 2);
            for fp in [7u128, 9, 7, 7] {
                handle.record_leaf(10, pack_prefix([0, 1]), Some(fp), Some(fp / 2));
            }
            handle.snapshot().unwrap().scrubbed().to_json_string()
        };
        assert_eq!(run(), run());
    }

    /// A scrubbed snapshot with one site, one object, one class and one
    /// span, encoded; decoding it after `from → to` must fail on `field`.
    fn rejects(from: &str, to: &str, field: &str) {
        let handle = ProfileHandle::enabled();
        handle
            .sites(&dims())
            .add(1, 1, Some(ProfileObj::Mutex(0)), site::RACES, 1);
        handle.record_leaf(4, pack_prefix([1, 0]), Some(0xabc), Some(0xabc));
        let text = handle.snapshot().unwrap().scrubbed().to_json_string();
        assert!(ProfileSnapshot::from_json(&Json::parse(&text).unwrap()).is_ok());
        let hostile = text.replacen(from, to, 1);
        assert_ne!(hostile, text, "{from} not in {text}");
        match ProfileSnapshot::from_json(&Json::parse(&hostile).unwrap()) {
            Err(DocError::Schema { field: f, .. }) => assert_eq!(f, field),
            other => panic!("{to}: expected a schema error on {field}, got {other:?}"),
        }
    }

    #[test]
    fn decoder_rejects_thread_out_of_range() {
        rejects("\"thread\":1", "\"thread\":4294967296", "thread");
    }

    #[test]
    fn decoder_rejects_pc_out_of_range() {
        rejects("\"pc\":1", "\"pc\":4294967297", "pc");
    }

    #[test]
    fn decoder_rejects_object_index_out_of_range() {
        rejects("\"index\":0", "\"index\":4294967296", "index");
    }

    #[test]
    fn decoder_rejects_prefix_choice_out_of_range() {
        rejects("\"prefix\":[1,0]", "\"prefix\":[1,4294967296]", "prefix");
    }

    #[test]
    fn decoder_rejects_signed_fingerprints() {
        let fp = format!("\"{:032x}\"", 0xabc);
        let signed = format!("\"+{:031x}\"", 0xabc);
        rejects(&fp, &signed, "fingerprint");
    }

    #[test]
    fn decoder_rejects_overlong_fingerprints() {
        let fp = format!("\"{:032x}\"", 0xabc);
        let overlong = format!("\"0{:032x}\"", 0xabc);
        rejects(&fp, &overlong, "fingerprint");
    }

    #[test]
    fn prefix_packing_round_trips() {
        assert_eq!(unpack_prefix(pack_prefix([])), Vec::<u32>::new());
        assert_eq!(unpack_prefix(pack_prefix([3, 0, 63])), vec![3, 0, 63]);
        // Longer schedules share the 8-choice subtree key.
        let long = pack_prefix((0..20).map(|i| i % 4));
        assert_eq!(unpack_prefix(long).len(), SPAN_PREFIX_LEN);
        assert_eq!(
            pack_prefix((0..9).map(|_| 1)),
            pack_prefix((0..8).map(|_| 1))
        );
    }

    #[test]
    #[should_panic(expected = "dims diverged")]
    fn mismatched_dims_panic() {
        let handle = ProfileHandle::enabled();
        let _ = handle.sites(&dims());
        let _ = handle.sites(&ProfileDims {
            thread_ins: vec![1],
            vars: 0,
            mutexes: 0,
        });
    }
}
