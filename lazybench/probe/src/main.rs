//! In-process probe of the lazylocks benchmark.
//!
//! Times the benchmark's own calls into each crate's public functions and
//! re-runs exploration cells with the public `ExploreConfig` switches
//! flipped one at a time. Every call is wrapped in a span (name, start,
//! end, parent) kept in memory; the spans and the measurements go to
//! stdout as one JSON document when the command ends.
//!
//! ```text
//! lazybench-probe core      '{"cells":[{"bench":..,"spec":..,"limit":N,"rounds":N}],"seed":N,"min_ms":N}'
//! lazybench-probe parallel  '{"bench":..,"limit":N}'
//! lazybench-probe service   '{"jobs":[{"name":..,"source":..,"spec":..,"limit":N}],"dir":..}'
//! lazybench-probe sources   '{"names":[..]}'
//! lazybench-probe reference '{"cells":[{"bench":..,"spec":..,"limit":N}]}'
//! ```

use lazylocks::clock::VectorClock;
use lazylocks::hbr::{event_record_hash, ClockEngine, HbMode, PrefixAccumulator};
use lazylocks::model::{Program, ThreadId};
use lazylocks::runtime::{Event, Executor};
use lazylocks::{ExploreConfig, ExploreOutcome, MetricsHandle, ProfileHandle, StrategyRegistry};
use lazylocks_trace::{
    drive, outcome_json, write_atomic_durable, CorpusStore, DriveRequest, FaultPlan, Json,
    ProfileDoc,
};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The probe's output: JSON with floating-point numbers, which the
/// program's integer-only codec does not carry.
enum Val {
    Null,
    Bool(bool),
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    fn obj(pairs: impl IntoIterator<Item = (&'static str, Val)>) -> Val {
        Val::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn get(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric field `key` (0 when absent).
    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Val::Int(i)) => *i as f64,
            Some(Val::Num(f)) => *f,
            _ => 0.0,
        }
    }

    fn encode(&self, out: &mut String) {
        match self {
            Val::Null => out.push_str("null"),
            Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Val::Int(i) => out.push_str(&i.to_string()),
            Val::Num(f) if f.is_finite() => out.push_str(&format!("{f:e}")),
            Val::Num(_) => out.push_str("null"),
            Val::Str(s) => out.push_str(&Json::Str(s.clone()).encode()),
            Val::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode(out);
                }
                out.push(']');
            }
            Val::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&Json::Str(k.clone()).encode());
                    out.push(':');
                    v.encode(out);
                }
                out.push('}');
            }
        }
    }
}

/// Spans recorded around every call into a layer, in start order.
struct Spans {
    epoch: Instant,
    list: Vec<(String, f64, f64, Option<usize>)>,
    stack: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            list: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; returns its value and its
    /// duration in seconds.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start = self.epoch.elapsed().as_secs_f64();
        let idx = self.list.len();
        self.list
            .push((name.to_string(), start, start, self.stack.last().copied()));
        self.stack.push(idx);
        let value = f(self);
        self.stack.pop();
        let end = self.epoch.elapsed().as_secs_f64();
        self.list[idx].2 = end;
        (value, end - start)
    }

    fn to_val(&self) -> Val {
        Val::Arr(
            self.list
                .iter()
                .map(|(name, start, end, parent)| {
                    Val::obj([
                        ("name", Val::Str(name.clone())),
                        ("start", Val::Num(*start)),
                        ("end", Val::Num(*end)),
                        ("parent", parent.map_or(Val::Null, |p| Val::Int(p as i128))),
                    ])
                })
                .collect(),
        )
    }
}

/// xorshift64*: the probe's only randomness (trace sampling), seeded by
/// the benchmark's `--seed`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A distinct-per-input 128-bit value, standing in for a fingerprint.
fn mix(i: u64) -> u128 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let lo = z ^ (z >> 31);
    (u128::from(lo) << 64) | u128::from(lo.rotate_left(17) ^ i)
}

/// Mean seconds per call of `f`, called until at least `min_s` passed.
fn per_call(min_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_s {
            return elapsed / calls as f64;
        }
    }
}

fn bench_program(name: &str) -> Program {
    lazylocks_suite::by_name(name)
        .unwrap_or_else(|| fail(&format!("unknown benchmark {name:?}")))
        .program
}

fn fail(message: &str) -> ! {
    eprintln!("lazybench-probe: {message}");
    std::process::exit(2)
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| fail(&format!("missing field {key:?}")))
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| fail(&format!("{key:?} must be a string")))
}

fn int_field(v: &Json, key: &str) -> u64 {
    field(v, key)
        .as_u64()
        .unwrap_or_else(|| fail(&format!("{key:?} must be a non-negative integer")))
}

fn collecting(limit: usize, states: bool, hbrs: bool, lazy: bool) -> ExploreConfig {
    let mut config = ExploreConfig::with_limit(limit);
    config.collect_states = states;
    config.collect_hbrs = hbrs;
    config.collect_lazy_hbrs = lazy;
    config
}

/// One exploration through the same entry point `lazylocks run` uses.
fn explore(program: &Program, spec: &str, config: ExploreConfig) -> ExploreOutcome {
    drive(DriveRequest::new(program, spec).with_config(config))
        .unwrap_or_else(|e| fail(&format!("spec {spec:?}: {e}")))
        .outcome
}

fn outcome_summary(outcome: &ExploreOutcome, wall_s: f64) -> Val {
    let s = &outcome.stats;
    let int = |v: u64| Val::Int(i128::from(v));
    Val::obj([
        ("verdict", Val::Str(outcome.verdict.to_string())),
        ("schedules", int(s.schedules as u64)),
        ("events", int(s.events)),
        ("unique_states", int(s.unique_states as u64)),
        ("unique_hbrs", int(s.unique_hbrs as u64)),
        ("unique_lazy_hbrs", int(s.unique_lazy_hbrs as u64)),
        ("limit_hit", Val::Bool(s.limit_hit)),
        ("cancelled", Val::Bool(s.cancelled)),
        ("truncated_runs", int(s.truncated_runs as u64)),
        ("frames_pooled", int(s.frames_pooled)),
        ("events_compared", int(s.events_compared)),
        ("sleep_prunes", int(s.sleep_prunes as u64)),
        ("cache_prunes", int(s.cache_prunes as u64)),
        ("wall_s", Val::Num(wall_s)),
    ])
}

/// A complete random execution: the terminal machine, its trace and the
/// schedule that produced it.
struct Sample<'p> {
    exec: Executor<'p>,
    trace: Vec<Event>,
    schedule: Vec<ThreadId>,
}

fn sample_traces<'p>(program: &'p Program, count: usize, rng: &mut Rng) -> Vec<Sample<'p>> {
    (0..count)
        .map(|_| {
            let mut exec = Executor::new(program);
            let mut trace = Vec::new();
            let mut schedule = Vec::new();
            loop {
                let enabled = exec.enabled_threads();
                if enabled.is_empty() || schedule.len() >= 10_000 {
                    break;
                }
                let t = enabled[(rng.next() % enabled.len() as u64) as usize];
                schedule.push(t);
                if let Some(e) = exec.step(t).event {
                    trace.push(e);
                }
            }
            Sample {
                exec,
                trace,
                schedule,
            }
        })
        .collect()
}

/// Per-call costs of the leaf-accounting functions and of the hot
/// per-step functions, on sampled complete traces of `program`.
fn micro(spans: &mut Spans, program: &Program, seed: u64) -> Val {
    const MIN_S: f64 = 0.02;
    let mut rng = Rng(seed | 1);
    let samples = spans
        .span("runtime.sample_traces", |_| {
            sample_traces(program, 2048, &mut rng)
        })
        .0;
    let n = samples.len() as f64;
    let events: usize = samples.iter().map(|s| s.trace.len()).sum();
    let steps: usize = samples.iter().map(|s| s.schedule.len()).sum();
    let width = program.thread_count();

    let state_fp = spans
        .span("runtime.state_fingerprint", |_| {
            per_call(MIN_S, || {
                for s in &samples {
                    black_box(s.exec.state_fingerprint());
                }
            })
        })
        .0
        / n;
    let fresh = Executor::new(program);
    let mut exec = fresh.clone();
    let replay = spans
        .span("runtime.step", |_| {
            per_call(MIN_S, || {
                for s in &samples {
                    exec.assign_from(&fresh);
                    for &t in &s.schedule {
                        black_box(exec.step(t));
                    }
                }
            })
        })
        .0;
    let assign = spans
        .span("runtime.assign_from", |_| {
            per_call(MIN_S, || {
                for s in &samples {
                    exec.assign_from(black_box(&s.exec));
                }
            })
        })
        .0
        / n;
    // The replay loop pays one assign_from per sample on top of its steps.
    let step = (replay - assign * n).max(0.0) / steps.max(1) as f64;

    let per_mode = |mode: HbMode, spans: &mut Spans| {
        let mut engine = ClockEngine::for_program(mode, program);
        let tag = if mode == HbMode::Lazy {
            "lazy"
        } else {
            "regular"
        };
        let fingerprint = spans
            .span(&format!("hbr.trace_fingerprint_{tag}"), |_| {
                per_call(MIN_S, || {
                    for s in &samples {
                        black_box(engine.trace_fingerprint(&s.trace));
                    }
                })
            })
            .0
            / n;
        let apply = spans
            .span(&format!("hbr.apply_{tag}"), |_| {
                per_call(MIN_S, || {
                    for s in &samples {
                        engine.reset();
                        for e in &s.trace {
                            black_box(engine.apply(e));
                        }
                    }
                })
            })
            .0
            / events.max(1) as f64;
        (fingerprint, apply)
    };
    let (fp_regular, apply_regular) = per_mode(HbMode::Regular, spans);
    let (fp_lazy, apply_lazy) = per_mode(HbMode::Lazy, spans);

    let engines: Vec<ClockEngine> = samples
        .iter()
        .take(64)
        .map(|s| {
            let mut e = ClockEngine::for_program(HbMode::Regular, program);
            for ev in &s.trace {
                e.apply(ev);
            }
            e
        })
        .collect();
    let mut target = ClockEngine::for_program(HbMode::Regular, program);
    let engine_assign = spans
        .span("hbr.assign_from", |_| {
            per_call(MIN_S, || {
                for other in &engines {
                    target.assign_from(black_box(other));
                }
            })
        })
        .0
        / engines.len().max(1) as f64;

    let records: Vec<Vec<(Event, VectorClock)>> = samples
        .iter()
        .map(|s| {
            let mut e = ClockEngine::for_program(HbMode::Regular, program);
            s.trace
                .iter()
                .map(|ev| (*ev, e.apply(ev).clone()))
                .collect()
        })
        .collect();
    let absorb = spans
        .span("hbr.absorb", |_| {
            per_call(MIN_S, || {
                for trace in &records {
                    let mut acc = PrefixAccumulator::new();
                    for (ev, clock) in trace {
                        acc.absorb(event_record_hash(ev, clock));
                    }
                    black_box(acc);
                }
            })
        })
        .0
        / events.max(1) as f64;

    let clocks: Vec<VectorClock> = records
        .iter()
        .filter_map(|t| t.last().map(|(_, c)| c.clone()))
        .take(64)
        .collect();
    let mut acc = VectorClock::new(width);
    let join = spans
        .span("clock.join", |_| {
            per_call(MIN_S, || {
                for c in &clocks {
                    acc.join(black_box(c));
                }
            })
        })
        .0
        / clocks.len().max(1) as f64;

    Val::obj([
        ("samples", Val::Int(samples.len() as i128)),
        ("events_per_trace", Val::Num(events as f64 / n)),
        ("thread_width", Val::Int(width as i128)),
        ("state_fingerprint_ns", Val::Num(state_fp * 1e9)),
        ("step_ns", Val::Num(step * 1e9)),
        ("assign_from_ns", Val::Num(assign * 1e9)),
        ("trace_fingerprint_regular_ns", Val::Num(fp_regular * 1e9)),
        ("trace_fingerprint_lazy_ns", Val::Num(fp_lazy * 1e9)),
        ("apply_regular_ns", Val::Num(apply_regular * 1e9)),
        ("apply_lazy_ns", Val::Num(apply_lazy * 1e9)),
        ("engine_assign_from_ns", Val::Num(engine_assign * 1e9)),
        ("absorb_ns", Val::Num(absorb * 1e9)),
        ("join_ns", Val::Num(join * 1e9)),
    ])
}

/// Seconds spent inserting `inserts` fingerprints with `distinct`
/// distinct values into a fresh `HashSet<u128>`, as the collector does.
fn set_inserts(inserts: u64, distinct: u64, salt: u64) -> f64 {
    if distinct == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut set: HashSet<u128> = HashSet::new();
    for i in 0..inserts {
        set.insert(mix((i % distinct) ^ (salt << 56)));
    }
    black_box(set.len());
    start.elapsed().as_secs_f64()
}

/// The leaf accounting of one cell estimated by replay: the per-trace
/// cost of each fingerprint on sampled traces, times the cell's schedule
/// count, plus the set inserts at the cell's distinct counts.
fn leaf_replay(spans: &mut Spans, default: &Val, micro: &Val) -> Val {
    let schedules = default.num("schedules") as u64;
    let mut per = |fp_ns: &str, distinct: &str, salt: u64, name: &str| {
        let sets = spans
            .span(name, |_| {
                set_inserts(schedules, default.num(distinct) as u64, salt)
            })
            .0;
        micro.num(fp_ns) * 1e-9 * schedules as f64 + sets
    };
    let states = per(
        "state_fingerprint_ns",
        "unique_states",
        1,
        "core.replay_states",
    );
    let hbr = per(
        "trace_fingerprint_regular_ns",
        "unique_hbrs",
        2,
        "core.replay_hbr",
    );
    let lazy = per(
        "trace_fingerprint_lazy_ns",
        "unique_lazy_hbrs",
        3,
        "core.replay_lazy_hbr",
    );
    Val::obj([
        ("states_s", Val::Num(states)),
        ("hbr_s", Val::Num(hbr)),
        ("lazy_hbr_s", Val::Num(lazy)),
        ("total_s", Val::Num(states + hbr + lazy)),
    ])
}

/// Runs the cell under `config` `reps` times inside one span; the last
/// outcome's summary with the mean wall time.
fn timed_runs(
    spans: &mut Spans,
    name: &str,
    program: &Program,
    spec: &str,
    reps: usize,
    config: impl Fn() -> ExploreConfig,
) -> Val {
    let mut outcome = None;
    let (_, wall) = spans.span(name, |_| {
        for _ in 0..reps {
            outcome = Some(explore(program, spec, config()));
        }
    });
    outcome_summary(&outcome.expect("reps >= 1"), wall / reps as f64)
}

/// The collection switches of the ablation re-runs: (states, HBRs, lazy
/// HBRs). `default` collects everything, `engine` nothing.
const ABLATIONS: [(&str, (bool, bool, bool)); 5] = [
    ("default", (true, true, true)),
    ("engine", (false, false, false)),
    ("states", (true, false, false)),
    ("hbr", (false, true, false)),
    ("lazy_hbr", (false, false, true)),
];

/// Median of a non-empty list.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The per-key minimum of numeric objects.
fn min_obj(objs: &[Val]) -> Val {
    let Some(Val::Obj(first)) = objs.first() else {
        return Val::Null;
    };
    Val::Obj(
        first
            .iter()
            .map(|(k, _)| {
                let values: Vec<f64> = objs.iter().map(|o| o.num(k)).collect();
                (k.clone(), Val::Num(min(&values)))
            })
            .collect(),
    )
}

/// One cell of `core`: `rounds` rounds of the default and collection-off
/// re-runs, each followed by the micro timings and the leaf replay; the
/// single-collection re-runs and the instrumentation-overhead runs join
/// the first round only. Every time reported is the fastest round's: on a
/// shared machine contention only ever slows a run down, so the minimum
/// is the estimate least disturbed by it, and the two leaf-accounting
/// estimates stay comparable.
fn core_cell(spans: &mut Spans, program: &Program, cell: &Json, seed: u64, min_s: f64) -> Val {
    let bench = str_field(cell, "bench");
    let spec = str_field(cell, "spec");
    let limit = int_field(cell, "limit") as usize;
    let rounds = int_field(cell, "rounds").max(1) as usize;
    let p = program;
    // A small cell repeats every configuration until one configuration
    // has run for at least `min_s`; a big one reuses this first run as
    // the first round's default.
    let first = timed_runs(spans, "core.default", p, spec, 1, || {
        collecting(limit, true, true, true)
    });
    let reps = ((min_s / first.num("wall_s").max(1e-6)).ceil() as usize).clamp(1, 5000);
    // Instrumentation overhead, on a prefix of about 1.5 s.
    let share = (1.5 / first.num("wall_s").max(1e-9)).min(1.0);
    let prefix = ((first.num("schedules") * share) as usize).max(1);
    let mut first = (reps == 1).then_some(first);

    let mut summaries: Vec<Option<Val>> = ABLATIONS.iter().map(|_| None).collect();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); ABLATIONS.len()];
    let (mut micros, mut replays) = (Vec::new(), Vec::new());
    let mut obs = Val::Null;
    for round in 0..rounds {
        for (i, (name, (s, h, l))) in ABLATIONS.iter().enumerate() {
            if round > 0 && i >= 2 {
                continue;
            }
            let summary = match first.take() {
                Some(summary) => summary,
                None => timed_runs(spans, &format!("core.{name}"), p, spec, reps, || {
                    collecting(limit, *s, *h, *l)
                }),
            };
            walls[i].push(summary.num("wall_s"));
            summaries[i] = Some(summary);
        }
        if round == 0 {
            let mut prefix_run = |name: &str, metrics: bool, profile: bool| {
                let summary = timed_runs(spans, name, p, spec, reps, || {
                    let mut config = ExploreConfig::with_limit(prefix);
                    if metrics {
                        config = config.with_metrics(MetricsHandle::enabled());
                    }
                    if profile {
                        config = config.with_profile(ProfileHandle::enabled());
                    }
                    config
                });
                Val::Num(summary.num("wall_s"))
            };
            obs = Val::obj([
                ("base_s", prefix_run("obs.base", false, false)),
                ("metrics_s", prefix_run("obs.metrics", true, false)),
                ("profile_s", prefix_run("obs.profile", false, true)),
            ]);
        }
        let micro = micro(spans, p, seed.wrapping_add(round as u64));
        let default = summaries[0].as_ref().expect("default ran");
        replays.push(leaf_replay(spans, default, &micro));
        micros.push(micro);
    }

    let mut pairs = vec![
        ("bench", Val::Str(bench.to_string())),
        ("spec", Val::Str(spec.to_string())),
        ("reps", Val::Int(reps as i128)),
        ("rounds", Val::Int(rounds as i128)),
        ("obs_prefix", Val::Int(prefix as i128)),
    ];
    let mut round_walls = Vec::new();
    for ((name, _), (summary, w)) in ABLATIONS.iter().zip(summaries.into_iter().zip(walls)) {
        let Some(Val::Obj(mut fields)) = summary else {
            unreachable!("every ablation ran")
        };
        for (k, v) in fields.iter_mut() {
            if k == "wall_s" {
                *v = Val::Num(min(&w));
            }
        }
        pairs.push((name, Val::Obj(fields)));
        round_walls.push((
            name.to_string(),
            Val::Arr(w.into_iter().map(Val::Num).collect()),
        ));
    }
    pairs.push(("round_walls", Val::Obj(round_walls)));
    pairs.push(("obs", obs));
    pairs.push(("micro", min_obj(&micros)));
    pairs.push(("replay", min_obj(&replays)));
    Val::obj(pairs)
}

/// `core`: every cell through [`core_cell`], plus the suite build time.
fn cmd_core(args: &Json) -> Val {
    let mut spans = Spans::new();
    let seed = int_field(args, "seed");
    let min_s = int_field(args, "min_ms") as f64 / 1e3;
    let builds: Vec<f64> = (0..15)
        .map(|_| {
            spans
                .span("suite.build", |_| lazylocks_suite::all().len())
                .1
        })
        .collect();
    let suite_ms = median(builds) * 1e3;
    let mut cells = Vec::new();
    for cell in field(args, "cells").as_arr().unwrap_or(&[]) {
        let bench = str_field(cell, "bench");
        let program = bench_program(bench);
        let (result, _) = spans.span(&format!("core.cell:{bench}"), |spans| {
            core_cell(spans, &program, cell, seed, min_s)
        });
        cells.push(result);
    }
    Val::obj([
        ("suite_build_ms", Val::Num(suite_ms)),
        ("cells", Val::Arr(cells)),
        ("spans", spans.to_val()),
    ])
}

/// `parallel`: parallel DPOR at one and two workers against sequential
/// DPOR, collection off, on a prefix of the cell. A spec the registry no
/// longer knows reports `null`.
fn cmd_parallel(args: &Json) -> Val {
    let mut spans = Spans::new();
    let program = bench_program(str_field(args, "bench"));
    let limit = int_field(args, "limit") as usize;
    let registry = StrategyRegistry::default();
    let mut run = |spec: &str| -> Option<f64> {
        let explorer = registry.create(spec).ok()?;
        let config = collecting(limit, false, false, false);
        let (_, secs) = spans.span(&format!("core.parallel:{spec}"), |_| {
            explorer.explore(&program, &config)
        });
        Some(secs)
    };
    let seq = run("dpor(sleep=true)");
    let w1 = run("parallel(reduction=dpor,sleep=true,workers=1)");
    let w2 = run("parallel(reduction=dpor,sleep=true,workers=2)");
    let ratio = |w: Option<f64>| match (w, seq) {
        (Some(w), Some(s)) => Val::Num(w / s),
        _ => Val::Null,
    };
    Val::obj([
        ("sequential_s", seq.map_or(Val::Null, Val::Num)),
        ("ratio_w1", ratio(w1)),
        ("ratio_w2", ratio(w2)),
        ("spans", spans.to_val()),
    ])
}

/// `service`: each job the way the daemon runs it — parse, drive with
/// metrics and profile on and a corpus attached, the result document,
/// its codec and its durable write.
fn cmd_service(args: &Json) -> Val {
    const MIN_S: f64 = 0.01;
    let mut spans = Spans::new();
    let dir = PathBuf::from(str_field(args, "dir"));
    let corpus = dir.join("probe-corpus");
    let path = dir.join("probe-result.json");
    let mut jobs = Vec::new();
    for job in field(args, "jobs").as_arr().unwrap_or(&[]) {
        let source = str_field(job, "source");
        let spec = str_field(job, "spec");
        let limit = int_field(job, "limit") as usize;
        let parse = || Program::parse(source).unwrap_or_else(|e| fail(&e.to_string()));
        let parse_s = spans
            .span("model.parse", |_| {
                per_call(MIN_S, || {
                    black_box(parse());
                })
            })
            .0;
        let program = parse();
        let mut doc = Json::Null;
        let mut summary = Val::Null;
        let drive_s = spans.span("trace.drive", |_| {
            per_call(MIN_S, || {
                let metrics = MetricsHandle::enabled();
                let profile = ProfileHandle::enabled();
                let config = ExploreConfig::with_limit(limit)
                    .with_metrics(metrics.clone())
                    .with_profile(profile.clone());
                let store =
                    CorpusStore::open(&corpus).unwrap_or_else(|e| fail(&format!("corpus: {e}")));
                let start = Instant::now();
                let result = drive(
                    DriveRequest::new(&program, spec)
                        .with_config(config)
                        .progress_every(1024)
                        .saving_into(store),
                )
                .unwrap_or_else(|e| fail(&e.to_string()));
                let wall = start.elapsed().as_secs_f64();
                let mut d = outcome_json(
                    program.name(),
                    spec,
                    &result.outcome,
                    &result.bugs,
                    false,
                    &result.trace_paths(),
                );
                if let Json::Obj(pairs) = &mut d {
                    if let Some(snapshot) = metrics.snapshot() {
                        if let Ok(m) = Json::parse(&snapshot.scrubbed().to_json_string()) {
                            pairs.push(("metrics".to_string(), m));
                        }
                    }
                    if let Some(snapshot) = profile.snapshot() {
                        let profile_doc = ProfileDoc::new(&program, spec, &snapshot.scrubbed());
                        pairs.push(("profile".to_string(), profile_doc.to_json()));
                    }
                }
                doc = lazylocks_server::job::scrubbed_result(d);
                summary = outcome_summary(&result.outcome, wall);
            })
        });
        let drive_s = drive_s.0;
        let text = doc.encode();
        let bytes = text.len().max(1) as f64;
        let emit_s = spans
            .span("trace.json_emit", |_| {
                per_call(MIN_S, || {
                    black_box(doc.encode());
                })
            })
            .0;
        let parse_doc_s = spans
            .span("trace.json_parse", |_| {
                per_call(MIN_S, || {
                    black_box(Json::parse(&text).unwrap_or_else(|e| fail(&e.to_string())));
                })
            })
            .0;
        let write_s = spans
            .span("trace.durable_write", |_| {
                per_call(MIN_S, || {
                    write_atomic_durable(&path, text.as_bytes(), &FaultPlan::inert())
                        .unwrap_or_else(|e| fail(&format!("durable write: {e}")));
                })
            })
            .0;
        jobs.push(Val::obj([
            ("name", Val::Str(str_field(job, "name").to_string())),
            ("spec", Val::Str(spec.to_string())),
            ("outcome", summary),
            ("parse_us", Val::Num(parse_s * 1e6)),
            ("drive_us", Val::Num(drive_s * 1e6)),
            ("doc_bytes", Val::Int(text.len() as i128)),
            ("emit_ns_per_byte", Val::Num(emit_s * 1e9 / bytes)),
            ("parse_ns_per_byte", Val::Num(parse_doc_s * 1e9 / bytes)),
            ("durable_write_us", Val::Num(write_s * 1e6)),
        ]));
    }
    Val::obj([("jobs", Val::Arr(jobs)), ("spans", spans.to_val())])
}

/// `sources`: the `.llk` text of corpus programs.
fn cmd_sources(args: &Json) -> Val {
    let names = field(args, "names").as_arr().unwrap_or(&[]);
    Val::Obj(
        names
            .iter()
            .filter_map(Json::as_str)
            .map(|n| (n.to_string(), Val::Str(bench_program(n).to_source())))
            .collect(),
    )
}

/// `reference`: one default run per cell, used to derive the pinned
/// reference from a strategy family other than the one it checks.
fn cmd_reference(args: &Json) -> Val {
    let cells = field(args, "cells").as_arr().unwrap_or(&[]);
    Val::Arr(
        cells
            .iter()
            .map(|cell| {
                let bench = str_field(cell, "bench");
                let spec = str_field(cell, "spec");
                let program = bench_program(bench);
                let config = ExploreConfig::with_limit(int_field(cell, "limit") as usize);
                let start = Instant::now();
                let outcome = explore(&program, spec, config);
                Val::obj([
                    ("bench", Val::Str(bench.to_string())),
                    ("spec", Val::Str(spec.to_string())),
                    (
                        "outcome",
                        outcome_summary(&outcome, start.elapsed().as_secs_f64()),
                    ),
                ])
            })
            .collect(),
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.len() != 3 {
        fail("usage: lazybench-probe (core|parallel|service|sources|reference) JSON");
    }
    let args = Json::parse(&argv[2]).unwrap_or_else(|e| fail(&format!("bad JSON argument: {e}")));
    let out = match argv[1].as_str() {
        "core" => cmd_core(&args),
        "parallel" => cmd_parallel(&args),
        "service" => cmd_service(&args),
        "sources" => cmd_sources(&args),
        "reference" => cmd_reference(&args),
        other => fail(&format!("unknown command {other:?}")),
    };
    let mut text = String::new();
    out.encode(&mut text);
    println!("{text}");
}
