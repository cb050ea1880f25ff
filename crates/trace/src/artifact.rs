//! The versioned trace-artifact format.
//!
//! A [`TraceArtifact`] is a self-contained, machine-readable record of one
//! counterexample (or witness) execution: the exact program (embedded as
//! canonical source plus fingerprint), the strategy spec and seed that
//! found it, the schedule choice list, the bug, and the exploration
//! counters. Self-containment is the point — an artifact replays in a
//! fresh process with no access to the original benchmark registry.
//! Versioning follows [`DocFormat`]'s policy.

use crate::json::Json;
use lazylocks::obs::{require, DocError, DocFormat};
use lazylocks::{BugKind, BugReport, ExploreStats};
use lazylocks_model::{MutexId, ThreadId};
use lazylocks_runtime::{program_fingerprint, Fault, FaultKind, Fnv128};
use std::time::Duration;

/// The trace-artifact document format.
pub const ARTIFACT_FORMAT: DocFormat = DocFormat {
    name: "lazylocks-trace",
    version_key: "format_version",
    version: 1,
};

/// A persistent, replayable record of one explored execution.
#[derive(Debug, Clone)]
pub struct TraceArtifact {
    /// Version of the tool that wrote the artifact (`CARGO_PKG_VERSION`).
    pub tool_version: String,
    /// The guest program's name.
    pub program_name: String,
    /// Canonical fingerprint of the program
    /// ([`lazylocks_runtime::program_fingerprint`]).
    pub program_fingerprint: u128,
    /// The program itself, in the `.llk` text format — what makes the
    /// artifact self-contained.
    pub program_source: String,
    /// The strategy registry spec that produced the schedule.
    pub strategy_spec: String,
    /// The exploration seed.
    pub seed: u64,
    /// The schedule choice list; replaying it reproduces the execution.
    pub schedule: Vec<ThreadId>,
    /// `true` if the schedule went through delta-debugging minimisation.
    pub minimized: bool,
    /// The bug the schedule triggers; `None` for plain witness traces.
    pub bug: Option<BugKind>,
    /// Number of visible events in the recorded execution.
    pub trace_len: usize,
    /// Exploration counters at the time the artifact was (re)written.
    /// `None` when the artifact was streamed out mid-exploration.
    pub stats: Option<ExploreStats>,
}

/// Artifacts compare by their serialized form, which covers every
/// semantic field (the counters inside `stats` do not implement `Eq`
/// directly).
impl PartialEq for TraceArtifact {
    fn eq(&self, other: &Self) -> bool {
        self.to_json() == other.to_json()
    }
}

impl TraceArtifact {
    /// Builds an artifact for a bug found while exploring `program`.
    pub fn from_bug(
        program: &lazylocks_model::Program,
        strategy_spec: &str,
        seed: u64,
        bug: &BugReport,
    ) -> TraceArtifact {
        TraceArtifact {
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            program_name: program.name().to_string(),
            program_fingerprint: program_fingerprint(program),
            program_source: program.to_source(),
            strategy_spec: strategy_spec.to_string(),
            seed,
            schedule: bug.schedule.clone(),
            minimized: false,
            bug: Some(bug.kind.clone()),
            trace_len: bug.trace_len,
            stats: None,
        }
    }

    /// Attaches final exploration counters, returning `self` for chaining.
    pub fn with_stats(mut self, stats: &ExploreStats) -> TraceArtifact {
        self.stats = Some(stats.clone());
        self
    }

    /// One-line human label for the recorded outcome: `"clean"` for
    /// witness traces, otherwise the bug class (see [`bug_class`]).
    pub fn outcome_label(&self) -> String {
        match &self.bug {
            None => "clean".to_string(),
            Some(kind) => bug_class(kind),
        }
    }

    /// The corpus dedup key: a fingerprint over the program fingerprint and
    /// the bug *class* (not the schedule), so re-finding the same bug along
    /// a different interleaving — or after minimisation — lands on the same
    /// corpus slot.
    pub fn corpus_key(&self) -> u128 {
        let mut h = Fnv128::new();
        h.write(b"lazylocks-corpus-key-v1\0");
        h.write(&self.program_fingerprint.to_le_bytes());
        match &self.bug {
            None => h.write(b"clean"),
            Some(BugKind::Deadlock { waiting }) => {
                h.write(b"deadlock");
                let mut waiting = waiting.clone();
                waiting.sort();
                for (t, m) in waiting {
                    h.write_u32(u32::from(t.0));
                    h.write_u32(u32::from(m.0));
                }
            }
            Some(BugKind::Fault(fault)) => {
                h.write(b"fault");
                h.write_u32(u32::from(fault.thread.0));
                h.write_u32(fault.pc);
                match &fault.kind {
                    FaultKind::AssertFailed { msg } => {
                        h.write(b"assert\0");
                        h.write(msg.as_bytes());
                    }
                    FaultKind::UnlockNotHeld { mutex } => {
                        h.write(b"unlock\0");
                        h.write_u32(u32::from(mutex.0));
                    }
                    FaultKind::LocalStepBudget => h.write(b"budget\0"),
                }
            }
        }
        h.finish()
    }

    /// Encodes the artifact as a JSON document (pretty-printed; artifacts
    /// are meant to live in a repository and diff well).
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// The artifact as a JSON value.
    pub fn to_json(&self) -> Json {
        ARTIFACT_FORMAT.wrap([
            ("tool_version", Json::Str(self.tool_version.clone())),
            (
                "program",
                Json::obj([
                    ("name", Json::Str(self.program_name.clone())),
                    ("fingerprint", Json::u128_hex(self.program_fingerprint)),
                    ("source", Json::Str(self.program_source.clone())),
                ]),
            ),
            ("strategy", Json::Str(self.strategy_spec.clone())),
            ("seed", Json::Int(i128::from(self.seed))),
            ("schedule", threads_to_json(&self.schedule)),
            ("minimized", Json::Bool(self.minimized)),
            (
                "bug",
                match &self.bug {
                    None => Json::Null,
                    Some(kind) => bug_kind_to_json(kind),
                },
            ),
            ("trace_len", Json::Int(self.trace_len as i128)),
            (
                "stats",
                match &self.stats {
                    None => Json::Null,
                    Some(stats) => stats_to_json(stats),
                },
            ),
        ])
    }

    /// Parses an artifact from its JSON text.
    pub fn parse(text: &str) -> Result<TraceArtifact, DocError> {
        TraceArtifact::from_json(&Json::parse(text)?)
    }

    /// Decodes an artifact from a JSON value.
    pub fn from_json(v: &Json) -> Result<TraceArtifact, DocError> {
        let v = ARTIFACT_FORMAT.open(v)?;
        let program = require(v, "program", Some)?;
        let schedule = thread_list(v, "schedule")?;
        let bug = match require(v, "bug", Some)? {
            Json::Null => None,
            other => Some(bug_kind_from_json(other)?),
        };
        let stats = match v.get("stats") {
            None | Some(Json::Null) => None,
            Some(other) => Some(stats_from_json(other)?),
        };
        Ok(TraceArtifact {
            tool_version: require(v, "tool_version", Json::as_str)?.to_string(),
            program_name: require(program, "name", Json::as_str)?.to_string(),
            program_fingerprint: require(program, "fingerprint", Json::as_u128_hex)?,
            program_source: require(program, "source", Json::as_str)?.to_string(),
            strategy_spec: require(v, "strategy", Json::as_str)?.to_string(),
            seed: require(v, "seed", Json::as_u64)?,
            schedule,
            minimized: require(v, "minimized", Json::as_bool)?,
            bug,
            trace_len: require(v, "trace_len", Json::as_usize)?,
            stats,
        })
    }
}

/// The stable class label of a bug, used for replay classification
/// messages: deadlocks are one class, faults are classed by thread,
/// program counter and fault kind.
pub fn bug_class(kind: &BugKind) -> String {
    match kind {
        BugKind::Deadlock { .. } => "deadlock".to_string(),
        BugKind::Fault(fault) => format!("fault({fault})"),
    }
}

/// Encodes a [`BugKind`] as JSON (shared with the CLI's `--json` output).
pub fn bug_kind_to_json(kind: &BugKind) -> Json {
    match kind {
        BugKind::Deadlock { waiting } => Json::obj([
            ("class", Json::Str("deadlock".to_string())),
            (
                "waiting",
                Json::Arr(
                    waiting
                        .iter()
                        .map(|(t, m)| {
                            Json::Arr(vec![Json::Int(i128::from(t.0)), Json::Int(i128::from(m.0))])
                        })
                        .collect(),
                ),
            ),
        ]),
        BugKind::Fault(fault) => {
            let kind = match &fault.kind {
                FaultKind::AssertFailed { msg } => Json::obj([
                    ("type", Json::Str("assert-failed".to_string())),
                    ("msg", Json::Str(msg.clone())),
                ]),
                FaultKind::UnlockNotHeld { mutex } => Json::obj([
                    ("type", Json::Str("unlock-not-held".to_string())),
                    ("mutex", Json::Int(i128::from(mutex.0))),
                ]),
                FaultKind::LocalStepBudget => {
                    Json::obj([("type", Json::Str("local-step-budget".to_string()))])
                }
            };
            Json::obj([
                ("class", Json::Str("fault".to_string())),
                ("thread", Json::Int(i128::from(fault.thread.0))),
                ("pc", Json::Int(i128::from(fault.pc))),
                ("kind", kind),
            ])
        }
    }
}

/// Decodes a [`BugKind`] from the JSON produced by [`bug_kind_to_json`]
/// (shared with the checkpoint codec).
pub fn bug_kind_from_json(v: &Json) -> Result<BugKind, DocError> {
    let id16 = |field: &'static str, v: &Json| {
        v.as_u64()
            .and_then(|n| u16::try_from(n).ok())
            .ok_or_else(|| DocError::schema(field, "not a 16-bit id"))
    };
    match require(v, "class", Json::as_str)? {
        "deadlock" => {
            let waiting = require(v, "waiting", Json::as_arr)?
                .iter()
                .map(|pair| {
                    let pair = pair
                        .as_arr()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| DocError::schema("waiting", "not a [thread, mutex] pair"))?;
                    Ok((
                        ThreadId(id16("waiting", &pair[0])?),
                        MutexId(id16("waiting", &pair[1])?),
                    ))
                })
                .collect::<Result<Vec<_>, DocError>>()?;
            Ok(BugKind::Deadlock { waiting })
        }
        "fault" => {
            let kind_v = require(v, "kind", Some)?;
            let kind = match require(kind_v, "type", Json::as_str)? {
                "assert-failed" => FaultKind::AssertFailed {
                    msg: require(kind_v, "msg", Json::as_str)?.to_string(),
                },
                "unlock-not-held" => FaultKind::UnlockNotHeld {
                    mutex: MutexId(id16("mutex", kind_v.get("mutex").unwrap_or(&Json::Null))?),
                },
                "local-step-budget" => FaultKind::LocalStepBudget,
                other => {
                    return Err(DocError::schema(
                        "kind",
                        format!("unknown fault kind {other:?}"),
                    ))
                }
            };
            Ok(BugKind::Fault(Fault {
                thread: ThreadId(id16("thread", v.get("thread").unwrap_or(&Json::Null))?),
                pc: require(v, "pc", Json::as_u64)?
                    .try_into()
                    .map_err(|_| DocError::schema("pc", "out of range"))?,
                kind,
            }))
        }
        other => Err(DocError::schema(
            "class",
            format!("unknown bug class {other:?}"),
        )),
    }
}

/// Encodes the scalar counters of [`ExploreStats`] as JSON (shared with
/// the CLI's `--json` output). Witness lists and the embedded first-bug
/// report are deliberately not persisted: artifacts carry their own
/// schedule, and witnesses can be arbitrarily large.
pub fn stats_to_json(stats: &ExploreStats) -> Json {
    Json::obj([
        ("schedules", Json::Int(stats.schedules as i128)),
        ("events", Json::Int(i128::from(stats.events))),
        ("unique_states", Json::Int(stats.unique_states as i128)),
        ("unique_hbrs", Json::Int(stats.unique_hbrs as i128)),
        (
            "unique_lazy_hbrs",
            Json::Int(stats.unique_lazy_hbrs as i128),
        ),
        ("deadlocks", Json::Int(stats.deadlocks as i128)),
        (
            "faulted_schedules",
            Json::Int(stats.faulted_schedules as i128),
        ),
        ("max_depth", Json::Int(stats.max_depth as i128)),
        ("limit_hit", Json::Bool(stats.limit_hit)),
        ("cancelled", Json::Bool(stats.cancelled)),
        ("cache_prunes", Json::Int(stats.cache_prunes as i128)),
        ("sleep_prunes", Json::Int(stats.sleep_prunes as i128)),
        ("bound_prunes", Json::Int(stats.bound_prunes as i128)),
        ("truncated_runs", Json::Int(stats.truncated_runs as i128)),
        (
            "events_compared",
            Json::Int(i128::from(stats.events_compared)),
        ),
        ("frames_pooled", Json::Int(i128::from(stats.frames_pooled))),
        (
            "wall_time_us",
            Json::Int(stats.wall_time.as_micros().min(u64::MAX as u128) as i128),
        ),
    ])
}

/// Decodes the scalar counters of [`ExploreStats`] from the JSON produced
/// by [`stats_to_json`] (shared with the checkpoint codec). Witness lists
/// and the embedded first-bug report are not part of the encoding and
/// come back empty. Unknown keys are ignored, so documents carrying
/// counters of since-removed strategies still decode.
pub fn stats_from_json(v: &Json) -> Result<ExploreStats, DocError> {
    Ok(ExploreStats {
        schedules: require(v, "schedules", Json::as_usize)?,
        events: require(v, "events", Json::as_u64)?,
        unique_states: require(v, "unique_states", Json::as_usize)?,
        unique_hbrs: require(v, "unique_hbrs", Json::as_usize)?,
        unique_lazy_hbrs: require(v, "unique_lazy_hbrs", Json::as_usize)?,
        deadlocks: require(v, "deadlocks", Json::as_usize)?,
        faulted_schedules: require(v, "faulted_schedules", Json::as_usize)?,
        max_depth: require(v, "max_depth", Json::as_usize)?,
        limit_hit: require(v, "limit_hit", Json::as_bool)?,
        cancelled: require(v, "cancelled", Json::as_bool)?,
        cache_prunes: require(v, "cache_prunes", Json::as_usize)?,
        sleep_prunes: require(v, "sleep_prunes", Json::as_usize)?,
        bound_prunes: require(v, "bound_prunes", Json::as_usize)?,
        truncated_runs: require(v, "truncated_runs", Json::as_usize)?,
        // Added after format_version 1 shipped: default only when the key
        // is *absent* (an older artifact); a present-but-malformed value
        // is an error like any other field.
        events_compared: match v.get("events_compared") {
            None => 0,
            Some(_) => require(v, "events_compared", Json::as_u64)?,
        },
        frames_pooled: match v.get("frames_pooled") {
            None => 0,
            Some(_) => require(v, "frames_pooled", Json::as_u64)?,
        },
        wall_time: Duration::from_micros(require(v, "wall_time_us", Json::as_u64)?),
        ..ExploreStats::default()
    })
}

/// Encodes a schedule as a list of thread indices (shared with the
/// checkpoint codec and `run --json`).
pub(crate) fn threads_to_json(threads: &[ThreadId]) -> Json {
    Json::Arr(threads.iter().map(|t| Json::Int(i128::from(t.0))).collect())
}

/// Decodes `v[field]` as a list of thread indices (shared with the
/// checkpoint codec).
pub(crate) fn thread_list(v: &Json, field: &'static str) -> Result<Vec<ThreadId>, DocError> {
    require(v, field, Json::as_arr)?
        .iter()
        .map(|t| {
            t.as_u64()
                .and_then(|t| u16::try_from(t).ok())
                .map(ThreadId)
                .ok_or_else(|| DocError::schema(field, "not a thread index"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks_model::{ProgramBuilder, Reg};

    fn deadlock_artifact() -> TraceArtifact {
        let mut b = ProgramBuilder::new("abba");
        let l0 = b.mutex("l0");
        let l1 = b.mutex("l1");
        b.thread("T1", |t| {
            t.lock(l0);
            t.lock(l1);
        });
        b.thread("T2", |t| {
            t.lock(l1);
            t.lock(l0);
        });
        let p = b.build();
        let bug = BugReport {
            kind: BugKind::Deadlock {
                waiting: vec![(ThreadId(0), l1), (ThreadId(1), l0)],
            },
            schedule: vec![ThreadId(0), ThreadId(1)],
            trace_len: 2,
        };
        TraceArtifact::from_bug(&p, "dpor(sleep=true)", 7, &bug)
    }

    fn fault_artifact() -> TraceArtifact {
        let mut b = ProgramBuilder::new("assert");
        let x = b.var("x", 0);
        b.thread("T1", |t| {
            t.load(Reg(0), x);
            t.assert_true(Reg(0), "x must be set — with \"quotes\" and\nnewlines");
        });
        b.thread("T2", |t| t.store(x, 1));
        let p = b.build();
        let bug = BugReport {
            kind: BugKind::Fault(Fault {
                thread: ThreadId(0),
                pc: 1,
                kind: FaultKind::AssertFailed {
                    msg: "x must be set — with \"quotes\" and\nnewlines".to_string(),
                },
            }),
            schedule: vec![ThreadId(0)],
            trace_len: 1,
        };
        TraceArtifact::from_bug(&p, "dfs", 42, &bug).with_stats(&ExploreStats {
            schedules: 3,
            events: 9,
            unique_states: 2,
            frames_pooled: 7,
            wall_time: Duration::from_micros(1234),
            ..ExploreStats::default()
        })
    }

    #[test]
    fn deadlock_artifact_round_trips() {
        let a = deadlock_artifact();
        let back = TraceArtifact::parse(&a.to_json_string()).unwrap();
        assert_eq!(a, back);
        assert_eq!(back.outcome_label(), "deadlock");
        assert!(back.stats.is_none());
    }

    #[test]
    fn fault_artifact_round_trips_with_stats() {
        let a = fault_artifact();
        let back = TraceArtifact::parse(&a.to_json_string()).unwrap();
        assert_eq!(a, back);
        assert!(back.outcome_label().starts_with("fault("));
        let stats = back.stats.unwrap();
        assert_eq!(stats.schedules, 3);
        assert_eq!(stats.frames_pooled, 7);
        assert_eq!(stats.wall_time, Duration::from_micros(1234));

        // Stats as written before the parallel strategies were removed
        // still carry `subtrees_stolen` and `workers`: they decode, the
        // stale keys are ignored, and re-encoding drops them.
        let old = Json::parse(
            "{\"schedules\":3,\"events\":9,\"unique_states\":2,\"unique_hbrs\":2,\
             \"unique_lazy_hbrs\":2,\"deadlocks\":0,\"faulted_schedules\":1,\
             \"max_depth\":4,\"limit_hit\":false,\"cancelled\":false,\
             \"cache_prunes\":0,\"sleep_prunes\":0,\"bound_prunes\":0,\
             \"truncated_runs\":0,\"events_compared\":6,\"subtrees_stolen\":5,\
             \"frames_pooled\":7,\"workers\":2,\"wall_time_us\":1234}",
        )
        .unwrap();
        let stats = stats_from_json(&old).unwrap();
        assert_eq!(stats.schedules, 3);
        assert_eq!(stats.events_compared, 6);
        assert_eq!(stats.frames_pooled, 7);
        assert_eq!(stats.wall_time, Duration::from_micros(1234));
        let text = stats_to_json(&stats).encode();
        assert!(!text.contains("subtrees_stolen") && !text.contains("\"workers\""));
    }

    #[test]
    fn corpus_key_ignores_schedule_but_not_bug_class() {
        let a = deadlock_artifact();
        let mut b = a.clone();
        b.schedule = vec![ThreadId(1), ThreadId(0), ThreadId(1)];
        b.minimized = true;
        assert_eq!(a.corpus_key(), b.corpus_key());
        let mut c = a.clone();
        c.bug = None;
        assert_ne!(a.corpus_key(), c.corpus_key());
        let mut d = a.clone();
        d.program_fingerprint ^= 1;
        assert_ne!(a.corpus_key(), d.corpus_key());
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut v = deadlock_artifact().to_json();
        if let Json::Obj(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "format_version" {
                    *val = Json::Int(i128::from(ARTIFACT_FORMAT.version + 1));
                }
            }
        }
        let err = TraceArtifact::from_json(&v).unwrap_err();
        assert!(matches!(
            err,
            DocError::Version {
                found, ..
            } if found == ARTIFACT_FORMAT.version + 1
        ));
        assert!(err.to_string().contains("newer"));
    }

    #[test]
    fn schema_violations_name_the_field() {
        let err = TraceArtifact::parse("{}").unwrap_err();
        assert!(err.to_string().contains("format"));

        let mut v = deadlock_artifact().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "schedule");
        }
        let err = TraceArtifact::from_json(&v).unwrap_err();
        assert!(matches!(
            err,
            DocError::Schema {
                field: "schedule",
                ..
            }
        ));

        let err = TraceArtifact::parse("not json").unwrap_err();
        assert!(matches!(err, DocError::Json(_)));
    }

    #[test]
    fn embedded_source_reparses_to_the_recorded_fingerprint() {
        let a = fault_artifact();
        let p = lazylocks_model::Program::parse(&a.program_source).unwrap();
        assert_eq!(program_fingerprint(&p), a.program_fingerprint);
    }
}
