//! The versioned on-disk checkpoint format and the [`CheckpointWriter`]
//! session observer.
//!
//! A checkpoint document wraps a [`CheckpointState`] (the engine's
//! resumable frontier: schedule prefix, per-frame sets, statistics and
//! explored-set fingerprints) together with enough identity to refuse a
//! mismatched resume: the program name and fingerprint, the strategy
//! spec, and the seed. Versioning follows [`DocFormat`]'s policy.
//!
//! Durability: the writer goes through [`write_atomic_durable`] — temp
//! file, fsync, rename, parent-directory fsync — so a crash at any point
//! leaves either the previous checkpoint or the new one, never a torn
//! file. `run --resume` validates a loaded document with
//! [`CheckpointDoc::check_matches`] first, so a checkpoint for the wrong
//! program, strategy or seed is refused rather than resumed.

use crate::artifact::{
    bug_kind_from_json, bug_kind_to_json, stats_from_json, stats_to_json, thread_list,
    threads_to_json,
};
use crate::fault::{read_with, write_atomic_durable, FaultPlan};
use crate::json::Json;
use lazylocks::checkpoint::{CheckpointState, FrameSets};
use lazylocks::obs::{ids, require, DocError, DocFormat, MetricsHandle};
use lazylocks::{BugReport, Observer};
use lazylocks_model::Program;
use lazylocks_runtime::program_fingerprint;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The checkpoint document format.
pub const CHECKPOINT_FORMAT: DocFormat = DocFormat {
    name: "lazylocks-checkpoint",
    version_key: "format_version",
    version: 1,
};

/// The file name a [`CheckpointWriter`] maintains inside its directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

/// A self-identifying, resumable exploration snapshot.
#[derive(Debug, Clone)]
pub struct CheckpointDoc {
    /// The guest program's name (informational).
    pub program_name: String,
    /// Canonical fingerprint of the program the frontier belongs to.
    pub program_fingerprint: u128,
    /// The strategy registry spec the exploration ran under.
    pub strategy_spec: String,
    /// The exploration seed.
    pub seed: u64,
    /// The engine frontier itself.
    pub state: CheckpointState,
}

impl CheckpointDoc {
    /// Encodes the document as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// The document as a JSON value.
    pub fn to_json(&self) -> Json {
        let fps = |fps: &[u128]| Json::Arr(fps.iter().map(|&fp| Json::u128_hex(fp)).collect());
        CHECKPOINT_FORMAT.wrap([
            (
                "program",
                Json::obj([
                    ("name", Json::Str(self.program_name.clone())),
                    ("fingerprint", Json::u128_hex(self.program_fingerprint)),
                ]),
            ),
            ("strategy", Json::Str(self.strategy_spec.clone())),
            ("seed", Json::Int(i128::from(self.seed))),
            ("schedule", threads_to_json(&self.state.schedule)),
            (
                "frames",
                Json::Arr(
                    self.state
                        .frames
                        .iter()
                        .map(|f| {
                            Json::Arr(vec![
                                Json::Int(i128::from(f.backtrack)),
                                Json::Int(i128::from(f.done)),
                                Json::Int(i128::from(f.sleep)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stats", stats_to_json(&self.state.stats)),
            (
                "first_bug",
                match &self.state.stats.first_bug {
                    None => Json::Null,
                    Some(bug) => Json::obj([
                        ("kind", bug_kind_to_json(&bug.kind)),
                        ("schedule", threads_to_json(&bug.schedule)),
                        ("trace_len", Json::Int(bug.trace_len as i128)),
                    ]),
                },
            ),
            ("states", fps(&self.state.states)),
            ("hbrs", fps(&self.state.hbrs)),
            ("lazy_hbrs", fps(&self.state.lazy_hbrs)),
            ("pool_free", Json::Int(i128::from(self.state.pool_free))),
        ])
    }

    /// Parses a document from its JSON text.
    pub fn parse(text: &str) -> Result<CheckpointDoc, DocError> {
        CheckpointDoc::from_json(&Json::parse(text)?)
    }

    /// Decodes a document from a JSON value.
    pub fn from_json(v: &Json) -> Result<CheckpointDoc, DocError> {
        let v = CHECKPOINT_FORMAT.open(v)?;
        let program = require(v, "program", Some)?;
        let schedule = thread_list(v, "schedule")?;
        let frames = require(v, "frames", Json::as_arr)?
            .iter()
            .map(|f| {
                let triple = f.as_arr().filter(|t| t.len() == 3).ok_or_else(|| {
                    DocError::schema("frames", "not a [backtrack, done, sleep] bitmask triple")
                })?;
                let bits = |j: &Json| {
                    j.as_u64()
                        .ok_or_else(|| DocError::schema("frames", "bitmask out of range"))
                };
                Ok(FrameSets {
                    backtrack: bits(&triple[0])?,
                    done: bits(&triple[1])?,
                    sleep: bits(&triple[2])?,
                })
            })
            .collect::<Result<Vec<_>, DocError>>()?;
        let mut stats = stats_from_json(require(v, "stats", Some)?)?;
        stats.first_bug = match v.get("first_bug") {
            None | Some(Json::Null) => None,
            Some(bug) => Some(BugReport {
                kind: bug_kind_from_json(require(bug, "kind", Some)?)?,
                schedule: thread_list(bug, "schedule")?,
                trace_len: require(bug, "trace_len", Json::as_usize)?,
            }),
        };
        let fps = |field: &'static str| -> Result<Vec<u128>, DocError> {
            require(v, field, Json::as_arr)?
                .iter()
                .map(|j| {
                    j.as_u128_hex()
                        .ok_or_else(|| DocError::schema(field, "not a hex fingerprint"))
                })
                .collect()
        };
        let doc = CheckpointDoc {
            program_name: require(program, "name", Json::as_str)?.to_string(),
            program_fingerprint: require(program, "fingerprint", Json::as_u128_hex)?,
            strategy_spec: require(v, "strategy", Json::as_str)?.to_string(),
            seed: require(v, "seed", Json::as_u64)?,
            state: CheckpointState {
                schedule,
                frames,
                stats,
                states: fps("states")?,
                hbrs: fps("hbrs")?,
                lazy_hbrs: fps("lazy_hbrs")?,
                // Absent in documents written before spare slots were
                // recorded; a resume without spares is still correct,
                // merely off by the slot-reuse delta.
                pool_free: v.get("pool_free").and_then(Json::as_u64).unwrap_or(0),
            },
        };
        doc.state
            .validate()
            .map_err(|message| DocError::schema("frames", message))?;
        Ok(doc)
    }

    /// Checks the document against the program/strategy/seed of the run
    /// about to resume; an error names the first mismatch.
    pub fn check_matches(&self, program: &Program, spec: &str, seed: u64) -> Result<(), String> {
        let fp = program_fingerprint(program);
        if self.program_fingerprint != fp {
            return Err(format!(
                "checkpoint was taken from program {:#034x}, not {:#034x} ({})",
                self.program_fingerprint,
                fp,
                program.name()
            ));
        }
        if self.strategy_spec != spec {
            return Err(format!(
                "checkpoint was taken under strategy {:?}, not {spec:?}",
                self.strategy_spec
            ));
        }
        if self.seed != seed {
            return Err(format!(
                "checkpoint was taken with seed {}, not {seed}",
                self.seed
            ));
        }
        Ok(())
    }
}

/// Loads the checkpoint document maintained by a [`CheckpointWriter`]
/// under `dir`.
pub fn load_checkpoint(dir: &Path) -> io::Result<Result<CheckpointDoc, DocError>> {
    let bytes = read_with(&dir.join(CHECKPOINT_FILE), &FaultPlan::inert())?;
    let text = String::from_utf8_lossy(&bytes);
    Ok(CheckpointDoc::parse(&text))
}

/// A session [`Observer`] that persists every frontier snapshot the
/// engine emits (see `ExploreConfig::checkpoint_every`) to
/// `dir/checkpoint.json`, atomically and durably. Write failures are
/// recorded (and printed to stderr once per distinct error) but never
/// interrupt the exploration — a checkpoint is a best-effort safety net.
pub struct CheckpointWriter {
    path: PathBuf,
    program_name: String,
    program_fingerprint: u128,
    strategy_spec: String,
    seed: u64,
    faults: FaultPlan,
    metrics: MetricsHandle,
    last_error: Mutex<Option<String>>,
}

impl CheckpointWriter {
    /// A writer maintaining `dir/checkpoint.json` for an exploration of
    /// `program` under `spec` with `seed`. Creates `dir` if needed.
    pub fn new(
        dir: impl Into<PathBuf>,
        program: &Program,
        spec: &str,
        seed: u64,
    ) -> io::Result<CheckpointWriter> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(CheckpointWriter {
            path: dir.join(CHECKPOINT_FILE),
            program_name: program.name().to_string(),
            program_fingerprint: program_fingerprint(program),
            strategy_spec: spec.to_string(),
            seed,
            faults: FaultPlan::inert(),
            metrics: MetricsHandle::disabled(),
            last_error: Mutex::new(None),
        })
    }

    /// Records checkpoint counters (`checkpoints_written`,
    /// `checkpoint_bytes`) on `metrics`, returning `self` for chaining.
    pub fn with_metrics(mut self, metrics: &MetricsHandle) -> CheckpointWriter {
        self.metrics = metrics.clone();
        self
    }

    /// Injects a fault plan (tests), returning `self` for chaining.
    pub fn with_faults(mut self, faults: FaultPlan) -> CheckpointWriter {
        self.faults = faults;
        self
    }

    /// The checkpoint file this writer maintains.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The most recent write error, if any.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().unwrap().clone()
    }
}

impl Observer for CheckpointWriter {
    fn on_checkpoint(&self, checkpoint: &CheckpointState) {
        let doc = CheckpointDoc {
            program_name: self.program_name.clone(),
            program_fingerprint: self.program_fingerprint,
            strategy_spec: self.strategy_spec.clone(),
            seed: self.seed,
            state: checkpoint.clone(),
        };
        let text = doc.to_json_string();
        match write_atomic_durable(&self.path, text.as_bytes(), &self.faults) {
            Ok(()) => {
                self.metrics.inc(ids::CHECKPOINTS_WRITTEN);
                self.metrics.add(ids::CHECKPOINT_BYTES, text.len() as u64);
                *self.last_error.lock().unwrap() = None;
            }
            Err(e) => {
                let msg = e.to_string();
                let mut last = self.last_error.lock().unwrap();
                if last.as_deref() != Some(&msg) {
                    eprintln!(
                        "warning: checkpoint write to {} failed: {msg}",
                        self.path.display()
                    );
                }
                *last = Some(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks::checkpoint::FrameSets;
    use lazylocks::{BugKind, ExploreStats};
    use lazylocks_model::ProgramBuilder;
    use lazylocks_model::ThreadId;

    fn sample_doc() -> CheckpointDoc {
        CheckpointDoc {
            program_name: "sample".to_string(),
            program_fingerprint: 0xdead_beef_dead_beef_dead_beef_dead_beef,
            strategy_spec: "dpor(sleep=true)".to_string(),
            seed: 7,
            state: CheckpointState {
                schedule: vec![ThreadId(0), ThreadId(2)],
                frames: vec![
                    FrameSets {
                        backtrack: 0b101,
                        done: 0b001,
                        sleep: 0,
                    },
                    FrameSets {
                        backtrack: 0b100,
                        done: 0b100,
                        sleep: 0b010,
                    },
                    FrameSets {
                        backtrack: 0b001,
                        done: 0,
                        sleep: 0,
                    },
                ],
                stats: ExploreStats {
                    schedules: 40,
                    events: 300,
                    unique_states: 5,
                    unique_hbrs: 9,
                    unique_lazy_hbrs: 7,
                    deadlocks: 1,
                    max_depth: 12,
                    sleep_prunes: 3,
                    events_compared: 88,
                    first_bug: Some(BugReport {
                        kind: BugKind::Deadlock {
                            waiting: vec![(ThreadId(0), lazylocks_model::MutexId(1))],
                        },
                        schedule: vec![ThreadId(1), ThreadId(0)],
                        trace_len: 2,
                    }),
                    ..ExploreStats::default()
                },
                states: vec![1, 2, u128::MAX],
                hbrs: vec![3, 4],
                lazy_hbrs: vec![5],
                pool_free: 11,
            },
        }
    }

    #[test]
    fn document_round_trips() {
        let doc = sample_doc();
        let back = CheckpointDoc::parse(&doc.to_json_string()).unwrap();
        assert_eq!(back.program_name, doc.program_name);
        assert_eq!(back.program_fingerprint, doc.program_fingerprint);
        assert_eq!(back.strategy_spec, doc.strategy_spec);
        assert_eq!(back.seed, doc.seed);
        assert_eq!(back.state.schedule, doc.state.schedule);
        assert_eq!(back.state.frames, doc.state.frames);
        assert_eq!(back.state.states, doc.state.states);
        assert_eq!(back.state.hbrs, doc.state.hbrs);
        assert_eq!(back.state.lazy_hbrs, doc.state.lazy_hbrs);
        assert_eq!(back.state.pool_free, 11);
        assert_eq!(back.state.stats.schedules, 40);
        assert_eq!(back.state.stats.events_compared, 88);
        let bug = back.state.stats.first_bug.unwrap();
        assert_eq!(bug.schedule, vec![ThreadId(1), ThreadId(0)]);
        assert!(matches!(bug.kind, BugKind::Deadlock { .. }));

        // A checkpoint written before the parallel strategies were
        // removed carries `subtrees_stolen`/`workers` in its stats: it
        // still decodes, and the stale keys are ignored.
        let current = doc.to_json_string();
        let old = current.replace(
            "\"events_compared\": 88,",
            "\"events_compared\": 88, \"subtrees_stolen\": 4, \"workers\": 2,",
        );
        assert_ne!(old, current, "stats layout changed; update the splice");
        let back = CheckpointDoc::parse(&old).unwrap();
        assert_eq!(back.state.stats.schedules, 40);
        assert_eq!(back.state.stats.events_compared, 88);
        assert_eq!(back.to_json_string(), current);
    }

    #[test]
    fn newer_versions_and_bad_frames_are_rejected() {
        let doc = sample_doc();
        let text = doc
            .to_json_string()
            .replace("\"format_version\": 1", "\"format_version\": 99");
        assert!(matches!(
            CheckpointDoc::parse(&text),
            Err(DocError::Version { found: 99, .. })
        ));

        let mut bad = doc.clone();
        bad.state.frames.pop();
        let err = CheckpointDoc::parse(&bad.to_json_string()).unwrap_err();
        assert!(err.to_string().contains("frames"), "{err}");
    }

    #[test]
    fn check_matches_names_the_mismatch() {
        let mut b = ProgramBuilder::new("other");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        let p = b.build();
        let doc = sample_doc();
        let err = doc.check_matches(&p, "dpor(sleep=true)", 7).unwrap_err();
        assert!(err.contains("program"), "{err}");

        let mut same_fp = doc.clone();
        same_fp.program_fingerprint = program_fingerprint(&p);
        assert!(same_fp
            .check_matches(&p, "dpor", 7)
            .unwrap_err()
            .contains("strategy"));
        assert!(same_fp
            .check_matches(&p, "dpor(sleep=true)", 8)
            .unwrap_err()
            .contains("seed"));
        same_fp.check_matches(&p, "dpor(sleep=true)", 7).unwrap();
    }

    #[test]
    fn writer_persists_and_counts_checkpoints() {
        let dir = std::env::temp_dir().join(format!(
            "lazylocks-checkpoint-writer-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = ProgramBuilder::new("cp");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        let p = b.build();
        let handle = MetricsHandle::enabled();
        let writer = CheckpointWriter::new(&dir, &p, "dpor", 0)
            .unwrap()
            .with_metrics(&handle);
        let state = sample_doc().state;
        writer.on_checkpoint(&state);
        writer.on_checkpoint(&state);
        assert!(writer.last_error().is_none());
        let doc = load_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(doc.state.schedule, state.schedule);
        let snap = handle.snapshot().unwrap();
        assert_eq!(snap.value("lazylocks_checkpoints_written_total"), 2);
        assert!(snap.value("lazylocks_checkpoint_bytes_total") > 0);
    }

    #[test]
    fn torn_checkpoint_write_keeps_the_previous_checkpoint() {
        let dir =
            std::env::temp_dir().join(format!("lazylocks-checkpoint-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = ProgramBuilder::new("cp");
        let x = b.var("x", 0);
        b.thread("T1", |t| t.store(x, 1));
        let p = b.build();
        let faults = FaultPlan::armed();
        let writer = CheckpointWriter::new(&dir, &p, "dpor", 0)
            .unwrap()
            .with_faults(faults.clone());
        let mut state = sample_doc().state;
        writer.on_checkpoint(&state);

        state.stats.schedules += 10;
        faults.truncate_next_write(20);
        writer.on_checkpoint(&state);
        assert!(writer.last_error().is_some(), "torn write must be reported");
        let doc = load_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(
            doc.state.stats.schedules, 40,
            "previous checkpoint survives the torn write"
        );
    }
}
