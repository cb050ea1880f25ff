//! The on-disk corpus store.
//!
//! A corpus is a directory of `*.json` trace artifacts (by convention
//! `.lazylocks/corpus/` at the repository root). Artifacts are keyed by
//! [`TraceArtifact::corpus_key`] — program fingerprint plus bug class — so
//! re-finding a known bug along a different interleaving deduplicates
//! instead of piling up files. All writes are atomic *and durable* (temp
//! file + fsync + rename + parent-directory fsync), so a crashed or
//! concurrent writer never leaves a torn artifact behind and a completed
//! save survives a power cut.

use crate::artifact::TraceArtifact;
use crate::fault::{write_atomic_durable, FaultPlan};
use crate::replay::replay_embedded;
use lazylocks::obs::DocError;
use lazylocks::MetricsHandle;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A corpus directory.
#[derive(Debug, Clone)]
pub struct CorpusStore {
    root: PathBuf,
    faults: FaultPlan,
}

/// What [`CorpusStore::save`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SaveOutcome {
    /// A new artifact was written at the path.
    Saved(PathBuf),
    /// An artifact with the same corpus key already exists at the path;
    /// nothing was written.
    Deduplicated(PathBuf),
}

impl SaveOutcome {
    /// The artifact's path, whether freshly written or pre-existing.
    pub fn path(&self) -> &Path {
        match self {
            SaveOutcome::Saved(p) | SaveOutcome::Deduplicated(p) => p,
        }
    }
}

/// One corpus file, as seen by [`CorpusStore::list`]: decoding is
/// per-entry, so a single corrupted file doesn't hide the rest.
#[derive(Debug)]
pub struct CorpusEntry {
    /// The artifact file.
    pub path: PathBuf,
    /// The decoded artifact, or why decoding failed.
    pub artifact: Result<TraceArtifact, DocError>,
}

/// What [`CorpusStore::prune`] removed and kept.
#[derive(Debug, Default)]
pub struct PruneReport {
    /// Artifacts that still reproduce and were kept.
    pub kept: usize,
    /// Removed files, each with the reason for removal.
    pub removed: Vec<(PathBuf, String)>,
}

impl CorpusStore {
    /// The conventional corpus location: `.lazylocks/corpus/`.
    pub fn default_root() -> PathBuf {
        PathBuf::from(".lazylocks").join("corpus")
    }

    /// Opens (creating if needed) a corpus at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<CorpusStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(CorpusStore {
            root,
            faults: FaultPlan::inert(),
        })
    }

    /// Injects a fault plan into every subsequent write (tests).
    pub fn with_faults(mut self, faults: FaultPlan) -> CorpusStore {
        self.faults = faults;
        self
    }

    /// The corpus directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The canonical file name for an artifact: sanitized program name plus
    /// the low 64 bits of the corpus key.
    pub fn path_for(&self, artifact: &TraceArtifact) -> PathBuf {
        let mut name: String = artifact
            .program_name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .take(48)
            .collect();
        if name.is_empty() {
            name.push_str("trace");
        }
        let key = artifact.corpus_key() as u64;
        self.root.join(format!("{name}-{key:016x}.json"))
    }

    /// Saves `artifact` unless an artifact with the same corpus key is
    /// already present (fingerprint-keyed dedup). The write is atomic.
    pub fn save(&self, artifact: &TraceArtifact) -> io::Result<SaveOutcome> {
        let path = self.path_for(artifact);
        if path.exists() {
            return Ok(SaveOutcome::Deduplicated(path));
        }
        self.write_atomic(&path, artifact)?;
        Ok(SaveOutcome::Saved(path))
    }

    /// Saves `artifact`, replacing any existing artifact with the same
    /// corpus key (used to upgrade a streamed artifact with final stats or
    /// a minimised schedule). The write is atomic.
    pub fn save_overwrite(&self, artifact: &TraceArtifact) -> io::Result<PathBuf> {
        let path = self.path_for(artifact);
        self.write_atomic(&path, artifact)?;
        Ok(path)
    }

    fn write_atomic(&self, path: &Path, artifact: &TraceArtifact) -> io::Result<()> {
        write_atomic_durable(path, artifact.to_json_string().as_bytes(), &self.faults)
    }

    /// Lists the corpus in deterministic (path-sorted) order. Files that do
    /// not decode are included with their error.
    pub fn list(&self) -> io::Result<Vec<CorpusEntry>> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.root)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        Ok(paths
            .into_iter()
            .map(|path| {
                let artifact = fs::read_to_string(&path)
                    .map_err(|e| DocError::schema("program", format!("unreadable file: {e}")))
                    .and_then(|text| TraceArtifact::parse(&text));
                CorpusEntry { path, artifact }
            })
            .collect())
    }

    /// Prunes the corpus: removes artifacts that no longer decode or whose
    /// embedded-program replay is not
    /// [`Reproduced`](crate::replay::ReplayVerdict::Reproduced) (diverged
    /// schedules, hand-edited programs). Keeps everything that still
    /// reproduces.
    pub fn prune(&self) -> io::Result<PruneReport> {
        let mut report = PruneReport::default();
        for entry in self.list()? {
            let reason = match &entry.artifact {
                Err(e) => Some(format!("does not decode: {e}")),
                Ok(artifact) => match replay_embedded(artifact, &MetricsHandle::disabled()) {
                    Err(e) => Some(format!("embedded program is corrupt: {e}")),
                    Ok(r) if !r.reproduced() => Some(r.to_string()),
                    Ok(_) => None,
                },
            };
            match reason {
                Some(reason) => {
                    fs::remove_file(&entry.path)?;
                    report.removed.push((entry.path, reason));
                }
                None => report.kept += 1,
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks::{Dpor, ExploreConfig, Explorer};
    use lazylocks_model::{Program, ProgramBuilder, ThreadId};

    fn temp_store(tag: &str) -> CorpusStore {
        let dir =
            std::env::temp_dir().join(format!("lazylocks-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CorpusStore::open(dir).unwrap()
    }

    fn abba() -> Program {
        let mut b = ProgramBuilder::new("abba");
        let l0 = b.mutex("l0");
        let l1 = b.mutex("l1");
        b.thread("T1", |t| {
            t.lock(l0);
            t.lock(l1);
            t.unlock(l1);
            t.unlock(l0);
        });
        b.thread("T2", |t| {
            t.lock(l1);
            t.lock(l0);
            t.unlock(l0);
            t.unlock(l1);
        });
        b.build()
    }

    fn deadlock_artifact(p: &Program) -> TraceArtifact {
        let bug = Dpor::default()
            .explore(p, &ExploreConfig::with_limit(10_000).stopping_on_bug())
            .first_bug
            .expect("abba deadlocks");
        TraceArtifact::from_bug(p, "dpor", 1, &bug)
    }

    #[test]
    fn save_dedups_by_corpus_key() {
        let store = temp_store("dedup");
        let p = abba();
        let a = deadlock_artifact(&p);
        let first = store.save(&a).unwrap();
        assert!(matches!(first, SaveOutcome::Saved(_)));
        assert!(first.path().exists());

        // Same bug along a longer schedule: deduplicated.
        let mut again = a.clone();
        again.schedule = {
            let mut s = vec![ThreadId(0)];
            s.extend(a.schedule.iter().copied());
            s
        };
        let second = store.save(&again).unwrap();
        assert!(matches!(second, SaveOutcome::Deduplicated(_)));
        assert_eq!(first.path(), second.path());
        assert_eq!(store.list().unwrap().len(), 1);

        // Overwrite replaces the content in place.
        let path = store.save_overwrite(&again).unwrap();
        assert_eq!(path, first.path());
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(
            listed[0].artifact.as_ref().unwrap().schedule,
            again.schedule
        );
    }

    #[test]
    fn list_surfaces_corrupted_entries_without_hiding_good_ones() {
        let store = temp_store("list");
        let p = abba();
        store.save(&deadlock_artifact(&p)).unwrap();
        fs::write(store.root().join("corrupt.json"), "{ nope").unwrap();
        fs::write(store.root().join("ignored.txt"), "not an artifact").unwrap();
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2, "txt files are ignored");
        assert_eq!(
            entries.iter().filter(|e| e.artifact.is_ok()).count(),
            1,
            "one good entry"
        );
    }

    #[test]
    fn prune_removes_corrupt_and_non_reproducing_entries() {
        let store = temp_store("prune");
        let p = abba();
        let good = deadlock_artifact(&p);
        store.save(&good).unwrap();

        // A hand-edited artifact whose schedule no longer deadlocks.
        let mut stale = good.clone();
        stale.schedule = Vec::new(); // thread-order completion is clean
        stale.program_name = "abba-stale".to_string(); // distinct corpus slot
        store.save(&stale).unwrap();

        fs::write(store.root().join("corrupt.json"), "{").unwrap();

        let report = store.prune().unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed.len(), 2);
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].artifact.is_ok());
    }

    #[test]
    fn file_names_are_sanitized() {
        let store = temp_store("names");
        let p = abba();
        let mut a = deadlock_artifact(&p);
        a.program_name = "we/ird name!§".to_string();
        let path = store.save_overwrite(&a).unwrap();
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            file.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.'),
            "{file}"
        );
    }

    #[test]
    fn torn_save_leaves_no_artifact_and_keeps_the_corpus_listable() {
        let store = temp_store("torn");
        let p = abba();
        let good = deadlock_artifact(&p);
        store.save(&good).unwrap();

        let faults = crate::fault::FaultPlan::armed();
        let store = store.with_faults(faults.clone());
        let mut other = good.clone();
        other.program_name = "abba-torn".to_string();
        faults.truncate_next_write(10);
        let err = store.save(&other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);

        // The torn temp file never becomes a corpus entry; the good
        // artifact is still listed and decodes.
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].artifact.is_ok());

        // Retrying after the "crash" succeeds.
        assert!(matches!(store.save(&other).unwrap(), SaveOutcome::Saved(_)));
        assert_eq!(store.list().unwrap().len(), 2);
    }

    #[test]
    fn witness_artifact_reproduce_check() {
        // A clean witness artifact survives prune.
        let store = temp_store("witness");
        let p = abba();
        let mut a = deadlock_artifact(&p);
        a.bug = None;
        a.schedule = Vec::new();
        store.save(&a).unwrap();
        let report = store.prune().unwrap();
        assert_eq!(report.kept, 1);
        assert!(report.removed.is_empty());
    }
}
