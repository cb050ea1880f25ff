//! Fault injection for durability testing, plus the shared durable-write
//! helper every persistent writer (corpus store, checkpoint writer, job
//! journal) goes through.
//!
//! A [`FaultPlan`] is a cheap, clonable handle. The default is *inert* —
//! every check is a single `Option` test — so production writers carry one
//! unconditionally. Tests arm a plan and schedule faults on it: torn
//! writes (the payload is cut short and the writer reports a crash),
//! failing fsyncs, and short reads. Clones share the schedule, so the
//! test keeps a handle to the same plan it injected into the writer.
//!
//! The same hooks cover the **socket path**: the server crate's HTTP
//! client threads a plan through its wire layer, where a torn write
//! models a request cut mid-flight (or, with `keep = 0`, a connection
//! dropped before any byte left) and a short read models a truncated
//! response — so the client's retry and idempotency handling is
//! exercised under the same injected faults as the persistence layer,
//! without a misbehaving network.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A shared schedule of injected storage faults. Inert by default.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan(Option<Arc<Inner>>);

#[derive(Debug, Default)]
struct Inner {
    /// Keep only this many bytes of the next write, then report a crash.
    torn_write: Mutex<Option<usize>>,
    /// Number of upcoming fsync calls that fail.
    failing_fsyncs: AtomicUsize,
    /// Keep only this many bytes of the next read.
    short_read: Mutex<Option<usize>>,
    /// Total faults injected so far.
    injected: AtomicUsize,
}

impl FaultPlan {
    /// The production plan: every check is a no-op.
    pub fn inert() -> FaultPlan {
        FaultPlan(None)
    }

    /// A live plan ready to have faults scheduled on it.
    pub fn armed() -> FaultPlan {
        FaultPlan(Some(Arc::new(Inner::default())))
    }

    /// `true` if this plan can inject faults at all.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Total faults injected so far (0 for an inert plan).
    pub fn injected(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |i| i.injected.load(Ordering::Relaxed))
    }

    /// Cuts the next durable write down to its first `keep` bytes; the
    /// writer then reports the crash as an [`io::ErrorKind::Interrupted`]
    /// error, leaving the torn bytes behind exactly as a power cut would.
    pub fn truncate_next_write(&self, keep: usize) {
        if let Some(i) = &self.0 {
            *i.torn_write.lock().unwrap() = Some(keep);
        }
    }

    /// Makes the next `count` fsync calls fail.
    pub fn fail_fsyncs(&self, count: usize) {
        if let Some(i) = &self.0 {
            i.failing_fsyncs.store(count, Ordering::Relaxed);
        }
    }

    /// Cuts the next read down to its first `keep` bytes.
    pub fn truncate_next_read(&self, keep: usize) {
        if let Some(i) = &self.0 {
            *i.short_read.lock().unwrap() = Some(keep);
        }
    }

    /// Consumes a scheduled torn write, if any (writer-side hook).
    pub fn take_torn_write(&self) -> Option<usize> {
        let i = self.0.as_ref()?;
        let taken = i.torn_write.lock().unwrap().take();
        if taken.is_some() {
            i.injected.fetch_add(1, Ordering::Relaxed);
        }
        taken
    }

    /// Fails if an fsync fault is scheduled (writer-side hook; call
    /// *before* the real fsync).
    pub fn check_fsync(&self) -> io::Result<()> {
        let Some(i) = &self.0 else {
            return Ok(());
        };
        let mut remaining = i.failing_fsyncs.load(Ordering::Relaxed);
        while remaining > 0 {
            match i.failing_fsyncs.compare_exchange(
                remaining,
                remaining - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    i.injected.fetch_add(1, Ordering::Relaxed);
                    return Err(io::Error::other("injected fsync failure"));
                }
                Err(actual) => remaining = actual,
            }
        }
        Ok(())
    }

    /// Applies a scheduled short read to freshly read bytes (reader-side
    /// hook).
    pub fn apply_read(&self, mut data: Vec<u8>) -> Vec<u8> {
        if let Some(i) = &self.0 {
            if let Some(keep) = i.short_read.lock().unwrap().take() {
                i.injected.fetch_add(1, Ordering::Relaxed);
                data.truncate(keep);
            }
        }
        data
    }
}

/// Fsyncs a directory so a just-renamed entry survives a crash. A no-op
/// on platforms where directories cannot be opened for syncing.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Writes `bytes` to `path` atomically *and durably*: temp file, fsync,
/// rename, parent-directory fsync. Readers never observe a torn file, and
/// the completed write survives a crash immediately after return.
/// Concurrent writers of one path each get their own temp file (named by
/// pid, thread and a process-wide counter); the last rename wins.
pub fn write_atomic_durable(path: &Path, bytes: &[u8], faults: &FaultPlan) -> io::Result<()> {
    static NEXT_TMP: AtomicUsize = AtomicUsize::new(0);
    let thread: String = format!("{:?}", std::thread::current().id())
        .chars()
        .filter(char::is_ascii_digit)
        .collect();
    let tmp = path.with_extension(format!(
        "tmp.{}.{thread}.{}",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let torn = faults.take_torn_write();
    let payload = match torn {
        Some(keep) => &bytes[..keep.min(bytes.len())],
        None => bytes,
    };
    let write = (|| -> io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(payload)?;
        if torn.is_some() {
            // Crash mid-write: the torn temp file stays behind, the
            // destination is never touched.
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected torn write",
            ));
        }
        faults.check_fsync()?;
        f.sync_all()
    })();
    if let Err(e) = write {
        if torn.is_none() {
            let _ = fs::remove_file(&tmp);
        }
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Reads a file through the plan's short-read hook.
pub fn read_with(path: &Path, faults: &FaultPlan) -> io::Result<Vec<u8>> {
    let mut data = Vec::new();
    fs::File::open(path)?.read_to_end(&mut data)?;
    Ok(faults.apply_read(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lazylocks-fault-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("file.json")
    }

    #[test]
    fn inert_plan_writes_normally() {
        let path = temp_path("inert");
        write_atomic_durable(&path, b"hello", &FaultPlan::inert()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"hello");
        assert_eq!(FaultPlan::inert().injected(), 0);
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        let path = temp_path("race");
        let payloads: Vec<Vec<u8>> = (0..8).map(|t| format!("writer {t}").into_bytes()).collect();
        std::thread::scope(|scope| {
            for payload in &payloads {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..50 {
                        write_atomic_durable(path, payload, &FaultPlan::inert()).unwrap();
                    }
                });
            }
        });
        assert!(payloads.contains(&fs::read(&path).unwrap()));
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn torn_write_never_touches_the_destination() {
        let path = temp_path("torn");
        let plan = FaultPlan::armed();
        write_atomic_durable(&path, b"first", &plan).unwrap();
        plan.truncate_next_write(3);
        let err = write_atomic_durable(&path, b"second", &plan).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(
            fs::read(&path).unwrap(),
            b"first",
            "destination survives the torn write intact"
        );
        assert_eq!(plan.injected(), 1);
        // The plan is one-shot: the next write goes through.
        write_atomic_durable(&path, b"second", &plan).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
    }

    #[test]
    fn fsync_failure_surfaces_and_leaves_destination_intact() {
        let path = temp_path("fsync");
        let plan = FaultPlan::armed();
        write_atomic_durable(&path, b"first", &plan).unwrap();
        plan.fail_fsyncs(1);
        let err = write_atomic_durable(&path, b"second", &plan).unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"));
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic_durable(&path, b"third", &plan).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"third");
    }

    #[test]
    fn short_reads_truncate_once() {
        let path = temp_path("short");
        let plan = FaultPlan::armed();
        write_atomic_durable(&path, b"0123456789", &plan).unwrap();
        plan.truncate_next_read(4);
        assert_eq!(read_with(&path, &plan).unwrap(), b"0123");
        assert_eq!(read_with(&path, &plan).unwrap(), b"0123456789");
    }
}
