//! End-to-end tests against a real `lazylocks serve` daemon in a fresh
//! process: full job lifecycle with corpus persistence and replay,
//! mid-run cancellation, result determinism, more submissions than
//! workers, drain-then-exit shutdown (also when bound to `0.0.0.0`),
//! `--token` auth, the exclusive journal lock and client retries over
//! injected wire faults.
//!
//! Each test spawns its own daemon on an ephemeral port (parsed from the
//! `listening on <addr>` line) and shuts it down — or kills it on a
//! panic path via the [`Daemon`] drop guard — so no test leaves an
//! orphaned process.

use lazylocks::MetricsHandle;
use lazylocks_server::Client;
use lazylocks_trace::{replay_embedded, FaultPlan, Json, TraceArtifact};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The AB-BA deadlock, as wire-format `.llk` source.
const DEADLOCK: &str = "\
program abba
mutex a
mutex b
thread T1 {
  lock a
  lock b
  unlock b
  unlock a
}
thread T2 {
  lock b
  lock a
  unlock a
  unlock b
}
";

/// Bug-free but with a state space far too large to finish in a test's
/// lifetime under DFS — the cancellation target.
const WIDE: &str = "\
program wide
var x = 0
mutex a
thread T1 {
  lock a
  store x = 1
  unlock a
  lock a
  store x = 1
  unlock a
  lock a
  store x = 1
  unlock a
}
thread T2 {
  lock a
  store x = 2
  unlock a
  lock a
  store x = 2
  unlock a
  lock a
  store x = 2
  unlock a
}
thread T3 {
  lock a
  store x = 3
  unlock a
  lock a
  store x = 3
  unlock a
  lock a
  store x = 3
  unlock a
}
thread T4 {
  lock a
  store x = 4
  unlock a
  lock a
  store x = 4
  unlock a
  lock a
  store x = 4
  unlock a
}
";

/// A running daemon plus the kill-on-drop guard.
struct Daemon {
    child: Child,
    addr: String,
    /// Cleared once the test has shut the daemon down itself.
    armed: bool,
}

impl Daemon {
    /// Spawns `lazylocks serve` on an ephemeral port and waits for the
    /// listening line.
    fn spawn(workers: usize, corpus: Option<&std::path::Path>) -> Daemon {
        Daemon::spawn_with(workers, corpus, None, &[])
    }

    /// Like [`Daemon::spawn`], plus an optional journal and `extra`
    /// serve arguments.
    fn spawn_with(
        workers: usize,
        corpus: Option<&std::path::Path>,
        journal: Option<&std::path::Path>,
        extra: &[&str],
    ) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_lazylocks"));
        cmd.arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg(workers.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = corpus {
            cmd.arg("--corpus").arg(dir);
        }
        if let Some(path) = journal {
            cmd.arg("--journal").arg(path);
        }
        cmd.args(extra);
        let mut child = cmd.spawn().expect("spawn lazylocks serve");
        let stdout = child.stdout.take().expect("captured stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("daemon printed a line")
            .expect("readable stdout");
        let addr = first
            .rsplit(' ')
            .next()
            .expect("listening line ends with the address")
            .to_string();
        assert!(
            first.contains("listening on"),
            "unexpected first line: {first}"
        );
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Daemon {
            child,
            addr,
            armed: true,
        }
    }

    fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// `POST /shutdown`, then requires the process to exit cleanly.
    fn shutdown_and_join(self) {
        let client = self.client();
        self.shutdown_with(&client);
    }

    /// `POST /shutdown` through `client`, then requires the process to
    /// exit cleanly.
    fn shutdown_with(mut self, client: &Client) {
        let (status, _) = client.shutdown().expect("shutdown call");
        assert_eq!(status, 200);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(exit) => {
                    assert!(exit.success(), "daemon exited with {exit}");
                    break;
                }
                None if Instant::now() > deadline => {
                    self.child.kill().ok();
                    panic!("daemon did not drain and exit within 60s of shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(25)),
            }
        }
        self.armed = false;
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.armed {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

fn job_body(program: &str, spec: &str, limit: usize, stop_on_bug: bool) -> Json {
    Json::obj([
        ("program", Json::Str(program.to_string())),
        ("spec", Json::Str(spec.to_string())),
        ("limit", Json::Int(limit as i128)),
        ("seed", Json::Int(7)),
        ("stop_on_bug", Json::Bool(stop_on_bug)),
        ("minimize", Json::Bool(true)),
    ])
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lazylocks-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn lifecycle_events_artifact_and_replay() {
    let corpus = temp_dir("lifecycle");
    let daemon = Daemon::spawn(2, Some(&corpus));
    let client = daemon.client();

    let (status, health) = client.health().expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    let (status, strategies) = client.strategies().expect("strategies");
    assert_eq!(status, 200);
    assert!(!strategies
        .get("strategies")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());

    let id = client
        .submit(&job_body(DEADLOCK, "dpor", 10_000, false))
        .expect("submit");

    // Poll the event log to completion with the cursor protocol; the
    // stream must include the bug and terminate with a done event.
    let mut since = 0u64;
    let mut kinds: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "job never finished: {kinds:?}");
        let (status, page) = client.events(id, since).expect("events");
        assert_eq!(status, 200);
        for event in page.get("events").unwrap().as_arr().unwrap() {
            kinds.push(event.get("type").unwrap().as_str().unwrap().to_string());
        }
        since = page.get("next").unwrap().as_u64().unwrap();
        if kinds.last().map(String::as_str) == Some("done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(kinds.starts_with(&["queued".to_string(), "running".to_string()]));
    assert!(kinds.contains(&"bug".to_string()), "{kinds:?}");

    let (status, detail) = client.job(id).expect("job detail");
    assert_eq!(status, 200);
    assert_eq!(detail.get("state").unwrap().as_str(), Some("done"));
    let result = detail.get("result").unwrap();
    assert_eq!(result.get("verdict").unwrap().as_str(), Some("bug-found"));

    // The bug was persisted into the corpus and replays in-process.
    let traces = result.get("traces").unwrap().as_arr().unwrap();
    assert_eq!(traces.len(), 1, "one distinct bug, one artifact");
    let path = std::path::PathBuf::from(traces[0].as_str().unwrap());
    assert!(path.starts_with(&corpus), "{path:?} not under {corpus:?}");
    let text = std::fs::read_to_string(&path).expect("artifact readable");
    let artifact = TraceArtifact::parse(&text).expect("artifact parses");
    assert!(artifact.minimized);
    assert!(
        replay_embedded(&artifact, &MetricsHandle::disabled())
            .expect("replay runs")
            .reproduced(),
        "persisted artifact must reproduce the deadlock"
    );

    // Unknown ids and routes answer structured errors, not hangups.
    let (status, _) = client.job(999).expect("missing job");
    assert_eq!(status, 404);
    let (status, _) = client.call("GET", "/nope", None).expect("bad route");
    assert_eq!(status, 404);
    let (status, _) = client.call("PUT", "/jobs", None).expect("bad method");
    assert_eq!(status, 405);

    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&corpus).ok();
}

#[test]
fn mid_run_cancellation_reports_partial_stats() {
    let daemon = Daemon::spawn(1, None);
    let client = daemon.client();

    // The daemon rejects budgets above --max-job-budget outright.
    let err = client
        .submit(&job_body(WIDE, "dfs", 100_000_000, false))
        .expect_err("over-budget submission must be rejected");
    assert!(err.contains("400"), "{err}");

    let id = client
        .submit(&job_body(WIDE, "dfs", 1_000_000, false))
        .expect("submit");

    // Wait until the job is actually running, then cancel it.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "job never started");
        let (_, detail) = client.job(id).expect("job detail");
        if detail.get("state").unwrap().as_str() == Some("running") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, reply) = client.cancel(id).expect("cancel");
    assert_eq!(status, 200);
    assert_eq!(reply.get("state").unwrap().as_str(), Some("running"));

    let detail = client
        .wait(id, Duration::from_millis(25))
        .expect("wait for terminal state");
    assert_eq!(detail.get("state").unwrap().as_str(), Some("cancelled"));
    let result = detail.get("result").unwrap();
    assert_eq!(result.get("verdict").unwrap().as_str(), Some("cancelled"));
    let stats = result.get("stats").unwrap();
    assert_eq!(stats.get("cancelled").unwrap().as_bool(), Some(true));
    // Partial: it stopped well short of the budget.
    assert!(stats.get("schedules").unwrap().as_u64().unwrap() < 1_000_000);

    // Cancelling a finished job is a no-op that reports the final state.
    let (status, reply) = client.cancel(id).expect("re-cancel");
    assert_eq!(status, 200);
    assert_eq!(reply.get("state").unwrap().as_str(), Some("cancelled"));

    daemon.shutdown_and_join();
}

#[test]
fn identical_submissions_produce_identical_results() {
    let corpus = temp_dir("determinism");
    let daemon = Daemon::spawn(2, Some(&corpus));
    let client = daemon.client();

    let body = job_body(DEADLOCK, "dpor(sleep=true)", 10_000, false);
    let first = client.submit(&body).expect("submit #1");
    let second = client.submit(&body).expect("submit #2");
    assert_ne!(first, second, "distinct jobs get distinct ids");

    let a = client
        .wait(first, Duration::from_millis(25))
        .expect("job 1");
    let b = client
        .wait(second, Duration::from_millis(25))
        .expect("job 2");
    assert_eq!(a.get("state").unwrap().as_str(), Some("done"));
    // Same program, spec, seed and budget — the result documents must be
    // byte-identical: wall time is scrubbed server-side and the corpus
    // dedups the artifact to one fingerprint-keyed path.
    assert_eq!(
        a.get("result").unwrap().encode(),
        b.get("result").unwrap().encode()
    );

    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&corpus).ok();
}

/// Runs the `lazylocks` binary with `args` and parses its stdout as one
/// JSON document; a non-zero exit fails the test.
fn lazylocks_json(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_lazylocks"))
        .args(args)
        .output()
        .expect("run lazylocks");
    assert!(
        out.status.success(),
        "lazylocks {args:?} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("stdout is one JSON document")
}

/// `lazylocks run --json` and `client submit --wait` with the same run
/// flags build the same request, so they reach the same verdict, stats
/// and bugs (the daemon zeroes wall time; so does this comparison). The
/// second run's preemption bound prunes, so both sides honour it.
#[test]
fn run_and_a_daemon_job_agree_on_the_same_flags() {
    let daemon = Daemon::spawn(1, None);
    for flags in [
        "--bench philosophers-naive-3 --strategy random --seed 7 --limit 200",
        "--bench philosophers-naive-3 --strategy caching --preemptions 1 --stop-on-bug --minimize",
    ] {
        let bounded = flags.contains("--preemptions");
        let flags: Vec<&str> = flags.split(' ').collect();
        let local = verdict_stats_bugs(lazylocks_json(&[&["run", "--json"], &flags[..]].concat()));
        let submit = [
            &["client", "submit", "--addr", &daemon.addr, "--wait"],
            &flags[..],
        ]
        .concat();
        let detail = lazylocks_json(&submit);
        assert_eq!(detail.get("state").and_then(Json::as_str), Some("done"));
        let remote = verdict_stats_bugs(detail.get("result").expect("result").clone());
        assert_eq!(local.encode(), remote.encode(), "{flags:?}");
        for side in [&local, &remote] {
            let prunes = side.get("stats").and_then(|s| s.get("bound_prunes"));
            assert_eq!(
                prunes.and_then(Json::as_u64).unwrap() > 0,
                bounded,
                "{flags:?}"
            );
        }
    }
    daemon.shutdown_and_join();
}

/// The `verdict`, `stats` (wall time zeroed) and `bugs` of an outcome
/// document.
fn verdict_stats_bugs(doc: Json) -> Json {
    let mut stats = doc.get("stats").expect("stats").clone();
    if let Json::Obj(pairs) = &mut stats {
        for (key, value) in pairs {
            if key == "wall_time_us" {
                *value = Json::Int(0);
            }
        }
    }
    Json::obj([
        ("verdict", doc.get("verdict").expect("verdict").clone()),
        ("stats", stats),
        ("bugs", doc.get("bugs").expect("bugs").clone()),
    ])
}

#[test]
fn kill_nine_mid_job_recovers_and_reruns_to_the_identical_result() {
    let dir = temp_dir("recovery");
    let corpus = dir.join("corpus");
    let journal = dir.join("journal.jsonl");
    std::fs::create_dir_all(&corpus).expect("create corpus dir");

    let mut daemon = Daemon::spawn_with(2, Some(&corpus), Some(&journal), &[]);
    let client = daemon.client();

    // The reference: an uninterrupted run of the body we will later crash.
    let body = job_body(DEADLOCK, "dpor(sleep=true)", 10_000, false);
    let reference_id = client.submit(&body).expect("reference submit");
    let reference = client
        .wait(reference_id, Duration::from_millis(25))
        .expect("reference result");
    assert_eq!(reference.get("state").unwrap().as_str(), Some("done"));
    let reference_result = reference.get("result").unwrap().encode();

    // Pin both workers on effectively-unbounded jobs and queue the victim
    // behind them, so the kill lands with two jobs mid-run and one queued.
    let blocker_body = job_body(WIDE, "dfs", 1_000_000, false);
    let blockers = [
        client.submit(&blocker_body).expect("blocker 1"),
        client.submit(&blocker_body).expect("blocker 2"),
    ];
    let victim = client.submit(&body).expect("victim submit");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "blockers never started");
        let running = blockers.iter().all(|id| {
            let (_, detail) = client.job(*id).expect("blocker detail");
            detail.get("state").unwrap().as_str() == Some("running")
        });
        if running {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (_, detail) = client.job(victim).expect("victim detail");
    assert_eq!(detail.get("state").unwrap().as_str(), Some("queued"));

    // SIGKILL: no drain, no journal finalisation, no goodbye.
    daemon.child.kill().expect("kill -9 the daemon");
    daemon.child.wait().expect("reap");
    daemon.armed = false;
    drop(daemon);

    // A fresh process on the same journal re-enqueues all three
    // unfinished jobs under their original ids...
    let daemon = Daemon::spawn_with(2, Some(&corpus), Some(&journal), &[]);
    let client = daemon.client();
    // The restart counts what it recovered in the job table's metrics.
    let (status, metrics) = client.metrics_json().expect("metrics after restart");
    assert_eq!(status, 200);
    let served = lazylocks::MetricsSnapshot::from_json(&metrics).expect("served metrics");
    assert_eq!(served.value("lazylocks_jobs_recovered_total"), 3);
    for id in blockers {
        let (status, _) = client.job(id).expect("recovered blocker");
        assert_eq!(status, 200, "blocker {id} was not recovered");
        let (status, _) = client.cancel(id).expect("cancel blocker");
        assert_eq!(status, 200);
    }
    let (status, _) = client.job(victim).expect("recovered victim");
    assert_eq!(status, 200, "victim was not recovered");
    // ...while the job that completed before the crash stays completed.
    let (status, _) = client.job(reference_id).expect("finished job lookup");
    assert_eq!(status, 404, "a completed job must not be resurrected");

    // The recovered victim re-runs to done with a byte-identical result —
    // deterministic exploration plus server-side wall-time scrubbing.
    let detail = client
        .wait(victim, Duration::from_millis(25))
        .expect("victim after recovery");
    assert_eq!(detail.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(detail.get("result").unwrap().encode(), reference_result);

    // Fresh submissions allocate ids strictly above everything journaled.
    let fresh = client.submit(&body).expect("post-recovery submit");
    assert!(fresh > victim, "id {fresh} collides with recovered ids");
    let fresh_detail = client
        .wait(fresh, Duration::from_millis(25))
        .expect("post-recovery result");
    assert_eq!(
        fresh_detail.get("result").unwrap().encode(),
        reference_result
    );

    daemon.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn more_jobs_than_workers_all_complete_and_drain_on_shutdown() {
    let daemon = Daemon::spawn(2, None);
    let client = daemon.client();

    let ids: Vec<u64> = (0..6)
        .map(|_| {
            client
                .submit(&job_body(DEADLOCK, "dpor", 10_000, true))
                .expect("submit")
        })
        .collect();
    for id in &ids {
        let detail = client.wait(*id, Duration::from_millis(25)).expect("wait");
        assert_eq!(detail.get("state").unwrap().as_str(), Some("done"));
    }

    // After shutdown the daemon refuses new work while draining.
    let (status, reply) = client.shutdown().expect("shutdown");
    assert_eq!(status, 200);
    assert_eq!(reply.get("status").unwrap().as_str(), Some("draining"));

    let mut daemon = daemon;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match daemon.child.try_wait().expect("try_wait") {
            Some(exit) => {
                assert!(exit.success(), "daemon exited with {exit}");
                daemon.armed = false;
                break;
            }
            None if Instant::now() > deadline => {
                panic!("daemon did not exit after shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// `GET /metrics` counts each finished job exactly once: its non-time
/// exploration families equal the sum of the `metrics` documents in the
/// job results, and a job cancelled while still queued adds nothing.
#[test]
fn server_metrics_equal_the_sum_of_the_job_results() {
    let daemon = Daemon::spawn(1, None);
    let client = daemon.client();

    // One worker, pinned on a deadline-bounded DFS job, so the next
    // submission is still queued when it is cancelled.
    let mut blocker_body = job_body(WIDE, "dfs", 1_000_000, false);
    if let Json::Obj(pairs) = &mut blocker_body {
        pairs.push(("deadline_ms".to_string(), Json::Int(1_000)));
    }
    let blocker = client.submit(&blocker_body).expect("blocker submit");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "blocker never started");
        let (_, detail) = client.job(blocker).expect("blocker detail");
        if detail.get("state").unwrap().as_str() == Some("running") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let victim = client
        .submit(&job_body(DEADLOCK, "dfs", 10_000, false))
        .expect("victim submit");
    let (status, reply) = client.cancel(victim).expect("cancel queued");
    assert_eq!(status, 200);
    assert_eq!(reply.get("state").unwrap().as_str(), Some("cancelled"));

    let mut done = vec![blocker];
    for spec in [
        "dpor",
        "caching(mode=lazy)",
        "bounded",
        "lazy-dpor",
        "random",
    ] {
        done.push(
            client
                .submit(&job_body(DEADLOCK, spec, 10_000, false))
                .expect("submit"),
        );
    }
    let mut expected = lazylocks::MetricsSnapshot::default();
    for id in done {
        let detail = client.wait(id, Duration::from_millis(25)).expect("wait");
        assert_eq!(
            detail.get("state").unwrap().as_str(),
            Some("done"),
            "job {id}"
        );
        let doc = detail.get("result").unwrap().get("metrics").unwrap();
        expected.merge(&lazylocks::MetricsSnapshot::from_json(doc).expect("job metrics"));
    }

    let (status, body) = client.metrics_json().expect("metrics");
    assert_eq!(status, 200);
    let served = lazylocks::MetricsSnapshot::from_json(&body).expect("served metrics");
    let timed: Vec<&str> = lazylocks::obs::builtin_defs()
        .iter()
        .filter(|def| def.time_based)
        .map(|def| def.name)
        .collect();
    assert!(expected.value("lazylocks_schedules_total") > 0);
    assert_eq!(served.metrics.len(), expected.metrics.len());
    for (got, want) in served.metrics.iter().zip(&expected.metrics) {
        assert_eq!(got.name, want.name);
        if !timed.contains(&got.name.as_str()) {
            assert_eq!(got.total, want.total, "{}", got.name);
        }
    }

    daemon.shutdown_and_join();
}

/// `serve --token` requires the shared secret on every mutating route;
/// reads stay open, the wrong secret is a 401, and a tokened client runs
/// a job to `done` and shuts the daemon down.
#[test]
fn token_auth_gates_mutating_routes_end_to_end() {
    let daemon = Daemon::spawn_with(1, None, None, &["--token", "s3cret"]);
    let body = job_body(DEADLOCK, "dpor(sleep=true)", 10_000, false);

    let anonymous = daemon.client();
    let err = anonymous.submit(&body).expect_err("tokenless submit");
    assert!(err.contains("401"), "{err}");
    let (status, _) = anonymous.health().expect("tokenless read");
    assert_eq!(status, 200, "reads stay open");

    let wrong = daemon.client().with_token(Some("nope".to_string()));
    let err = wrong.submit(&body).expect_err("wrong-token submit");
    assert!(err.contains("401"), "{err}");

    let authed = daemon.client().with_token(Some("s3cret".to_string()));
    let id = authed.submit(&body).expect("authed submit");
    let detail = authed.wait(id, Duration::from_millis(10)).expect("wait");
    assert_eq!(detail.get("state").and_then(Json::as_str), Some("done"));

    // Shutdown is mutating too: the anonymous client cannot stop the
    // daemon, the authed one can.
    let (status, _) = anonymous.shutdown().expect("tokenless shutdown");
    assert_eq!(status, 401);
    daemon.shutdown_with(&authed);
}

/// A second `serve --journal` on the same journal fails loudly instead
/// of silently corrupting the shared file.
#[test]
fn a_second_serve_on_the_same_journal_fails_loudly() {
    let dir = temp_dir("journal-lock");
    let journal = dir.join("journal.jsonl");
    let owner = Daemon::spawn_with(1, None, Some(&journal), &[]);

    let mut second = Command::new(env!("CARGO_BIN_EXE_lazylocks"))
        .arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--journal")
        .arg(&journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the contender");
    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        match second.try_wait().expect("try_wait") {
            Some(exit) => break exit,
            None if Instant::now() > deadline => {
                second.kill().ok();
                second.wait().ok();
                panic!("the second serve neither exited nor failed within 30s");
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(!exit.success(), "the second serve must refuse to start");
    let mut stderr = String::new();
    std::io::Read::read_to_string(second.stderr.as_mut().expect("stderr"), &mut stderr)
        .expect("readable stderr");
    assert!(
        stderr.contains("journal"),
        "the refusal must name the journal: {stderr}"
    );

    owner.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A truncated response on a read is absorbed by the client's retries:
/// `GET` is idempotent, so the resend returns the same document a clean
/// read does.
#[test]
fn a_truncated_read_is_retried_to_the_clean_document() {
    let daemon = Daemon::spawn(1, None);
    let clean = daemon.client();
    let id = clean
        .submit(&job_body(DEADLOCK, "dpor(sleep=true)", 10_000, false))
        .expect("submit");
    let detail = clean.wait(id, Duration::from_millis(10)).expect("wait");
    assert_eq!(detail.get("state").and_then(Json::as_str), Some("done"));

    let faults = FaultPlan::armed();
    let faulty = daemon
        .client()
        .with_retries(3, Duration::from_millis(5))
        .with_faults(faults.clone());
    faults.truncate_next_read(3);
    let (status, reread) = faulty.job(id).expect("read survives the short read");
    assert_eq!(status, 200);
    assert_eq!(reread.encode(), detail.encode());
    assert!(faults.injected() >= 1, "the fault must actually fire");

    daemon.shutdown_and_join();
}

/// A daemon bound to the unspecified address is reachable over
/// loopback and drains and exits on `POST /shutdown`.
#[test]
fn a_daemon_bound_to_every_interface_drains_on_shutdown() {
    let daemon = Daemon::spawn_with(1, None, None, &["--addr", "0.0.0.0:0"]);
    assert!(daemon.addr.starts_with("0.0.0.0:"), "{}", daemon.addr);
    let client = Client::new(daemon.addr.replace("0.0.0.0", "127.0.0.1"));
    let (status, health) = client.health().expect("health over loopback");
    assert_eq!(status, 200);
    assert_eq!(health.get("draining"), Some(&Json::Bool(false)));
    daemon.shutdown_with(&client);
}
