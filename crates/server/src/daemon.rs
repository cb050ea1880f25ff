//! The daemon: TCP accept loop, bounded connection-handler pool, REST
//! routing, and drain-then-exit shutdown.
//!
//! ## Surface
//!
//! | method & path               | action                                   |
//! |-----------------------------|------------------------------------------|
//! | `GET /healthz`              | liveness + queue/worker load             |
//! | `GET /metrics`              | Prometheus text exposition               |
//! | `GET /metrics?format=json`  | the same metrics as a JSON document      |
//! | `GET /strategies`           | the strategy table with help + aliases   |
//! | `POST /jobs`                | submit a job (JSON body) → 201 `{id}`    |
//! | `GET /jobs`                 | summaries of every job                   |
//! | `GET /jobs/<id>`            | one job, result document included        |
//! | `DELETE /jobs/<id>`         | cooperative cancel                       |
//! | `GET /jobs/<id>/events?since=N` | poll the seq-numbered event log      |
//! | `GET /jobs/<id>/profile`    | the job's exploration-profile document   |
//! | `POST /shutdown`            | stop accepting, drain, exit              |
//!
//! With `--token <secret>` every mutating (non-`GET`) route requires
//! `Authorization: Bearer <secret>` and answers 401 otherwise; reads
//! stay open so dashboards and health probes keep working.
//!
//! ## Threads
//!
//! One nonblocking accept loop (polling so it can observe the drain
//! flag), a small fixed pool of connection handlers fed over a *bounded*
//! channel (backpressure instead of a thread per connection), and
//! `workers` job runners consuming the [`JobTable`] queue. Its drain
//! flag is the only shutdown state: `POST /shutdown` raises it, new
//! submissions get 503, the accept loop stops, handlers drain in-flight
//! connections, job workers drain the queue, and `serve` returns.
//! Nothing is detached, so a clean exit proves a clean drain.

use crate::http::{read_request, write_response, write_text_response, HttpError, Limits, Request};
use crate::job::{run_worker, JobRequest, JobTable};
use crate::journal::{replay_bytes, Journal, JournalLock};
use lazylocks::obs::write_stderr;
use lazylocks::registry;
use lazylocks_model::Program;
use lazylocks_trace::Json;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Daemon configuration (the `serve` subcommand's flags).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7077`; port `0` picks an ephemeral
    /// port (printed on stdout as `listening on <addr>`).
    pub addr: String,
    /// Job runner threads.
    pub workers: usize,
    /// Corpus directory every job persists its bugs into; `None`
    /// disables persistence.
    pub corpus_dir: Option<PathBuf>,
    /// Durable job journal (write-ahead log). When set, every lifecycle
    /// transition is fsynced before it is acknowledged and a restarted
    /// daemon re-enqueues the jobs that never finished; `None` keeps the
    /// queue in memory only.
    pub journal: Option<PathBuf>,
    /// Upper bound on a job's schedule budget; bigger submissions are
    /// rejected with 400 rather than silently clamped.
    pub max_job_budget: usize,
    /// HTTP hardening limits.
    pub limits: Limits,
    /// Shared secret: when set, every mutating (non-`GET`) route
    /// requires `Authorization: Bearer <token>` and answers 401
    /// otherwise.
    pub token: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7077".to_string(),
            workers: 2,
            corpus_dir: None,
            journal: None,
            max_job_budget: 1_000_000,
            limits: Limits::default(),
            token: None,
        }
    }
}

/// Everything a connection handler needs.
struct ServerCtx {
    table: Arc<JobTable>,
    config: ServerConfig,
    /// Daemon start time, reported as whole-second uptime ticks.
    started: Instant,
}

/// Runs the daemon until `POST /shutdown`; returns once every
/// connection handler and job worker has been joined (the drain
/// barrier). The resolved listen address is printed on stdout before the
/// first accept, so callers binding port `0` can discover the port.
pub fn serve(config: ServerConfig) -> Result<(), String> {
    // The exclusive journal lock comes before the bind and the
    // readiness line: replay-then-append is only sound for a single
    // owner, so a second daemon on the same journal must fail loudly
    // here — before announcing itself — rather than interleave writes.
    // The lock is held until `serve` returns.
    let _journal_lock = match &config.journal {
        Some(path) => {
            Some(JournalLock::acquire(path).map_err(|e| format!("cannot lock journal: {e}"))?)
        }
        None => None,
    };

    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve local address: {e}"))?;
    println!("lazylocks-server listening on {local}");
    std::io::stdout().flush().ok();
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set nonblocking accept: {e}"))?;

    // Replay the journal (if any) before workers exist, so recovered
    // jobs are queued ahead of the first claim.
    let table = match &config.journal {
        Some(path) => {
            let bytes = match std::fs::read(path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
            };
            let replay = replay_bytes(&bytes);
            for warning in &replay.skipped {
                write_stderr(&format!("journal {}: {warning}\n", path.display()));
            }
            let journal = Arc::new(
                Journal::open(path)
                    .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?,
            );
            let table = Arc::new(JobTable::with_journal(journal));
            let recovered = table.restore(replay);
            if recovered > 0 {
                println!(
                    "lazylocks-server recovered {recovered} unfinished job(s) from {}",
                    path.display()
                );
            }
            table
        }
        None => Arc::new(JobTable::default()),
    };
    let ctx = Arc::new(ServerCtx {
        table: table.clone(),
        config: config.clone(),
        started: Instant::now(),
    });

    let job_workers: Vec<_> = (0..config.workers.max(1))
        .map(|i| {
            let table = table.clone();
            let corpus = config.corpus_dir.clone();
            thread::Builder::new()
                .name(format!("job-worker-{i}"))
                .spawn(move || run_worker(table, corpus))
                .map_err(|e| format!("cannot spawn job worker: {e}"))
        })
        .collect::<Result<_, _>>()?;

    // Bounded handoff: when every handler is busy and the buffer is
    // full, the accept loop itself blocks — backpressure, not an
    // unbounded thread spawn per connection.
    let (conn_tx, conn_rx) = sync_channel::<TcpStream>(32);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let handlers: Vec<_> = (0..4)
        .map(|i| {
            let rx = conn_rx.clone();
            let ctx = ctx.clone();
            thread::Builder::new()
                .name(format!("http-handler-{i}"))
                .spawn(move || handler_loop(rx, ctx))
                .map_err(|e| format!("cannot spawn connection handler: {e}"))
        })
        .collect::<Result<_, _>>()?;

    while !table.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                write_stderr(&format!("accept failed: {e}\n"));
                thread::sleep(Duration::from_millis(20));
            }
        }
    }

    // Drain: close the connection channel, let handlers finish in-flight
    // requests, then let job workers empty the queue.
    drop(conn_tx);
    for h in handlers {
        h.join().map_err(|_| "connection handler panicked")?;
    }
    for w in job_workers {
        w.join().map_err(|_| "job worker panicked")?;
    }
    println!("lazylocks-server drained, exiting");
    Ok(())
}

fn handler_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, ctx: Arc<ServerCtx>) {
    loop {
        // Hold the lock only for the receive so handlers stay parallel.
        let stream = match rx.lock().unwrap().recv() {
            Ok(stream) => stream,
            Err(_) => return,
        };
        handle_connection(stream, &ctx);
    }
}

/// One request per connection, `Connection: close` — and every failure
/// path answers with structured JSON rather than dropping or panicking.
fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    stream
        .set_read_timeout(Some(ctx.config.limits.read_timeout))
        .ok();
    stream
        .set_write_timeout(Some(ctx.config.limits.read_timeout))
        .ok();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    let (status, body) = match read_request(&mut reader, &ctx.config.limits) {
        // `/metrics` is the one non-JSON route: Prometheus text. Its
        // `?format=json` twin serves the same families as JSON for the
        // JSON-only client (`lazylocks client metrics`).
        Ok(request)
            if request.method == "GET"
                && request.path == "/metrics"
                && !request
                    .query
                    .iter()
                    .any(|(k, v)| k == "format" && v == "json") =>
        {
            write_text_response(
                &mut writer,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &metrics_text(ctx),
            )
            .ok();
            return;
        }
        Ok(request) => match check_auth(&request, ctx) {
            Some(denied) => denied,
            None => route(&request, ctx),
        },
        Err(HttpError::Closed) => return,
        Err(e) => {
            let (status, _) = e.status();
            (status, error_body(&e.message()))
        }
    };
    write_response(&mut writer, status, &body).ok();
}

/// The daemon-level families of `GET /metrics`, in exposition order:
/// `(name, help, type)`. [`server_samples`] supplies their values, and
/// [`metrics_text`] and [`metrics_json_body`] both render from the pair.
const SERVER_FAMILIES: [(&str, &str, &str); 6] = [
    (
        "lazylocks_server_queue_depth",
        "Jobs waiting for a worker.",
        "gauge",
    ),
    (
        "lazylocks_server_running_jobs",
        "Jobs currently held by a worker.",
        "gauge",
    ),
    ("lazylocks_server_jobs", "Jobs by lifecycle state.", "gauge"),
    ("lazylocks_server_workers", "Job runner threads.", "gauge"),
    (
        "lazylocks_server_uptime_ticks",
        "Whole seconds since the daemon started.",
        "counter",
    ),
    (
        "lazylocks_server_draining",
        "1 once shutdown has begun.",
        "gauge",
    ),
];

/// One sample list per [`SERVER_FAMILIES`] entry: a single unlabelled
/// value, or one value per job state for `lazylocks_server_jobs`.
fn server_samples(ctx: &ServerCtx) -> [Vec<(Option<&'static str>, u64)>; 6] {
    let (queued, running) = ctx.table.load();
    let jobs = ctx.table.state_counts().into_iter();
    let one = |v: u64| vec![(None, v)];
    [
        one(queued as u64),
        one(running as u64),
        jobs.map(|(state, n)| (Some(state.as_str()), n as u64))
            .collect(),
        one(ctx.config.workers.max(1) as u64),
        one(ctx.started.elapsed().as_secs()),
        one(u64::from(ctx.table.draining())),
    ]
}

/// The `GET /metrics` document: daemon-level families followed by the
/// merged per-job exploration metrics.
fn metrics_text(ctx: &ServerCtx) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for ((name, help, kind), samples) in SERVER_FAMILIES.iter().zip(server_samples(ctx)) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for (state, v) in samples {
            let _ = match state {
                Some(state) => writeln!(out, "{name}{{state=\"{state}\"}} {v}"),
                None => writeln!(out, "{name} {v}"),
            };
        }
    }
    out.push_str(&ctx.table.metrics_snapshot().to_prometheus_text());
    out
}

/// `GET /metrics?format=json`: the merged exploration metrics in the
/// `lazylocks-metrics` JSON schema, plus a `server` object carrying the
/// daemon families the text exposition renders as its own families.
fn metrics_json_body(ctx: &ServerCtx) -> Json {
    let server = SERVER_FAMILIES
        .iter()
        .zip(server_samples(ctx))
        .map(|((name, ..), samples)| {
            let value = match samples[..] {
                [(None, v)] => Json::from(v),
                _ => Json::Obj(
                    samples
                        .iter()
                        .map(|&(state, n)| (state.unwrap_or_default().to_string(), Json::from(n)))
                        .collect(),
                ),
            };
            (name.to_string(), value)
        })
        .collect();
    let mut body = ctx.table.metrics_snapshot().to_json();
    if let Json::Obj(pairs) = &mut body {
        pairs.push(("server".to_string(), Json::Obj(server)));
    }
    body
}

fn error_body(message: &str) -> Json {
    Json::obj([("error", Json::Str(message.to_string()))])
}

/// Enforces `--token`: every mutating (non-`GET`) request must carry
/// `Authorization: Bearer <token>`. Returns the 401 response to send,
/// or `None` when the request may proceed. Reads stay open — health
/// probes and dashboards work without the secret.
fn check_auth(request: &Request, ctx: &ServerCtx) -> Option<(u16, Json)> {
    let token = ctx.config.token.as_deref()?;
    if request.method == "GET" {
        return None;
    }
    let presented = request
        .headers
        .iter()
        .find(|(name, _)| name == "authorization")
        .map(|(_, value)| value.trim());
    if presented == Some(format!("Bearer {token}").as_str()) {
        return None;
    }
    Some((
        401,
        error_body("this server requires Authorization: Bearer <token> on mutating requests"),
    ))
}

/// Maps a parsed request to a `(status, body)` pair.
fn route(request: &Request, ctx: &ServerCtx) -> (u16, Json) {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            // Stable fields (configuration-derived, never change while the
            // daemon runs) first; the moving parts live under "live" so
            // scrub-style consumers can drop that one subtree.
            let (queued, running) = ctx.table.load();
            let jobs = Json::Obj(
                ctx.table
                    .state_counts()
                    .iter()
                    .map(|(state, n)| (state.as_str().to_string(), Json::Int(*n as i128)))
                    .collect(),
            );
            (
                200,
                Json::obj([
                    ("status", Json::Str("ok".to_string())),
                    ("workers", Json::Int(ctx.config.workers.max(1) as i128)),
                    ("draining", Json::Bool(ctx.table.draining())),
                    (
                        "live",
                        Json::obj([
                            ("queue_depth", Json::Int(queued as i128)),
                            ("running", Json::Int(running as i128)),
                            ("jobs", jobs),
                            (
                                "uptime_ticks",
                                Json::Int(ctx.started.elapsed().as_secs() as i128),
                            ),
                        ]),
                    ),
                ]),
            )
        }
        ("GET", ["strategies"]) => (
            200,
            Json::obj([
                (
                    "strategies",
                    Json::Arr(
                        registry::entries()
                            .iter()
                            .map(|(name, help)| {
                                Json::obj([
                                    ("name", Json::Str(name.to_string())),
                                    ("help", Json::Str(help.to_string())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "aliases",
                    Json::Arr(
                        registry::alias_table()
                            .iter()
                            .map(|(alias, target)| {
                                Json::obj([
                                    ("alias", Json::Str(alias.to_string())),
                                    ("target", Json::Str(target.to_string())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        // Only the `format=json` variant reaches the router; plain text
        // is served on the connection fast-path above.
        ("GET", ["metrics"]) => (200, metrics_json_body(ctx)),
        ("POST", ["jobs"]) => submit_job(request, ctx),
        ("GET", ["jobs"]) => (200, ctx.table.list()),
        ("GET", ["jobs", id]) => match parse_id(id) {
            Some(id) => match ctx.table.detail(id) {
                Some(detail) => (200, detail),
                None => (404, error_body(&format!("no job {id}"))),
            },
            None => (400, error_body(&format!("bad job id {id:?}"))),
        },
        ("DELETE", ["jobs", id]) => match parse_id(id) {
            Some(id) => match ctx.table.cancel(id) {
                Some(state) => (
                    200,
                    Json::obj([
                        ("id", Json::Int(id as i128)),
                        ("state", Json::Str(state.as_str().to_string())),
                    ]),
                ),
                None => (404, error_body(&format!("no job {id}"))),
            },
            None => (400, error_body(&format!("bad job id {id:?}"))),
        },
        ("GET", ["jobs", id, "profile"]) => match parse_id(id) {
            Some(id) => match ctx.table.profile(id) {
                Some(profile) => (200, profile),
                None => (404, error_body(&format!("no job {id}"))),
            },
            None => (400, error_body(&format!("bad job id {id:?}"))),
        },
        ("GET", ["jobs", id, "events"]) => match parse_id(id) {
            Some(id) => {
                let since = request.query_u64("since").unwrap_or(0);
                match ctx.table.events_since(id, since) {
                    Some(events) => (200, events),
                    None => (404, error_body(&format!("no job {id}"))),
                }
            }
            None => (400, error_body(&format!("bad job id {id:?}"))),
        },
        ("POST", ["shutdown"]) => {
            let (queued, running) = ctx.table.begin_shutdown();
            (
                200,
                Json::obj([
                    ("status", Json::Str("draining".to_string())),
                    ("queued", Json::Int(queued as i128)),
                    ("running", Json::Int(running as i128)),
                ]),
            )
        }
        (_, ["healthz" | "strategies" | "shutdown" | "metrics"]) | (_, ["jobs", ..]) => {
            (405, error_body("method not allowed"))
        }
        _ => (404, error_body(&format!("no route for {}", request.path))),
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

/// `POST /jobs`: decode, validate, bound, enqueue.
fn submit_job(request: &Request, ctx: &ServerCtx) -> (u16, Json) {
    if ctx.table.draining() {
        return (503, error_body("shutting down"));
    }
    let body = match request.body_json() {
        Ok(body) => body,
        Err(e) => return (e.status().0, error_body(&e.message())),
    };
    let job = match JobRequest::from_json(&body) {
        Ok(job) => job,
        Err(e) => return (400, error_body(&e)),
    };
    if job.run.limit > ctx.config.max_job_budget {
        return (
            400,
            error_body(&format!(
                "limit {} exceeds the server's --max-job-budget {}",
                job.run.limit, ctx.config.max_job_budget
            )),
        );
    }
    // Validate the spec and the program at the door, so every accepted
    // job can actually run.
    let refused = match registry::create(&job.run.spec) {
        Ok(explorer) => job.run.refuse_ignored(&*explorer, false),
        Err(e) => Err(format!("spec: {e}")),
    };
    if let Err(e) = refused {
        return (400, error_body(&e));
    }
    let program = match Program::parse(&job.program_source) {
        Ok(program) => program,
        Err(e) => return (400, error_body(&format!("program: {e}"))),
    };
    match ctx.table.submit(job, program.name().to_string()) {
        Some(id) => (
            201,
            Json::obj([
                ("id", Json::Int(id as i128)),
                ("state", Json::Str("queued".to_string())),
            ]),
        ),
        None => (503, error_body("shutting down")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(config: ServerConfig) -> ServerCtx {
        ServerCtx {
            table: Arc::new(JobTable::default()),
            config,
            started: Instant::now(),
        }
    }

    fn request(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: Vec::new(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn token_gates_mutating_routes_but_not_reads() {
        let ctx = ctx(ServerConfig {
            token: Some("s3cret".to_string()),
            ..ServerConfig::default()
        });
        // Mutations without (or with the wrong) secret: 401.
        let denied = check_auth(&request("POST", "/jobs", &[], "{}"), &ctx);
        assert_eq!(denied.map(|(status, _)| status), Some(401));
        let denied = check_auth(
            &request("POST", "/jobs", &[("authorization", "Bearer wrong")], "{}"),
            &ctx,
        );
        assert_eq!(denied.map(|(status, _)| status), Some(401));
        let denied = check_auth(&request("DELETE", "/jobs/1", &[], ""), &ctx);
        assert_eq!(denied.map(|(status, _)| status), Some(401));
        // The right secret passes; reads never need one.
        assert!(check_auth(
            &request("POST", "/jobs", &[("authorization", "Bearer s3cret")], "{}"),
            &ctx
        )
        .is_none());
        assert!(check_auth(&request("GET", "/healthz", &[], ""), &ctx).is_none());
        assert!(check_auth(&request("GET", "/jobs", &[], ""), &ctx).is_none());
    }

    #[test]
    fn submit_refuses_a_preemption_bound_the_spec_ignores() {
        let ctx = ctx(ServerConfig::default());
        let body = |spec: &str| {
            let program = "program p\nvar x = 0\nthread T1 {\n  store x = 1\n}\n";
            Json::obj([
                ("program", Json::Str(program.to_string())),
                ("spec", Json::Str(spec.to_string())),
                ("preemptions", Json::Int(0)),
            ])
            .encode()
        };
        for spec in ["dpor", "dpor(deps=lazy-locks)", "lazy-dpor", "bounded"] {
            let (status, error) = submit_job(&request("POST", "/jobs", &[], &body(spec)), &ctx);
            assert_eq!(status, 400, "{spec}");
            let message = error.get("error").and_then(Json::as_str).unwrap();
            assert!(message.starts_with("preemptions: "), "{message}");
        }
        for spec in ["dfs", "caching", "random"] {
            let (status, _) = submit_job(&request("POST", "/jobs", &[], &body(spec)), &ctx);
            assert_eq!(status, 201, "{spec}");
        }
    }

    #[test]
    fn strategies_route_lists_the_table_and_its_aliases() {
        let ctx = ctx(ServerConfig::default());
        let (status, body) = route(&request("GET", "/strategies", &[], ""), &ctx);
        assert_eq!(status, 200);
        assert_eq!(
            body.encode(),
            concat!(
                r#"{"strategies":["#,
                r#"{"name":"bounded","help":"CHESS-style iterative preemption bounding "#,
                r#"[start=N, max=N, step=N, mode=regular/lazy]"},"#,
                r#"{"name":"caching","help":"prefix-HBR caching [mode=regular/lazy]"},"#,
                r#"{"name":"dfs","help":"exhaustive depth-first enumeration"},"#,
                r#"{"name":"dpor","help":"dynamic partial-order reduction with sleep sets "#,
                r#"[deps=regular/lazy-locks]"},"#,
                r#"{"name":"lazy-dpor","help":"sleep-free prototype lazy DPOR (paper §4)"},"#,
                r#"{"name":"random","help":"uniform random walks (seed from the config)"}],"#,
                r#""aliases":[{"alias":"chess","target":"bounded"},"#,
                r#"{"alias":"lazy-caching","target":"caching(mode=lazy)"}]}"#,
            )
        );
    }

    #[test]
    fn without_a_token_everything_is_open() {
        let ctx = ctx(ServerConfig::default());
        assert!(check_auth(&request("POST", "/jobs", &[], "{}"), &ctx).is_none());
        assert!(check_auth(&request("POST", "/shutdown", &[], ""), &ctx).is_none());
    }
}
