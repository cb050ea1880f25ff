//! A thin blocking HTTP client for the daemon's API — used by the
//! `lazylocks client` subcommand, the CI smoke tests and the e2e tests. One request per connection, mirroring the
//! server's `Connection: close` discipline.
//!
//! ## Retry semantics
//!
//! `--retries` applies at two layers. Connect-time failures (refused,
//! reset, timed out) are always retried with exponential backoff: no
//! request was sent, so nothing can be duplicated. Failures *after* the
//! request may have been sent (torn response, dropped connection,
//! timeout) are retried only for requests [`is_idempotent`] classifies
//! as safe to resend, which is every `GET` and nothing else. A
//! mutating request — `POST /jobs` above all — is never resent once any
//! byte of it may have reached the server, so a retried submission
//! can't enqueue twice.

use crate::http::{read_response, Limits};
use lazylocks_trace::{FaultPlan, Json};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Whether a `method` request is safe to resend after a failure that
/// may have delivered the first copy. The classification table:
///
/// | request | idempotent | why |
/// |---|---|---|
/// | `GET *` | yes | reads only |
/// | `POST /jobs` | **no** | a resend could enqueue the job twice |
/// | `DELETE /jobs/<id>`, `POST /shutdown` | no (conservative) | single-shot is always safe |
pub fn is_idempotent(method: &str) -> bool {
    method == "GET"
}

/// Why one request attempt failed, and whether a retry is sound.
struct CallFailure {
    message: String,
    /// Retrying could plausibly succeed (connection-level trouble, not a
    /// malformed request).
    transient: bool,
    /// Any byte of the request may have reached the server — a resend is
    /// then only safe for idempotent requests.
    sent: bool,
}

/// A handle on one daemon.
pub struct Client {
    addr: String,
    limits: Limits,
    /// Extra attempts after the first (0 = fail fast).
    retries: u32,
    /// First retry backoff; doubles per attempt.
    retry_base: Duration,
    /// Shared secret sent as `Authorization: Bearer <token>`.
    token: Option<String>,
    /// Wire-fault injection (tests): torn request writes, short response
    /// reads.
    faults: FaultPlan,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7077`).
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            limits: Limits::default(),
            retries: 0,
            retry_base: Duration::from_millis(100),
            token: None,
            faults: FaultPlan::inert(),
        }
    }

    /// Retries transient failures up to `retries` extra times with
    /// exponential backoff starting at `base` (base, 2·base, 4·base, …).
    /// Connect-time failures always retry; post-send failures retry only
    /// for requests [`is_idempotent`] marks safe to resend.
    pub fn with_retries(mut self, retries: u32, base: Duration) -> Self {
        self.retries = retries;
        self.retry_base = base;
        self
    }

    /// Attaches the shared-secret token sent on every request.
    pub fn with_token(mut self, token: Option<String>) -> Self {
        self.token = token;
        self
    }

    /// Injects wire faults into subsequent requests (tests): a torn
    /// write cuts the request mid-flight, a short read truncates the
    /// response.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// One attempt: connect, send, read. The failure records whether the
    /// request may have been delivered.
    fn try_call(
        &self,
        method: &str,
        path: &str,
        payload: &str,
    ) -> Result<(u16, Json), CallFailure> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| {
            let transient = matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionRefused
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::TimedOut
            );
            CallFailure {
                message: format!("cannot connect to {}: {e}", self.addr),
                transient,
                sent: false,
            }
        })?;
        stream.set_read_timeout(Some(self.limits.read_timeout)).ok();
        stream
            .set_write_timeout(Some(self.limits.read_timeout))
            .ok();
        let mut writer = stream.try_clone().map_err(|e| CallFailure {
            message: format!("cannot clone socket: {e}"),
            transient: false,
            sent: false,
        })?;
        let auth = match &self.token {
            Some(t) => format!("Authorization: Bearer {t}\r\n"),
            None => String::new(),
        };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\n{auth}Content-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            self.addr,
            payload.len(),
        );
        if let Some(keep) = self.faults.take_torn_write() {
            // Injected dropped connection: deliver a prefix (possibly
            // nothing) of the request, then hang up.
            let torn = &request.as_bytes()[..keep.min(request.len())];
            let _ = writer.write_all(torn);
            let _ = writer.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return Err(CallFailure {
                message: format!("injected torn request write to {}", self.addr),
                transient: true,
                sent: keep > 0,
            });
        }
        writer
            .write_all(request.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| CallFailure {
                message: format!("request write failed: {e}"),
                transient: true,
                sent: true,
            })?;
        let failed_read = |message: String| CallFailure {
            // The request reached the server; whether it executed is
            // unknowable from here. All read failures — timeout,
            // truncation, reset — are retried only when a resend is
            // idempotent.
            message,
            transient: true,
            sent: true,
        };
        if self.faults.is_armed() {
            // Short-read injection needs the raw bytes before parsing.
            let mut raw = Vec::new();
            BufReader::new(stream)
                .read_to_end(&mut raw)
                .map_err(|e| failed_read(format!("response read failed: {e}")))?;
            let raw = self.faults.apply_read(raw);
            let mut reader = BufReader::new(std::io::Cursor::new(raw));
            return read_response(&mut reader, &self.limits).map_err(|e| {
                failed_read(format!("bad response from {}: {}", self.addr, e.message()))
            });
        }
        let mut reader = BufReader::new(stream);
        read_response(&mut reader, &self.limits)
            .map_err(|e| failed_read(format!("bad response from {}: {}", self.addr, e.message())))
    }

    /// One logical round trip: connect, send, read `(status, body)` —
    /// retrying transient failures per the idempotency classification.
    pub fn call(
        &self,
        method: &str,
        path: &str,
        body: Option<&Json>,
    ) -> Result<(u16, Json), String> {
        let payload = body.map(Json::encode).unwrap_or_default();
        let mut attempt = 0u32;
        loop {
            match self.try_call(method, path, &payload) {
                Ok(response) => return Ok(response),
                Err(failure) => {
                    let resendable = !failure.sent || is_idempotent(method);
                    if !failure.transient || !resendable || attempt >= self.retries {
                        return Err(failure.message);
                    }
                    std::thread::sleep(self.retry_base * 2u32.pow(attempt.min(16)));
                    attempt += 1;
                }
            }
        }
    }

    /// `GET /healthz`.
    pub fn health(&self) -> Result<(u16, Json), String> {
        self.call("GET", "/healthz", None)
    }

    /// `GET /strategies`.
    pub fn strategies(&self) -> Result<(u16, Json), String> {
        self.call("GET", "/strategies", None)
    }

    /// `POST /jobs`; on 201 returns the new job id.
    pub fn submit(&self, job: &Json) -> Result<u64, String> {
        let (status, body) = self.call("POST", "/jobs", Some(job))?;
        if status != 201 {
            return Err(format!(
                "submit rejected ({status}): {}",
                body.get("error").and_then(Json::as_str).unwrap_or("?")
            ));
        }
        body.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "submit response carried no id".to_string())
    }

    /// `GET /jobs`.
    pub fn jobs(&self) -> Result<(u16, Json), String> {
        self.call("GET", "/jobs", None)
    }

    /// `GET /jobs/<id>`.
    pub fn job(&self, id: u64) -> Result<(u16, Json), String> {
        self.call("GET", &format!("/jobs/{id}"), None)
    }

    /// `DELETE /jobs/<id>`.
    pub fn cancel(&self, id: u64) -> Result<(u16, Json), String> {
        self.call("DELETE", &format!("/jobs/{id}"), None)
    }

    /// `GET /jobs/<id>/events?since=N`.
    pub fn events(&self, id: u64, since: u64) -> Result<(u16, Json), String> {
        self.call("GET", &format!("/jobs/{id}/events?since={since}"), None)
    }

    /// `GET /jobs/<id>/profile`.
    pub fn job_profile(&self, id: u64) -> Result<(u16, Json), String> {
        self.call("GET", &format!("/jobs/{id}/profile"), None)
    }

    /// `GET /metrics?format=json` — the JSON twin of the Prometheus
    /// text endpoint, parseable by this JSON-only client.
    pub fn metrics_json(&self) -> Result<(u16, Json), String> {
        self.call("GET", "/metrics?format=json", None)
    }

    /// `POST /shutdown`.
    pub fn shutdown(&self) -> Result<(u16, Json), String> {
        self.call("POST", "/shutdown", None)
    }

    /// Polls `GET /jobs/<id>` until the job reaches a terminal state,
    /// returning its detail document. `poll` is the sleep between polls.
    pub fn wait(&self, id: u64, poll: std::time::Duration) -> Result<Json, String> {
        loop {
            let (status, detail) = self.job(id)?;
            if status != 200 {
                return Err(format!("job {id} lookup failed ({status})"));
            }
            match detail.get("state").and_then(Json::as_str) {
                Some("done") | Some("cancelled") | Some("failed") => return Ok(detail),
                _ => std::thread::sleep(poll),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotency_classification_table() {
        // Reads are always resendable.
        assert!(is_idempotent("GET"));
        // Anything that could double-apply (`POST /jobs`, `POST
        // /shutdown`, `DELETE /jobs/<id>`) is not resent.
        assert!(!is_idempotent("POST"));
        assert!(!is_idempotent("DELETE"));
        assert!(!is_idempotent("PUT"));
    }

    #[test]
    fn non_idempotent_requests_fail_without_resend_after_a_torn_write() {
        // No server involved: the injected torn write fails the attempt
        // before the connect would matter — bind a listener so connect
        // succeeds, then assert that one torn POST /jobs burns the only
        // attempt despite retries being generous.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Accept and drop a few connections without responding.
            for _ in 0..4 {
                match listener.accept() {
                    Ok((stream, _)) => drop(stream),
                    Err(_) => break,
                }
            }
        });

        let faults = FaultPlan::armed();
        faults.truncate_next_write(10); // a prefix was sent
        let client = Client::new(addr.clone())
            .with_retries(3, Duration::from_millis(1))
            .with_faults(faults.clone());
        let err = client
            .call("POST", "/jobs", Some(&Json::obj([])))
            .unwrap_err();
        assert!(err.contains("torn request write"), "{err}");
        assert!(
            faults.take_torn_write().is_none(),
            "exactly one attempt was made: a possibly-delivered POST /jobs is never resent"
        );

        // The same failure on an idempotent request is retried: the
        // second attempt (no fault armed) proceeds to the read phase.
        faults.truncate_next_write(10);
        let err = client.call("GET", "/healthz", None).unwrap_err();
        assert!(
            !err.contains("torn request write"),
            "the retry attempt ran and failed differently: {err}"
        );
        drop(client);
        server.join().unwrap();
    }
}
