//! A minimal, hardened HTTP/1.1 layer over `std::io`.
//!
//! The daemon's control plane is tiny — small JSON bodies, one request
//! per connection, `Connection: close` — so a full HTTP implementation
//! would be all liability. What *is* load-bearing is robustness against
//! hostile or broken clients: every read is capped (request line, header
//! line, header count, body size) and carries the socket's read timeout,
//! and every malformed input maps to a structured [`HttpError`] that the
//! daemon renders as a 4xx JSON response. The parser must never panic and
//! never read unboundedly; the tests at the bottom feed it truncated,
//! oversized and garbage inputs to keep that true.
//!
//! The parser is generic over [`BufRead`] so those tests run against
//! in-memory cursors, no sockets involved.

use lazylocks_trace::Json;
use std::io::{BufRead, ErrorKind, Read, Write};
use std::time::Duration;

/// Hard caps applied to every incoming request.
#[derive(Debug, Clone, PartialEq)]
pub struct Limits {
    /// Maximum request body size in bytes (`Content-Length` above this is
    /// rejected with 413 before any body byte is read).
    pub max_body_bytes: usize,
    /// Maximum length of the request line or any single header line.
    pub max_line_bytes: usize,
    /// Maximum number of headers.
    pub max_headers: usize,
    /// Socket read timeout (applied by the daemon; a read that times out
    /// surfaces here as [`HttpError::Timeout`]).
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_body_bytes: 1 << 20, // 1 MiB — a .llk program is a few KiB
            max_line_bytes: 8 << 10,
            max_headers: 64,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Why a request could not be parsed. Each variant maps to one 4xx
/// status; none of them ever aborts the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically malformed request (bad request line, bad header,
    /// bad `Content-Length`, truncated body, non-UTF-8 where text is
    /// required) — 400.
    BadRequest(String),
    /// Declared body larger than [`Limits::max_body_bytes`] — 413.
    PayloadTooLarge(String),
    /// A request or header line exceeded [`Limits::max_line_bytes`], or
    /// there were more than [`Limits::max_headers`] headers — 431.
    HeaderTooLarge(String),
    /// The socket read timed out mid-request — 408.
    Timeout,
    /// The peer closed the connection before sending anything. Not a
    /// protocol error; the daemon just drops the connection silently.
    Closed,
}

impl HttpError {
    /// The HTTP status code and reason phrase for this error.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::PayloadTooLarge(_) => (413, "Payload Too Large"),
            HttpError::HeaderTooLarge(_) => (431, "Request Header Fields Too Large"),
            HttpError::Timeout => (408, "Request Timeout"),
            HttpError::Closed => (400, "Bad Request"),
        }
    }

    /// A human-readable description for the JSON error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m)
            | HttpError::PayloadTooLarge(m)
            | HttpError::HeaderTooLarge(m) => m.clone(),
            HttpError::Timeout => "read timed out".to_string(),
            HttpError::Closed => "connection closed".to_string(),
        }
    }
}

/// A parsed request: method, path split from its query string, lowercased
/// headers, raw body bytes.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// The path with any `?query` stripped.
    pub path: String,
    /// `key=value` pairs from the query string (no percent-decoding; the
    /// API only uses plain numeric parameters like `since=3`).
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// The first query parameter named `key`, parsed as a `u64`.
    pub fn query_u64(&self, key: &str) -> Option<u64> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    }

    /// The body decoded as UTF-8 JSON, with decode failures mapped to
    /// [`HttpError::BadRequest`].
    pub fn body_json(&self) -> Result<Json, HttpError> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::BadRequest("body is not valid UTF-8".to_string()))?;
        Json::parse(text).map_err(|e| HttpError::BadRequest(format!("body is not valid JSON: {e}")))
    }
}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::TimedOut | ErrorKind::WouldBlock => HttpError::Timeout,
        _ => HttpError::BadRequest(format!("read failed: {e}")),
    }
}

/// Reads one `\n`-terminated line of at most `max` bytes, stripping the
/// terminator (and a preceding `\r`).
fn read_line(reader: &mut impl BufRead, max: usize) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(io_error)?;
    if buf.is_empty() {
        return Err(HttpError::Closed);
    }
    if buf.last() != Some(&b'\n') {
        if buf.len() > max {
            return Err(HttpError::HeaderTooLarge(format!(
                "line exceeds {max} bytes"
            )));
        }
        return Err(HttpError::BadRequest("truncated line".to_string()));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HttpError::BadRequest("line is not valid UTF-8".to_string()))
}

/// Reads and validates one full request under `limits`.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, HttpError> {
    let request_line = read_line(reader, limits.max_line_bytes)?;
    let mut parts = request_line.split_whitespace();
    let (method, raw_path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!("bad method {method:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, limits.max_line_bytes) {
            Ok(line) => line,
            // EOF inside the header block is a truncated request, not a
            // silent close.
            Err(HttpError::Closed) => {
                return Err(HttpError::BadRequest("truncated headers".to_string()))
            }
            Err(e) => return Err(e),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::HeaderTooLarge(format!(
                "more than {} headers",
                limits.max_headers
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    if let Some((_, v)) = headers.iter().find(|(k, _)| k == "content-length") {
        let len: usize = v
            .parse()
            .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {v:?}")))?;
        if len > limits.max_body_bytes {
            return Err(HttpError::PayloadTooLarge(format!(
                "body of {len} bytes exceeds the {}-byte cap",
                limits.max_body_bytes
            )));
        }
        body.resize(len, 0);
        reader.read_exact(&mut body).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => HttpError::BadRequest("truncated body".to_string()),
            _ => io_error(e),
        })?;
    }

    let (path, query_str) = match raw_path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (raw_path, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
        headers,
        body,
    })
}

/// The reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a complete `Connection: close` JSON response.
pub fn write_response(w: &mut impl Write, status: u16, body: &Json) -> std::io::Result<()> {
    let payload = body.encode();
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        status_reason(status),
        payload.len(),
    )?;
    w.flush()
}

/// Writes a complete `Connection: close` plain-text response — used by
/// `GET /metrics`, whose Prometheus exposition format is text, not JSON.
pub fn write_text_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    payload: &str,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        status_reason(status),
        payload.len(),
    )?;
    w.flush()
}

/// Reads a response (status code + JSON body) — the client half of the
/// protocol, under the same limits as the server half.
pub fn read_response(reader: &mut impl BufRead, limits: &Limits) -> Result<(u16, Json), HttpError> {
    let status_line = read_line(reader, limits.max_line_bytes)?;
    let mut parts = status_line.split_whitespace();
    let (version, code) = match (parts.next(), parts.next()) {
        (Some(v), Some(c)) => (v, c),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed status line {status_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let status: u16 = code
        .parse()
        .map_err(|_| HttpError::BadRequest(format!("bad status code {code:?}")))?;

    let mut content_length = 0usize;
    loop {
        let line = read_line(reader, limits.max_line_bytes)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    HttpError::BadRequest(format!("bad Content-Length {:?}", value.trim()))
                })?;
                if content_length > limits.max_body_bytes {
                    return Err(HttpError::PayloadTooLarge(format!(
                        "response body of {content_length} bytes exceeds the cap"
                    )));
                }
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(io_error)?;
    let text = std::str::from_utf8(&body)
        .map_err(|_| HttpError::BadRequest("response body is not valid UTF-8".to_string()))?;
    let json = Json::parse(text)
        .map_err(|e| HttpError::BadRequest(format!("response body is not valid JSON: {e}")))?;
    Ok((status, json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(input: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(input.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse(
            b"POST /jobs?since=3&flag HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query_u64("since"), Some(3));
        assert_eq!(req.query_u64("flag"), None);
        assert_eq!(req.body, b"{\"a\":1}");
        assert_eq!(req.body_json().unwrap().get("a").unwrap().as_i64(), Some(1));
        assert_eq!(req.headers[0], ("host".to_string(), "x".to_string()));
    }

    #[test]
    fn bare_lf_lines_are_accepted() {
        let req = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn empty_stream_reports_closed() {
        assert_eq!(parse(b"").unwrap_err(), HttpError::Closed);
    }

    #[test]
    fn garbage_request_line_is_bad_request() {
        for garbage in [
            &b"\x00\xffnonsense\r\n\r\n"[..],
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
        ] {
            match parse(garbage) {
                Err(HttpError::BadRequest(_)) => {}
                other => panic!("{garbage:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_requests_are_bad_requests_not_panics() {
        // Cut off mid-headers and mid-body.
        for truncated in [
            &b"GET /x HTTP/1.1"[..],
            b"GET /x HTTP/1.1\r\nHost: x",
            b"GET /x HTTP/1.1\r\nHost: x\r\n",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"a\"",
        ] {
            match parse(truncated) {
                Err(HttpError::BadRequest(_)) => {}
                other => panic!("{truncated:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_request_line_is_rejected() {
        let mut input = b"GET /".to_vec();
        input.extend(std::iter::repeat_n(b'a', 64 << 10));
        input.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        match parse(&input) {
            Err(HttpError::HeaderTooLarge(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_reading_it() {
        let input = b"POST /jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        match parse(input) {
            Err(HttpError::PayloadTooLarge(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn header_flood_is_rejected() {
        let mut input = b"GET /x HTTP/1.1\r\n".to_vec();
        for i in 0..1000 {
            input.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        input.extend_from_slice(b"\r\n");
        match parse(&input) {
            Err(HttpError::HeaderTooLarge(_)) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_content_length_is_rejected() {
        for bad in ["nope", "-1", "18446744073709551616"] {
            let input = format!("POST /jobs HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            match parse(input.as_bytes()) {
                Err(HttpError::BadRequest(_)) => {}
                other => panic!("{bad} -> {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_json_body_is_a_structured_error() {
        let req = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!").unwrap();
        match req.body_json() {
            Err(HttpError::BadRequest(m)) => assert!(m.contains("JSON"), "{m}"),
            other => panic!("{other:?}"),
        }
        let req = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe").unwrap();
        match req.body_json() {
            Err(HttpError::BadRequest(m)) => assert!(m.contains("UTF-8"), "{m}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_map_to_distinct_4xx_statuses() {
        assert_eq!(HttpError::BadRequest(String::new()).status().0, 400);
        assert_eq!(HttpError::PayloadTooLarge(String::new()).status().0, 413);
        assert_eq!(HttpError::HeaderTooLarge(String::new()).status().0, 431);
        assert_eq!(HttpError::Timeout.status().0, 408);
    }

    #[test]
    fn response_round_trips_through_the_client_reader() {
        let body = Json::obj([("ok", Json::Bool(true))]);
        let mut wire = Vec::new();
        write_response(&mut wire, 201, &body).unwrap();
        let (status, parsed) = read_response(&mut Cursor::new(wire), &Limits::default()).unwrap();
        assert_eq!(status, 201);
        assert_eq!(parsed, body);
    }
}
