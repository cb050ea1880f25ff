//! Structured, leveled event logging.
//!
//! A [`TraceEvent`] is one machine-readable line: a level, an event kind
//! and typed fields, serialized as a single-line JSON object. Frontends
//! emit these instead of ad-hoc `eprintln!` progress prints, so the same
//! stream is greppable by humans and parseable by tools.

use crate::json::Json;
use std::io::Write;

/// Event severity, ordered: `Error < Warn < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    Error,
    Warn,
    Info,
    Debug,
}

impl LogLevel {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parses a wire name (the CLI `--log-level` values).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

/// One structured log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub level: LogLevel,
    /// The event kind, serialized as the `"event"` field.
    pub kind: String,
    pub fields: Vec<(String, Json)>,
}

impl TraceEvent {
    /// A new event with no fields yet.
    pub fn new(level: LogLevel, kind: impl Into<String>) -> TraceEvent {
        TraceEvent {
            level,
            kind: kind.into(),
            fields: Vec::new(),
        }
    }

    /// Appends a field, returning `self` for chaining.
    pub fn field(mut self, key: impl Into<String>, value: impl Into<Json>) -> TraceEvent {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// The single-line JSON form: `{"level":...,"event":...,<fields>}`.
    pub fn to_json_string(&self) -> String {
        let mut pairs = vec![
            ("level".to_string(), Json::from(self.level.as_str())),
            ("event".to_string(), Json::from(self.kind.as_str())),
        ];
        pairs.extend(self.fields.iter().cloned());
        Json::Obj(pairs).encode()
    }
}

/// A level-filtered sink writing one JSON line per event to stderr —
/// stdout stays reserved for result documents (`--json`).
#[derive(Debug, Clone, Copy)]
pub struct EventLog {
    min_level: LogLevel,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(LogLevel::Info)
    }
}

impl EventLog {
    /// A log emitting events at or above `min_level`.
    pub fn new(min_level: LogLevel) -> EventLog {
        EventLog { min_level }
    }

    /// Would an event at `level` be emitted?
    pub fn enabled(&self, level: LogLevel) -> bool {
        level <= self.min_level
    }

    /// Writes the event as one stderr line if its level passes the filter.
    ///
    /// The line and its terminating newline go out in a single
    /// `write_all` of one buffer: `writeln!` would issue separate writes
    /// for the payload and the `\n`, and although the stderr lock orders
    /// them against other in-process writers, a child process (or C
    /// code) sharing the fd could interleave between the two syscalls
    /// and tear the line mid-record.
    pub fn emit(&self, event: &TraceEvent) {
        if !self.enabled(event.level) {
            return;
        }
        let mut line = event.to_json_string();
        line.push('\n');
        write_stderr(&line);
    }
}

/// Writes `text` to stderr in one `write_all` and drops a failed write.
/// Every diagnostic line goes through here rather than `eprintln!`,
/// which panics when stderr is a closed pipe: a lost warning must not
/// turn the process's exit code into a panic's.
pub fn write_stderr(text: &str) {
    let _ = std::io::stderr().lock().write_all(text.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!(LogLevel::parse("warn"), Some(LogLevel::Warn));
        assert_eq!(LogLevel::parse("chatty"), None);
        for level in [
            LogLevel::Error,
            LogLevel::Warn,
            LogLevel::Info,
            LogLevel::Debug,
        ] {
            assert_eq!(LogLevel::parse(level.as_str()), Some(level));
        }
    }

    #[test]
    fn events_serialize_as_single_json_lines() {
        let event = TraceEvent::new(LogLevel::Info, "progress")
            .field("schedules", 1024u64)
            .field("strategy", "dpor(sleep=true)")
            .field("limit_hit", false);
        let line = event.to_json_string();
        assert_eq!(
            line,
            "{\"level\":\"info\",\"event\":\"progress\",\"schedules\":1024,\
             \"strategy\":\"dpor(sleep=true)\",\"limit_hit\":false}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn log_filters_by_level() {
        let log = EventLog::new(LogLevel::Warn);
        assert!(log.enabled(LogLevel::Error));
        assert!(log.enabled(LogLevel::Warn));
        assert!(!log.enabled(LogLevel::Info));
        assert!(!log.enabled(LogLevel::Debug));
    }
}
