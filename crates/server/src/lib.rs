//! # lazylocks-server — exploration as a service.
//!
//! A long-running daemon that accepts `.llk` programs plus strategy
//! specs over HTTP/1.1 + JSON, explores them on a bounded worker pool,
//! streams progress and bugs into pollable per-job event logs, and
//! persists every counterexample into a [`CorpusStore`] so it can be
//! replayed later in a fresh process.
//!
//! Built from `std` alone — a hand-rolled, hardened HTTP layer
//! ([`http`]) and the zero-dependency JSON codec from `lazylocks-trace`
//! — because the workspace builds offline. The exploration itself goes
//! through [`lazylocks_trace::drive()`], built from the same
//! [`RunArgs`](lazylocks_trace::RunArgs) request as the CLI `run`
//! command, so a job's result document is exactly what `run --json`
//! would print (modulo the scrubbed wall-clock field; see
//! [`job::scrubbed_result`]).
//!
//! * [`daemon::serve`] — the accept loop, routing and drain-then-exit
//!   shutdown (the `lazylocks serve` subcommand);
//! * [`job`] — job queue, `Queued → Running → Done/Cancelled/Failed`
//!   state machine, per-job cancellation and event logs;
//! * [`journal`] — the durable job journal: a JSON-lines write-ahead log
//!   of every lifecycle transition, replayed on startup so a crashed
//!   daemon re-enqueues the jobs that never finished;
//! * [`client`] — a thin blocking client (the `lazylocks client`
//!   subcommand, CI smoke tests and e2e tests) with exponential-backoff
//!   retries gated on an idempotency classification;
//! * [`http`] — request parsing with hard caps on line length, header
//!   count and body size; malformed input maps to structured 4xx.
//!
//! [`CorpusStore`]: lazylocks_trace::CorpusStore

pub mod client;
pub mod daemon;
pub mod http;
pub mod job;
pub mod journal;

pub use client::{is_idempotent, Client};
pub use daemon::{serve, ServerConfig};
pub use http::{HttpError, Limits};
pub use job::{JobRequest, JobState, JobTable};
pub use journal::{replay_bytes, Journal, JournalLock, JournalReplay, RecoveredJob};
