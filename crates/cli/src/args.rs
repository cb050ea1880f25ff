//! Command-line parsing. Every subcommand declares its flags once, as a
//! list of flag groups in [`TABLES`]; one walker reads each flag's arity
//! from that table and typed accessors turn the values into a
//! [`Command`]. The [`EXPLORE`] group reads into [`RunArgs`], the one run
//! request `run` executes and `client submit` sends to the daemon.

use lazylocks::registry;
use lazylocks_fuzz::FuzzConfig;
use lazylocks_server::ServerConfig;
use lazylocks_trace::RunArgs;
use std::path::PathBuf;
use std::str::FromStr;

/// Usage text shown on parse errors and `help`.
pub const USAGE: &str = "\
lazylocks — systematic concurrency testing with the lazy happens-before relation

USAGE:
  lazylocks list [--family NAME]
  lazylocks strategies
  lazylocks show  --bench NAME | --id N | --file PATH
  lazylocks run   (--bench NAME | --id N | --file PATH)
                  [--strategy SPEC] [--limit N] [--preemptions K]
                  [--stop-on-bug] [--seed X] [--deadline-ms T]
                  [--progress N] [--minimize] [--save-traces DIR] [--json]
                  [--metrics] [--metrics-json FILE] [--profile FILE]
                  [--log-level LEVEL]
                  [--checkpoint-dir DIR [--checkpoint-every N] [--resume]]
  lazylocks explore ...            alias of `run`
  lazylocks profile [DOC.json | (--bench NAME | --id N | --file PATH)]
                  [--strategy SPEC] [--limit N] [--json]
  lazylocks replay PATH [--bench NAME | --id N | --file PATH] [--json]
                  [--metrics] [--metrics-json FILE]
  lazylocks corpus (list | prune | seed) [--dir DIR] [--limit N] [--json]
  lazylocks fuzz  [--profile NAME] [--cases N] [--seed X] [--budget N]
                  [--size N] [--save DIR] [--quick] [--json]
                  [--metrics] [--metrics-json FILE]
  lazylocks compare (--bench NAME | --id N | --file PATH) [--limit N]
  lazylocks races (--bench NAME | --id N | --file PATH) [--walks N] [--seed X]
  lazylocks serve [--addr HOST:PORT] [--workers N] [--corpus DIR]
                  [--max-job-budget N] [--journal FILE] [--token SECRET]
  lazylocks client (submit | status [ID] | cancel ID | events ID |
                    metrics | shutdown)
                  [--addr HOST:PORT] [--retries N] [--retry-ms T]
                  [--token SECRET] ... (see SERVER below)
  lazylocks help

STRATEGY SPECS (see `lazylocks strategies` for the full registry):
  dfs | random | dpor[(deps=regular|lazy-locks)] |
  caching[(mode=regular|lazy)] | lazy-dpor |
  bounded[(start=N,max=N,step=N,mode=regular|lazy)] | chess | lazy-caching

TRACE ARTIFACTS:
  `run --save-traces DIR` persists one replayable JSON artifact per
  distinct bug (minimised by default); `replay` re-runs an artifact file
  or a whole directory and classifies each as reproduced / diverged /
  program-changed; `corpus seed` explores every bug-bearing benchmark
  into a regression corpus (default dir: .lazylocks/corpus).

OBSERVABILITY:
  `--metrics` (on run, replay and fuzz) prints a metrics summary
  (counters, histograms, phase timers) to stderr after the work;
  `--metrics-json FILE` writes the raw snapshot as JSON (`-` for stdout
  is not supported — the JSON outcome owns stdout). `--log-level
  error|warn|info|debug` switches progress reporting to structured JSON
  event lines on stderr. `client metrics` fetches a running daemon's
  GET /metrics and pretty-prints it.

PROFILING:
  `run --profile FILE` runs the exploration profiler and writes a
  versioned profile document: per-program-point attribution (races,
  backtracks, sleep blocks, cache prunes, re-executed schedules per
  instruction and per variable/mutex), schedules-per-HBR-class
  redundancy under the regular AND lazy relations (the paper's §3
  metric), and a hot-subtree/depth span table. `lazylocks profile`
  renders reports: pass a saved DOC.json, or a program target to run
  `dpor(sleep=true)` and `lazy-dpor` back to back and compare their
  redundancy profiles (--strategy overrides the pair; --json emits the
  documents instead of text). Profiles are scrubbed (wall times zeroed)
  wherever byte-identical output across runs is required.

CRASH SAFETY:
  `run --checkpoint-dir DIR` snapshots the DPOR frontier into
  DIR/checkpoint.json every N complete schedules (--checkpoint-every,
  default 1000); each write is atomic and fsynced. After a crash,
  `run --checkpoint-dir DIR --resume` (same program, strategy and seed —
  mismatches are refused) continues from the snapshot and reaches the
  same final statistics as an uninterrupted run. `serve --journal FILE`
  write-ahead-logs every job transition; a restarted daemon re-enqueues
  the jobs that never finished.

FUZZING:
  `fuzz` generates adversarial guest programs (shape profiles:
  lock-heavy, data-race-rich, deadlock-prone, branchy, wide-fan-out; or
  a single one via --profile) and differentially checks every registered
  strategy against exhaustive DFS. Disagreements are shrunk to minimal
  `.llk` repros and, with --save DIR, persisted as replayable artifacts.
  Exit status is non-zero on any disagreement. Output is deterministic
  per --seed. --quick is the bounded CI preset.

SERVER:
  `serve` runs the exploration daemon: a JSON-over-HTTP job queue with a
  bounded worker pool, per-job cancellation, pollable event logs and
  corpus persistence (--corpus DIR). `client` talks to it:
    client submit (--bench NAME | --id N | --file PATH) [--strategy SPEC]
           [--limit N] [--seed X] [--preemptions K] [--stop-on-bug]
           [--minimize] [--deadline-ms T] [--priority P] [--wait]
    client status [ID]       one job (or all jobs) as JSON
    client cancel ID         cooperative cancellation
    client events ID [--since N]   poll the job's event log
    client shutdown          drain the queue and exit the daemon
  Both default to --addr 127.0.0.1:7077. `submit --wait` polls until the
  job finishes and exits non-zero unless it completed cleanly.
  `serve --token SECRET` (or the LAZYLOCKS_TOKEN env var, read by both
  `serve` and `client`) requires `Authorization: Bearer SECRET` on every
  mutating route.
";

/// One flag: its name and the placeholder of its value (`None` for a
/// boolean flag).
#[derive(Debug, Clone, Copy)]
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
}

/// A set of flags declared together; subcommands share groups.
type Group = &'static [Flag];

const fn takes(name: &'static str, placeholder: &'static str) -> Flag {
    Flag {
        name,
        value: Some(placeholder),
    }
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, value: None }
}

// Flags that appear in more than one group or table.
const STRATEGY: Flag = takes("--strategy", "SPEC");
const LIMIT: Flag = takes("--limit", "N");
const SEED: Flag = takes("--seed", "X");
const JSON: Flag = switch("--json");
const ADDR: Flag = takes("--addr", "HOST:PORT");
const TOKEN: Flag = takes("--token", "SECRET");

/// Which program to operate on (see [`Flags::target`]).
const TARGET: Group = &[
    takes("--bench", "NAME"),
    takes("--id", "N"),
    takes("--file", "PATH"),
];

/// How to explore: `run` and `client submit` parse it into one
/// [`RunArgs`] (see [`Flags::run_args`]).
const EXPLORE: Group = &[
    STRATEGY,
    LIMIT,
    SEED,
    takes("--preemptions", "K"),
    switch("--stop-on-bug"),
    switch("--minimize"),
    takes("--deadline-ms", "T"),
];

/// Where the metrics snapshot goes: `run`, `replay` and `fuzz`.
const METRICS: Group = &[switch("--metrics"), takes("--metrics-json", "FILE")];

/// How to reach the daemon: every `client` verb (see [`DaemonArgs`]).
const DAEMON: Group = &[
    ADDR,
    takes("--retries", "N"),
    takes("--retry-ms", "T"),
    TOKEN,
];

const RUN: &[Group] = &[
    TARGET,
    EXPLORE,
    METRICS,
    &[
        JSON,
        takes("--progress", "N"),
        takes("--save-traces", "DIR"),
        takes("--profile", "FILE"),
        takes("--log-level", "LEVEL"),
        takes("--checkpoint-dir", "DIR"),
        takes("--checkpoint-every", "N"),
        switch("--resume"),
    ],
];

/// Every subcommand's flag table, keyed by the name its errors use.
const TABLES: &[(&str, &[Group])] = &[
    ("list", &[&[takes("--family", "NAME")]]),
    ("strategies", &[]),
    ("show", &[TARGET]),
    ("run", RUN),
    ("explore", RUN),
    ("profile", &[TARGET, &[STRATEGY, LIMIT, JSON]]),
    ("replay", &[TARGET, METRICS, &[JSON]]),
    ("corpus", &[&[takes("--dir", "DIR"), LIMIT, JSON]]),
    (
        "fuzz",
        &[
            METRICS,
            &[
                takes("--profile", "NAME"),
                takes("--cases", "N"),
                SEED,
                takes("--budget", "N"),
                takes("--size", "N"),
                takes("--save", "DIR"),
                switch("--quick"),
                JSON,
            ],
        ],
    ),
    ("compare", &[TARGET, &[LIMIT]]),
    ("races", &[TARGET, &[takes("--walks", "N"), SEED]]),
    (
        "serve",
        &[&[
            ADDR,
            takes("--workers", "N"),
            takes("--corpus", "DIR"),
            takes("--max-job-budget", "N"),
            takes("--journal", "FILE"),
            TOKEN,
        ]],
    ),
    (
        "client submit",
        &[
            DAEMON,
            TARGET,
            EXPLORE,
            &[takes("--priority", "P"), switch("--wait")],
        ],
    ),
    ("client status", &[DAEMON]),
    ("client cancel", &[DAEMON]),
    ("client events", &[DAEMON, &[takes("--since", "N")]]),
    ("client metrics", &[DAEMON]),
    ("client shutdown", &[DAEMON]),
];

/// Which program to operate on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// A corpus benchmark by name.
    Bench(String),
    /// A corpus benchmark by 1-based id.
    Id(usize),
    /// A `.llk` text-format program on disk.
    File(String),
}

/// The [`METRICS`] group: either sink turns recording on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsArgs {
    /// Print the summary table to stderr.
    pub metrics: bool,
    /// Write the raw snapshot JSON to this file.
    pub metrics_json: Option<String>,
}

impl MetricsArgs {
    fn parse(f: &Flags) -> MetricsArgs {
        MetricsArgs {
            metrics: f.on("--metrics"),
            metrics_json: f.str("--metrics-json"),
        }
    }
}

/// The [`DAEMON`] group: where the daemon is and how to talk to it.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonArgs {
    pub addr: String,
    /// Extra attempts for transient failures (idempotent requests and
    /// all connect errors).
    pub retries: u32,
    /// First retry backoff in milliseconds (doubles per attempt).
    pub retry_ms: u64,
    /// Shared secret for a `serve --token` daemon; falls back to the
    /// LAZYLOCKS_TOKEN environment variable.
    pub token: Option<String>,
}

impl DaemonArgs {
    fn parse(f: &Flags) -> Result<DaemonArgs, String> {
        Ok(DaemonArgs {
            addr: f
                .str(ADDR.name)
                .unwrap_or_else(|| ServerConfig::default().addr),
            retries: f.u32("--retries")?.unwrap_or(0),
            retry_ms: f.num("--retry-ms")?.unwrap_or(100),
            token: f.str(TOKEN.name),
        })
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    List {
        family: Option<String>,
    },
    Strategies,
    Show {
        target: Target,
    },
    Run {
        target: Target,
        explore: RunArgs,
        /// Progress tick cadence in schedules (0 = quiet).
        progress: usize,
        /// Persist a trace artifact per distinct bug into this directory.
        save_traces: Option<String>,
        /// Emit the outcome as a JSON document on stdout.
        json: bool,
        metrics: MetricsArgs,
        /// Run the exploration profiler and write the (scrubbed) profile
        /// document to this file.
        profile: Option<String>,
        /// Structured JSON event logging on stderr at this level
        /// (replaces the plain-text progress lines).
        log_level: Option<lazylocks::obs::LogLevel>,
        /// Persist exploration checkpoints into this directory.
        checkpoint_dir: Option<String>,
        /// Checkpoint cadence in complete schedules (with
        /// `--checkpoint-dir`; default 1000).
        checkpoint_every: usize,
        /// Resume from the checkpoint in `--checkpoint-dir`.
        resume: bool,
    },
    Replay {
        /// An artifact file, or a directory of artifacts.
        path: String,
        /// Replay against this program instead of the embedded source.
        target: Option<Target>,
        /// Emit the reports as a JSON document on stdout.
        json: bool,
        metrics: MetricsArgs,
    },
    Corpus {
        action: CorpusAction,
        /// Corpus directory (default: `.lazylocks/corpus`).
        dir: Option<String>,
        /// Emit the result as a JSON document on stdout.
        json: bool,
    },
    Fuzz {
        /// Profiles, cases, seed, budget and size dial, validated here so
        /// execution never re-interprets them.
        config: FuzzConfig,
        /// Persist shrunk disagreement repros into this directory.
        save: Option<String>,
        /// Emit the report as a JSON document on stdout.
        json: bool,
        metrics: MetricsArgs,
    },
    Profile {
        /// A saved profile document to render (mutually exclusive with
        /// a target).
        doc: Option<String>,
        /// A program to profile under `dpor(sleep=true)` and
        /// `lazy-dpor` back to back (or `--strategy` alone).
        target: Option<Target>,
        /// Profile only this registry spec instead of the default pair.
        strategy: Option<String>,
        /// Schedule budget per strategy run.
        limit: usize,
        /// Emit the profile documents as JSON on stdout instead of the
        /// text report.
        json: bool,
    },
    Compare {
        target: Target,
        limit: usize,
    },
    Races {
        target: Target,
        walks: usize,
        seed: u64,
    },
    /// The daemon's configuration; a missing token falls back to the
    /// LAZYLOCKS_TOKEN environment variable.
    Serve(ServerConfig),
    Client {
        daemon: DaemonArgs,
        action: ClientAction,
    },
    Help,
}

/// What `lazylocks client <action>` should do.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    Submit {
        target: Target,
        explore: RunArgs,
        priority: i64,
        /// Poll until the job finishes and print its result document.
        wait: bool,
    },
    /// One job's detail, or the full job list without an id.
    Status {
        id: Option<u64>,
    },
    Cancel {
        id: u64,
    },
    Events {
        id: u64,
        since: u64,
    },
    /// Fetch the daemon's `GET /metrics` snapshot and pretty-print it.
    Metrics,
    Shutdown,
}

/// What `lazylocks corpus <action>` should do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusAction {
    /// Print the corpus contents.
    List,
    /// Remove artifacts that no longer decode or reproduce.
    Prune,
    /// Explore every bug-bearing benchmark into the corpus.
    Seed {
        /// Per-benchmark schedule budget.
        limit: usize,
    },
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().map(String::as_str);
    let sub = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&str> = it.collect();
    // `--help` or `-h` after a subcommand asks for the usage, as `help`
    // does, before any flag of the subcommand is judged.
    let asks_help = |a: &str| matches!(a, "--help" | "-h");
    if sub == "help" || asks_help(sub) || rest.iter().any(|a| asks_help(a)) {
        return Ok(Command::Help);
    }

    match sub {
        "strategies" => {
            parse_flags(sub, &rest)?;
            Ok(Command::Strategies)
        }
        "list" => Ok(Command::List {
            family: parse_flags(sub, &rest)?.str("--family"),
        }),
        "show" => Ok(Command::Show {
            target: parse_flags(sub, &rest)?.need_target()?,
        }),
        "run" | "explore" => {
            let f = parse_flags(sub, &rest)?;
            let checkpoint_dir = f.str("--checkpoint-dir");
            let checkpoint_every = f.positive("--checkpoint-every")?.unwrap_or(1000);
            for flag in ["--checkpoint-every", "--resume"] {
                if f.on(flag) && checkpoint_dir.is_none() {
                    return Err(format!("{flag} needs --checkpoint-dir"));
                }
            }
            let log_level = f
                .value("--log-level")
                .map(|name| {
                    lazylocks::obs::LogLevel::parse(name).ok_or(format!(
                        "unknown log level {name:?}; known: error, warn, info, debug"
                    ))
                })
                .transpose()?;
            let explore = f.run_args(RunArgs::default().seed)?;
            let explorer = registry::create(&explore.spec)
                .map_err(|e| format!("--strategy {}: {e}", explore.spec))?;
            explore
                .refuse_ignored(&*explorer, checkpoint_dir.is_some())
                .map_err(|e| format!("--{e}"))?;
            Ok(Command::Run {
                target: f.need_target()?,
                explore,
                progress: f.num("--progress")?.unwrap_or(0),
                save_traces: f.str("--save-traces"),
                json: f.on(JSON.name),
                metrics: MetricsArgs::parse(&f),
                profile: f.str("--profile"),
                log_level,
                checkpoint_dir,
                checkpoint_every,
                resume: f.on("--resume"),
            })
        }
        "replay" => {
            let (path, rest) = positional(&rest);
            let path = path.ok_or("replay needs an artifact file or directory")?;
            let f = parse_flags(sub, rest)?;
            Ok(Command::Replay {
                path: path.to_string(),
                target: f.target()?,
                json: f.on(JSON.name),
                metrics: MetricsArgs::parse(&f),
            })
        }
        "corpus" => {
            let (action, rest) = positional(&rest);
            let f = parse_flags(sub, rest)?;
            let limit = f.positive(LIMIT.name)?;
            let action = match (action, limit) {
                (Some("seed"), limit) => CorpusAction::Seed {
                    limit: limit.unwrap_or(10_000),
                },
                (Some("list" | "prune"), Some(_)) => {
                    return Err("--limit only applies to corpus seed".to_string())
                }
                (Some("list"), None) => CorpusAction::List,
                (Some("prune"), None) => CorpusAction::Prune,
                _ => return Err("corpus needs an action: list, prune or seed".to_string()),
            };
            Ok(Command::Corpus {
                action,
                dir: f.str("--dir"),
                json: f.on(JSON.name),
            })
        }
        "fuzz" => {
            use lazylocks_fuzz::{ShapeProfile, MAX_SIZE};
            let f = parse_flags(sub, &rest)?;
            let profiles = match f.value("--profile") {
                None => ShapeProfile::ALL.to_vec(),
                Some(name) => vec![ShapeProfile::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = ShapeProfile::ALL.iter().map(|p| p.name()).collect();
                    format!("unknown profile {name:?}; known: {}", known.join(", "))
                })?],
            };
            // Reject out-of-range dials here rather than letting the
            // generator clamp them silently.
            let size = f.num("--size")?.unwrap_or(3);
            if !(1..=MAX_SIZE).contains(&size) {
                return Err(format!("--size must be 1..={MAX_SIZE}"));
            }
            // --quick is the bounded CI preset; explicit flags still win.
            let (cases, budget) = if f.on("--quick") {
                (30, 8_000)
            } else {
                (100, 20_000)
            };
            Ok(Command::Fuzz {
                config: FuzzConfig {
                    profiles,
                    cases: f.positive("--cases")?.unwrap_or(cases),
                    seed: f.num(SEED.name)?.unwrap_or(7),
                    budget: f.positive("--budget")?.unwrap_or(budget),
                    max_size: size,
                },
                save: f.str("--save"),
                json: f.on(JSON.name),
                metrics: MetricsArgs::parse(&f),
            })
        }
        "profile" => {
            // An optional leading positional names a saved profile
            // document; otherwise a program target must be given.
            let (doc, rest) = positional(&rest);
            let f = parse_flags(sub, rest)?;
            let target = f.target()?;
            let strategy = f.strategy()?;
            match (doc, &target) {
                (Some(_), Some(_)) => {
                    return Err("profile takes a DOC.json or a target, not both".to_string())
                }
                (None, None) => {
                    return Err("profile needs a DOC.json, or --bench, --id or --file".to_string())
                }
                (Some(_), None) if strategy.is_some() => {
                    return Err("--strategy only applies when profiling a target".to_string())
                }
                _ => {}
            }
            Ok(Command::Profile {
                doc: doc.map(str::to_string),
                target,
                strategy,
                limit: f.positive(LIMIT.name)?.unwrap_or(100_000),
                json: f.on(JSON.name),
            })
        }
        "compare" => {
            let f = parse_flags(sub, &rest)?;
            Ok(Command::Compare {
                target: f.need_target()?,
                limit: f.positive(LIMIT.name)?.unwrap_or(10_000),
            })
        }
        "races" => {
            let f = parse_flags(sub, &rest)?;
            Ok(Command::Races {
                target: f.need_target()?,
                walks: f.positive("--walks")?.unwrap_or(100),
                seed: f.num(SEED.name)?.unwrap_or(7),
            })
        }
        "serve" => {
            let f = parse_flags(sub, &rest)?;
            let defaults = ServerConfig::default();
            Ok(Command::Serve(ServerConfig {
                addr: f.str(ADDR.name).unwrap_or(defaults.addr),
                workers: f.positive("--workers")?.unwrap_or(defaults.workers),
                corpus_dir: f.value("--corpus").map(PathBuf::from),
                max_job_budget: f
                    .positive("--max-job-budget")?
                    .unwrap_or(defaults.max_job_budget),
                journal: f.value("--journal").map(PathBuf::from),
                token: f.str(TOKEN.name),
                ..defaults
            }))
        }
        "client" => {
            let (verb, rest) = positional(&rest);
            let verb = verb.ok_or(
                "client needs an action: submit, status, cancel, events, metrics or shutdown",
            )?;
            let key = TABLES
                .iter()
                .map(|(key, _)| *key)
                .find(|key| key.strip_prefix("client ") == Some(verb))
                .ok_or_else(|| format!("unknown client action {verb:?}"))?;
            // `status [ID]`, `cancel ID`, `events ID` take a positional
            // job id before any flags.
            let (id, rest) = positional(rest);
            let id: Option<u64> = id
                .map(|id| id.parse().map_err(|_| format!("bad job id {id:?}")))
                .transpose()?;
            let f = parse_flags(key, rest)?;
            let need_id = || id.ok_or_else(|| format!("{key} needs a job id"));
            if id.is_some() && matches!(verb, "submit" | "metrics" | "shutdown") {
                return Err(format!("{key} takes no job id"));
            }
            let action = match verb {
                "submit" => ClientAction::Submit {
                    target: f.need_target()?,
                    explore: f.run_args(0)?,
                    priority: f.num("--priority")?.unwrap_or(0),
                    wait: f.on("--wait"),
                },
                "status" => ClientAction::Status { id },
                "cancel" => ClientAction::Cancel { id: need_id()? },
                "events" => ClientAction::Events {
                    id: need_id()?,
                    since: f.num("--since")?.unwrap_or(0),
                },
                "metrics" => ClientAction::Metrics,
                "shutdown" => ClientAction::Shutdown,
                other => unreachable!("client {other} has a flag table but no action"),
            };
            Ok(Command::Client {
                daemon: DaemonArgs::parse(&f)?,
                action,
            })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Splits a leading positional argument (one not starting with `--`)
/// off `rest`.
fn positional<'r, 'a>(rest: &'r [&'a str]) -> (Option<&'a str>, &'r [&'a str]) {
    match rest.split_first() {
        Some((first, tail)) if !first.starts_with("--") => (Some(first), tail),
        _ => (None, rest),
    }
}

/// The flags one command line gave, in order; a repeated flag's last
/// value wins.
struct Flags<'a> {
    sub: &'static str,
    groups: &'static [Group],
    given: Vec<(&'static str, Option<&'a str>)>,
}

/// Walks `--flag [value]` pairs against `sub`'s table in [`TABLES`],
/// which says whether a flag consumes the next token.
fn parse_flags<'a>(sub: &str, rest: &[&'a str]) -> Result<Flags<'a>, String> {
    let (sub, groups) = TABLES
        .iter()
        .find(|(name, _)| *name == sub)
        .copied()
        .expect("every subcommand has a flag table");
    let mut given = Vec::new();
    let mut args = rest.iter().copied();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            return Err(format!("unexpected argument {arg:?}"));
        }
        let flag = groups
            .iter()
            .flat_map(|group| group.iter())
            .find(|flag| flag.name == arg)
            .ok_or_else(|| format!("unknown flag {arg} for {sub}"))?;
        let value = match flag.value {
            Some(_) => Some(args.next().ok_or_else(|| format!("{arg} needs a value"))?),
            None => None,
        };
        given.push((flag.name, value));
    }
    Ok(Flags { sub, groups, given })
}

impl<'a> Flags<'a> {
    /// The last occurrence of `name`: `Some(None)` for a given switch.
    fn last(&self, name: &str) -> Option<Option<&'a str>> {
        debug_assert!(
            self.groups
                .iter()
                .flat_map(|g| g.iter())
                .any(|f| f.name == name),
            "{name} is not in the {} table",
            self.sub
        );
        self.given
            .iter()
            .rev()
            .find(|(flag, _)| *flag == name)
            .map(|(_, value)| *value)
    }

    /// Whether the switch `name` was given.
    fn on(&self, name: &str) -> bool {
        self.last(name).is_some()
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.last(name).flatten()
    }

    fn str(&self, name: &str) -> Option<String> {
        self.value(name).map(str::to_string)
    }

    fn num<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name} needs an integer")))
            .transpose()
    }

    /// A `u32` value; larger numbers are refused, not wrapped.
    fn u32(&self, name: &str) -> Result<Option<u32>, String> {
        self.num::<u64>(name)?
            .map(|v| u32::try_from(v).map_err(|_| format!("{name} must be at most {}", u32::MAX)))
            .transpose()
    }

    /// A count or budget, such as `--limit`: refused below 1.
    fn positive(&self, name: &str) -> Result<Option<usize>, String> {
        match self.num(name)? {
            Some(0) => Err(format!("{name} must be at least 1")),
            n => Ok(n),
        }
    }

    /// The [`EXPLORE`] group; only the seed's default differs between
    /// `run` and `client submit`.
    fn run_args(&self, default_seed: u64) -> Result<RunArgs, String> {
        let defaults = RunArgs::default();
        Ok(RunArgs {
            spec: self.strategy()?.unwrap_or(defaults.spec),
            limit: self.positive(LIMIT.name)?.unwrap_or(defaults.limit),
            seed: self.num(SEED.name)?.unwrap_or(default_seed),
            preemptions: self.u32("--preemptions")?,
            stop_on_bug: self.on("--stop-on-bug"),
            minimize: self.on("--minimize"),
            deadline_ms: self.num("--deadline-ms")?,
        })
    }

    /// At most one of the [`TARGET`] flags.
    fn target(&self) -> Result<Option<Target>, String> {
        let mut given = TARGET.iter().filter(|flag| self.on(flag.name));
        let Some(flag) = given.next() else {
            return Ok(None);
        };
        if given.next().is_some() {
            return Err("give only one of --bench, --id or --file".to_string());
        }
        let value = self.value(flag.name).unwrap_or_default();
        Ok(Some(match flag.name {
            "--bench" => Target::Bench(value.to_string()),
            "--id" => Target::Id(value.parse().map_err(|_| "--id needs an integer")?),
            _ => Target::File(value.to_string()),
        }))
    }

    fn need_target(&self) -> Result<Target, String> {
        self.target()?
            .ok_or_else(|| format!("{} needs --bench, --id or --file", self.sub))
    }

    /// `--strategy`, validated eagerly so typos fail before exploring.
    fn strategy(&self) -> Result<Option<String>, String> {
        let Some(spec) = self.str(STRATEGY.name) else {
            return Ok(None);
        };
        registry::create(&spec).map_err(|e| format!("--strategy {spec}: {e}"))?;
        Ok(Some(spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    /// The `client` command with every daemon flag at its default.
    fn client(action: ClientAction) -> Command {
        Command::Client {
            daemon: DaemonArgs {
                addr: "127.0.0.1:7077".to_string(),
                retries: 0,
                retry_ms: 100,
                token: None,
            },
            action,
        }
    }

    #[test]
    fn parses_list() {
        assert_eq!(
            parse(&argv("list")).unwrap(),
            Command::List { family: None }
        );
        assert_eq!(
            parse(&argv("list --family coarse")).unwrap(),
            Command::List {
                family: Some("coarse".to_string())
            }
        );
    }

    #[test]
    fn parses_strategies() {
        assert_eq!(parse(&argv("strategies")).unwrap(), Command::Strategies);
    }

    #[test]
    fn parses_run_with_all_flags() {
        let cmd = parse(&argv(
            "run --bench peterson --strategy lazy-dpor --limit 500 \
             --stop-on-bug --seed 9 --deadline-ms 2000 \
             --progress 100 --minimize --save-traces traces --json \
             --metrics --metrics-json m.json --profile p.json --log-level debug \
             --checkpoint-dir cp --checkpoint-every 64 --resume",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                target: Target::Bench("peterson".to_string()),
                explore: RunArgs {
                    spec: "lazy-dpor".to_string(),
                    limit: 500,
                    seed: 9,
                    preemptions: None,
                    stop_on_bug: true,
                    minimize: true,
                    deadline_ms: Some(2000),
                },
                progress: 100,
                save_traces: Some("traces".to_string()),
                json: true,
                metrics: MetricsArgs {
                    metrics: true,
                    metrics_json: Some("m.json".to_string()),
                },
                profile: Some("p.json".to_string()),
                log_level: Some(lazylocks::obs::LogLevel::Debug),
                checkpoint_dir: Some("cp".to_string()),
                checkpoint_every: 64,
                resume: true,
            }
        );
        // No strategy honours both a preemption bound and checkpoints.
        match parse(&argv(
            "run --bench x --strategy lazy-caching --preemptions 2",
        ))
        .unwrap()
        {
            Command::Run { explore, .. } => assert_eq!(explore.preemptions, Some(2)),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("run --bench x --log-level loud")).is_err());
        // Defaults: the run seed, no preemption bound, checkpointing off
        // with cadence 1000 and no resume.
        assert_eq!(
            parse(&argv("run --bench x")).unwrap(),
            Command::Run {
                target: Target::Bench("x".to_string()),
                explore: RunArgs {
                    spec: "dpor".to_string(),
                    limit: 100_000,
                    seed: 0x1a2b_3c4d,
                    preemptions: None,
                    stop_on_bug: false,
                    minimize: false,
                    deadline_ms: None,
                },
                progress: 0,
                save_traces: None,
                json: false,
                metrics: MetricsArgs::default(),
                profile: None,
                log_level: None,
                checkpoint_dir: None,
                checkpoint_every: 1000,
                resume: false,
            }
        );
        assert!(parse(&argv("run --bench x --resume")).is_err());
        assert!(parse(&argv(
            "run --bench x --checkpoint-dir cp --checkpoint-every 0"
        ))
        .is_err());
    }

    #[test]
    fn run_refuses_checkpoint_settings_without_a_dir() {
        for (line, flag) in [
            ("--checkpoint-every 10", "--checkpoint-every"),
            ("--resume", "--resume"),
        ] {
            let err = parse(&argv(&format!("run --bench x {line}"))).unwrap_err();
            assert_eq!(err, format!("{flag} needs --checkpoint-dir"));
        }
    }

    #[test]
    fn run_refuses_settings_the_strategy_ignores() {
        let refused = |spec: &str, setting: &str, flag: &str| {
            let line = format!("run --bench x --strategy {spec} {setting}");
            let err = parse(&argv(&line)).unwrap_err();
            assert!(err.starts_with(&format!("{flag}: ")), "{line}: {err}");
        };
        for spec in ["dpor", "dpor(deps=lazy-locks)", "lazy-dpor", "bounded"] {
            refused(spec, "--preemptions 0", "--preemptions");
        }
        for spec in ["dfs", "random", "caching(mode=lazy)", "bounded"] {
            refused(spec, "--checkpoint-dir d", "--checkpoint-dir");
        }
        let err = parse(&argv("run --bench x --preemptions 1")).unwrap_err();
        assert!(err.contains("dfs, caching and random"), "{err}");
        assert!(err.contains("bounded(max=N)"), "{err}");
        for line in [
            "--strategy dfs --preemptions 0",
            "--strategy caching(mode=lazy) --preemptions 2",
            "--strategy random --preemptions 1",
            "--strategy dpor(deps=lazy-locks) --checkpoint-dir d",
            "--strategy lazy-dpor --checkpoint-dir d",
        ] {
            assert!(
                parse(&argv(&format!("run --bench x {line}"))).is_ok(),
                "{line}"
            );
        }
    }

    #[test]
    fn explore_is_an_alias_of_run() {
        let a = parse(&argv("explore --id 1 --stop-on-bug")).unwrap();
        let b = parse(&argv("run --id 1 --stop-on-bug")).unwrap();
        assert_eq!(a, b);
        assert!(matches!(a, Command::Run { .. }));
    }

    #[test]
    fn parses_replay() {
        assert_eq!(
            parse(&argv("replay trace.json")).unwrap(),
            Command::Replay {
                path: "trace.json".to_string(),
                target: None,
                json: false,
                metrics: MetricsArgs::default(),
            }
        );
        assert_eq!(
            parse(&argv(
                "replay corpus --bench peterson --json --metrics --metrics-json m.json"
            ))
            .unwrap(),
            Command::Replay {
                path: "corpus".to_string(),
                target: Some(Target::Bench("peterson".to_string())),
                json: true,
                metrics: MetricsArgs {
                    metrics: true,
                    metrics_json: Some("m.json".to_string()),
                },
            }
        );
        assert!(parse(&argv("replay")).is_err());
        assert!(parse(&argv("replay --json")).is_err());
        assert!(parse(&argv("replay t.json --walks 3")).is_err());
    }

    #[test]
    fn parses_corpus() {
        assert_eq!(
            parse(&argv("corpus list")).unwrap(),
            Command::Corpus {
                action: CorpusAction::List,
                dir: None,
                json: false,
            }
        );
        assert_eq!(
            parse(&argv("corpus prune --dir d --json")).unwrap(),
            Command::Corpus {
                action: CorpusAction::Prune,
                dir: Some("d".to_string()),
                json: true,
            }
        );
        assert_eq!(
            parse(&argv("corpus seed --limit 50")).unwrap(),
            Command::Corpus {
                action: CorpusAction::Seed { limit: 50 },
                dir: None,
                json: false,
            }
        );
        assert!(parse(&argv("corpus")).is_err());
        assert!(parse(&argv("corpus polish")).is_err());
        assert!(parse(&argv("corpus list --limit 3")).is_err());
    }

    #[test]
    fn parses_parameterised_strategy_specs() {
        for spec in [
            "dpor(sleep=true)",
            "dpor(deps=lazy-locks)",
            "bounded(start=1,max=2)",
        ] {
            match parse(&argv(&format!("run --id 1 --strategy {spec}"))).unwrap() {
                Command::Run { explore, .. } => assert_eq!(explore.spec, spec),
                other => panic!("wrong parse: {other:?}"),
            }
        }
    }

    #[test]
    fn parses_fuzz() {
        use lazylocks_fuzz::ShapeProfile;
        let config = |profiles: &[ShapeProfile], cases, seed, budget, max_size| FuzzConfig {
            profiles: profiles.to_vec(),
            cases,
            seed,
            budget,
            max_size,
        };
        let plain = |config| Command::Fuzz {
            config,
            save: None,
            json: false,
            metrics: MetricsArgs::default(),
        };
        assert_eq!(
            parse(&argv("fuzz")).unwrap(),
            plain(config(&ShapeProfile::ALL, 100, 7, 20_000, 3))
        );
        assert_eq!(
            parse(&argv(
                "fuzz --profile deadlock-prone --cases 50 --seed 9 --budget 500 \
                 --size 2 --save repros --json --metrics --metrics-json m.json"
            ))
            .unwrap(),
            Command::Fuzz {
                config: config(&[ShapeProfile::DeadlockProne], 50, 9, 500, 2),
                save: Some("repros".to_string()),
                json: true,
                metrics: MetricsArgs {
                    metrics: true,
                    metrics_json: Some("m.json".to_string()),
                },
            }
        );
        // --quick bounds the defaults but explicit flags win.
        assert_eq!(
            parse(&argv("fuzz --quick")).unwrap(),
            plain(config(&ShapeProfile::ALL, 30, 7, 8_000, 3))
        );
        assert_eq!(
            parse(&argv("fuzz --quick --cases 5")).unwrap(),
            plain(config(&ShapeProfile::ALL, 5, 7, 8_000, 3))
        );
        assert!(parse(&argv("fuzz --profile nope")).is_err());
        assert!(parse(&argv("fuzz --size 0")).is_err());
        assert!(parse(&argv("fuzz --size 10")).is_err());
        assert!(parse(&argv("fuzz --cases many")).is_err());
        assert!(parse(&argv("fuzz --walks 3")).is_err());
    }

    #[test]
    fn parses_profile() {
        // A saved document renders directly.
        assert_eq!(
            parse(&argv("profile p.json")).unwrap(),
            Command::Profile {
                doc: Some("p.json".to_string()),
                target: None,
                strategy: None,
                limit: 100_000,
                json: false,
            }
        );
        // A target profiles the dpor/lazy-dpor pair (or one --strategy).
        assert_eq!(
            parse(&argv(
                "profile --bench peterson --strategy dpor(sleep=true) --limit 500 --json"
            ))
            .unwrap(),
            Command::Profile {
                doc: None,
                target: Some(Target::Bench("peterson".to_string())),
                strategy: Some("dpor(sleep=true)".to_string()),
                limit: 500,
                json: true,
            }
        );
        assert!(parse(&argv("profile")).is_err());
        assert!(parse(&argv("profile p.json --bench x")).is_err());
        assert!(parse(&argv("profile p.json --strategy dpor")).is_err());
        assert!(parse(&argv("profile --bench x --strategy nope")).is_err());
        assert!(parse(&argv("profile --bench x --walks 3")).is_err());
    }

    #[test]
    fn parses_targets() {
        assert_eq!(
            parse(&argv("show --id 5")).unwrap(),
            Command::Show {
                target: Target::Id(5)
            }
        );
        assert_eq!(
            parse(&argv("show --file prog.llk")).unwrap(),
            Command::Show {
                target: Target::File("prog.llk".to_string())
            }
        );
        // A bad or missing value names the flag, and two different
        // targets are refused rather than the last one silently winning.
        for (line, error) in [
            ("run --id abc", "--id needs an integer"),
            ("run --bench", "--bench needs a value"),
            (
                "run --bench a --file b",
                "give only one of --bench, --id or --file",
            ),
        ] {
            assert_eq!(parse(&argv(line)), Err(error.to_string()), "{line}");
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("run --bench x --strategy nope")).is_err());
        assert!(parse(&argv("run --bench x --strategy dpor(sleep=perhaps)")).is_err());
        assert!(parse(&argv("run --bench x --strategy dfs(workers=2)")).is_err());
        // Removed strategy modes are refused, naming the spec.
        for spec in [
            "dpor(sleep=false)",
            "caching(mode=sync)",
            "lazy-dpor(style=vars)",
            "dpor-nosleep",
        ] {
            let err = parse(&argv(&format!("run --bench x --strategy {spec}"))).unwrap_err();
            assert!(err.starts_with(&format!("--strategy {spec}: ")), "{err}");
        }
        assert!(parse(&argv("run --bench x --limit abc")).is_err());
        assert!(parse(&argv("list --bogus 1")).is_err());
        assert!(parse(&argv("strategies --bogus")).is_err());
        // Every --limit is a schedule budget, so 0 is refused everywhere.
        for line in [
            "run --bench paper-figure1 --limit 0",
            "explore --bench paper-figure1 --limit 0",
            "client submit --bench paper-figure1 --limit 0",
            "profile --bench paper-figure1 --limit 0",
            "compare --bench paper-figure1 --limit 0",
            "corpus seed --limit 0",
        ] {
            assert_eq!(
                parse(&argv(line)),
                Err("--limit must be at least 1".to_string()),
                "{line}"
            );
        }
        // Zero random walks would observe nothing and report no race.
        assert_eq!(
            parse(&argv("races --bench paper-figure1 --walks 0")),
            Err("--walks must be at least 1".to_string()),
        );
        // 2^32 is refused, not wrapped to a bound of 0.
        assert_eq!(
            parse(&argv(
                "run --bench philosophers-naive-3 --strategy dfs --preemptions 4294967296"
            )),
            Err("--preemptions must be at most 4294967295".to_string()),
        );
    }

    #[test]
    fn fuzz_refuses_zero_cases() {
        // Zero cases compare nothing, so a passing exit would mean nothing.
        for line in ["fuzz --cases 0", "fuzz --quick --cases 0"] {
            assert_eq!(
                parse(&argv(line)),
                Err("--cases must be at least 1".to_string()),
                "{line}"
            );
        }
    }

    #[test]
    fn fuzz_refuses_a_zero_budget() {
        // No ground truth fits a budget of 0: every case would be skipped.
        assert_eq!(
            parse(&argv("fuzz --budget 0 --cases 2")),
            Err("--budget must be at least 1".to_string()),
        );
    }

    #[test]
    fn serve_refuses_a_zero_job_budget() {
        // Every job limit is at least 1, so such a daemon would refuse
        // every job; it is refused before it binds.
        assert_eq!(
            parse(&argv("serve --max-job-budget 0")),
            Err("--max-job-budget must be at least 1".to_string()),
        );
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServerConfig::default())
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:0 --workers 4 --corpus c --max-job-budget 5000 --journal j.jsonl"
            ))
            .unwrap(),
            Command::Serve(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 4,
                corpus_dir: Some("c".into()),
                max_job_budget: 5000,
                journal: Some("j.jsonl".into()),
                ..ServerConfig::default()
            })
        );
        assert_eq!(
            parse(&argv("serve --token hunter2")).unwrap(),
            Command::Serve(ServerConfig {
                token: Some("hunter2".to_string()),
                ..ServerConfig::default()
            })
        );
        assert!(parse(&argv("serve --workers 0")).is_err());
        assert!(parse(&argv("serve --bogus")).is_err());
    }

    #[test]
    fn rejects_the_removed_distributed_surface() {
        // The serve flags and the subcommand that drove distributed
        // exploration fail through the ordinary unknown-flag and
        // unknown-subcommand errors.
        for flag in [
            "--distributed",
            "--lease-ttl-ms 800",
            "--slice 64",
            "--grace-ms 50",
        ] {
            let name = flag.split(' ').next().unwrap();
            assert_eq!(
                parse(&argv(&format!("serve {flag}"))),
                Err(format!("unknown flag {name} for serve")),
            );
        }
        assert_eq!(
            parse(&argv("worker --addr h:9")),
            Err("unknown subcommand \"worker\"".to_string()),
        );
    }

    #[test]
    fn parses_client_actions() {
        assert_eq!(
            parse(&argv(
                "client submit --addr 127.0.0.1:9 --bench deadlock --strategy dfs \
                 --limit 50 --seed 3 --stop-on-bug --minimize --deadline-ms 100 \
                 --priority -2 --wait",
            ))
            .unwrap(),
            Command::Client {
                // Retries default to fail-fast.
                daemon: DaemonArgs {
                    addr: "127.0.0.1:9".to_string(),
                    retries: 0,
                    retry_ms: 100,
                    token: None,
                },
                action: ClientAction::Submit {
                    target: Target::Bench("deadlock".to_string()),
                    explore: RunArgs {
                        spec: "dfs".to_string(),
                        limit: 50,
                        seed: 3,
                        preemptions: None,
                        stop_on_bug: true,
                        minimize: true,
                        deadline_ms: Some(100),
                    },
                    priority: -2,
                    wait: true,
                },
            }
        );
        // Submit's seed defaults to 0, unlike run's.
        match parse(&argv("client submit --bench deadlock")).unwrap() {
            Command::Client {
                action: ClientAction::Submit { explore, .. },
                ..
            } => assert_eq!(explore.seed, 0),
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse(&argv("client status")).unwrap(),
            client(ClientAction::Status { id: None })
        );
        assert_eq!(
            parse(&argv("client status 7")).unwrap(),
            client(ClientAction::Status { id: Some(7) })
        );
        let at = |addr: &str, action| {
            let mut cmd = client(action);
            if let Command::Client { daemon, .. } = &mut cmd {
                daemon.addr = addr.to_string();
            }
            cmd
        };
        assert_eq!(
            parse(&argv("client cancel 3 --addr h:1")).unwrap(),
            at("h:1", ClientAction::Cancel { id: 3 })
        );
        assert_eq!(
            parse(&argv("client events 3 --since 5")).unwrap(),
            client(ClientAction::Events { id: 3, since: 5 })
        );
        assert_eq!(
            parse(&argv("client metrics --addr h:2")).unwrap(),
            at("h:2", ClientAction::Metrics)
        );
        assert!(parse(&argv("client metrics 3")).is_err());
        assert_eq!(
            parse(&argv("client shutdown")).unwrap(),
            client(ClientAction::Shutdown)
        );
        // The retry policy and the token are shared by every client verb.
        let daemon = |line: &str| match parse(&argv(line)).unwrap() {
            Command::Client { daemon, .. } => daemon,
            other => panic!("wrong parse: {other:?}"),
        };
        let d = daemon("client status --retries 5 --retry-ms 250");
        assert_eq!((d.retries, d.retry_ms), (5, 250));
        let d = daemon("client shutdown --token s3cret");
        assert_eq!(d.token.as_deref(), Some("s3cret"));
        let d = daemon("client submit --bench deadlock --retries 2");
        assert_eq!((d.retries, d.retry_ms), (2, 100));
        assert!(parse(&argv("client status --retries many")).is_err());
        assert_eq!(
            parse(&argv("client status --retries 4294967296")),
            Err("--retries must be at most 4294967295".to_string()),
        );
        assert!(parse(&argv("client")).is_err());
        assert!(parse(&argv("client frob")).is_err());
        assert!(parse(&argv("client submit")).is_err());
        assert!(parse(&argv("client submit 4 --bench x")).is_err());
        assert!(parse(&argv("client submit --bench x --strategy nope")).is_err());
        assert!(parse(&argv("client cancel")).is_err());
        assert!(parse(&argv("client cancel x")).is_err());
        assert!(parse(&argv("client events")).is_err());
        assert!(parse(&argv("client shutdown 3")).is_err());
        assert!(parse(&argv("client status --walks 2")).is_err());
    }

    #[test]
    fn usage_and_tables_agree() {
        let declared = || {
            TABLES
                .iter()
                .flat_map(|(_, groups)| groups.iter().flat_map(|group| group.iter()))
        };
        // Every declared flag is documented, with its placeholder.
        for flag in declared() {
            let shown = match flag.value {
                Some(placeholder) => format!("{} {placeholder}", flag.name),
                None => flag.name.to_string(),
            };
            assert!(USAGE.contains(&shown), "USAGE does not show {shown}");
        }
        // Every documented flag is accepted by some subcommand.
        let words = USAGE.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        for word in words.filter(|w| w.starts_with("--")) {
            assert!(
                declared().any(|flag| flag.name == word),
                "USAGE shows {word}, which no subcommand accepts"
            );
        }
    }

    #[test]
    fn help_parses() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn help_after_any_subcommand_parses() {
        for line in [
            "run --help",
            "run -h",
            "run --bench nope --limit 0 --help",
            "explore --help",
            "list -h",
            "replay --help",
            "corpus seed --help",
            "fuzz --help",
            "serve --help",
            "client submit --help",
            "client --help",
            "compare --bench coarse-mixed-t4 --limit 0 -h",
        ] {
            assert_eq!(parse(&argv(line)).unwrap(), Command::Help, "{line}");
        }
    }
}
