//! Hand-rolled argument parsing (no external dependency needed for a
//! handful of flags).

use lazylocks::StrategyRegistry;

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
  dfs | dpor | dpor(sleep=true) | caching(mode=lazy) | lazy-dpor |
  random | bounded(start=0,step=1) | ...

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
        /// A registry spec string, validated against the default registry
        /// at parse time.
        strategy: String,
        limit: usize,
        preemptions: Option<u32>,
        stop_on_bug: bool,
        seed: u64,
        /// Wall-clock deadline in milliseconds.
        deadline_ms: Option<u64>,
        /// Progress tick cadence in schedules (0 = quiet).
        progress: usize,
        /// Minimise reported bug schedules by delta debugging.
        minimize: bool,
        /// Persist a trace artifact per distinct bug into this directory.
        save_traces: Option<String>,
        /// Emit the outcome as a JSON document on stdout.
        json: bool,
        /// Record metrics and print the summary table to stderr.
        metrics: bool,
        /// Record metrics and write the raw snapshot JSON to this file.
        metrics_json: Option<String>,
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
        /// Record metrics and print the summary table to stderr.
        metrics: bool,
        /// Record metrics and write the raw snapshot JSON to this file.
        metrics_json: Option<String>,
    },
    Corpus {
        action: CorpusAction,
        /// Corpus directory (default: `.lazylocks/corpus`).
        dir: Option<String>,
        /// Emit the result as a JSON document on stdout.
        json: bool,
    },
    Fuzz {
        /// A single shape profile, or `None` for all of them. Parsed
        /// (and validated) here so execution never re-interprets it.
        profile: Option<lazylocks_fuzz::ShapeProfile>,
        /// Total generated cases.
        cases: usize,
        /// Master seed (corpus and report are deterministic per seed).
        seed: u64,
        /// Schedule budget per strategy run.
        budget: usize,
        /// Largest size-dial value (cases cycle `1..=size`).
        size: usize,
        /// Persist shrunk disagreement repros into this directory.
        save: Option<String>,
        /// Emit the report as a JSON document on stdout.
        json: bool,
        /// Record metrics and print the summary table to stderr.
        metrics: bool,
        /// Record metrics and write the raw snapshot JSON to this file.
        metrics_json: Option<String>,
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
    Serve {
        /// Bind address; port 0 picks an ephemeral port (printed).
        addr: String,
        /// Job runner threads.
        workers: usize,
        /// Corpus directory for bug persistence (None disables it).
        corpus: Option<String>,
        /// Reject submissions with a larger schedule budget.
        max_job_budget: usize,
        /// Durable job journal file (None keeps the queue in memory).
        journal: Option<String>,
        /// Shared secret required on mutating routes (None = open);
        /// falls back to the LAZYLOCKS_TOKEN environment variable.
        token: Option<String>,
    },
    Client {
        addr: String,
        action: ClientAction,
        /// Extra attempts for transient failures (idempotent requests
        /// and all connect errors).
        retries: u32,
        /// First retry backoff in milliseconds (doubles per attempt).
        retry_ms: u64,
        /// Shared secret for a `serve --token` daemon; falls back to
        /// the LAZYLOCKS_TOKEN environment variable.
        token: Option<String>,
    },
    Help,
}

/// What `lazylocks client <action>` should do.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    Submit {
        target: Target,
        strategy: String,
        limit: usize,
        seed: u64,
        preemptions: Option<u32>,
        stop_on_bug: bool,
        minimize: bool,
        deadline_ms: Option<u64>,
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

    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "strategies" => {
            parse_flags(&rest, |flag, _| {
                Err(format!("unknown flag {flag} for strategies"))
            })?;
            Ok(Command::Strategies)
        }
        "list" => {
            let mut family = None;
            parse_flags(&rest, |flag, value| match flag {
                "--family" => {
                    family = Some(value.ok_or("--family needs a value")?.to_string());
                    Ok(())
                }
                _ => Err(format!("unknown flag {flag} for list")),
            })?;
            Ok(Command::List { family })
        }
        "show" => {
            let mut target = None;
            parse_flags(&rest, |flag, value| {
                parse_target_flag(flag, value, &mut target)
                    .ok_or(())
                    .or(Err(format!("unknown flag {flag} for show")))
            })?;
            Ok(Command::Show {
                target: target.ok_or("show needs --bench, --id or --file")?,
            })
        }
        "run" | "explore" => {
            let mut target = None;
            let mut strategy = "dpor(sleep=true)".to_string();
            let mut limit = 100_000usize;
            let mut preemptions = None;
            let mut stop_on_bug = false;
            let mut seed = 0x1a2b_3c4du64;
            let mut deadline_ms = None;
            let mut progress = 0usize;
            let mut minimize = false;
            let mut save_traces = None;
            let mut json = false;
            let mut metrics = false;
            let mut metrics_json = None;
            let mut profile = None;
            let mut log_level = None;
            let mut checkpoint_dir = None;
            let mut checkpoint_every = 1000usize;
            let mut resume = false;
            parse_flags(&rest, |flag, value| {
                if parse_target_flag(flag, value, &mut target).is_some() {
                    return Ok(());
                }
                match flag {
                    "--strategy" => {
                        let spec = value.ok_or("--strategy needs a value")?;
                        // Validate eagerly so typos fail before exploring.
                        StrategyRegistry::default()
                            .create(spec)
                            .map_err(|e| e.to_string())?;
                        strategy = spec.to_string();
                        Ok(())
                    }
                    "--limit" => {
                        limit = parse_num(value, "--limit")?;
                        Ok(())
                    }
                    "--preemptions" => {
                        preemptions = Some(parse_num(value, "--preemptions")? as u32);
                        Ok(())
                    }
                    "--stop-on-bug" => {
                        stop_on_bug = true;
                        Ok(())
                    }
                    "--seed" => {
                        seed = parse_num(value, "--seed")? as u64;
                        Ok(())
                    }
                    "--deadline-ms" => {
                        deadline_ms = Some(parse_num(value, "--deadline-ms")? as u64);
                        Ok(())
                    }
                    "--progress" => {
                        progress = parse_num(value, "--progress")?;
                        Ok(())
                    }
                    "--minimize" => {
                        minimize = true;
                        Ok(())
                    }
                    "--save-traces" => {
                        save_traces =
                            Some(value.ok_or("--save-traces needs a directory")?.to_string());
                        Ok(())
                    }
                    "--json" => {
                        json = true;
                        Ok(())
                    }
                    "--metrics" => {
                        metrics = true;
                        Ok(())
                    }
                    "--metrics-json" => {
                        metrics_json =
                            Some(value.ok_or("--metrics-json needs a file path")?.to_string());
                        Ok(())
                    }
                    "--profile" => {
                        profile = Some(value.ok_or("--profile needs a file path")?.to_string());
                        Ok(())
                    }
                    "--log-level" => {
                        let name = value.ok_or("--log-level needs a value")?;
                        log_level = Some(lazylocks::obs::LogLevel::parse(name).ok_or(format!(
                            "unknown log level {name:?}; known: error, warn, info, debug"
                        ))?);
                        Ok(())
                    }
                    "--checkpoint-dir" => {
                        checkpoint_dir = Some(
                            value
                                .ok_or("--checkpoint-dir needs a directory")?
                                .to_string(),
                        );
                        Ok(())
                    }
                    "--checkpoint-every" => {
                        checkpoint_every = parse_num(value, "--checkpoint-every")?;
                        if checkpoint_every == 0 {
                            return Err("--checkpoint-every must be at least 1".to_string());
                        }
                        Ok(())
                    }
                    "--resume" => {
                        resume = true;
                        Ok(())
                    }
                    _ => Err(format!("unknown flag {flag} for {sub}")),
                }
            })?;
            if resume && checkpoint_dir.is_none() {
                return Err("--resume needs --checkpoint-dir".to_string());
            }
            Ok(Command::Run {
                target: target.ok_or(format!("{sub} needs --bench, --id or --file"))?,
                strategy,
                limit,
                preemptions,
                stop_on_bug,
                seed,
                deadline_ms,
                progress,
                minimize,
                save_traces,
                json,
                metrics,
                metrics_json,
                profile,
                log_level,
                checkpoint_dir,
                checkpoint_every,
                resume,
            })
        }
        "replay" => {
            let (path, flags) = match rest.split_first() {
                Some((first, flags)) if !first.starts_with("--") => (first.to_string(), flags),
                _ => return Err("replay needs an artifact file or directory".to_string()),
            };
            let mut target = None;
            let mut json = false;
            let mut metrics = false;
            let mut metrics_json = None;
            parse_flags(flags, |flag, value| {
                if parse_target_flag(flag, value, &mut target).is_some() {
                    return Ok(());
                }
                match flag {
                    "--json" => {
                        json = true;
                        Ok(())
                    }
                    "--metrics" => {
                        metrics = true;
                        Ok(())
                    }
                    "--metrics-json" => {
                        metrics_json =
                            Some(value.ok_or("--metrics-json needs a file path")?.to_string());
                        Ok(())
                    }
                    _ => Err(format!("unknown flag {flag} for replay")),
                }
            })?;
            Ok(Command::Replay {
                path,
                target,
                json,
                metrics,
                metrics_json,
            })
        }
        "corpus" => {
            let (action, flags) = match rest.split_first() {
                Some((&"list", flags)) => (CorpusAction::List, flags),
                Some((&"prune", flags)) => (CorpusAction::Prune, flags),
                Some((&"seed", flags)) => (CorpusAction::Seed { limit: 10_000 }, flags),
                _ => return Err("corpus needs an action: list, prune or seed".to_string()),
            };
            let mut action = action;
            let mut dir = None;
            let mut json = false;
            parse_flags(flags, |flag, value| match flag {
                "--dir" => {
                    dir = Some(value.ok_or("--dir needs a value")?.to_string());
                    Ok(())
                }
                "--limit" => match &mut action {
                    CorpusAction::Seed { limit } => {
                        *limit = parse_num(value, "--limit")?;
                        Ok(())
                    }
                    _ => Err("--limit only applies to corpus seed".to_string()),
                },
                "--json" => {
                    json = true;
                    Ok(())
                }
                _ => Err(format!("unknown flag {flag} for corpus")),
            })?;
            Ok(Command::Corpus { action, dir, json })
        }
        "fuzz" => {
            let mut profile = None;
            let mut cases: Option<usize> = None;
            let mut seed = 7u64;
            let mut budget: Option<usize> = None;
            let mut size = 3usize;
            let mut save = None;
            let mut json = false;
            let mut quick = false;
            let mut metrics = false;
            let mut metrics_json = None;
            parse_flags(&rest, |flag, value| match flag {
                "--profile" => {
                    let name = value.ok_or("--profile needs a value")?;
                    let parsed =
                        lazylocks_fuzz::ShapeProfile::from_name(name).ok_or_else(|| {
                            let known: Vec<&str> = lazylocks_fuzz::ShapeProfile::ALL
                                .iter()
                                .map(|p| p.name())
                                .collect();
                            format!("unknown profile {name:?}; known: {}", known.join(", "))
                        })?;
                    profile = Some(parsed);
                    Ok(())
                }
                "--cases" => {
                    cases = Some(parse_num(value, "--cases")?);
                    Ok(())
                }
                "--seed" => {
                    seed = parse_num(value, "--seed")? as u64;
                    Ok(())
                }
                "--budget" => {
                    budget = Some(parse_num(value, "--budget")?);
                    Ok(())
                }
                "--size" => {
                    size = parse_num(value, "--size")?;
                    // Reject out-of-range dials here rather than letting
                    // the generator clamp them silently.
                    if !(1..=lazylocks_fuzz::MAX_SIZE).contains(&size) {
                        return Err(format!("--size must be 1..={}", lazylocks_fuzz::MAX_SIZE));
                    }
                    Ok(())
                }
                "--save" => {
                    save = Some(value.ok_or("--save needs a directory")?.to_string());
                    Ok(())
                }
                "--json" => {
                    json = true;
                    Ok(())
                }
                "--quick" => {
                    quick = true;
                    Ok(())
                }
                "--metrics" => {
                    metrics = true;
                    Ok(())
                }
                "--metrics-json" => {
                    metrics_json =
                        Some(value.ok_or("--metrics-json needs a file path")?.to_string());
                    Ok(())
                }
                _ => Err(format!("unknown flag {flag} for fuzz")),
            })?;
            // --quick is the bounded CI preset; explicit flags still win.
            let (default_cases, default_budget) = if quick { (30, 8_000) } else { (100, 20_000) };
            Ok(Command::Fuzz {
                profile,
                cases: cases.unwrap_or(default_cases),
                seed,
                budget: budget.unwrap_or(default_budget),
                size,
                save,
                json,
                metrics,
                metrics_json,
            })
        }
        "profile" => {
            // An optional leading positional names a saved profile
            // document; otherwise a program target must be given.
            let (doc, flags) = match rest.split_first() {
                Some((first, flags)) if !first.starts_with("--") => {
                    (Some(first.to_string()), flags)
                }
                _ => (None, rest.as_slice()),
            };
            let mut target = None;
            let mut strategy = None;
            let mut limit = 100_000usize;
            let mut json = false;
            parse_flags(flags, |flag, value| {
                if parse_target_flag(flag, value, &mut target).is_some() {
                    return Ok(());
                }
                match flag {
                    "--strategy" => {
                        let spec = value.ok_or("--strategy needs a value")?;
                        StrategyRegistry::default()
                            .create(spec)
                            .map_err(|e| e.to_string())?;
                        strategy = Some(spec.to_string());
                        Ok(())
                    }
                    "--limit" => {
                        limit = parse_num(value, "--limit")?;
                        Ok(())
                    }
                    "--json" => {
                        json = true;
                        Ok(())
                    }
                    _ => Err(format!("unknown flag {flag} for profile")),
                }
            })?;
            if doc.is_some() && target.is_some() {
                return Err("profile takes a DOC.json or a target, not both".to_string());
            }
            if doc.is_none() && target.is_none() {
                return Err("profile needs a DOC.json, or --bench, --id or --file".to_string());
            }
            if doc.is_some() && strategy.is_some() {
                return Err("--strategy only applies when profiling a target".to_string());
            }
            Ok(Command::Profile {
                doc,
                target,
                strategy,
                limit,
                json,
            })
        }
        "compare" => {
            let mut target = None;
            let mut limit = 10_000usize;
            parse_flags(&rest, |flag, value| {
                if parse_target_flag(flag, value, &mut target).is_some() {
                    return Ok(());
                }
                match flag {
                    "--limit" => {
                        limit = parse_num(value, "--limit")?;
                        Ok(())
                    }
                    _ => Err(format!("unknown flag {flag} for compare")),
                }
            })?;
            Ok(Command::Compare {
                target: target.ok_or("compare needs --bench, --id or --file")?,
                limit,
            })
        }
        "races" => {
            let mut target = None;
            let mut walks = 100usize;
            let mut seed = 7u64;
            parse_flags(&rest, |flag, value| {
                if parse_target_flag(flag, value, &mut target).is_some() {
                    return Ok(());
                }
                match flag {
                    "--walks" => {
                        walks = parse_num(value, "--walks")?;
                        Ok(())
                    }
                    "--seed" => {
                        seed = parse_num(value, "--seed")? as u64;
                        Ok(())
                    }
                    _ => Err(format!("unknown flag {flag} for races")),
                }
            })?;
            Ok(Command::Races {
                target: target.ok_or("races needs --bench, --id or --file")?,
                walks,
                seed,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7077".to_string();
            let mut workers = 2usize;
            let mut corpus = None;
            let mut max_job_budget = 1_000_000usize;
            let mut journal = None;
            let mut token = None;
            parse_flags(&rest, |flag, value| match flag {
                "--addr" => {
                    addr = value.ok_or("--addr needs HOST:PORT")?.to_string();
                    Ok(())
                }
                "--workers" => {
                    workers = parse_num(value, "--workers")?;
                    if workers == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                    Ok(())
                }
                "--corpus" => {
                    corpus = Some(value.ok_or("--corpus needs a directory")?.to_string());
                    Ok(())
                }
                "--max-job-budget" => {
                    max_job_budget = parse_num(value, "--max-job-budget")?;
                    Ok(())
                }
                "--journal" => {
                    journal = Some(value.ok_or("--journal needs a file path")?.to_string());
                    Ok(())
                }
                "--token" => {
                    token = Some(value.ok_or("--token needs a secret")?.to_string());
                    Ok(())
                }
                _ => Err(format!("unknown flag {flag} for serve")),
            })?;
            Ok(Command::Serve {
                addr,
                workers,
                corpus,
                max_job_budget,
                journal,
                token,
            })
        }
        "client" => {
            let (verb, rest) = match rest.split_first() {
                Some((&verb, rest)) if !verb.starts_with("--") => (verb, rest),
                _ => {
                    return Err(
                        "client needs an action: submit, status, cancel, events, metrics \
                         or shutdown"
                            .to_string(),
                    )
                }
            };
            // `status [ID]`, `cancel ID`, `events ID` take a positional
            // job id before any flags.
            let (id, flags): (Option<u64>, &[&str]) = match rest.split_first() {
                Some((&first, tail)) if !first.starts_with("--") => {
                    let id = first.parse().map_err(|_| format!("bad job id {first:?}"))?;
                    (Some(id), tail)
                }
                _ => (None, rest),
            };
            let mut addr = "127.0.0.1:7077".to_string();
            let mut retries = 0u32;
            let mut retry_ms = 100u64;
            let mut token = None;
            // The flags every client verb shares: the daemon address,
            // the retry policy and the shared-secret token.
            let grab_common = |flag: &str,
                               value: Option<&str>,
                               addr: &mut String,
                               retries: &mut u32,
                               retry_ms: &mut u64,
                               token: &mut Option<String>|
             -> Option<Result<(), String>> {
                match flag {
                    "--addr" => Some(match value {
                        Some(v) => {
                            *addr = v.to_string();
                            Ok(())
                        }
                        None => Err("--addr needs HOST:PORT".to_string()),
                    }),
                    "--retries" => Some(parse_num(value, "--retries").map(|n| *retries = n as u32)),
                    "--retry-ms" => {
                        Some(parse_num(value, "--retry-ms").map(|n| *retry_ms = n as u64))
                    }
                    "--token" => Some(match value {
                        Some(v) => {
                            *token = Some(v.to_string());
                            Ok(())
                        }
                        None => Err("--token needs a secret".to_string()),
                    }),
                    _ => None,
                }
            };
            let action = match verb {
                "submit" => {
                    if id.is_some() {
                        return Err("client submit takes no job id".to_string());
                    }
                    let mut target = None;
                    let mut strategy = "dpor(sleep=true)".to_string();
                    let mut limit = 100_000usize;
                    let mut seed = 0u64;
                    let mut preemptions = None;
                    let mut stop_on_bug = false;
                    let mut minimize = false;
                    let mut deadline_ms = None;
                    let mut priority = 0i64;
                    let mut wait = false;
                    parse_flags(flags, |flag, value| {
                        if let Some(done) = grab_common(
                            flag,
                            value,
                            &mut addr,
                            &mut retries,
                            &mut retry_ms,
                            &mut token,
                        ) {
                            return done;
                        }
                        if parse_target_flag(flag, value, &mut target).is_some() {
                            return Ok(());
                        }
                        match flag {
                            "--strategy" => {
                                let spec = value.ok_or("--strategy needs a value")?;
                                StrategyRegistry::default()
                                    .create(spec)
                                    .map_err(|e| e.to_string())?;
                                strategy = spec.to_string();
                                Ok(())
                            }
                            "--limit" => {
                                limit = parse_num(value, "--limit")?;
                                Ok(())
                            }
                            "--seed" => {
                                seed = parse_num(value, "--seed")? as u64;
                                Ok(())
                            }
                            "--preemptions" => {
                                preemptions = Some(parse_num(value, "--preemptions")? as u32);
                                Ok(())
                            }
                            "--stop-on-bug" => {
                                stop_on_bug = true;
                                Ok(())
                            }
                            "--minimize" => {
                                minimize = true;
                                Ok(())
                            }
                            "--deadline-ms" => {
                                deadline_ms = Some(parse_num(value, "--deadline-ms")? as u64);
                                Ok(())
                            }
                            "--priority" => {
                                priority = value
                                    .ok_or("--priority needs a value")?
                                    .parse()
                                    .map_err(|_| "--priority needs an integer".to_string())?;
                                Ok(())
                            }
                            "--wait" => {
                                wait = true;
                                Ok(())
                            }
                            _ => Err(format!("unknown flag {flag} for client submit")),
                        }
                    })?;
                    ClientAction::Submit {
                        target: target.ok_or("client submit needs --bench, --id or --file")?,
                        strategy,
                        limit,
                        seed,
                        preemptions,
                        stop_on_bug,
                        minimize,
                        deadline_ms,
                        priority,
                        wait,
                    }
                }
                "status" => {
                    parse_flags(flags, |flag, value| {
                        grab_common(
                            flag,
                            value,
                            &mut addr,
                            &mut retries,
                            &mut retry_ms,
                            &mut token,
                        )
                        .unwrap_or_else(|| Err(format!("unknown flag {flag} for client status")))
                    })?;
                    ClientAction::Status { id }
                }
                "cancel" => {
                    parse_flags(flags, |flag, value| {
                        grab_common(
                            flag,
                            value,
                            &mut addr,
                            &mut retries,
                            &mut retry_ms,
                            &mut token,
                        )
                        .unwrap_or_else(|| Err(format!("unknown flag {flag} for client cancel")))
                    })?;
                    ClientAction::Cancel {
                        id: id.ok_or("client cancel needs a job id")?,
                    }
                }
                "events" => {
                    let mut since = 0u64;
                    parse_flags(flags, |flag, value| {
                        if let Some(done) = grab_common(
                            flag,
                            value,
                            &mut addr,
                            &mut retries,
                            &mut retry_ms,
                            &mut token,
                        ) {
                            return done;
                        }
                        match flag {
                            "--since" => {
                                since = parse_num(value, "--since")? as u64;
                                Ok(())
                            }
                            _ => Err(format!("unknown flag {flag} for client events")),
                        }
                    })?;
                    ClientAction::Events {
                        id: id.ok_or("client events needs a job id")?,
                        since,
                    }
                }
                "metrics" => {
                    if id.is_some() {
                        return Err("client metrics takes no job id".to_string());
                    }
                    parse_flags(flags, |flag, value| {
                        grab_common(
                            flag,
                            value,
                            &mut addr,
                            &mut retries,
                            &mut retry_ms,
                            &mut token,
                        )
                        .unwrap_or_else(|| Err(format!("unknown flag {flag} for client metrics")))
                    })?;
                    ClientAction::Metrics
                }
                "shutdown" => {
                    if id.is_some() {
                        return Err("client shutdown takes no job id".to_string());
                    }
                    parse_flags(flags, |flag, value| {
                        grab_common(
                            flag,
                            value,
                            &mut addr,
                            &mut retries,
                            &mut retry_ms,
                            &mut token,
                        )
                        .unwrap_or_else(|| Err(format!("unknown flag {flag} for client shutdown")))
                    })?;
                    ClientAction::Shutdown
                }
                other => return Err(format!("unknown client action {other:?}")),
            };
            Ok(Command::Client {
                addr,
                action,
                retries,
                retry_ms,
                token,
            })
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

/// Handles the shared target flags; returns `Some(())` if `flag` was one of
/// them.
fn parse_target_flag(flag: &str, value: Option<&str>, target: &mut Option<Target>) -> Option<()> {
    match flag {
        "--bench" => {
            *target = Some(Target::Bench(value?.to_string()));
            Some(())
        }
        "--id" => {
            let id: usize = value?.parse().ok()?;
            *target = Some(Target::Id(id));
            Some(())
        }
        "--file" => {
            *target = Some(Target::File(value?.to_string()));
            Some(())
        }
        _ => None,
    }
}

fn parse_num(value: Option<&str>, flag: &str) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag} needs an integer"))
}

/// Walks `--flag [value]` pairs. Flags that take values consume the next
/// token; boolean flags receive `None`... the callback decides by asking
/// for the value lazily via the passed `Option`.
fn parse_flags(
    rest: &[&str],
    mut on_flag: impl FnMut(&str, Option<&str>) -> Result<(), String>,
) -> Result<(), String> {
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i];
        if !flag.starts_with("--") {
            return Err(format!("unexpected argument {flag:?}"));
        }
        // Boolean flags take no value; everything else consumes one.
        let boolean = matches!(
            flag,
            "--stop-on-bug"
                | "--minimize"
                | "--json"
                | "--quick"
                | "--wait"
                | "--metrics"
                | "--resume"
        );
        let value = if boolean {
            None
        } else {
            let v = rest.get(i + 1).copied();
            if v.is_some() {
                i += 1;
            }
            v
        };
        on_flag(flag, value)?;
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
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
            "run --bench peterson --strategy lazy-caching --limit 500 \
             --preemptions 2 --stop-on-bug --seed 9 --deadline-ms 2000 \
             --progress 100 --minimize --save-traces traces --json \
             --metrics --metrics-json m.json --profile p.json --log-level debug \
             --checkpoint-dir cp --checkpoint-every 64 --resume",
        ))
        .unwrap();
        match cmd {
            Command::Run {
                target,
                strategy,
                limit,
                preemptions,
                stop_on_bug,
                seed,
                deadline_ms,
                progress,
                minimize,
                save_traces,
                json,
                metrics,
                metrics_json,
                profile,
                log_level,
                checkpoint_dir,
                checkpoint_every,
                resume,
            } => {
                assert_eq!(target, Target::Bench("peterson".to_string()));
                assert_eq!(strategy, "lazy-caching");
                assert_eq!(limit, 500);
                assert_eq!(preemptions, Some(2));
                assert!(stop_on_bug);
                assert_eq!(seed, 9);
                assert_eq!(deadline_ms, Some(2000));
                assert_eq!(progress, 100);
                assert!(minimize);
                assert_eq!(save_traces.as_deref(), Some("traces"));
                assert!(json);
                assert!(metrics);
                assert_eq!(metrics_json.as_deref(), Some("m.json"));
                assert_eq!(profile.as_deref(), Some("p.json"));
                assert_eq!(log_level, Some(lazylocks::obs::LogLevel::Debug));
                assert_eq!(checkpoint_dir.as_deref(), Some("cp"));
                assert_eq!(checkpoint_every, 64);
                assert!(resume);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("run --bench x --log-level loud")).is_err());
        // Checkpointing defaults: off, cadence 1000, no resume.
        match parse(&argv("run --bench x")).unwrap() {
            Command::Run {
                checkpoint_dir,
                checkpoint_every,
                resume,
                ..
            } => {
                assert_eq!(checkpoint_dir, None);
                assert_eq!(checkpoint_every, 1000);
                assert!(!resume);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("run --bench x --resume")).is_err());
        assert!(parse(&argv(
            "run --bench x --checkpoint-dir cp --checkpoint-every 0"
        ))
        .is_err());
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
                metrics: false,
                metrics_json: None,
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
                metrics: true,
                metrics_json: Some("m.json".to_string()),
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
        let cmd = parse(&argv("run --id 1 --strategy dpor(sleep=true)")).unwrap();
        match cmd {
            Command::Run { strategy, .. } => assert_eq!(strategy, "dpor(sleep=true)"),
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&argv("run --id 1 --strategy bounded(start=1,max=2)")).unwrap();
        match cmd {
            Command::Run { strategy, .. } => assert_eq!(strategy, "bounded(start=1,max=2)"),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_fuzz() {
        assert_eq!(
            parse(&argv("fuzz")).unwrap(),
            Command::Fuzz {
                profile: None,
                cases: 100,
                seed: 7,
                budget: 20_000,
                size: 3,
                save: None,
                json: false,
                metrics: false,
                metrics_json: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "fuzz --profile deadlock-prone --cases 50 --seed 9 --budget 500 \
                 --size 2 --save repros --json --metrics --metrics-json m.json"
            ))
            .unwrap(),
            Command::Fuzz {
                profile: Some(lazylocks_fuzz::ShapeProfile::DeadlockProne),
                cases: 50,
                seed: 9,
                budget: 500,
                size: 2,
                save: Some("repros".to_string()),
                json: true,
                metrics: true,
                metrics_json: Some("m.json".to_string()),
            }
        );
        // --quick bounds the defaults but explicit flags win.
        assert_eq!(
            parse(&argv("fuzz --quick")).unwrap(),
            Command::Fuzz {
                profile: None,
                cases: 30,
                seed: 7,
                budget: 8_000,
                size: 3,
                save: None,
                json: false,
                metrics: false,
                metrics_json: None,
            }
        );
        match parse(&argv("fuzz --quick --cases 5")).unwrap() {
            Command::Fuzz { cases, budget, .. } => {
                assert_eq!(cases, 5);
                assert_eq!(budget, 8_000);
            }
            other => panic!("wrong parse: {other:?}"),
        }
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
        assert!(matches!(
            parse(&argv("show --id 5")).unwrap(),
            Command::Show {
                target: Target::Id(5)
            }
        ));
        assert!(matches!(
            parse(&argv("show --file prog.llk")).unwrap(),
            Command::Show {
                target: Target::File(_)
            }
        ));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("run --bench x --strategy nope")).is_err());
        assert!(parse(&argv("run --bench x --strategy dpor(sleep=perhaps)")).is_err());
        assert!(parse(&argv("run --bench x --strategy dfs(workers=2)")).is_err());
        assert!(parse(&argv("run --bench x --limit abc")).is_err());
        assert!(parse(&argv("list --bogus 1")).is_err());
        assert!(parse(&argv("strategies --bogus")).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7077".to_string(),
                workers: 2,
                corpus: None,
                max_job_budget: 1_000_000,
                journal: None,
                token: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 127.0.0.1:0 --workers 4 --corpus c --max-job-budget 5000 --journal j.jsonl"
            ))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".to_string(),
                workers: 4,
                corpus: Some("c".to_string()),
                max_job_budget: 5000,
                journal: Some("j.jsonl".to_string()),
                token: None,
            }
        );
        assert_eq!(
            parse(&argv("serve --token hunter2")).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7077".to_string(),
                workers: 2,
                corpus: None,
                max_job_budget: 1_000_000,
                journal: None,
                token: Some("hunter2".to_string()),
            }
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
        match parse(&argv(
            "client submit --addr 127.0.0.1:9 --bench deadlock --strategy dfs \
             --limit 50 --seed 3 --stop-on-bug --minimize --deadline-ms 100 \
             --priority -2 --wait",
        ))
        .unwrap()
        {
            Command::Client {
                addr,
                action,
                retries,
                retry_ms,
                ..
            } => {
                assert_eq!(addr, "127.0.0.1:9");
                assert_eq!(retries, 0, "retries default to fail-fast");
                assert_eq!(retry_ms, 100);
                match action {
                    ClientAction::Submit {
                        target,
                        strategy,
                        limit,
                        seed,
                        stop_on_bug,
                        minimize,
                        deadline_ms,
                        priority,
                        wait,
                        ..
                    } => {
                        assert_eq!(target, Target::Bench("deadlock".to_string()));
                        assert_eq!(strategy, "dfs");
                        assert_eq!(limit, 50);
                        assert_eq!(seed, 3);
                        assert!(stop_on_bug);
                        assert!(minimize);
                        assert_eq!(deadline_ms, Some(100));
                        assert_eq!(priority, -2);
                        assert!(wait);
                    }
                    other => panic!("wrong action: {other:?}"),
                }
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse(&argv("client status")).unwrap(),
            Command::Client {
                addr: "127.0.0.1:7077".to_string(),
                action: ClientAction::Status { id: None },
                retries: 0,
                retry_ms: 100,
                token: None,
            }
        );
        assert_eq!(
            parse(&argv("client status 7")).unwrap(),
            Command::Client {
                addr: "127.0.0.1:7077".to_string(),
                action: ClientAction::Status { id: Some(7) },
                retries: 0,
                retry_ms: 100,
                token: None,
            }
        );
        assert_eq!(
            parse(&argv("client cancel 3 --addr h:1")).unwrap(),
            Command::Client {
                addr: "h:1".to_string(),
                action: ClientAction::Cancel { id: 3 },
                retries: 0,
                retry_ms: 100,
                token: None,
            }
        );
        assert_eq!(
            parse(&argv("client events 3 --since 5")).unwrap(),
            Command::Client {
                addr: "127.0.0.1:7077".to_string(),
                action: ClientAction::Events { id: 3, since: 5 },
                retries: 0,
                retry_ms: 100,
                token: None,
            }
        );
        assert_eq!(
            parse(&argv("client metrics --addr h:2")).unwrap(),
            Command::Client {
                addr: "h:2".to_string(),
                action: ClientAction::Metrics,
                retries: 0,
                retry_ms: 100,
                token: None,
            }
        );
        assert!(parse(&argv("client metrics 3")).is_err());
        assert_eq!(
            parse(&argv("client shutdown")).unwrap(),
            Command::Client {
                addr: "127.0.0.1:7077".to_string(),
                action: ClientAction::Shutdown,
                retries: 0,
                retry_ms: 100,
                token: None,
            }
        );
        // The retry policy is shared by every client verb.
        assert_eq!(
            parse(&argv("client status --retries 5 --retry-ms 250")).unwrap(),
            Command::Client {
                addr: "127.0.0.1:7077".to_string(),
                action: ClientAction::Status { id: None },
                retries: 5,
                retry_ms: 250,
                token: None,
            }
        );
        // The shared token flag reaches every verb too.
        assert_eq!(
            parse(&argv("client shutdown --token s3cret")).unwrap(),
            Command::Client {
                addr: "127.0.0.1:7077".to_string(),
                action: ClientAction::Shutdown,
                retries: 0,
                retry_ms: 100,
                token: Some("s3cret".to_string()),
            }
        );
        match parse(&argv("client submit --bench deadlock --retries 2")).unwrap() {
            Command::Client {
                retries, retry_ms, ..
            } => {
                assert_eq!(retries, 2);
                assert_eq!(retry_ms, 100);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&argv("client status --retries many")).is_err());
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
    fn help_parses() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }
}
