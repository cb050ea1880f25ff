//! Command implementations.

use crate::args::{ClientAction, Command, CorpusAction, DaemonArgs, MetricsArgs, Target, USAGE};
use lazylocks::obs::{EventLog, LogLevel, TraceEvent};
use lazylocks::{
    detect_races, BugReport, ExploreConfig, ExploreOutcome, ExploreSession, MetricsHandle,
    MetricsSnapshot, Observer, ProfileHandle, Progress, StrategyRegistry,
};
use lazylocks_fuzz::FuzzConfig;
use lazylocks_model::Program;
use lazylocks_runtime::run_with_scheduler;
use lazylocks_trace::{
    drive, load_checkpoint, outcome_json, replay_against, replay_embedded, CheckpointWriter,
    CorpusStore, DriveRequest, Json, ProfileDoc, ReplayReport, TraceArtifact,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Executes a parsed command.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::List { family } => list(family.as_deref()),
        Command::Strategies => strategies(),
        Command::Serve(mut config) => {
            config.token = config.token.or_else(env_token);
            lazylocks_server::serve(config)
        }
        Command::Client { daemon, action } => client(daemon, action),
        Command::Show { target } => {
            let program = resolve(&target)?;
            print!("{}", program.to_source());
            Ok(())
        }
        Command::Run {
            target,
            explore,
            progress,
            save_traces,
            json,
            metrics,
            profile,
            log_level,
            checkpoint_dir,
            checkpoint_every,
            resume,
        } => {
            let program = resolve(&target)?;
            let handle = metrics.handle();
            let profiler = if profile.is_some() {
                ProfileHandle::enabled()
            } else {
                ProfileHandle::disabled()
            };
            let mut config = ExploreConfig::default()
                .with_metrics(handle.clone())
                .with_profile(profiler.clone());
            let checkpointer = match &checkpoint_dir {
                Some(dir) => {
                    if resume {
                        // Refuse mismatched checkpoints before any work:
                        // resuming under a different program, strategy
                        // or seed would silently corrupt the statistics.
                        let doc = load_checkpoint(Path::new(dir))
                            .map_err(|e| format!("cannot read checkpoint in {dir}: {e}"))?
                            .map_err(|e| format!("invalid checkpoint in {dir}: {e}"))?;
                        doc.check_matches(&program, &explore.spec, explore.seed)
                            .and_then(|()| {
                                doc.state
                                    .check_pool(program.thread_count(), config.max_run_length)
                            })
                            .map_err(|e| format!("cannot resume from {dir}: {e}"))?;
                        config = config.resuming_from(Arc::new(doc.state));
                    }
                    config = config.checkpointing_every(checkpoint_every);
                    let writer = CheckpointWriter::new(dir, &program, &explore.spec, explore.seed)
                        .map_err(|e| format!("cannot open checkpoint directory {dir}: {e}"))?
                        .with_metrics(&handle);
                    Some(Arc::new(writer))
                }
                None => None,
            };

            let mut request = explore.request(&program, config).progress_every(progress);
            if let Some(level) = log_level {
                // Structured event lines on stderr replace the plain-text
                // progress prints.
                request = request.observe(Arc::new(JsonEventProgress {
                    log: EventLog::new(level),
                }));
            } else if progress > 0 && !json {
                request = request.observe(Arc::new(PrintProgress));
            }
            if let Some(writer) = checkpointer {
                request = request.observe(writer);
            }
            if let Some(dir) = &save_traces {
                let store = CorpusStore::open(dir)
                    .map_err(|e| format!("cannot open trace directory {dir}: {e}"))?;
                request = request.saving_into(store);
            }
            // Saved artifacts are minimised per --minimize, which also
            // minimises the schedules reported below (the driver reuses
            // the recorder's already-minimised reports when saving).
            let result = drive(request).map_err(|e| e.to_string())?;
            let traces = result.trace_paths();
            if json {
                println!(
                    "{}",
                    outcome_json(
                        program.name(),
                        &explore.spec,
                        &result.outcome,
                        &result.bugs,
                        explore.minimize,
                        &traces
                    )
                    .pretty()
                );
            } else {
                print_outcome(
                    program.name(),
                    &result.outcome,
                    &result.bugs,
                    explore.minimize,
                );
                for path in &traces {
                    println!("trace saved  : {}", path.display());
                }
            }
            for e in &result.trace_errors {
                eprintln!("warning: {e}");
            }
            if let Some(level) = log_level {
                let log = EventLog::new(level);
                log.emit(
                    &TraceEvent::new(LogLevel::Info, "run_complete")
                        .field("program", program.name())
                        .field("verdict", result.outcome.verdict.to_string())
                        .field("schedules", result.outcome.stats.schedules as u64)
                        .field("bugs", result.bugs.len()),
                );
            }
            metrics.emit(&handle)?;
            if let (Some(path), Some(snapshot)) = (&profile, profiler.snapshot()) {
                // Scrubbed so two runs of the same exploration produce
                // byte-identical documents (the determinism contract).
                let doc = ProfileDoc::new(&program, &explore.spec, &snapshot.scrubbed());
                std::fs::write(path, doc.to_json_string())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("profile saved: {path}");
            }
            Ok(())
        }
        Command::Replay {
            path,
            target,
            json,
            metrics,
        } => replay(&path, target.as_ref(), json, &metrics),
        Command::Corpus { action, dir, json } => corpus(action, dir.as_deref(), json),
        Command::Fuzz {
            config,
            save,
            json,
            metrics,
        } => fuzz(&config, save.as_deref(), json, &metrics),
        Command::Profile {
            doc,
            target,
            strategy,
            limit,
            json,
        } => profile_cmd(
            doc.as_deref(),
            target.as_ref(),
            strategy.as_deref(),
            limit,
            json,
        ),
        Command::Compare { target, limit } => compare(&resolve(&target)?, limit),
        Command::Races {
            target,
            walks,
            seed,
        } => races(&resolve(&target)?, walks, seed),
    }
}

impl MetricsArgs {
    /// A recording handle when either sink is requested.
    fn handle(&self) -> MetricsHandle {
        if self.metrics || self.metrics_json.is_some() {
            MetricsHandle::enabled()
        } else {
            MetricsHandle::disabled()
        }
    }

    /// Sends `handle`'s snapshot to the requested sinks: the table to
    /// stderr, the raw JSON to the `--metrics-json` file.
    fn emit(&self, handle: &MetricsHandle) -> Result<(), String> {
        if let Some(snapshot) = handle.snapshot() {
            if self.metrics {
                eprint!("{}", snapshot.render_table());
            }
            if let Some(path) = &self.metrics_json {
                std::fs::write(path, snapshot.to_json_string())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Progress observer for `run --progress N`: one status line per tick.
struct PrintProgress;

impl Observer for PrintProgress {
    fn on_progress(&self, p: &Progress) {
        eprintln!(
            "... {} schedules, {} events, {} states, {} bugs",
            p.schedules, p.events, p.unique_states, p.bugs
        );
    }
}

/// Progress observer for `run --log-level LEVEL`: structured JSON event
/// lines on stderr instead of the ad-hoc prints.
struct JsonEventProgress {
    log: EventLog,
}

impl Observer for JsonEventProgress {
    fn on_progress(&self, p: &Progress) {
        self.log.emit(
            &TraceEvent::new(LogLevel::Info, "progress")
                .field("schedules", p.schedules as u64)
                .field("events", p.events)
                .field("unique_states", p.unique_states as u64)
                .field("bugs", p.bugs as u64),
        );
    }

    fn on_bug(&self, bug: &BugReport) {
        self.log.emit(
            &TraceEvent::new(LogLevel::Warn, "bug")
                .field("kind", bug.to_string())
                .field("trace_len", bug.trace_len as u64)
                .field("schedule_len", bug.schedule.len() as u64),
        );
    }
}

fn resolve(target: &Target) -> Result<Program, String> {
    match target {
        Target::Bench(name) => lazylocks_suite::by_name(name)
            .map(|b| b.program)
            .ok_or_else(|| format!("no benchmark named {name:?}; try `lazylocks list`")),
        Target::Id(id) => lazylocks_suite::by_id(*id)
            .map(|b| b.program)
            .ok_or_else(|| format!("no benchmark with id {id}; the corpus has 1..=79")),
        Target::File(path) => {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Program::parse(&source).map_err(|e| format!("cannot parse {path}: {e}"))
        }
    }
}

fn list(family: Option<&str>) -> Result<(), String> {
    let suite = lazylocks_suite::all();
    let mut counts: HashMap<&str, usize> = HashMap::new();
    println!("{:>3}  {:<28} {:<13} description", "id", "name", "family");
    for b in &suite {
        *counts.entry(b.family).or_default() += 1;
        if let Some(f) = family {
            if b.family != f {
                continue;
            }
        }
        let mut marks = String::new();
        if b.expect.may_deadlock {
            marks.push_str(" [deadlocks]");
        }
        if b.expect.may_fail_assert {
            marks.push_str(" [asserts]");
        }
        println!(
            "{:>3}  {:<28} {:<13} {}{}",
            b.id, b.name, b.family, b.description, marks
        );
    }
    if family.is_none() {
        let mut fams: Vec<_> = counts.into_iter().collect();
        fams.sort();
        let summary: Vec<String> = fams.iter().map(|(f, n)| format!("{f} ({n})")).collect();
        println!("\n{} benchmarks: {}", suite.len(), summary.join(", "));
    }
    Ok(())
}

fn strategies() -> Result<(), String> {
    let registry = StrategyRegistry::default();
    println!("registered strategies (spec syntax: name or name(key=value, ...)):\n");
    for (name, help) in registry.entries() {
        println!("  {name:<12} {help}");
    }
    println!("\naliases:\n");
    for (alias, target) in registry.alias_table() {
        println!("  {alias:<16} = {target}");
    }
    Ok(())
}

/// The `client` subcommand: a thin veneer over
/// [`lazylocks_server::Client`]. Every action prints the daemon's JSON
/// response; `submit --wait` additionally polls the job to completion
/// and fails unless it ended `done`.
fn client(daemon: DaemonArgs, action: ClientAction) -> Result<(), String> {
    let client = lazylocks_server::Client::new(&daemon.addr)
        .with_retries(daemon.retries, Duration::from_millis(daemon.retry_ms))
        .with_token(daemon.token.or_else(env_token));
    let (status, body) = match action {
        ClientAction::Submit {
            target,
            explore,
            priority,
            wait,
        } => {
            // Programs travel as source text: the daemon re-parses and
            // validates, so benchmarks and files submit identically.
            let job = lazylocks_server::JobRequest {
                program_source: resolve(&target)?.to_source(),
                run: explore,
                priority,
                progress_interval: lazylocks_server::job::DEFAULT_PROGRESS_INTERVAL,
            };
            let id = client.submit(&job.to_json())?;
            if !wait {
                println!(
                    "{}",
                    Json::obj([
                        ("id", Json::Int(id as i128)),
                        ("state", Json::Str("queued".to_string())),
                    ])
                    .pretty()
                );
                return Ok(());
            }
            let detail = client.wait(id, Duration::from_millis(50))?;
            println!("{}", detail.pretty());
            return match detail.get("state").and_then(Json::as_str) {
                Some("done") => Ok(()),
                Some(state) => Err(format!("job {id} ended {state}")),
                None => Err(format!("job {id} detail carried no state")),
            };
        }
        ClientAction::Status { id: Some(id) } => client.job(id)?,
        ClientAction::Status { id: None } => client.jobs()?,
        ClientAction::Cancel { id } => client.cancel(id)?,
        ClientAction::Events { id, since } => client.events(id, since)?,
        ClientAction::Shutdown => client.shutdown()?,
        ClientAction::Metrics => {
            let (status, body) = client.metrics_json()?;
            expect_ok(status, &body)?;
            // Daemon-level gauges first, then the merged exploration
            // metrics through the same table renderer `run --metrics`
            // uses locally.
            if let Some(Json::Obj(pairs)) = body.get("server") {
                for (name, value) in pairs {
                    match value {
                        Json::Int(v) => println!("{name:<42} {v}"),
                        Json::Obj(states) => {
                            for (state, n) in states {
                                let label = format!("{name}{{state={state}}}");
                                println!("{label:<42} {}", n.as_i64().unwrap_or_default());
                            }
                        }
                        _ => {}
                    }
                }
            }
            let snapshot = MetricsSnapshot::from_json(&body)
                .map_err(|e| format!("daemon metrics body: {e}"))?;
            print!("{}", snapshot.render_table());
            return Ok(());
        }
    };
    // The remaining verbs print the daemon's answer as it came.
    println!("{}", body.pretty());
    expect_ok(status, &body)
}

/// The shared-secret fallback: `--token` beats `LAZYLOCKS_TOKEN`.
fn env_token() -> Option<String> {
    std::env::var("LAZYLOCKS_TOKEN")
        .ok()
        .filter(|t| !t.is_empty())
}

fn expect_ok(status: u16, body: &Json) -> Result<(), String> {
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(format!(
            "daemon answered {status}: {}",
            body.get("error").and_then(Json::as_str).unwrap_or("?")
        ))
    }
}

fn print_outcome(program: &str, outcome: &ExploreOutcome, bugs: &[BugReport], minimized: bool) {
    let stats = &outcome.stats;
    println!("program     : {program}");
    println!("strategy    : {}", outcome.strategy_id);
    println!("verdict     : {}", outcome.verdict);
    println!(
        "schedules   : {}{}{}",
        stats.schedules,
        if stats.limit_hit { "  (limit hit)" } else { "" },
        if stats.cancelled { "  (cancelled)" } else { "" }
    );
    println!("events      : {}", stats.events);
    println!("max depth   : {}", stats.max_depth);
    println!("#states     : {}", stats.unique_states);
    println!("#lazy HBRs  : {}", stats.unique_lazy_hbrs);
    println!("#HBRs       : {}", stats.unique_hbrs);
    println!("deadlocks   : {}", stats.deadlocks);
    println!("faulty runs : {}", stats.faulted_schedules);
    if stats.cache_prunes > 0 {
        println!("cache prunes: {}", stats.cache_prunes);
    }
    if stats.sleep_prunes > 0 {
        println!("sleep prunes: {}", stats.sleep_prunes);
    }
    if stats.bound_prunes > 0 {
        println!("bound prunes: {}", stats.bound_prunes);
    }
    if stats.truncated_runs > 0 {
        println!("truncated   : {}", stats.truncated_runs);
    }
    println!("wall time   : {:?}", stats.wall_time);
    if let Err(violation) = stats.check_inequality() {
        println!("WARNING     : counting inequality violated: {violation}");
    }
    for (i, bug) in bugs.iter().enumerate() {
        let tag = if minimized { " (minimized)" } else { "" };
        println!("bug #{}     : {bug}{tag}", i + 1);
        let schedule: Vec<String> = bug.schedule.iter().map(|t| t.to_string()).collect();
        println!("replay with : {}", schedule.join(","));
    }
}

/// `lazylocks replay <file|dir>`: replay one artifact or every artifact in
/// a directory, classify each, and fail unless everything reproduces.
fn replay(
    path: &str,
    target: Option<&Target>,
    json: bool,
    metrics: &MetricsArgs,
) -> Result<(), String> {
    let handle = metrics.handle();
    let path = Path::new(path);
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no artifacts (*.json) in {}", path.display()));
        }
        files
    } else {
        vec![path.to_path_buf()]
    };
    let target_program = target.map(resolve).transpose()?;

    let mut failures = 0usize;
    let mut reports: Vec<(PathBuf, Result<ReplayReport, String>)> = Vec::new();
    for file in files {
        let report = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))
            .and_then(|text| TraceArtifact::parse(&text).map_err(|e| e.to_string()))
            .and_then(|artifact| match &target_program {
                Some(program) => Ok(replay_against(&artifact, program, &handle)),
                None => replay_embedded(&artifact, &handle).map_err(|e| e.to_string()),
            });
        if !matches!(&report, Ok(r) if r.reproduced()) {
            failures += 1;
        }
        reports.push((file, report));
    }

    if json {
        let items = reports
            .iter()
            .map(|(file, report)| {
                let mut pairs = vec![("file", Json::Str(file.display().to_string()))];
                match report {
                    Ok(r) => pairs.extend([
                        ("verdict", Json::Str(r.verdict.to_string())),
                        ("expected", Json::Str(r.expected.clone())),
                        ("observed", Json::Str(r.observed.clone())),
                        ("details", Json::Str(r.details.clone())),
                    ]),
                    Err(e) => pairs.extend([
                        ("verdict", Json::Str("error".to_string())),
                        ("details", Json::Str(e.clone())),
                    ]),
                }
                Json::obj(pairs)
            })
            .collect();
        println!("{}", Json::Arr(items).pretty());
    } else {
        for (file, report) in &reports {
            match report {
                Ok(r) => println!("{}: {r}", file.display()),
                Err(e) => println!("{}: error: {e}", file.display()),
            }
        }
        println!(
            "{} artifact(s): {} reproduced, {failures} failed",
            reports.len(),
            reports.len() - failures
        );
    }
    metrics.emit(&handle)?;
    if failures > 0 {
        return Err(format!(
            "{failures} of {} artifact(s) did not reproduce",
            reports.len()
        ));
    }
    Ok(())
}

/// `lazylocks corpus {list,prune,seed}`.
fn corpus(action: CorpusAction, dir: Option<&str>, json: bool) -> Result<(), String> {
    let root = dir
        .map(PathBuf::from)
        .unwrap_or_else(CorpusStore::default_root);
    let store = CorpusStore::open(&root)
        .map_err(|e| format!("cannot open corpus {}: {e}", root.display()))?;
    match action {
        CorpusAction::List => {
            let entries = store.list().map_err(|e| e.to_string())?;
            if json {
                let items = entries
                    .iter()
                    .map(|entry| {
                        let mut pairs = vec![("file", Json::Str(entry.path.display().to_string()))];
                        match &entry.artifact {
                            Ok(a) => pairs.extend([
                                ("program", Json::Str(a.program_name.clone())),
                                ("fingerprint", Json::u128_hex(a.program_fingerprint)),
                                ("outcome", Json::Str(a.outcome_label())),
                                ("strategy", Json::Str(a.strategy_spec.clone())),
                                ("schedule_len", Json::Int(a.schedule.len() as i128)),
                                ("minimized", Json::Bool(a.minimized)),
                            ]),
                            Err(e) => pairs.push(("error", Json::Str(e.to_string()))),
                        }
                        Json::obj(pairs)
                    })
                    .collect();
                println!("{}", Json::Arr(items).pretty());
                return Ok(());
            }
            println!("{:<44} {:<24} {:>8} outcome", "file", "program", "schedule");
            for entry in &entries {
                let file = entry
                    .path
                    .file_name()
                    .map(|f| f.to_string_lossy().into_owned())
                    .unwrap_or_default();
                match &entry.artifact {
                    Ok(a) => println!(
                        "{file:<44} {:<24} {:>8} {}{}",
                        a.program_name,
                        a.schedule.len(),
                        a.outcome_label(),
                        if a.minimized { " [minimized]" } else { "" }
                    ),
                    Err(e) => println!("{file:<44} <undecodable: {e}>"),
                }
            }
            println!(
                "\n{} artifact(s) in {}",
                entries.len(),
                store.root().display()
            );
            Ok(())
        }
        CorpusAction::Prune => {
            let report = store.prune().map_err(|e| e.to_string())?;
            if json {
                let removed = report
                    .removed
                    .iter()
                    .map(|(path, reason)| {
                        Json::obj([
                            ("file", Json::Str(path.display().to_string())),
                            ("reason", Json::Str(reason.clone())),
                        ])
                    })
                    .collect();
                println!(
                    "{}",
                    Json::obj([
                        ("kept", Json::Int(report.kept as i128)),
                        ("removed", Json::Arr(removed)),
                    ])
                    .pretty()
                );
                return Ok(());
            }
            for (path, reason) in &report.removed {
                println!("removed {}: {reason}", path.display());
            }
            println!("kept {}, removed {}", report.kept, report.removed.len());
            Ok(())
        }
        CorpusAction::Seed { limit } => corpus_seed(&store, limit, json),
    }
}

/// Explores every bug-bearing benchmark (per its [`Expectations`]) into
/// the corpus, one minimised artifact per distinct bug.
///
/// [`Expectations`]: lazylocks_suite::Expectations
fn corpus_seed(store: &CorpusStore, limit: usize, json: bool) -> Result<(), String> {
    const SEED_SPEC: &str = "dpor(sleep=true)";
    let mut items = Vec::new();
    let mut missing = 0usize;
    for bench in lazylocks_suite::buggy() {
        let result = drive(
            DriveRequest::new(&bench.program, SEED_SPEC)
                .with_config(ExploreConfig::with_limit(limit).stopping_on_bug())
                .saving_into(store.clone())
                .minimizing(true),
        )
        .map_err(|e| e.to_string())?;
        for e in &result.trace_errors {
            eprintln!("warning: {e}");
        }
        let paths = result.trace_paths();
        if paths.is_empty() {
            missing += 1;
        }
        items.push((bench.name.clone(), result.outcome.stats.schedules, paths));
    }
    if json {
        let arr = items
            .iter()
            .map(|(name, schedules, paths)| {
                Json::obj([
                    ("bench", Json::Str(name.clone())),
                    ("schedules", Json::Int(*schedules as i128)),
                    (
                        "traces",
                        Json::Arr(
                            paths
                                .iter()
                                .map(|p| Json::Str(p.display().to_string()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        println!("{}", Json::Arr(arr).pretty());
    } else {
        for (name, schedules, paths) in &items {
            match paths.first() {
                Some(path) => println!(
                    "{name}: bug found after {schedules} schedule(s) -> {}",
                    path.display()
                ),
                None => println!("{name}: no bug within {limit} schedules"),
            }
        }
        println!(
            "\nseeded {} benchmark(s) into {}",
            items.len() - missing,
            store.root().display()
        );
    }
    if missing > 0 {
        return Err(format!(
            "{missing} expected-buggy benchmark(s) produced no bug within {limit} schedules"
        ));
    }
    Ok(())
}

/// `lazylocks fuzz`: generate adversarial programs and differentially
/// check every registered strategy against exhaustive DFS. Deterministic
/// per seed (no wall-clock data in the output); exit status is non-zero
/// on any disagreement.
fn fuzz(
    config: &FuzzConfig,
    save: Option<&str>,
    json: bool,
    metrics: &MetricsArgs,
) -> Result<(), String> {
    use lazylocks::CancelToken;
    use lazylocks_fuzz::{default_oracle_specs, run_fuzz, CaseStatus};

    let handle = metrics.handle();
    let store = save
        .map(|dir| CorpusStore::open(dir).map_err(|e| format!("cannot open {dir}: {e}")))
        .transpose()?;
    let registry = StrategyRegistry::default();
    let oracle = default_oracle_specs();
    let report = run_fuzz(
        config,
        &registry,
        &oracle,
        store.as_ref(),
        &CancelToken::new(),
        &handle,
        |case| {
            for repro in &case.repros {
                if let Some(e) = &repro.save_error {
                    eprintln!("warning: {e}");
                }
            }
            if json {
                return;
            }
            let outcome = match case.status {
                CaseStatus::Agreed => format!(
                    "agreed        ({} schedules, {} states)",
                    case.dfs.schedules, case.dfs.states
                ),
                CaseStatus::AgreedBuggy => format!(
                    "agreed        ({} schedules, {} states, {} deadlocking, {} faulting)",
                    case.dfs.schedules,
                    case.dfs.states,
                    case.dfs.deadlocks,
                    case.dfs.faulted_schedules
                ),
                CaseStatus::Unexhausted => {
                    format!(
                        "skipped       (ground truth exceeds budget {})",
                        config.budget
                    )
                }
                CaseStatus::Disagreed => format!(
                    "DISAGREED     ({} broken promise(s))",
                    case.disagreements.len()
                ),
                CaseStatus::Cancelled => "cancelled".to_string(),
            };
            println!("{:<28} {outcome}", case.program_name);
            for d in &case.disagreements {
                println!("    {d}");
            }
            for repro in &case.repros {
                match &repro.path {
                    Some(path) => println!(
                        "    repro: {} instruction(s), schedule of {} -> {}",
                        repro.instructions,
                        repro.schedule_len,
                        path.display()
                    ),
                    None => println!(
                        "    repro: {} instruction(s), schedule of {} (not saved; use --save DIR)",
                        repro.instructions, repro.schedule_len
                    ),
                }
            }
        },
    )
    .map_err(|e| e.to_string())?;

    if json {
        println!("{}", report.to_json(config).pretty());
    } else {
        let line: Vec<String> = report
            .summary()
            .iter()
            .map(|(k, v)| format!("{v} {k}"))
            .collect();
        println!("\n{} case(s): {}", report.cases.len(), line.join(", "));
    }
    metrics.emit(&handle)?;
    let disagreements = report.total_disagreements();
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} disagreement(s) across {} case(s)",
            report.count(CaseStatus::Disagreed)
        ));
    }
    Ok(())
}

/// `lazylocks profile`: render a saved profile document, or explore a
/// target under the profiler and report per-site attribution.
///
/// With a target and no `--strategy`, both paper protagonists run —
/// `dpor(sleep=true)` and `lazy-dpor` — so the report directly compares
/// where each spends its redundant schedules.
fn profile_cmd(
    doc: Option<&str>,
    target: Option<&Target>,
    strategy: Option<&str>,
    limit: usize,
    json: bool,
) -> Result<(), String> {
    if let Some(path) = doc {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = ProfileDoc::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if json {
            println!("{}", doc.to_json().pretty());
        } else {
            print!("{}", doc.render()?);
        }
        return Ok(());
    }
    let target = target.ok_or("profile needs a DOC.json, or --bench, --id or --file")?;
    let program = resolve(target)?;
    let specs: Vec<&str> = match strategy {
        Some(spec) => vec![spec],
        None => vec!["dpor(sleep=true)", "lazy-dpor"],
    };
    let mut docs = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let profiler = ProfileHandle::enabled();
        let config = ExploreConfig::with_limit(limit).with_profile(profiler.clone());
        let session = ExploreSession::new(&program).with_config(config);
        session.run_spec(spec).map_err(|e| e.to_string())?;
        let snapshot = profiler
            .snapshot()
            .ok_or("profiler produced no snapshot")?
            .scrubbed();
        if json {
            docs.push(ProfileDoc::new(&program, spec, &snapshot).to_json());
        } else {
            if i > 0 {
                println!();
            }
            print!(
                "{}",
                lazylocks_trace::render_profile(&program, spec, &snapshot)
            );
        }
    }
    if json {
        println!("{}", Json::Arr(docs).pretty());
    }
    Ok(())
}

fn compare(program: &Program, limit: usize) -> Result<(), String> {
    let registry = StrategyRegistry::default();
    let specs = [
        "dfs",
        "dpor",
        "dpor(deps=lazy-locks)",
        "caching",
        "caching(mode=lazy)",
        "lazy-dpor",
        "random",
        "bounded",
    ];
    let session = ExploreSession::new(program).with_config(ExploreConfig::with_limit(limit));
    println!("program: {} (limit {limit})", program.name());
    println!(
        "{:<16} {:>10} {:>8} {:>10} {:>10} {:>8} {:>6}",
        "strategy", "schedules", "#states", "#lazyHBRs", "#HBRs", "bugs", "limit"
    );
    for spec in specs {
        let outcome = session
            .run_with(&registry, spec)
            .map_err(|e| e.to_string())?;
        let stats = &outcome.stats;
        println!(
            "{:<16} {:>10} {:>8} {:>10} {:>10} {:>8} {:>6}",
            outcome.strategy_id,
            stats.schedules,
            stats.unique_states,
            stats.unique_lazy_hbrs,
            stats.unique_hbrs,
            stats.deadlocks + stats.faulted_schedules,
            if stats.limit_hit { "*" } else { "" }
        );
    }
    Ok(())
}

fn races(program: &Program, walks: usize, seed: u64) -> Result<(), String> {
    use lazylocks::rng::SplitMix64;
    let mut rng = SplitMix64::new(seed);
    let mut all_races = std::collections::BTreeMap::new();
    for _ in 0..walks {
        let result = run_with_scheduler(program, |exec| {
            let enabled = exec.enabled_set();
            if enabled.is_empty() {
                None
            } else {
                enabled.nth(rng.gen_range(enabled.len()))
            }
        })
        .map_err(|pos| format!("internal scheduling error at step {pos}"))?;
        for race in detect_races(program, &result.trace) {
            let key = format!("{race}");
            all_races.entry(key).or_insert(race);
        }
    }
    if all_races.is_empty() {
        println!(
            "no data races observed across {walks} random walks of {}",
            program.name()
        );
    } else {
        println!(
            "{} distinct data race(s) in {} across {walks} random walks:",
            all_races.len(),
            program.name()
        );
        for race in all_races.values() {
            println!("  {race}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_by_name_id_and_missing() {
        assert!(resolve(&Target::Bench("peterson".into())).is_ok());
        assert!(resolve(&Target::Id(1)).is_ok());
        assert!(resolve(&Target::Bench("ghost".into())).is_err());
        assert!(resolve(&Target::Id(0)).is_err());
        assert!(resolve(&Target::File("/no/such/file.llk".into())).is_err());
    }

    #[test]
    fn resolve_parses_llk_files() {
        let dir = std::env::temp_dir().join("lazylocks-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.llk");
        std::fs::write(
            &path,
            "program tiny\nvar x = 0\nthread T {\n store x = 1\n}\n",
        )
        .unwrap();
        let p = resolve(&Target::File(path.to_string_lossy().into_owned())).unwrap();
        assert_eq!(p.name(), "tiny");
        assert_eq!(p.thread_count(), 1);
    }

    /// Parses a command line, for tests; `path` fills every `{path}`.
    fn cmd(line: &str, path: &Path) -> Command {
        let path = path.to_string_lossy();
        let argv: Vec<String> = line
            .split_whitespace()
            .map(|arg| arg.replace("{path}", &path))
            .collect();
        crate::args::parse(&argv).unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lazylocks-cli-cmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn commands_execute_end_to_end() {
        let none = Path::new("");
        for line in [
            "list --family paper",
            "strategies",
            "show --id 1",
            "run --bench paper-figure1 --limit 1000 --seed 1",
            "races --bench store-buffer --walks 20 --seed 3",
        ] {
            run(cmd(line, none)).unwrap();
        }
    }

    #[test]
    fn run_rejects_unknown_specs_at_execution_too() {
        let mut run_cmd = cmd("run --id 1 --limit 1000", Path::new(""));
        if let Command::Run { explore, .. } = &mut run_cmd {
            explore.spec = "no-such-strategy".into();
        }
        let err = run(run_cmd).unwrap_err();
        assert!(err.contains("unknown strategy"));
    }

    #[test]
    fn run_with_deadline_reports_cancellation() {
        // A zero deadline cancels even the first schedule batch; the
        // command must still succeed and print a cancelled outcome.
        let line =
            "run --bench paper-figure1 --strategy dfs --limit 1000000 --seed 1 --deadline-ms 0";
        run(cmd(line, Path::new(""))).unwrap();
    }

    #[test]
    fn run_saves_minimised_traces_and_replay_reproduces_them() {
        let dir = temp_dir("run-traces");
        let line = "run --bench philosophers-naive-2 --limit 10000 --seed 1 \
                    --stop-on-bug --minimize --save-traces {path}";
        run(cmd(line, &dir)).unwrap();
        let store = CorpusStore::open(&dir).unwrap();
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 1);
        let artifact = entries[0].artifact.as_ref().unwrap();
        assert!(artifact.minimized);
        assert_eq!(artifact.program_name, "philosophers-naive-2");

        // Replaying the directory succeeds...
        run(cmd("replay {path}", &dir)).unwrap();
        // ...both embedded and against the (unchanged) benchmark...
        let file = &entries[0].path;
        run(cmd(
            "replay {path} --bench philosophers-naive-2 --json",
            file,
        ))
        .unwrap();
        // ...but not against a different program.
        let err = run(cmd("replay {path} --bench paper-figure1", file)).unwrap_err();
        assert!(err.contains("did not reproduce"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_checkpoints_and_resumes_from_disk() {
        let dir = temp_dir("checkpoint");
        let line = "run --bench paper-figure1 --limit 10000 --checkpoint-dir {path} \
                    --checkpoint-every 1 --seed";
        run(cmd(&format!("{line} 1"), &dir)).unwrap();
        assert!(dir.join("checkpoint.json").is_file());
        // Resuming the finished run replays its prefix and ends cleanly...
        run(cmd(&format!("{line} 1 --resume"), &dir)).unwrap();
        // ...but a different seed is refused before any exploration.
        let err = run(cmd(&format!("{line} 2 --resume"), &dir)).unwrap_err();
        assert!(err.contains("cannot resume"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_an_impossible_pool_free() {
        let dir = temp_dir("checkpoint-pool");
        let line = "run --bench rw-r2-w1 --strategy dpor --limit 25 --checkpoint-dir {path} \
                    --checkpoint-every 10";
        run(cmd(line, &dir)).unwrap();
        let mut doc = load_checkpoint(&dir).unwrap().unwrap();
        // Three threads under the default 10,000-event cap: no run holds
        // more than 10,004 frame bodies, spare or live.
        doc.state.pool_free = 20_000;
        std::fs::write(dir.join("checkpoint.json"), doc.to_json_string()).unwrap();
        let err = run(cmd(&format!("{line} --resume"), &dir)).unwrap_err();
        assert!(err.contains("pool_free 20000"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_command_runs_targets_and_renders_saved_docs() {
        // Target mode runs both paper protagonists by default.
        run(cmd(
            "profile --bench paper-figure1 --limit 10000",
            Path::new(""),
        ))
        .unwrap();
        // `run --profile` writes a document the subcommand re-renders,
        // in both text and JSON form.
        let dir = temp_dir("profile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prof.json");
        let line = "run --bench paper-figure1 --limit 1000 --seed 1 --profile {path}";
        run(cmd(line, &path)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = ProfileDoc::parse(&text).unwrap();
        assert_eq!(doc.program_name, "paper-figure1");
        assert!(doc.render().unwrap().contains("hot sites"));
        for line in ["profile {path}", "profile {path} --json"] {
            run(cmd(line, &path)).unwrap();
        }
        // A single --strategy restricts the target run.
        let line = "profile --bench paper-figure1 --strategy dpor --limit 10000 --json";
        run(cmd(line, Path::new(""))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corpus_list_and_prune_commands() {
        let dir = temp_dir("corpus");
        // Seed one artifact through the run path.
        let line = "run --bench accounts-fine-deadlock2 --strategy dpor --limit 10000 \
                    --seed 1 --stop-on-bug --save-traces {path} --json";
        run(cmd(line, &dir)).unwrap();
        for line in [
            "corpus list --dir {path}",
            "corpus list --dir {path} --json",
            "corpus prune --dir {path}",
        ] {
            run(cmd(line, &dir)).unwrap();
        }
        // The artifact reproduces, so prune kept it.
        assert_eq!(CorpusStore::open(&dir).unwrap().list().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_errors_on_missing_and_empty_paths() {
        assert!(run(cmd("replay /no/such/artifact.json", Path::new(""))).is_err());
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run(cmd("replay {path}", &dir)).unwrap_err();
        assert!(err.contains("no artifacts"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_runs_all_strategies() {
        let p = lazylocks_suite::by_name("paper-figure1").unwrap().program;
        compare(&p, 200).unwrap();
    }
}
