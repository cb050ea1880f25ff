//! The versioned exploration-profile document and its human-readable
//! report renderer.
//!
//! The obs-layer [`ProfileSnapshot`] is deliberately name-blind (it sits
//! below the program model in the dependency graph): sites are
//! `(thread, pc)` pairs, objects are raw indices. This module is where
//! names come back — [`ProfileDoc`] wraps a snapshot with the program
//! and strategy it profiled, and [`render_profile`] resolves every site
//! to its instruction and object (`mutex 'm2' at t1:ins 7`) so the
//! report answers "which program point is costing us the schedules?".
//! Versioning follows [`DocFormat`]'s policy.

use crate::json::Json;
use lazylocks::obs::{require, site, DocError, DocFormat, ProfileSnapshot};
use lazylocks_model::{Instr, Program};
use std::fmt::Write as _;

/// The profile document format.
pub const PROFILE_DOC_FORMAT: DocFormat = DocFormat {
    name: "lazylocks-profile-doc",
    version_key: "format_version",
    version: 1,
};

/// Hot-site rows rendered in the text report.
const REPORT_TOP_SITES: usize = 20;

/// A persistent record of one exploration's profile: which program and
/// strategy ran, and the (typically scrubbed) profiler snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDoc {
    /// Version of the tool that wrote the document.
    pub tool_version: String,
    /// The profiled program's name.
    pub program_name: String,
    /// The program's canonical `.llk` source, embedded so the document
    /// renders standalone (sites resolve to names without the original
    /// benchmark) — the same self-containment contract as trace
    /// artifacts.
    pub program_source: String,
    /// The strategy spec that ran.
    pub strategy_spec: String,
    /// The profiler snapshot, as [`ProfileSnapshot::to_json`] encodes it.
    pub profile: Json,
}

impl ProfileDoc {
    /// Builds a document from a snapshot. Scrub before calling when the
    /// output must be byte-identical across runs
    /// ([`ProfileSnapshot::scrubbed`]).
    pub fn new(program: &Program, strategy_spec: &str, snapshot: &ProfileSnapshot) -> ProfileDoc {
        ProfileDoc {
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            program_name: program.name().to_string(),
            program_source: program.to_source(),
            strategy_spec: strategy_spec.to_string(),
            profile: snapshot.to_json(),
        }
    }

    /// Re-parses the embedded program, for standalone rendering.
    pub fn program(&self) -> Result<Program, String> {
        Program::parse(&self.program_source)
            .map_err(|e| format!("embedded program no longer parses: {e}"))
    }

    /// The document as JSON, stable field order.
    pub fn to_json(&self) -> Json {
        PROFILE_DOC_FORMAT.wrap([
            ("tool_version", Json::Str(self.tool_version.clone())),
            ("program", Json::Str(self.program_name.clone())),
            ("program_source", Json::Str(self.program_source.clone())),
            ("strategy", Json::Str(self.strategy_spec.clone())),
            ("profile", self.profile.clone()),
        ])
    }

    /// Serializes the document.
    pub fn to_json_string(&self) -> String {
        self.to_json().encode()
    }

    /// Parses a serialized document, enforcing format and version.
    pub fn parse(text: &str) -> Result<ProfileDoc, DocError> {
        let json = Json::parse(text)?;
        let v = PROFILE_DOC_FORMAT.open(&json)?;
        let text_of = |field: &'static str| require(v, field, Json::as_str).map(str::to_string);
        Ok(ProfileDoc {
            tool_version: text_of("tool_version")?,
            program_name: text_of("program")?,
            program_source: text_of("program_source")?,
            strategy_spec: text_of("strategy")?,
            profile: require(v, "profile", Some)?.clone(),
        })
    }

    /// Decodes the embedded snapshot back into its typed form.
    pub fn snapshot(&self) -> Result<ProfileSnapshot, DocError> {
        ProfileSnapshot::from_json(&self.profile)
    }

    /// Renders the text report from the document alone (embedded program
    /// + embedded snapshot) — no re-exploration, no original benchmark.
    pub fn render(&self) -> Result<String, String> {
        let program = self.program()?;
        let snap = self.snapshot().map_err(|e| e.to_string())?;
        Ok(render_profile(&program, &self.strategy_spec, &snap))
    }
}

/// Short mnemonic of the instruction at `(thread, pc)` with object names
/// resolved (`lock(m2)`, `store(x)`, …).
fn instr_label(program: &Program, thread: usize, pc: u32) -> String {
    let Some(ins) = program
        .threads()
        .get(thread)
        .and_then(|t| t.code.get(pc as usize))
    else {
        return "?".to_string();
    };
    match ins {
        Instr::Load { var, .. } => format!("load({})", program.vars()[var.index()].name),
        Instr::Store { var, .. } => format!("store({})", program.vars()[var.index()].name),
        Instr::Lock(m) => format!("lock({})", program.mutexes()[m.index()].name),
        Instr::Unlock(m) => format!("unlock({})", program.mutexes()[m.index()].name),
        _ => "local".to_string(),
    }
}

fn thread_name(program: &Program, thread: usize) -> String {
    program
        .threads()
        .get(thread)
        .map(|t| t.name.clone())
        .unwrap_or_else(|| format!("t{thread}"))
}

fn pad(s: &str, width: usize) -> String {
    format!("{s:<width$}")
}

fn rpad(v: impl std::fmt::Display, width: usize) -> String {
    format!("{v:>width$}")
}

/// Renders a profiler snapshot as a text report, resolving every site
/// and object to the program's instruction, thread, variable and mutex
/// names. Deterministic for a deterministic snapshot.
pub fn render_profile(program: &Program, strategy_spec: &str, snap: &ProfileSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "profile: {} · {strategy_spec}", program.name());
    let _ = writeln!(
        out,
        "  {} schedules, {} events",
        snap.schedules, snap.events
    );

    out.push_str("\nredundancy (schedules per happens-before class, paper §3)\n");
    let _ = writeln!(
        out,
        "  {} {} {} {}",
        pad("relation", 9),
        rpad("classes", 9),
        rpad("schedules", 10),
        rpad("redundant", 10),
    );
    for c in &snap.classes {
        let _ = writeln!(
            out,
            "  {} {} {} {}",
            pad(c.relation, 9),
            rpad(c.distinct, 9),
            rpad(c.schedules, 10),
            rpad(c.redundant(), 10),
        );
    }
    for c in &snap.classes {
        if let Some((fp, n)) = c.top.first() {
            if *n > 1 {
                let _ = writeln!(
                    out,
                    "  most re-explored {} class: {:#010x}… ×{}",
                    c.relation,
                    fp >> 96,
                    n
                );
            }
        }
    }

    // Hot sites, ordered by total attribution.
    let mut sites: Vec<_> = snap.sites.iter().collect();
    sites.sort_by(|a, b| {
        let ta: u64 = a.counts.iter().sum();
        let tb: u64 = b.counts.iter().sum();
        tb.cmp(&ta).then((a.thread, a.pc).cmp(&(b.thread, b.pc)))
    });
    out.push_str("\nhot sites (per-program-point attribution)\n");
    if sites.is_empty() {
        out.push_str("  (none: no races, prunes or backtracks recorded)\n");
    } else {
        let _ = writeln!(
            out,
            "  {} {} {}",
            pad("site", 18),
            pad("op", 14),
            site::NAMES
                .iter()
                .map(|n| rpad(n, 12))
                .collect::<Vec<_>>()
                .join(" "),
        );
        for s in sites.iter().take(REPORT_TOP_SITES) {
            let label = format!("{}:ins {}", thread_name(program, s.thread as usize), s.pc);
            let _ = writeln!(
                out,
                "  {} {} {}",
                pad(&label, 18),
                pad(&instr_label(program, s.thread as usize, s.pc), 14),
                s.counts
                    .iter()
                    .map(|c| rpad(c, 12))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
        }
        if sites.len() > REPORT_TOP_SITES {
            let _ = writeln!(out, "  … {} more sites", sites.len() - REPORT_TOP_SITES);
        }
    }

    out.push_str("\nhot objects\n");
    if snap.objects.is_empty() {
        out.push_str("  (none)\n");
    } else {
        let mut objects: Vec<_> = snap.objects.iter().collect();
        objects.sort_by_key(|o| std::cmp::Reverse(o.counts.iter().sum::<u64>()));
        for o in objects {
            let label = match o.obj {
                lazylocks::obs::ProfileObj::Var(v) => format!(
                    "var '{}'",
                    program
                        .vars()
                        .get(v as usize)
                        .map(|d| d.name.as_str())
                        .unwrap_or("?")
                ),
                lazylocks::obs::ProfileObj::Mutex(m) => format!(
                    "mutex '{}'",
                    program
                        .mutexes()
                        .get(m as usize)
                        .map(|d| d.name.as_str())
                        .unwrap_or("?")
                ),
            };
            let _ = writeln!(
                out,
                "  {} {}",
                pad(&label, 18),
                site::NAMES
                    .iter()
                    .zip(&o.counts)
                    .filter(|(_, &c)| c > 0)
                    .map(|(n, c)| format!("{n} {c}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
    }

    let _ = writeln!(
        out,
        "\nhot subtrees (top {} of {})",
        snap.spans.len(),
        snap.span_count
    );
    for s in &snap.spans {
        let prefix = s
            .prefix
            .iter()
            .map(|&c| thread_name(program, c as usize))
            .collect::<Vec<_>>()
            .join("→");
        let prefix = if prefix.is_empty() {
            "(root)".to_string()
        } else {
            prefix
        };
        let _ = writeln!(
            out,
            "  {} {} schedules, {} events, {:.1} ms",
            pad(&prefix, 28),
            rpad(s.schedules, 8),
            rpad(s.events, 9),
            s.wall_ns as f64 / 1e6,
        );
    }

    out.push_str("\ndepth profile (events per schedule)\n");
    for d in &snap.depth {
        if d.schedules == 0 {
            continue;
        }
        let le = match d.le {
            Some(le) => format!("<= {le}"),
            None => "> 512".to_string(),
        };
        let _ = writeln!(
            out,
            "  {} {} schedules, {} events, {:.1} ms",
            pad(&le, 7),
            rpad(d.schedules, 8),
            rpad(d.events, 9),
            d.wall_ns as f64 / 1e6,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazylocks::{Dpor, ExploreConfig, Explorer, ProfileHandle};
    use lazylocks_model::{ProgramBuilder, Reg};

    fn figure1() -> Program {
        let mut b = ProgramBuilder::new("figure1");
        let x = b.var("x", 0);
        let y = b.var("y", 0);
        let z = b.var("z", 0);
        let m = b.mutex("m");
        b.thread("T1", |t| {
            t.lock(m);
            t.load(Reg(0), x);
            t.unlock(m);
            t.store(y, Reg(0));
        });
        b.thread("T2", |t| {
            t.store(z, 1);
            t.lock(m);
            t.load(Reg(0), x);
            t.unlock(m);
        });
        b.build()
    }

    fn profiled_snapshot() -> (Program, lazylocks::ProfileSnapshot) {
        let program = figure1();
        let profile = ProfileHandle::enabled();
        let config = ExploreConfig::with_limit(10_000).with_profile(profile.clone());
        Dpor::default().explore(&program, &config);
        let snap = profile.snapshot().unwrap();
        (program, snap)
    }

    #[test]
    fn doc_round_trips() {
        let (program, snap) = profiled_snapshot();
        let doc = ProfileDoc::new(&program, "dpor(sleep=true)", &snap.scrubbed());
        let text = doc.to_json_string();
        let back = ProfileDoc::parse(&text).unwrap();
        assert_eq!(doc, back);
        assert_eq!(back.program_name, "figure1");
        assert_eq!(back.strategy_spec, "dpor(sleep=true)");
        // The embedded source keeps the document standalone.
        assert_eq!(back.program().unwrap().name(), "figure1");
        assert_eq!(
            back.profile.get("format").and_then(|j| j.as_str()),
            Some("lazylocks-profile")
        );
    }

    #[test]
    fn snapshot_decodes_from_its_own_json() {
        let (program, snap) = profiled_snapshot();
        let scrubbed = snap.scrubbed();
        let encoded = Json::parse(&scrubbed.to_json_string()).unwrap();
        let decoded = ProfileSnapshot::from_json(&encoded).unwrap();
        // The decoder is a faithful inverse: re-encoding reproduces the
        // exact bytes, and the standalone render matches the direct one.
        assert_eq!(decoded.to_json_string(), scrubbed.to_json_string());
        let doc = ProfileDoc::new(&program, "dpor(sleep=true)", &scrubbed);
        assert_eq!(
            doc.render().unwrap(),
            render_profile(&program, "dpor(sleep=true)", &scrubbed)
        );
    }

    #[test]
    fn parse_rejects_newer_versions_and_wrong_formats() {
        let (program, snap) = profiled_snapshot();
        let doc = ProfileDoc::new(&program, "dpor", &snap);
        let newer = doc
            .to_json_string()
            .replace("\"format_version\":1", "\"format_version\":99");
        assert!(matches!(
            ProfileDoc::parse(&newer),
            Err(DocError::Version { found: 99, .. })
        ));
        let wrong = doc
            .to_json_string()
            .replace(PROFILE_DOC_FORMAT.name, "other-format");
        assert!(matches!(
            ProfileDoc::parse(&wrong),
            Err(DocError::Schema {
                field: "format",
                ..
            })
        ));
    }

    #[test]
    fn report_resolves_names_and_counts_redundancy() {
        let (program, snap) = profiled_snapshot();
        let report = render_profile(&program, "dpor", &snap);
        // Figure 1's race is the two lock(m) acquisitions: the report must
        // name the mutex and the instruction sites.
        assert!(report.contains("mutex 'm'"), "report:\n{report}");
        assert!(report.contains("lock(m)"), "report:\n{report}");
        assert!(report.contains(":ins "), "report:\n{report}");
        // Regular relation sees 2 classes, lazy 1 — with >= 2 schedules
        // the lazy row must show redundancy.
        assert!(report.contains("regular"), "report:\n{report}");
        assert!(report.contains("lazy"), "report:\n{report}");
    }

    #[test]
    fn scrubbed_profiles_are_byte_identical_across_runs() {
        let run = || {
            let (program, snap) = profiled_snapshot();
            ProfileDoc::new(&program, "dpor", &snap.scrubbed()).to_json_string()
        };
        assert_eq!(run(), run());
    }
}
