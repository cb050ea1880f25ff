//! The paper's evidence, pinned: Figure 2 (regular vs lazy HBRs explored
//! by DPOR), Figure 3 (lazy HBRs reached by regular vs lazy HBR caching),
//! the §3 counting chain and the lazy-DPOR ablation, all from one sweep of
//! the 79-benchmark corpus at one schedule budget.
//!
//! `golden/paper_figures.tsv` holds one row per benchmark, then a blank
//! line, then the aggregates the paper quotes, each next to the paper's
//! own figure. `README.md` must quote every aggregate line verbatim, so no
//! paper number there can drift. Regenerate the golden (only when
//! exploration semantics change on purpose) with:
//!
//! ```text
//! LAZYLOCKS_BLESS=1 cargo test -p lazylocks-integration --test paper_figures
//! ```
//!
//! Any other budget, the paper's 100,000 included, is one
//! `lazylocks compare --bench NAME --limit N` per benchmark.

use lazylocks::{ExploreConfig, ExploreSession, ExploreStats};
use lazylocks_integration::assert_golden;
use lazylocks_suite::Benchmark;
use std::fmt::Write as _;

/// Schedule budget of every run in the sweep.
const LIMIT: usize = 2_000;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/paper_figures.tsv");
const README: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../README.md");

/// One benchmark under the four strategies the figures compare.
struct Row {
    bench: Benchmark,
    dpor: ExploreStats,
    caching: ExploreStats,
    lazy_caching: ExploreStats,
    lazy_dpor: ExploreStats,
}

impl Row {
    fn measure(bench: Benchmark) -> Row {
        let session =
            ExploreSession::new(&bench.program).with_config(ExploreConfig::with_limit(LIMIT));
        let run = |spec: &str| session.run_spec(spec).expect("registered spec").stats;
        Row {
            dpor: run("dpor"),
            caching: run("caching"),
            lazy_caching: run("caching(mode=lazy)"),
            lazy_dpor: run("lazy-dpor"),
            bench,
        }
    }

    fn mutexes(&self) -> usize {
        self.bench.program.mutexes().len()
    }

    fn runs(&self) -> [(&str, &ExploreStats); 4] {
        [
            ("dpor", &self.dpor),
            ("caching", &self.caching),
            ("caching(mode=lazy)", &self.lazy_caching),
            ("lazy-dpor", &self.lazy_dpor),
        ]
    }

    /// The properties the paper states for every benchmark.
    fn check(&self) {
        let name = &self.bench.name;
        for (spec, stats) in self.runs() {
            stats
                .check_inequality()
                .unwrap_or_else(|e| panic!("{name} under {spec}: {e}"));
            assert!(
                stats.schedules <= LIMIT,
                "{name} under {spec}: budget overrun"
            );
        }
        assert!(
            self.caching.unique_lazy_hbrs <= self.lazy_caching.unique_lazy_hbrs,
            "{name}: regular caching reached more lazy classes than lazy caching"
        );
        if self.mutexes() == 0 {
            assert_eq!(
                self.dpor.unique_hbrs, self.dpor.unique_lazy_hbrs,
                "{name}: a mutex-free program must sit on the Figure 2 diagonal"
            );
        }
    }
}

/// `Σ(y − x) / Σ x` over the rows where `y` strays from `x` in the
/// direction `gain` picks, as (row count, whole percent).
fn off_diagonal(rows: &[Row], axes: impl Fn(&Row) -> (usize, usize), gain: bool) -> (usize, f64) {
    let (mut n, mut moved, mut base) = (0, 0, 0);
    for (x, y) in rows.iter().map(axes) {
        if (gain && y > x) || (!gain && y < x) {
            n += 1;
            moved += x.abs_diff(y);
            base += x;
        }
    }
    (n, 100.0 * moved as f64 / base.max(1) as f64)
}

fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "# id\tname\tfamily\tmutexes\
         \tdpor_schedules\tdpor_states\tdpor_hbrs\tdpor_lazy_hbrs\tdpor_limit_hit\
         \tcaching_lazy_hbrs\tcaching_limit_hit\
         \tlazy_caching_lazy_hbrs\tlazy_caching_limit_hit\
         \tlazy_dpor_schedules\tlazy_dpor_states\tlazy_dpor_limit_hit\n",
    );
    for r in rows {
        let (b, d, c, lc, ld) = (&r.bench, &r.dpor, &r.caching, &r.lazy_caching, &r.lazy_dpor);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            b.id,
            b.name,
            b.family,
            r.mutexes(),
            d.schedules,
            d.unique_states,
            d.unique_hbrs,
            d.unique_lazy_hbrs,
            d.limit_hit as u8,
            c.unique_lazy_hbrs,
            c.limit_hit as u8,
            lc.unique_lazy_hbrs,
            lc.limit_hit as u8,
            ld.schedules,
            ld.unique_states,
            ld.limit_hit as u8,
        )
        .unwrap();
    }

    let total = rows.len();
    let fig2 = |r: &Row| (r.dpor.unique_hbrs, r.dpor.unique_lazy_hbrs);
    let (below, redundant) = off_diagonal(rows, fig2, false);
    let on: Vec<&Row> = rows.iter().filter(|r| fig2(r).0 == fig2(r).1).collect();
    let on_free = on.iter().filter(|r| r.mutexes() == 0).count();
    let fig3 = |r: &Row| (r.caching.unique_lazy_hbrs, r.lazy_caching.unique_lazy_hbrs);
    let (off, more) = off_diagonal(rows, fig3, true);
    let off_hit = rows
        .iter()
        .filter(|r| fig3(r).1 > fig3(r).0 && r.caching.limit_hit)
        .count();
    let violations = rows
        .iter()
        .flat_map(Row::runs)
        .filter(|(_, s)| s.check_inequality().is_err())
        .count();
    let sum = |f: fn(&Row) -> &ExploreStats| rows.iter().map(|r| f(r).schedules).sum::<usize>();
    let wins = rows
        .iter()
        .filter(|r| r.lazy_dpor.schedules < r.dpor.schedules && !r.dpor.limit_hit)
        .count();
    let mismatches = rows
        .iter()
        .filter(|r| !r.dpor.limit_hit && !r.lazy_dpor.limit_hit)
        .filter(|r| r.dpor.unique_states != r.lazy_dpor.unique_states)
        .count();

    out.push('\n');
    writeln!(
        out,
        "Figure 2 (dpor, budget {LIMIT}): {below}/{total} below the diagonal, \
         {redundant:.0}% of their HBRs redundant; {on_free} of the {} on it have no mutex \
         (paper: 33/79, 80%)",
        on.len()
    )
    .unwrap();
    writeln!(
        out,
        "Figure 3 (caching, budget {LIMIT}): {off}/{total} off the diagonal, \
         +{more:.0}% lazy HBRs among them; regular caching hit the budget on {off_hit} of them \
         (paper: 18/79, +84%)"
    )
    .unwrap();
    writeln!(
        out,
        "§3 inequality (all four strategies): {violations} violations (paper: 0)"
    )
    .unwrap();
    writeln!(
        out,
        "Ablation (budget {LIMIT}): schedules dpor {}, lazy-dpor {}, caching {}, \
         lazy caching {}; lazy-dpor beats exhaustive dpor on {wins}, \
         {mismatches} state mismatches (paper: lazy DPOR is §4 future work)",
        sum(|r| &r.dpor),
        sum(|r| &r.lazy_dpor),
        sum(|r| &r.caching),
        sum(|r| &r.lazy_caching),
    )
    .unwrap();
    out
}

#[test]
fn paper_figures_match_golden() {
    let rows: Vec<Row> = lazylocks_suite::all()
        .into_iter()
        .map(Row::measure)
        .collect();
    rows.iter().for_each(Row::check);
    assert_golden(GOLDEN, &render(&rows));
}

#[test]
fn readme_quotes_every_aggregate_line() {
    let golden = std::fs::read_to_string(GOLDEN).expect("read the golden");
    let readme = std::fs::read_to_string(README).expect("read README.md");
    let (_, trailer) = golden
        .split_once("\n\n")
        .expect("blank line before the aggregates");
    for line in trailer.lines() {
        assert!(readme.contains(line), "README.md does not quote: {line}");
    }
}
