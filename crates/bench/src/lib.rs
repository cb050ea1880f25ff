//! Shared harness for the figure-reproduction binaries.
//!
//! Each binary sweeps the 79-benchmark corpus under a schedule budget and
//! prints three artefacts, mirroring the paper's presentation:
//!
//! 1. a TSV block (spreadsheet/gnuplot-ready),
//! 2. an ASCII log-log scatter plot with benchmark ids as point labels,
//! 3. the aggregate statistics the paper quotes in prose (points off the
//!    diagonal, total and percentage reduction/gain among them).

use lazylocks::report::{rows_to_table, rows_to_tsv, DiagonalSummary, Row};
use lazylocks::scatter::scatter_plot;

/// Parses `--limit N` (schedule budget) from argv; `default` otherwise.
pub fn limit_from_args(default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--limit")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `measure` over the whole corpus, producing one row per benchmark.
pub fn sweep(measure: impl FnMut(&lazylocks_suite::Benchmark) -> Row) -> Vec<Row> {
    lazylocks_suite::all().iter().map(measure).collect()
}

/// Prints the full figure artefact set.
pub fn print_figure(
    title: &str,
    x_label: &str,
    y_label: &str,
    rows: &[Row],
    limit: usize,
) -> DiagonalSummary {
    println!("==================================================================");
    println!("{title}");
    println!("(schedule limit {limit}; * marks benchmarks that hit the limit,");
    println!(" the paper's underlined ids)");
    println!("==================================================================\n");
    println!("{}", rows_to_table(x_label, y_label, rows));
    println!("{}", scatter_plot(x_label, y_label, rows, 64, 24));
    println!("--- TSV ---\n{}", rows_to_tsv(x_label, y_label, rows));
    let summary = DiagonalSummary::of(rows);
    println!("--- aggregates ---");
    println!(
        "benchmarks below the diagonal (y < x): {}",
        summary.below_diagonal
    );
    println!(
        "benchmarks on the diagonal (y = x): {}",
        summary.on_diagonal
    );
    println!(
        "benchmarks above the diagonal (y > x): {}",
        summary.above_diagonal
    );
    if summary.below_diagonal > 0 {
        println!(
            "reduction among below-diagonal: {} of {} ({:.0}%)",
            summary.reduction_total,
            summary.reduction_base,
            summary.reduction_percent()
        );
    }
    if summary.above_diagonal > 0 {
        println!(
            "gain among above-diagonal: {} extra over {} ({:.0}% more)",
            summary.gain_total,
            summary.gain_base,
            summary.gain_percent()
        );
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_corpus() {
        let rows = sweep(|b| Row {
            id: b.id,
            name: b.name.clone(),
            x: 1,
            y: 1,
            schedules: 0,
            limit_hit: false,
        });
        assert_eq!(rows.len(), 79);
        assert_eq!(rows[0].id, 1);
    }

    #[test]
    fn print_figure_summarises() {
        let rows = vec![
            Row {
                id: 1,
                name: "a".into(),
                x: 10,
                y: 2,
                schedules: 10,
                limit_hit: false,
            },
            Row {
                id: 2,
                name: "b".into(),
                x: 4,
                y: 4,
                schedules: 4,
                limit_hit: true,
            },
        ];
        let s = print_figure("t", "x", "y", &rows, 100);
        assert_eq!(s.below_diagonal, 1);
        assert_eq!(s.on_diagonal, 1);
        assert_eq!(s.reduction_total, 8);
    }
}
