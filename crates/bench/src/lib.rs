#![warn(missing_docs)]

//! Shared reporting helpers for the benchmark harness.
//!
//! Every table and figure of the paper has a bench target in `benches/`; each
//! prints the same rows/series the paper reports (in simulated time) and a
//! short interpretation line comparing the measured *shape* to the paper's
//! claim. `EXPERIMENTS.md` records the paper-vs-measured comparison.

use std::fmt::Display;

pub mod json;
pub mod mailboxes;

/// Print a Markdown-style table.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n## {title}\n");
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = head.iter().map(|h| h.len()).collect();
    for row in &body {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&head);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in &body {
        line(row);
    }
}

/// Print the takeaway line comparing measurement to the paper's claim.
pub fn takeaway(paper: &str, measured: &str) {
    println!("\npaper:    {paper}");
    println!("measured: {measured}");
}

/// Format a ratio to two decimals with an `x` suffix.
pub fn ratio(num: f64, den: f64) -> String {
    format!("{:.2}x", num / den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(3.0, 2.0), "1.50x");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".to_string(), "2".to_string()]],
        );
        takeaway("x", "y");
    }
}
