//! Plain-text / CSV rendering of tables and series: `parlo-bench` prints the simulated
//! and the native rows and series of the paper's table and figures through them.

use crate::Series;

/// A simple named-row table (e.g. Table 1: scheduler → burden in µs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    /// Table title.
    pub title: String,
    /// Column headers (the first column is the row label).
    pub columns: Vec<String>,
    /// Rows: a label plus one value per (non-label) column.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        self.rows.push((label.into(), values));
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let label_width = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(
                self.columns.first().map(|c| c.len()).unwrap_or(0),
            ))
            .max()
            .unwrap_or(8)
            .max(8);
        // Header.
        if !self.columns.is_empty() {
            out.push_str(&format!("{:<label_width$}", self.columns[0]));
            for c in &self.columns[1..] {
                out.push_str(&format!(" {:>14}", c));
            }
            out.push('\n');
        }
        for (label, values) in &self.rows {
            out.push_str(&format!("{:<label_width$}", label));
            for v in values {
                out.push_str(&format!(" {:>14.3}", v));
            }
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(label);
            for v in values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Renders several series that share a thread axis as an aligned plain-text table
/// (one row per thread count, one column per series).
pub fn series_to_text(title: &str, series: &[&Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ==\n", title));
    out.push_str(&format!("{:>8}", "threads"));
    for s in series {
        out.push_str(&format!(" {:>18}", s.name));
    }
    out.push('\n');
    let mut threads: Vec<usize> = series.iter().flat_map(|s| s.threads.clone()).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        out.push_str(&format!("{:>8}", t));
        for s in series {
            match s.at(t) {
                Some(v) => out.push_str(&format!(" {:>18.3}", v)),
                None => out.push_str(&format!(" {:>18}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders several series that share a thread axis as CSV.
pub fn series_to_csv(series: &[&Series]) -> String {
    let mut out = String::from("threads");
    for s in series {
        out.push(',');
        out.push_str(&s.name);
    }
    out.push('\n');
    let mut threads: Vec<usize> = series.iter().flat_map(|s| s.threads.clone()).collect();
    threads.sort_unstable();
    threads.dedup();
    for t in threads {
        out.push_str(&t.to_string());
        for s in series {
            out.push(',');
            if let Some(v) = s.at(t) {
                out.push_str(&format!("{v}"))
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_text_and_csv() {
        let mut t = Table::new("Table 1: scheduler burden", &["scheduler", "d (us)"]);
        t.push_row("Fine-grain tree", vec![5.67]);
        t.push_row("Cilk", vec![68.80]);
        let text = t.to_text();
        assert!(text.contains("Table 1"));
        assert!(text.contains("Fine-grain tree"));
        assert!(text.contains("5.670"));
        let csv = t.to_csv();
        assert!(csv.starts_with("scheduler,d (us)"));
        assert!(csv.contains("Cilk,68.8"));
    }

    #[test]
    fn series_rendering_merges_thread_axes() {
        let a = Series::new("fine", vec![1, 2, 4], vec![1.0, 2.0, 3.9]);
        let b = Series::new("omp", vec![1, 4], vec![1.0, 3.1]);
        let text = series_to_text("Figure 2 (left)", &[&a, &b]);
        assert!(text.contains("threads"));
        assert!(text.contains("fine"));
        assert!(text.contains("omp"));
        // Thread 2 exists only in `a`; the other column shows a dash.
        assert!(text
            .lines()
            .any(|l| l.trim_start().starts_with('2') && l.contains('-')));
        let csv = series_to_csv(&[&a, &b]);
        assert!(csv.starts_with("threads,fine,omp"));
        assert_eq!(csv.lines().count(), 4);
    }
}
