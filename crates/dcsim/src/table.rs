//! Plain-text table rendering for experiment output.
//!
//! Every experiment in the harness ends by printing one of these tables;
//! EXPERIMENTS.md quotes them verbatim, so the renderer keeps columns
//! aligned and stable across runs.

use std::fmt::Write as _;

/// A simple column-aligned table.
///
/// ```
/// use dcsim::table::Table;
///
/// let mut t = Table::new(["k", "switches", "imbalance"]);
/// t.row(["1", "75", "1.92"]);
/// t.row(["3", "225", "1.18"]);
/// let text = t.render();
/// assert!(text.contains("switches"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Append a row. The cell count must match the header count.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Format a float with `prec` decimal places (helper for table cells).
pub fn fnum(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "12345"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "misaligned: {text}");
    }

    #[test]
    #[should_panic(expected = "cells but table has")]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(2.0, 0), "2");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(["a"]);
        assert!(t.is_empty());
        t.row(["1"]);
        assert_eq!(t.len(), 1);
    }
}
