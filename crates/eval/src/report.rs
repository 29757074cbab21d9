//! Plain-text and CSV table rendering: `trace_report`'s text sink lays out
//! its tables through these helpers.

use std::num::FpCategory;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title printed above the header.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.headers.len());
        self.rows.push(row);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("# {}\n", self.title));
        }
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().max(1) - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with a sensible fixed precision for tables.
pub fn fmt_f64(value: f64) -> String {
    if value.classify() == FpCategory::Zero {
        "0".to_string()
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["workload", "method", "size %"]);
        t.push_row(vec!["late_sender".into(), "avgWave".into(), fmt_f64(3.21)]);
        t.push_row(vec!["sweep3d_32p".into(), "iter_k".into(), fmt_f64(12.0)]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        assert!(text.contains("# Demo"));
        assert!(text.contains("workload"));
        let lines: Vec<&str> = text.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert!(lines[3].starts_with("late_sender"));
    }

    #[test]
    fn float_formatting_scales_precision() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(0.1234), "0.1234");
        assert_eq!(fmt_f64(std::f64::consts::PI), "3.14");
        assert_eq!(fmt_f64(123.456), "123.5");
    }
}
