//! Plain-text table rendering for experiment output (the `repro` binary
//! prints the same rows the paper's tables and figures report).

use std::fmt::Write as _;

/// A simple fixed-width text table with an optional title.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are stringified already).
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match headers");
        self.rows.push(cells);
    }

    /// Appends one row per `(name, values)`, each value rendered with
    /// `fmt`, then (after at least one row) an "Average" row of the
    /// column means.
    pub fn add_rows_and_average<S: Into<String>, const N: usize>(
        &mut self,
        rows: impl IntoIterator<Item = (S, [f64; N])>,
        fmt: fn(f64) -> String,
    ) {
        let mut sums = [0.0f64; N];
        let mut n = 0usize;
        for (name, values) in rows {
            for (s, v) in sums.iter_mut().zip(values) {
                *s += v;
            }
            n += 1;
            self.add_row(std::iter::once(name.into()).chain(values.map(fmt)).collect());
        }
        if n > 0 {
            let n = n as f64;
            let averages = sums.map(|s| fmt(s / n));
            self.add_row(std::iter::once("Average".to_string()).chain(averages).collect());
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.headers.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned monospace text.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "== {} ==", self.title);
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<width$}", h, width = widths[i] + 2);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<width$}", cell, width = widths[i] + 2);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }

    /// Extracts `(first-column label, value)` pairs from a numeric
    /// column, skipping non-numeric cells — the input for
    /// [`bar_chart`].
    pub fn numeric_column(&self, col: usize) -> Vec<(String, f64)> {
        self.rows
            .iter()
            .filter_map(|row| {
                let v: f64 = row.get(col)?.parse().ok()?;
                Some((row[0].clone(), v))
            })
            .collect()
    }

    /// Renders the table as CSV (title omitted).
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Renders a horizontal ASCII bar chart from `(label, value)` pairs.
/// Negative values render to the left of the axis. Used by the `repro`
/// binary's `--bars` mode.
///
/// # Panics
/// Panics if `width` is zero.
pub fn bar_chart(items: &[(String, f64)], width: usize) -> String {
    assert!(width > 0, "chart width must be positive");
    let max_abs = items
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in items {
        let bar_len = ((value.abs() / max_abs) * width as f64).round() as usize;
        let bar: String = std::iter::repeat_n('#', bar_len).collect();
        let _ = writeln!(
            out,
            "{label:<label_w$}  {}{bar} {value:.1}",
            if *value < 0.0 { "-" } else { "" },
        );
    }
    out
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float as an integer-rounded count.
pub fn f0(x: f64) -> String {
    format!("{x:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.add_row(vec!["a".into(), "1".into()]);
        t.add_row(vec!["longer-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("longer-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "title, header, rule, two rows");
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("", &["a", "b"]);
        t.add_row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn numeric_column_extracts_parsable_cells() {
        let mut t = Table::new("", &["name", "x", "y"]);
        t.add_row(vec!["a".into(), "1.5".into(), "2".into()]);
        t.add_row(vec!["b".into(), "-".into(), "3".into()]);
        assert_eq!(t.numeric_column(1), vec![("a".to_string(), 1.5)]);
        assert_eq!(t.numeric_column(2).len(), 2);
        assert_eq!(t.width(), 3);
    }

    #[test]
    fn bar_chart_scales_and_signs() {
        let items = vec![("up".to_string(), 40.0), ("down".to_string(), -20.0)];
        let chart = bar_chart(&items, 10);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].matches('#').count() == 10, "max value fills the width");
        assert!(lines[1].contains('-') && lines[1].matches('#').count() == 5);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_chart_panics() {
        bar_chart(&[("a".into(), 1.0)], 0);
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f1(4.8359), "4.8");
        assert_eq!(f2(4.8359), "4.84");
        assert_eq!(f0(3.6), "4");
    }
}
