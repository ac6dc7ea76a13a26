//! ASCII tables and CSV output for the experiment commands.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render as aligned ASCII.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: String = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:width$}", h, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ");
        let _ = writeln!(out, "{line}");
        let _ = writeln!(out, "{}", "-".repeat(line.len()));
        for row in &self.rows {
            let line: String = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ");
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Write the CSV under `results/<name>.csv` (creates the directory).
    pub fn save_csv(&self, name: &str) -> std::io::Result<()> {
        let dir = Path::new("results");
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{name}.csv")), self.to_csv())
    }
}

/// Format `[random, biased]` value pairs the way the paper's tables do.
pub fn pair(random: f64, biased: f64, decimals: usize) -> String {
    format!("[{random:.decimals$}, {biased:.decimals$}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["a", "long_header", "c"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        t.row(&["wide_cell".into(), "x".into(), "y".into()]);
        let s = t.render();
        assert!(s.contains("== T =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows all same width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("T", &["x", "y"]);
        t.row(&["a,b".into(), "q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    fn pair_formats_like_paper() {
        assert_eq!(pair(2.64, 80.62, 2), "[2.64, 80.62]");
        assert_eq!(pair(8.4, 1.0, 1), "[8.4, 1.0]");
    }
}
