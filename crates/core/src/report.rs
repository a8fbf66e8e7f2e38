//! Fixed-width table and CSV rendering for the reproduction harness.
//!
//! The `repro` binary prints paper-style tables to stdout and writes the
//! same data as CSV under `results/`; this module holds the shared
//! formatting machinery so every experiment renders consistently.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple titled table with homogeneous string cells.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; its length must match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders as CSV (headers + rows; title as a `#` comment line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // column widths
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);

        writeln!(f, "{}", self.title)?;
        writeln!(f, "{}", "=".repeat(total.max(self.title.len())))?;
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{:>width$}", h, width = widths[i])?;
        }
        writeln!(f)?;
        writeln!(f, "{}", "-".repeat(total.max(self.title.len())))?;
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{:>width$}", c, width = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Formats seconds with no decimals (paper tables print whole seconds).
pub fn secs0(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.0}s")
    } else {
        "∞".to_string()
    }
}

/// Formats a ratio as a signed percentage with one decimal.
pub fn pct1(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Formats a plain float with the given number of decimals.
pub fn fixed(x: f64, decimals: usize) -> String {
    if x.is_finite() {
        format!("{x:.decimals$}")
    } else {
        "∞".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Demo", &["week", "EJ", "σJ"]);
        t.push_row(vec!["2006-IX".into(), "471s".into(), "331s".into()]);
        t.push_row(vec!["2008-03".into(), "419s".into(), "269s".into()]);
        let s = t.to_string();
        assert!(s.contains("Demo"));
        assert!(s.contains("2006-IX"));
        // headers padded to equal width per column
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines.len() >= 5);
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_roundtrips_cells() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("# T\n"));
        assert!(csv.contains("a,b\n"));
        assert!(csv.contains("1,2\n"));
    }

    #[test]
    fn write_csv_creates_dirs() {
        // unique per-process, per-call directory: concurrent test runs
        // (parallel `cargo test` invocations of different targets) must not
        // collide on a shared temp path
        static UNIQUE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gridstrat_report_test_{}_{}",
            std::process::id(),
            UNIQUE.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new("T", &["a"]);
        t.push_row(vec!["x".into()]);
        let path = dir.join("nested/out.csv");
        t.write_csv(&path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs0(470.6), "471s");
        assert_eq!(secs0(f64::INFINITY), "∞");
        assert_eq!(pct1(0.071), "+7.1%");
        assert_eq!(fixed(1.234, 2), "1.23");
    }
}
