//! Plain-text table and CSV rendering used by the experiment binaries.

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (it is padded or truncated to the header width).
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let mut row: Vec<String> = row.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |row: &[String], widths: &[usize]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a count of bytes with a binary-ish unit the way the paper quotes
/// SRAM sizes (kB / MB with one decimal).
pub fn format_bytes(bytes: f64) -> String {
    if bytes >= 1e6 {
        format!("{:.1} MB", bytes / 1e6)
    } else if bytes >= 1e3 {
        format!("{:.0} kB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["b", "RR size", "time"]);
        t.push_row(vec!["32", "0", "102.4"]);
        t.push_row(vec!["4", "256", "12.8"]);
        let s = t.render();
        assert!(s.contains("RR size"));
        assert!(s.lines().count() >= 4);
        assert_eq!(s.lines().filter(|l| l.contains("12.8")).count(), 1);
        let csv = t.to_csv();
        assert!(csv.starts_with("b,RR size,time\n"));
        assert!(csv.contains("4,256,12.8"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.push_row(vec!["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(format_bytes(512.0), "512 B");
        assert_eq!(format_bytes(64_000.0), "64 kB");
        assert_eq!(format_bytes(6_200_000.0), "6.2 MB");
    }
}
