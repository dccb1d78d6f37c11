//! The report module (§2.2): "provides both human-readable texts and
//! visualized graphs".
//!
//! A [`Report`] is a titled table plus free-form notes; `render()`
//! produces the aligned text form, and `to_dot(...)` (via [`pag::dot`])
//! renders the graph form of a set on its PAG.

use pag::dot::{to_dot, DotOptions};

use crate::set::VertexSet;

/// A structured analysis report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Report title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes appended after the table (conclusions, verdicts).
    pub notes: Vec<String>,
}

impl Report {
    /// New empty report.
    pub fn new(title: impl Into<String>) -> Self {
        Report {
            title: title.into(),
            ..Default::default()
        }
    }

    /// Set the column headers.
    pub fn with_columns(mut self, columns: &[&str]) -> Self {
        self.columns = columns.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Append a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        if !self.columns.is_empty() {
            // Column widths over header + rows.
            let ncol = self.columns.len();
            let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
            for row in &self.rows {
                for (i, cell) in row.iter().enumerate().take(ncol) {
                    widths[i] = widths[i].max(cell.len());
                }
            }
            let fmt_row = |cells: &[String]| -> String {
                let mut line = String::new();
                for (i, w) in widths.iter().enumerate() {
                    let empty = String::new();
                    let cell = cells.get(i).unwrap_or(&empty);
                    line.push_str(&format!("{:<width$}  ", cell, width = w));
                }
                line.trim_end().to_string()
            };
            out.push_str(&fmt_row(&self.columns));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
            out.push('\n');
            for row in &self.rows {
                out.push_str(&fmt_row(row));
                out.push('\n');
            }
        }
        for note in &self.notes {
            out.push_str(&format!("* {note}\n"));
        }
        out
    }

    /// Render the graph view of a vertex set (DOT), restricted to the
    /// set's members.
    pub fn set_to_dot(set: &VertexSet) -> String {
        let opts = DotOptions {
            restrict_to: Some(set.ids.clone()),
            show_props: true,
            ..DotOptions::default()
        };
        to_dot(set.graph.pag(), &opts)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("hotspots").with_columns(&["name", "time"]);
        r.push_row(vec!["kernel_with_long_name".into(), "1.5".into()]);
        r.push_row(vec!["k".into(), "10.25".into()]);
        r.note("2 hotspots found");
        let text = r.render();
        assert!(text.starts_with("== hotspots =="));
        assert!(text.contains("name"));
        assert!(text.contains("kernel_with_long_name"));
        assert!(text.contains("* 2 hotspots found"));
        // Alignment: both data lines start the second column at the same
        // offset.
        let lines: Vec<&str> = text.lines().collect();
        let h = lines[1].find("time").unwrap();
        assert_eq!(lines[3].find("1.5").unwrap(), h);
        assert_eq!(lines[4].find("10.25").unwrap(), h);
    }

    #[test]
    fn empty_report_renders_title_only() {
        let r = Report::new("empty");
        assert_eq!(r.render(), "== empty ==\n");
        assert_eq!(format!("{r}"), r.render());
    }
}
