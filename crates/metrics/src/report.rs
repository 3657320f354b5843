//! Plain-text report rendering.
//!
//! The `strings-sim` experiments print the same rows/series the paper's
//! figures plot; [`Table`] keeps that output aligned and diff-friendly for
//! EXPERIMENTS.md.

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i] - cell.len()));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format a speedup as `3.10x`.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a fraction as a percentage, `91.3%`.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Render a one-line ASCII sparkline of a series (used for utilization
/// timelines in the Figure 2 binary).
///
/// Degenerate inputs are handled explicitly rather than by accident of
/// float casts: non-finite samples (NaN, ±inf) render as a blank cell
/// and are excluded from the min/max normalization; a flat or
/// single-value series renders at the baseline glyph; an empty series
/// renders as the empty string.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite = values.iter().copied().filter(|v| v.is_finite());
    let min = finite.clone().fold(f64::INFINITY, f64::min);
    let max = finite.fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                return ' ';
            }
            if span <= 0.0 {
                // Flat (or single-sample) series: everything is the baseline.
                return GLYPHS[0];
            }
            let idx = (((v - min) / span) * 7.0).round() as usize;
            GLYPHS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["policy", "speedup"]);
        t.row(vec!["GRR", "2.16x"]);
        t.row(vec!["GWtMin-Strings", "4.73x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("policy"));
        assert!(lines[2].starts_with("GRR"));
        // The speedup column starts at the same offset in every row.
        let col = lines[0].find("speedup").unwrap();
        assert_eq!(&lines[3][col..col + 5], "4.73x");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_speedup(3.0999), "3.10x");
        assert_eq!(fmt_pct(0.913), "91.3%");
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[2], '█');
    }

    #[test]
    fn sparkline_constant_series() {
        let s = sparkline(&[0.7, 0.7, 0.7]);
        assert_eq!(s.chars().count(), 3);
        // A flat series sits on the baseline, not an arbitrary glyph.
        assert_eq!(s, "▁▁▁");
    }

    #[test]
    fn sparkline_single_value_and_empty() {
        assert_eq!(sparkline(&[5.0]), "▁");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_non_finite_samples_render_blank() {
        let s = sparkline(&[0.0, f64::NAN, 1.0, f64::INFINITY]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars.len(), 4);
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], ' ');
        assert_eq!(chars[2], '█'); // normalized over finite samples only
        assert_eq!(chars[3], ' ');
    }

    #[test]
    fn sparkline_all_nan() {
        assert_eq!(sparkline(&[f64::NAN, f64::NAN]), "  ");
    }
}
