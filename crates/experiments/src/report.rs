//! Text-table formatting shared by the experiment runners.

use visionsim_core::stats::BoxplotSummary;

/// Render a simple aligned text table.
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&line(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// Format a boxplot summary in a compact figure-caption style.
pub fn boxplot_cell(b: &BoxplotSummary) -> String {
    format!(
        "p5={:.2} med={:.2} p95={:.2} mean={:.2}",
        b.p5, b.median, b.p95, b.mean
    )
}

/// Format mean ± std.
pub fn pm(mean: f64, std: f64) -> String {
    format!("{mean:.2}±{std:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            "T",
            &["a".into(), "bbbb".into()],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[1].contains("bbbb"));
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn pm_formats() {
        assert_eq!(pm(6.55, 0.11), "6.55±0.11");
    }
}
