//! Report formatting: plain-text tables and CSV emission for the `repro`
//! harness, plus the geometric-mean summaries of Tables 5/6.

pub use graphmaze_metrics::report::geomean;

/// Renders an aligned plain-text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Renders rows as CSV (minimal quoting: fields containing commas or
/// quotes are double-quoted).
pub fn format_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    push_csv_row(&mut out, headers.iter().copied());
    for row in rows {
        push_csv_row(&mut out, row.iter().map(String::as_str));
    }
    out
}

fn push_csv_row<'a>(out: &mut String, cells: impl Iterator<Item = &'a str>) {
    for (i, cell) in cells.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_csv_cell(out, cell);
    }
    out.push('\n');
}

/// Appends one CSV cell to `out`: quoted, with quotes doubled, when it
/// holds a comma, a quote or a newline; verbatim otherwise.
pub fn push_csv_cell(out: &mut String, s: &str) {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        out.push('"');
        out.push_str(&s.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Formats seconds with sensible precision for log-scale comparisons.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.3}", s)
    } else {
        format!("{s:.2e}")
    }
}

/// Formats a slowdown factor like the paper's tables (one decimal).
pub fn fmt_slowdown(x: f64) -> String {
    if !x.is_finite() {
        "oom/fail".to_string()
    } else if x >= 100.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.1}")
    }
}

/// Formats byte counts human-readably.
pub fn fmt_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1} {}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        format_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn csv_escapes() {
        let c = format_csv(&["a", "b"], &[vec!["x,y".into(), "q\"z".into()]]);
        assert_eq!(c, "a,b\n\"x,y\",\"q\"\"z\"\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(1.234), "1.23");
        assert_eq!(fmt_secs(0.01234), "0.012");
        assert_eq!(fmt_slowdown(2.53), "2.5");
        assert_eq!(fmt_slowdown(f64::INFINITY), "oom/fail");
        assert_eq!(fmt_bytes(1536.0), "1.5 KB");
        assert_eq!(fmt_bytes(10.0), "10.0 B");
    }

    #[test]
    fn geomean_reexported() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
