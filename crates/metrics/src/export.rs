//! CSV export for plotting.
//!
//! The `strings-sim` experiments print aligned text tables; downstream users
//! who want to *plot* (utilization timelines à la Figure 2, completion-time
//! distributions, speedup bars) can export the raw series as CSV. No
//! external CSV crate: the format here is plain `,`-separated with minimal
//! quoting, which suffices for numeric simulation data.

use sim_core::telemetry::UtilizationTracker;

/// Quote a CSV field if it contains a comma, quote, or newline.
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Render rows of string fields as CSV with a header row.
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|h| field(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        debug_assert_eq!(row.len(), header.len(), "CSV row width mismatch");
        out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Export a utilization timeline as `(seconds, level)` CSV — one row per
/// piecewise-constant step (Figure 2-style series).
pub fn timeline_csv(name: &str, tracker: &UtilizationTracker) -> String {
    let rows: Vec<Vec<String>> = tracker
        .as_seconds_series()
        .into_iter()
        .map(|(t, level)| vec![name.to_string(), format!("{t:.6}"), format!("{level:.4}")])
        .collect();
    csv(&["signal", "seconds", "level"], &rows)
}

/// Export per-slot completion times (`slot,label,mean_seconds,requests`).
pub fn completions_csv(labels: &[String], means_ns: &[f64], counts: &[u64]) -> String {
    assert_eq!(labels.len(), means_ns.len());
    assert_eq!(labels.len(), counts.len());
    let rows: Vec<Vec<String>> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            vec![
                i.to_string(),
                l.clone(),
                format!("{:.6}", means_ns[i] / 1e9),
                counts[i].to_string(),
            ]
        })
        .collect();
    csv(&["slot", "label", "mean_completion_s", "requests"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_pass_through() {
        let out = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(out, "a,b\n1,2\n");
    }

    #[test]
    fn fields_with_commas_and_quotes_are_escaped() {
        let out = csv(&["label"], &[vec!["DC, the \"fast\" one".into()]]);
        assert_eq!(out, "label\n\"DC, the \"\"fast\"\" one\"\n");
    }

    #[test]
    fn timeline_rows_match_tracker_steps() {
        let mut t = UtilizationTracker::new();
        t.record(1_000_000_000, 0.5);
        t.record(2_000_000_000, 0.0);
        let out = timeline_csv("compute", &t);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 steps
        assert_eq!(lines[0], "signal,seconds,level");
        assert!(lines[1].starts_with("compute,1.000000,0.5000"));
    }

    #[test]
    fn completions_csv_shape() {
        let out = completions_csv(
            &["MC".to_string(), "DC".to_string()],
            &[5.0e9, 30.0e9],
            &[10, 5],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "0,MC,5.000000,10");
        assert_eq!(lines[2], "1,DC,30.000000,5");
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        completions_csv(&["a".to_string()], &[1.0, 2.0], &[1]);
    }
}
