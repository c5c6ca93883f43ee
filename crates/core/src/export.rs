//! Rendering experiment results as Markdown tables — for dropping
//! measured figures straight into reports like EXPERIMENTS.md.

use std::fmt::Write as _;

use crate::experiments::presets::PresetRun;
use crate::experiments::sweep::SweepPoint;
use crate::experiments::videos::VideoRun;

/// Renders a generic table: a header row plus data rows, as GitHub Markdown.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width mismatch");
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

fn summary_cells(
    seconds: f64,
    bitrate: f64,
    psnr: f64,
    td: &vtx_uarch::topdown::TopDown,
) -> Vec<String> {
    vec![
        format!("{:.3}", seconds * 1e3),
        format!("{bitrate:.1}"),
        format!("{psnr:.2}"),
        format!("{:.1}", td.retiring * 100.0),
        format!("{:.1}", td.frontend * 100.0),
        format!("{:.1}", td.bad_speculation * 100.0),
        format!("{:.1}", td.backend() * 100.0),
    ]
}

const SUMMARY_HEADER: [&str; 7] = [
    "time (ms)",
    "kbps",
    "PSNR (dB)",
    "retiring %",
    "FE %",
    "BS %",
    "BE %",
];

/// Sweep points (Figures 3–5) as a Markdown table keyed by (crf, refs).
pub(crate) fn sweep_markdown(points: &[SweepPoint]) -> String {
    let mut header = vec!["crf", "refs"];
    header.extend(SUMMARY_HEADER);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut r = vec![p.crf.to_string(), p.refs.to_string()];
            r.extend(summary_cells(
                p.summary.seconds,
                p.bitrate_kbps,
                p.psnr_db,
                &p.summary.topdown,
            ));
            r
        })
        .collect();
    markdown_table(&header, &rows)
}

/// Preset study (Figure 6) as a Markdown table.
pub(crate) fn presets_markdown(runs: &[PresetRun]) -> String {
    let mut header = vec!["preset"];
    header.extend(SUMMARY_HEADER);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let mut row = vec![r.preset.name().to_owned()];
            row.extend(summary_cells(
                r.summary.seconds,
                r.bitrate_kbps,
                r.psnr_db,
                &r.summary.topdown,
            ));
            row
        })
        .collect();
    markdown_table(&header, &rows)
}

/// Cross-video study (Figure 7) as a Markdown table.
pub(crate) fn videos_markdown(runs: &[VideoRun]) -> String {
    let mut header = vec!["video", "res", "entropy"];
    header.extend(SUMMARY_HEADER);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let mut row = vec![
                r.spec.short_name.clone(),
                r.spec.resolution_label(),
                format!("{:.1}", r.spec.entropy),
            ];
            row.extend(summary_cells(
                r.summary.seconds,
                r.bitrate_kbps,
                r.psnr_db,
                &r.summary.topdown,
            ));
            row
        })
        .collect();
    markdown_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let md = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert!(lines[3].contains("| 3 | 4 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        let _ = markdown_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
