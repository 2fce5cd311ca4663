//! Text-table and CSV rendering for the experiment binaries.

use crate::runner::SuiteMatrix;
use spt_ooo::CycleStack;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Renders a Figure-7-style table: one row per workload, one column per
/// configuration, cells = execution time normalized to UnsafeBaseline.
pub fn render_fig7(m: &SuiteMatrix, mean_rows: &[(&str, Vec<usize>)]) -> String {
    let mut out = String::new();
    let wname = 12usize;
    let col = 22usize;
    let _ = write!(out, "{:<wname$}", "benchmark");
    for c in &m.configs {
        let _ = write!(out, "{c:>col$}");
    }
    let _ = writeln!(out);
    for w in 0..m.workloads.len() {
        let _ = write!(out, "{:<wname$}", m.workloads[w]);
        for c in 0..m.configs.len() {
            let _ = write!(out, "{:>col$.3}", m.normalized(w, c));
        }
        let _ = writeln!(out);
    }
    for (label, subset) in mean_rows {
        let _ = write!(out, "{label:<wname$}");
        for c in 0..m.configs.len() {
            let _ = write!(out, "{:>col$.3}", m.mean_over(c, subset));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the Figure-7 slowdown of every non-baseline cell as a
/// head-of-ROB cycle-stack difference against UnsafeBaseline: one row per
/// (workload, config), one column per class. The classes sum exactly to
/// the `delta` column.
pub fn render_stack_deltas(m: &SuiteMatrix) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<12} {:<22} {:>9} {:>9}", "benchmark", "config", "cycles", "delta");
    for label in CycleStack::LABELS {
        let _ = write!(out, " {label:>9}");
    }
    let _ = writeln!(out);
    let base = m.baseline_index();
    for w in 0..m.workloads.len() {
        for c in (0..m.configs.len()).filter(|&c| c != base) {
            let row = &m.rows[w][c];
            let delta = row.cycles as i64 - m.rows[w][base].cycles as i64;
            let _ = write!(
                out,
                "{:<12} {:<22} {:>9} {delta:>+9}",
                m.workloads[w], m.configs[c], row.cycles
            );
            for (_, d) in m.stack_delta(w, c) {
                let _ = write!(out, " {d:>+9}");
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Writes a matrix as CSV (normalized execution times).
///
/// # Errors
///
/// Returns any I/O error from creating the directory or file.
pub fn write_fig7_csv(m: &SuiteMatrix, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut s = String::from("benchmark");
    for c in &m.configs {
        s.push(',');
        s.push_str(c);
    }
    s.push('\n');
    for w in 0..m.workloads.len() {
        s.push_str(&m.workloads[w]);
        for c in 0..m.configs.len() {
            let _ = write!(s, ",{:.6}", m.normalized(w, c));
        }
        s.push('\n');
    }
    fs::write(path, s)
}

/// Renders an ASCII bar chart of one configuration's normalized execution
/// time per workload (quick visual check of a Figure-7 column).
pub fn render_bars(m: &SuiteMatrix, config: &str, width: usize) -> String {
    let Some(c) = m.config_index(config) else {
        return format!("unknown configuration `{config}`\n");
    };
    let max = (0..m.workloads.len()).map(|w| m.normalized(w, c)).fold(1.0f64, f64::max);
    let mut out = String::new();
    let _ = writeln!(out, "{config} (normalized to UnsafeBaseline, '|' = 1.0):");
    for w in 0..m.workloads.len() {
        let v = m.normalized(w, c);
        let bar = ((v / max) * width as f64).round() as usize;
        let one = ((1.0 / max) * width as f64).round() as usize;
        let mut line: Vec<char> = std::iter::repeat_n('#', bar.max(1)).collect();
        while line.len() <= one {
            line.push(' ');
        }
        if one < line.len() {
            line[one] = '|';
        }
        let _ = writeln!(
            out,
            "  {:<12} {:>6.2} {}",
            m.workloads[w],
            v,
            line.into_iter().collect::<String>()
        );
    }
    out
}

/// Formats a ratio like the paper ("3.6x").
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats an overhead percentage relative to 1.0 ("45%").
pub fn overhead_pct(normalized: f64) -> String {
    format!("{:.1}%", (normalized - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{suite_matrix, RunRow, SweepOptions, BASELINE_CONFIG};
    use spt_core::ThreatModel;

    fn tiny_matrix() -> SuiteMatrix {
        let mk = |cycles: u64, config: &str| RunRow {
            workload: "w".into(),
            config: config.into(),
            threat: ThreatModel::Spectre,
            cycles,
            retired: 100,
            stats: Default::default(),
            cycle_stack: CycleStack { retiring: 60, memory: cycles - 60, ..Default::default() },
        };
        SuiteMatrix::new(
            ThreatModel::Spectre,
            vec![BASELINE_CONFIG.into(), "SecureBaseline".into()],
            vec!["w".into()],
            vec![vec![mk(100, BASELINE_CONFIG), mk(250, "SecureBaseline")]],
        )
    }

    #[test]
    fn normalization_and_rendering() {
        let m = tiny_matrix();
        assert!((m.normalized(0, 1) - 2.5).abs() < 1e-12);
        let table = render_fig7(&m, &[("mean", vec![0])]);
        assert!(table.contains("2.500"));
        assert!(table.contains("mean"));
    }

    #[test]
    fn stack_deltas_render_against_the_baseline() {
        let table = render_stack_deltas(&tiny_matrix());
        assert!(table.lines().next().unwrap().ends_with("core"));
        assert_eq!(table.lines().count(), 2, "baseline row is left out:\n{table}");
        assert!(table.contains("SecureBaseline"));
        assert!(table.contains("+150"), "memory class carries the delta:\n{table}");
    }

    #[test]
    fn csv_roundtrip() {
        let m = tiny_matrix();
        let dir = std::env::temp_dir().join("spt_bench_test");
        let path = dir.join("fig7.csv");
        write_fig7_csv(&m, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("benchmark,UnsafeBaseline,SecureBaseline"));
        assert!(text.contains("2.5"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn bars_render() {
        let m = tiny_matrix();
        let bars = render_bars(&m, "SecureBaseline", 20);
        assert!(bars.contains("w"));
        assert!(bars.contains('#'));
        assert!(render_bars(&m, "nope", 20).contains("unknown"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(3.6), "3.60x");
        assert_eq!(overhead_pct(1.45), "45.0%");
    }

    #[test]
    fn geomean_between_min_and_max() {
        let suite = spt_workloads::ct_suite(spt_workloads::Scale::Bench);
        let m = suite_matrix(ThreatModel::Spectre, &suite[..1], SweepOptions::new(500))
            .expect("tiny sweep runs to completion");
        for c in 0..m.configs.len() {
            let g = m.geomean_over(c, &[0]);
            assert!((g - m.normalized(0, c)).abs() < 1e-9);
        }
    }
}
