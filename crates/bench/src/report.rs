//! Text-table and CSV rendering of every paper artifact.
//!
//! Each `render_*` section function returns the exact text `paper` prints
//! for one artifact, read from the rows of one [`crate::paper_sweep`].

use crate::runner::{RunRow, SuiteMatrix, ABLATION_WIDTHS};
use spt_core::{Config, ThreatModel, UntaintKind};
use spt_ooo::CycleStack;
use spt_workloads::Workload;
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

/// The full-SPT column every per-design artifact reads.
const SPT_FULL: &str = "SPT{Bwd,ShadowL1}";

/// Column index of a Table-2 configuration.
fn column(m: &SuiteMatrix, name: &str) -> usize {
    m.config_index(name).unwrap_or_else(|| panic!("Table 2 has no {name} column"))
}

/// Figure 7 for one threat model: the normalized table with its means,
/// the full-SPT bars, and the cycle-stack deltas.
pub fn render_figure7(m: &SuiteMatrix, workloads: &[Workload], seed: u64) -> String {
    let spec = m.spec_indices(workloads);
    let ct = m.ct_indices(workloads);
    let all: Vec<usize> = (0..m.workloads.len()).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nFigure 7 — execution time normalized to UnsafeBaseline ({} model, seed {seed})\n",
        m.threat
    );
    let _ = writeln!(
        out,
        "{}",
        render_fig7(m, &[("avg(SPEC)", spec), ("avg(CT)", ct), ("avg(all)", all)])
    );
    let _ = writeln!(out, "{}", render_bars(m, SPT_FULL, 40));
    let _ = writeln!(
        out,
        "Cycle-stack difference against UnsafeBaseline, cycles by head-of-ROB class \
         (classes sum exactly to delta)\n"
    );
    let _ = writeln!(out, "{}", render_stack_deltas(m));
    out
}

/// The §9.2 headline numbers of every matrix, then the paper's values to
/// compare against.
pub fn render_headline(matrices: &[SuiteMatrix], workloads: &[Workload], seed: u64) -> String {
    let mut out = String::new();
    for m in matrices {
        let all: Vec<usize> = (0..m.workloads.len()).collect();
        let ct = m.ct_indices(workloads);
        let secure = column(m, "SecureBaseline");
        let fwd = column(m, "SPT{Fwd,NoShadowL1}");
        let bwd = column(m, "SPT{Bwd,NoShadowL1}");
        let full = column(m, SPT_FULL);
        let smem = column(m, "SPT{Bwd,ShadowMem}");
        let ideal = column(m, "SPT{Ideal,ShadowMem}");
        let stt = column(m, "STT");

        let mean = |c: usize| m.mean_over(c, &all);
        let oh = |c: usize| mean(c) - 1.0;
        let pts = |a: usize, b: usize| (mean(a) - mean(b)) * 100.0;
        let _ = writeln!(
            out,
            "\n=== Headline numbers, {} model (paper §9.2; seed {seed}) ===",
            m.threat
        );
        let mut line = |label: &str, value: String| {
            let _ = writeln!(out, "{label:<45}: {value}");
        };
        line("SPT{Bwd,ShadowL1} overhead vs UnsafeBaseline", overhead_pct(mean(full)));
        line("SecureBaseline overhead vs UnsafeBaseline", overhead_pct(mean(secure)));
        line("overhead reduction, SPT vs SecureBaseline", ratio(oh(secure) / oh(full).max(1e-9)));
        line("overhead reduction, Fwd-only vs SecureBase", ratio(oh(secure) / oh(fwd).max(1e-9)));
        line("backward untainting gain (Fwd -> Bwd)", format!("{:+.1} pts", pts(fwd, bwd)));
        line("shadow-L1 gain (Bwd -> ShadowL1)", format!("{:+.1} pts", pts(bwd, full)));
        line("shadow-mem gain (ShadowL1 -> ShadowMem)", format!("{:+.1} pts", pts(full, smem)));
        line(
            "ideal-propagation gain (ShadowMem -> Ideal)",
            format!("{:+.1} pts", pts(smem, ideal)),
        );
        line("extra overhead vs STT (scope cost)", format!("{:+.1} pts", pts(full, stt)));
        let ct_secure = m.mean_over(secure, &ct);
        let ct_full = m.mean_over(full, &ct);
        line("constant-time kernels, SecureBaseline", format!("{ct_secure:.2}x"));
        line("constant-time kernels, SPT", format!("{ct_full:.2}x"));
        line("CT overhead reduction", ratio((ct_secure - 1.0) / (ct_full - 1.0).max(1e-9)));
    }
    out.push_str(
        "\n(Compare against paper §9.2: 45%/11% SPT overhead, 3.6x/3x vs SecureBaseline,\n \
         3.1x/1.9x for Fwd-only, CT kernels 2.8x -> 1.10x = 18x reduction,\n \
         +26.1/+3.3 pts vs STT in the Futuristic/Spectre models respectively.)\n",
    );
    out
}

/// Figure 8: the untaint-event breakdown of full SPT per workload, one row
/// per matrix (F = Futuristic, S = Spectre).
pub fn render_fig8(matrices: &[SuiteMatrix], budget: u64, seed: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 8 — untaint-event breakdown for {SPT_FULL} (% of events)");
    let _ = writeln!(
        out,
        "F = Futuristic model, S = Spectre model; budget {budget} retired, seed {seed}\n"
    );
    let _ = write!(out, "{:<14}{:>2}", "benchmark", "");
    for k in UntaintKind::ALL {
        let _ = write!(out, "{:>14}", k.label());
    }
    let _ = writeln!(out, "{:>12}", "total");
    let Some(first) = matrices.first() else { return out };
    for (w, name) in first.workloads.iter().enumerate() {
        for m in matrices {
            let events = &m.rows[w][column(m, SPT_FULL)].stats.spt.events;
            let tag = match m.threat {
                ThreatModel::Futuristic => "F",
                ThreatModel::Spectre => "S",
            };
            let total = events.total().max(1);
            let _ = write!(out, "{name:<14}{tag:>2}");
            for k in UntaintKind::ALL {
                let pct = 100.0 * events[k] as f64 / total as f64;
                let _ = write!(out, "{pct:>13.1}%");
            }
            let _ = writeln!(out, "{:>12}", events.total());
        }
    }
    out
}

/// Figure 9: for `SPT{Ideal,ShadowMem}` (Futuristic) on the SPEC proxies,
/// the share of untainting cycles that untaint at most N = 1..10
/// registers.
pub fn render_fig9(m: &SuiteMatrix, workloads: &[Workload], budget: u64, seed: u64) -> String {
    let ideal = column(m, "SPT{Ideal,ShadowMem}");
    let spec = m.spec_indices(workloads);
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9 — % of untainting cycles untainting at most N registers");
    let _ = writeln!(
        out,
        "(SPT{{Ideal,ShadowMem}}, Futuristic model, SPEC proxies; budget {budget}, seed {seed})\n"
    );
    let _ = write!(out, "{:<14}", "benchmark");
    for n in 1..=10 {
        let _ = write!(out, "{:>8}", format!("<={n}"));
    }
    let _ = writeln!(out);
    let mut avg = [0.0f64; 10];
    for &w in &spec {
        let _ = write!(out, "{:<14}", m.workloads[w]);
        for n in 1..=10usize {
            let cdf = 100.0 * m.rows[w][ideal].stats.spt.cdf_at_most(n);
            avg[n - 1] += cdf / spec.len() as f64;
            let _ = write!(out, "{cdf:>8.1}");
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<14}", "average");
    for v in avg {
        let _ = write!(out, "{v:>8.1}");
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "\n=> {:.1}% of untainting cycles untaint at most 3 registers — the paper picks\n   \
         a broadcast width of 3 as the coverage/complexity trade-off (§9.4).",
        avg[2]
    );
    out
}

/// The §6.3 protection-policy ablation: full SPT with delayed execution
/// (the matrix's column) against SDO-style oblivious execution (`sdo`, one
/// row per workload), both normalized to UnsafeBaseline.
pub fn render_sdo(m: &SuiteMatrix, sdo: &[RunRow], budget: u64, seed: u64) -> String {
    let full = column(m, SPT_FULL);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Protection-policy ablation — Futuristic model, normalized to UnsafeBaseline"
    );
    let _ = writeln!(out, "(budget {budget} retired, seed {seed})\n");
    let _ = writeln!(
        out,
        "{:<14}{:>14}{:>14}{:>22}",
        "benchmark", "SPT(delay)", "SPT+SDO", "oblivious better?"
    );
    let (mut sum_d, mut sum_o) = (0.0, 0.0);
    for (w, row) in sdo.iter().enumerate() {
        let delay = m.normalized(w, full);
        let obliv = row.cycles as f64 / m.rows[w][m.baseline_index()].cycles as f64;
        sum_d += delay;
        sum_o += obliv;
        let better = if obliv < delay - 0.005 { "yes" } else { "" };
        let _ = writeln!(out, "{:<14}{delay:>14.3}{obliv:>14.3}{better:>22}", m.workloads[w]);
    }
    let n = sdo.len() as f64;
    let _ = writeln!(out, "{:<14}{:>14.3}{:>14.3}", "average", sum_d / n, sum_o / n);
    out.push_str(
        "\nSDO trades transmitter stalls for worst-case-latency oblivious accesses:\n\
         it wins when delays dominate (gather-heavy code) and loses when the\n\
         delayed loads would have hit the cache quickly anyway.\n",
    );
    out
}

/// The §9.4 broadcast-width ablation: full SPT (Futuristic) at every
/// width, normalized to the widest. `widths` holds each ablated workload's
/// suite index and its rows at [`ABLATION_WIDTHS`]; the Table-1 width is
/// the matrix's own column.
pub fn render_widths(
    m: &SuiteMatrix,
    widths: &[(usize, Vec<RunRow>)],
    budget: u64,
    seed: u64,
) -> String {
    let full = column(m, SPT_FULL);
    let default = Config::DEFAULT_BROADCAST_WIDTH;
    let mut header: Vec<usize> = ABLATION_WIDTHS.iter().copied().chain([default]).collect();
    header.sort_unstable();
    let mut out = String::new();
    let _ = writeln!(out, "Broadcast-width ablation — {SPT_FULL}, Futuristic model");
    let _ = writeln!(
        out,
        "cells: execution time normalized to width={}; budget {budget} retired, seed {seed}\n",
        header[header.len() - 1]
    );
    let _ = write!(out, "{:<14}", "benchmark");
    for w in &header {
        let _ = write!(out, "{:>10}", format!("W={w}"));
    }
    let _ = writeln!(out, "{:>12}", format!("deferred@{default}"));
    for (w, rows) in widths {
        let at_default = &m.rows[*w][full];
        let mut cells: Vec<&RunRow> = rows.iter().chain([at_default]).collect();
        cells.sort_by_key(|r| r.broadcast_width);
        let base = cells[cells.len() - 1].cycles as f64;
        let _ = write!(out, "{:<14}", m.workloads[*w]);
        for r in cells {
            let _ = write!(out, "{:>10.3}", r.cycles as f64 / base);
        }
        let _ = writeln!(out, "{:>12}", at_default.stats.spt.broadcasts_deferred);
    }
    let _ = writeln!(
        out,
        "\n(Expect width {default} to be within noise of unbounded width — paper §9.4.)"
    );
    out
}

/// Paper Table 3: the qualitative taxonomy of prior hardware mitigations
/// for speculative execution attacks. Static: it records the literature
/// survey, not a measurement.
pub fn render_table3() -> String {
    const ALL_SPEC: &str = "Spec/Non-spec accessed data";
    const SPEC: &str = "Spec accessed data";
    const ANNOTATES: &str = "no, user annotates secrets";
    let rows: [(&str, &str, &str, &str, &str); 17] = [
        ("InvisiSpec [76]", ALL_SPEC, "Cache-based", "CC, ST", "yes"),
        ("SafeSpec [39]", ALL_SPEC, "Cache-based", "CC, ST", "yes"),
        ("DAWG [40]", ALL_SPEC, "Cache-based", "CC, ST", "yes"),
        ("Delay-on-miss [59]", ALL_SPEC, "Cache-based", "CC, ST", "yes"),
        ("Cond. Spec. [44]", ALL_SPEC, "Cache-based", "CC, ST", "yes"),
        ("MuonTrap [7]", ALL_SPEC, "Cache-based", "CC, ST", "yes"),
        ("CleanupSpec [58]", ALL_SPEC, "Cache-based", "CC, ST", "yes"),
        ("CSF [69]", ALL_SPEC, "Cache-based", "CC, ST", ANNOTATES),
        ("MI6 [18]", ALL_SPEC, "All", "CC, ST", "yes"),
        ("ConTExT [61]", ALL_SPEC, "All", "CC, ST, SMT", ANNOTATES),
        ("OISA [81]", ALL_SPEC, "All", "CC, ST, SMT", ANNOTATES),
        ("STT [83]", SPEC, "All", "CC, ST, SMT", "yes"),
        ("SDO [82]", SPEC, "All", "CC, ST, SMT", "yes"),
        ("SpecShield [11]", SPEC, "All", "CC, ST, SMT", "yes"),
        ("NDA [74]", ALL_SPEC, "All", "CC, ST, SMT", "yes"),
        ("Dolma [46]", ALL_SPEC, "All", "CC, ST", "yes"),
        ("SPT (this work)", "Non-spec secrets", "All", "CC, ST, SMT", "yes"),
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 3 — prior hardware-based mitigations for speculative execution attacks\n"
    );
    let _ = writeln!(
        out,
        "{:<20} {:<30} {:<13} {:<13} Transparent?",
        "Scheme", "Data protection scope", "Transmitters", "Receivers"
    );
    let _ = writeln!(out, "{}", "-".repeat(100));
    for (scheme, scope, tx, rx, transparent) in rows {
        let _ = writeln!(out, "{scheme:<20} {scope:<30} {tx:<13} {rx:<13} {transparent}");
    }
    out.push_str("\nCC = CrossCore, ST = SameThread, SMT = simultaneous-multithreading sibling.\n");
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
            broadcast_width: Config::DEFAULT_BROADCAST_WIDTH,
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
