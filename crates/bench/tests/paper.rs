//! The one paper sweep: every distinct (workload, config) cell is
//! simulated once, and the artifacts that used to re-simulate their own
//! cells read the same numbers from the shared rows.

use spt_bench::report::{
    render_fig8, render_fig9, render_figure7, render_headline, render_sdo, render_widths,
};
use spt_bench::runner::{paper_cells, paper_sweep, run_workload, SweepOptions, ABLATION_WIDTHS};
use spt_bench::statsdoc::paper_document;
use spt_core::{Config, ThreatModel};
use spt_util::Json;
use spt_workloads::{full_suite, Scale, Workload};
use std::collections::HashSet;

const BUDGET: u64 = 1_000;
const MODELS: [ThreatModel; 2] = [ThreatModel::Futuristic, ThreatModel::Spectre];

/// Two SPEC proxies (one in the width ablation, one not) and one
/// constant-time kernel (in the width ablation).
fn reduced_suite() -> Vec<Workload> {
    let names = ["mcf", "leela", "chacha20"];
    let suite: Vec<_> =
        full_suite(Scale::Bench).into_iter().filter(|w| names.contains(&w.name)).collect();
    assert_eq!(suite.len(), names.len(), "reduced-suite workloads present");
    suite
}

#[test]
fn paper_sweep_simulates_each_cell_once_and_feeds_every_artifact() {
    let suite = reduced_suite();
    let cells = paper_cells(&MODELS, &suite);
    let distinct: HashSet<(usize, Config)> = cells.iter().copied().collect();
    assert_eq!(distinct.len(), cells.len(), "a (workload, config) cell is planned twice");
    let widths = 2; // mcf and chacha20
    assert_eq!(cells.len(), 2 * 3 * 8 + 3 + widths * ABLATION_WIDTHS.len());

    let sweep = paper_sweep(&MODELS, &suite, SweepOptions::new(BUDGET).jobs(2)).expect("sweep");
    let simulated = sweep.matrices.iter().map(|m| m.rows.iter().flatten().count()).sum::<usize>()
        + sweep.sdo.len()
        + sweep.widths.iter().map(|(_, rows)| rows.len()).sum::<usize>();
    assert_eq!(simulated, cells.len(), "every planned cell is simulated exactly once");

    // The stats document holds every cell once; the width ablation's cells
    // share a config name and are told apart by their broadcast width.
    let doc = Json::parse(&paper_document(&sweep).to_string()).expect("document round-trips");
    let doc_cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(doc_cells.len(), cells.len());
    let key = |c: &Json| {
        let s = |k: &str| c.get(k).and_then(Json::as_str).unwrap().to_string();
        let width = c.get("broadcast_width").and_then(Json::as_u64).unwrap();
        (s("workload"), s("config"), s("threat"), width)
    };
    let keys: HashSet<_> = doc_cells.iter().map(key).collect();
    assert_eq!(keys.len(), doc_cells.len(), "two document cells share a key");
    let ablated: Vec<_> = doc_cells.iter().filter(|c| c.get("normalized").is_none()).collect();
    assert_eq!(ablated.len(), 3 + widths * ABLATION_WIDTHS.len(), "only matrix cells normalize");
    let width_cells: Vec<_> = ablated
        .iter()
        .map(|c| key(c))
        .filter(|(_, config, _, _)| config == "SPT{Bwd,ShadowL1}")
        .map(|(workload, _, _, width)| (workload, width))
        .collect();
    let width_keys: HashSet<_> = width_cells.iter().collect();
    assert_eq!(width_cells.len(), widths * ABLATION_WIDTHS.len());
    assert_eq!(width_keys.len(), width_cells.len(), "width cells share a key: {width_cells:?}");

    // A Figure-8 row is the direct full-SPT run.
    for m in &sweep.matrices {
        let full = m.config_index("SPT{Bwd,ShadowL1}").expect("Table-2 column");
        for (w, workload) in suite.iter().enumerate() {
            let direct = run_workload(workload, Config::spt_full(m.threat), BUDGET).expect("run");
            let row = &m.rows[w][full];
            assert_eq!(row.cycles, direct.cycles, "{} [{}]", workload.name, m.threat);
            assert_eq!(row.stats.to_json(), direct.stats.to_json(), "{}", workload.name);
        }
    }

    // The width = 3 column is the matrix's own SPT{Bwd,ShadowL1} cell, and
    // a direct width-3 run gives the same cycles.
    let f = sweep.futuristic().expect("Futuristic selected");
    let full = f.config_index("SPT{Bwd,ShadowL1}").expect("Table-2 column");
    let table = render_widths(f, &sweep.widths, BUDGET, 0);
    for (w, rows) in &sweep.widths {
        let cycles = f.rows[*w][full].cycles;
        let cfg = Config { broadcast_width: 3, ..Config::spt_full(ThreatModel::Futuristic) };
        assert_eq!(run_workload(&suite[*w], cfg, BUDGET).expect("run").cycles, cycles);
        let widest = rows.last().expect("width rows").cycles as f64;
        let line = table
            .lines()
            .find(|l| l.split_whitespace().next() == Some(suite[*w].name))
            .expect("width row rendered");
        let w3 = line.split_whitespace().nth(3).expect("W=3 column");
        assert_eq!(w3, format!("{:.3}", cycles as f64 / widest), "{line}");
    }
}

#[test]
fn every_section_renders_from_the_sweep() {
    let suite = reduced_suite();
    let sweep = paper_sweep(&MODELS, &suite, SweepOptions::new(300).jobs(2)).expect("sweep");
    let f = sweep.futuristic().expect("Futuristic selected");
    for m in &sweep.matrices {
        let fig7 = render_figure7(m, &suite, 0);
        assert!(fig7.contains(&format!("({} model, seed 0)", m.threat)), "{fig7}");
        assert!(fig7.contains("avg(all)") && fig7.contains("Cycle-stack difference"));
    }
    let headline = render_headline(&sweep.matrices, &suite, 0);
    assert_eq!(headline.matches("=== Headline numbers").count(), MODELS.len());
    let fig8 = render_fig8(&sweep.matrices, 300, 0);
    assert_eq!(fig8.lines().filter(|l| l.starts_with("mcf ")).count(), MODELS.len(), "{fig8}");
    let fig9 = render_fig9(f, &suite, 300, 0);
    assert!(fig9.lines().any(|l| l.starts_with("leela ")), "SPEC rows: {fig9}");
    assert!(!fig9.lines().any(|l| l.starts_with("chacha20 ")), "no CT rows: {fig9}");
    let sdo = render_sdo(f, &sweep.sdo, 300, 0);
    assert_eq!(sdo.lines().filter(|l| l.starts_with("chacha20 ")).count(), 1, "{sdo}");
    let widths = render_widths(f, &sweep.widths, 300, 0);
    assert!(widths.contains("W=3") && !widths.lines().any(|l| l.starts_with("leela ")));
}

#[test]
fn spectre_only_sweep_has_no_ablations() {
    let suite = reduced_suite();
    let models = [ThreatModel::Spectre];
    assert_eq!(paper_cells(&models, &suite).len(), 3 * 8);
    let sweep = paper_sweep(&models, &suite[2..], SweepOptions::new(300).jobs(1)).expect("sweep");
    assert!(sweep.futuristic().is_none());
    assert!(sweep.sdo.is_empty() && sweep.widths.is_empty());
}
