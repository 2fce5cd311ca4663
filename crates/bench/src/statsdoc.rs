//! Versioned JSON stats documents (`--stats-json`).
//!
//! Two document shapes share the `spt-stats-v1` schema tag:
//!
//! * [`run_document`] — one simulation: run identity, every machine / SPT /
//!   cache / TLB / frontend counter, the optional telemetry histograms, and
//!   the attacker-observation digest (hex, so the full 64 bits survive
//!   consumers that parse numbers as doubles);
//! * [`paper_document`] — one [`PaperSweep`]: per-cell cycles, retired
//!   counts, cycle stacks and broadcast width for every simulated cell,
//!   once each; Table-2 matrix cells also carry their baseline-normalized
//!   execution time.
//!
//! Serialization is `spt_util::Json` (hand-rolled; the workspace is
//! offline), so documents round-trip exactly through `Json::parse`.
//!
//! # Schema history
//!
//! `spt-stats-v1` is additive-stable: consumers must ignore unknown keys.
//! Additions so far (no version bump — strictly new fields):
//!
//! * telemetry histograms now carry `p50`/`p90`/`p99` summary fields
//!   (bucket-upper-bound estimates, clamped to the observed max) next to
//!   `mean`/`max`;
//! * every run document and every sweep cell carries `cycle_stack`, the
//!   head-of-ROB cycle stack (`retiring`/`frontend`/`gated`/`memory`/
//!   `core`, summing exactly to the run's cycles);
//! * every sweep cell carries `broadcast_width`, which tells apart cells
//!   whose `config` name is the same (the width ablation).
//!
//! Sweep documents now have one shape, [`paper_document`]: the flat
//! `schema` + `cells` shape the per-figure binaries wrote, plus a
//! `threats` list. The per-matrix `threat`/`configs`/`workloads` header of
//! the retired single-matrix document went with that document; every cell
//! still names its workload, config and threat.
//!
//! A removal or meaning change of an existing field would require bumping
//! to `spt-stats-v2`.

use crate::runner::{PaperSweep, RunRow};
use spt_mem::CacheStats;
use spt_ooo::Machine;
use spt_util::Json;
use std::fs;
use std::io;
use std::path::Path;

/// Schema identifier stamped into every document this module emits.
pub const STATS_SCHEMA: &str = "spt-stats-v1";

fn cache_json(s: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::U64(s.hits)),
        ("misses", Json::U64(s.misses)),
        ("miss_rate", Json::F64(s.miss_rate())),
        ("evictions", Json::U64(s.evictions)),
        ("writebacks", Json::U64(s.writebacks)),
        ("mshr_rejections", Json::U64(s.mshr_rejections)),
    ])
}

/// Builds the single-run stats document for a finished machine.
///
/// `workload` and `config` identify the run; the digest is read from the
/// machine, so call this *after* `Machine::run`.
pub fn run_document(m: &Machine, workload: &str, config: &str, budget: u64) -> Json {
    let stats = m.stats();
    let fe = m.frontend_stats();
    let (dtlb_hits, dtlb_misses) = m.dtlb_stats();
    let mut doc = Json::obj([
        ("schema", Json::str(STATS_SCHEMA)),
        ("workload", Json::str(workload)),
        ("config", Json::str(config)),
        ("budget", Json::U64(budget)),
        ("machine", stats.to_json()),
        ("cycle_stack", m.cycle_stack().to_json()),
        (
            "caches",
            Json::obj([
                ("l1d", cache_json(m.mem().l1().stats())),
                ("l2", cache_json(m.mem().l2().stats())),
                ("l3", cache_json(m.mem().l3().stats())),
                ("l1i", cache_json(m.icache_stats())),
            ]),
        ),
        ("dtlb", Json::obj([("hits", Json::U64(dtlb_hits)), ("misses", Json::U64(dtlb_misses))])),
        (
            "frontend",
            Json::obj([
                ("cond_predictions", Json::U64(fe.cond_predictions)),
                ("direct_predictions", Json::U64(fe.direct_predictions)),
                ("indirect_predictions", Json::U64(fe.indirect_predictions)),
                ("ras_predictions", Json::U64(fe.ras_predictions)),
                ("total_predictions", Json::U64(fe.total())),
            ]),
        ),
        ("observation_digest", Json::str(format!("{:016x}", m.observation_digest()))),
    ]);
    if let Some(t) = m.telemetry() {
        doc.push("telemetry", t.to_json());
    }
    doc
}

fn row_json(cell: &RunRow) -> Json {
    Json::obj([
        ("workload", Json::str(&cell.workload)),
        ("config", Json::str(&cell.config)),
        ("threat", Json::str(cell.threat.to_string())),
        ("broadcast_width", Json::U64(cell.broadcast_width as u64)),
        ("cycles", Json::U64(cell.cycles)),
        ("retired", Json::U64(cell.retired)),
        ("ipc", Json::F64(cell.stats.ipc())),
        ("transmitter_delay_cycles", Json::U64(cell.stats.transmitter_delay_cycles)),
        ("resolution_delay_cycles", Json::U64(cell.stats.resolution_delay_cycles)),
        ("untaint_events_total", Json::U64(cell.stats.spt.events.total())),
        ("cycle_stack", cell.cycle_stack.to_json()),
    ])
}

/// Builds the sweep stats document for a [`PaperSweep`]: the matrix cells
/// (with `normalized`) in dispatch order, then the ablation cells.
pub fn paper_document(sweep: &PaperSweep) -> Json {
    let mut cells = Vec::new();
    for m in &sweep.matrices {
        for w in 0..m.workloads.len() {
            for c in 0..m.configs.len() {
                let mut cell = row_json(&m.rows[w][c]);
                cell.push("normalized", Json::F64(m.normalized(w, c)));
                cells.push(cell);
            }
        }
    }
    let ablations = sweep.sdo.iter().chain(sweep.widths.iter().flat_map(|(_, rows)| rows));
    cells.extend(ablations.map(row_json));
    Json::obj([
        ("schema", Json::str(STATS_SCHEMA)),
        ("threats", Json::arr(sweep.matrices.iter().map(|m| Json::str(m.threat.to_string())))),
        ("cells", Json::Arr(cells)),
    ])
}

/// Writes a document as pretty-printed JSON, creating parent directories.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or file.
pub fn write_json(doc: &Json, path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, doc.to_string_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{paper_sweep, prepare_machine, run_prepared, SweepOptions};
    use spt_core::{Config, ThreatModel};
    use spt_ooo::CycleStack;
    use spt_workloads::Scale;

    #[test]
    fn run_document_roundtrips_and_carries_digest() {
        let w = &spt_workloads::ct_suite(Scale::Bench)[1]; // chacha20
        let cfg = Config::spt_full(ThreatModel::Spectre);
        let mut m = prepare_machine(w, cfg);
        m.enable_telemetry();
        run_prepared(&mut m, w, cfg, 1_000).expect("runs");
        let doc = run_document(&m, w.name, cfg.name(), 1_000);
        let back = Json::parse(&doc.to_string()).expect("round-trips");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(STATS_SCHEMA));
        let digest = back.get("observation_digest").and_then(Json::as_str).unwrap();
        assert_eq!(digest.len(), 16, "digest is 16 hex chars: {digest}");
        assert_eq!(u64::from_str_radix(digest, 16).unwrap(), m.observation_digest());
        assert!(back.get("telemetry").and_then(|t| t.get("rob_occupancy")).is_some());
        let stack = back.get("cycle_stack").expect("cycle stack present");
        let total: u64 = CycleStack::LABELS.iter().filter_map(|k| stack.get(k)?.as_u64()).sum();
        assert_eq!(total, m.cycle());
        assert!(
            back.get("machine").and_then(|s| s.get("cycles")).and_then(Json::as_u64).unwrap() > 0
        );
        assert!(back
            .get("caches")
            .and_then(|c| c.get("l1d"))
            .and_then(|c| c.get("hits"))
            .is_some());
    }

    #[test]
    fn paper_document_covers_every_cell() {
        let suite = spt_workloads::ct_suite(Scale::Bench);
        let sweep =
            paper_sweep(&[ThreatModel::Spectre], &suite[..1], SweepOptions::new(500).jobs(1))
                .expect("sweep completes");
        let m = &sweep.matrices[0];
        let back = Json::parse(&paper_document(&sweep).to_string()).expect("round-trips");
        let cells = back.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), m.configs.len(), "no ablation cells without Futuristic");
        let base = &cells[m.baseline_index()];
        assert!((base.get("normalized").and_then(Json::as_f64).unwrap() - 1.0).abs() < 1e-12);
        let gated = base.get("cycle_stack").and_then(|s| s.get("gated")).and_then(Json::as_u64);
        assert_eq!(gated, Some(0), "nothing is gated on the baseline");
        assert_eq!(base.get("broadcast_width").and_then(Json::as_u64), Some(3));
    }
}
