//! Experiment harness for the SPT reproduction.
//!
//! Two binaries (see `DESIGN.md` §5 for the full artifact index):
//!
//! | binary | artifact |
//! |---|---|
//! | `paper` | every table and figure from one sweep: Figure 7 (+ CSVs and cycle-stack deltas), §9.2 headline numbers, Figures 8 and 9, the §6.3 SDO and §9.4 broadcast-width ablations, Table 3 |
//! | `run_spt` | single-run front-end mirroring the artifact's `run_spt.py` |
//! | `simbench` | simulator-throughput document (`BENCH_simthroughput.json`) |
//!
//! The library half holds the shared runner ([`paper_sweep`] simulates
//! each distinct (workload, config) cell once over a bounded worker pool
//! sized by `--jobs N`), flag parsing, the text/CSV renderers of every
//! artifact, and the `spt-stats-v1` documents.

pub mod cli;
pub mod report;
pub mod runner;
pub mod simbench;
pub mod statsdoc;

pub use runner::{
    default_jobs, paper_cells, paper_sweep, prepare_machine, run_indexed, run_prepared,
    run_workload, suite_matrix, PaperSweep, RunRow, SuiteMatrix, SweepError, SweepOptions,
    DEFAULT_BUDGET,
};
pub use statsdoc::{paper_document, run_document, write_json, STATS_SCHEMA};
