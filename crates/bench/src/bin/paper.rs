//! Regenerates every paper artifact from one sweep: Figure 7 (with its
//! bars, cycle-stack deltas and `results/fig7_<model>.csv`), the §9.2
//! headline numbers, Figure 8, Figure 9, the §6.3 SDO and §9.4
//! broadcast-width ablations, and Table 3.
//!
//! ```text
//! cargo run -p spt-bench --release --bin paper -- [--model spectre|futuristic|both]
//!                                                 [--budget N] [--jobs N]
//!                                                 [--quick] [--verbose]
//!                                                 [--seed N] [--stats-json FILE]
//! ```
//!
//! The sweep is the Table-2 matrix of every selected threat model plus,
//! under Futuristic, the SDO and broadcast-width cells; each distinct
//! (workload, config) cell is simulated once, over `--jobs` workers
//! (default: one per core). Output and CSV bytes are identical at any job
//! count. Figure 9 and the ablations are Futuristic-only, so
//! `--model spectre` leaves them out. `--stats-json` writes one
//! `spt-stats-v1` document holding every simulated cell.

use spt_bench::cli::{exit_sweep_error, sweep_args, write_stats_json};
use spt_bench::report::{
    render_fig8, render_fig9, render_figure7, render_headline, render_sdo, render_table3,
    render_widths, write_fig7_csv,
};
use spt_bench::runner::{bench_suite, paper_sweep};
use spt_bench::statsdoc::paper_document;
use std::path::PathBuf;

fn main() {
    let args = sweep_args();
    let (budget, seed) = (args.opts.budget, args.seed);

    let suite = bench_suite();
    eprintln!(
        "== paper sweep, {} model(s) (budget {budget} retired, seed {seed}, {} jobs) ==",
        args.models.len(),
        args.opts.jobs
    );
    let sweep =
        paper_sweep(&args.models, &suite, args.opts).unwrap_or_else(|e| exit_sweep_error(&e));

    for m in &sweep.matrices {
        print!("{}", render_figure7(m, &suite, seed));
        let path = PathBuf::from(format!("results/fig7_{}.csv", m.threat));
        match write_fig7_csv(m, &path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    print!("{}", render_headline(&sweep.matrices, &suite, seed));
    print!("{}", render_fig8(&sweep.matrices, budget, seed));
    if let Some(f) = sweep.futuristic() {
        print!("{}", render_fig9(f, &suite, budget, seed));
        print!("{}", render_sdo(f, &sweep.sdo, budget, seed));
        print!("{}", render_widths(f, &sweep.widths, budget, seed));
    }
    print!("{}", render_table3());
    if let Some(path) = &args.stats_json {
        write_stats_json(&paper_document(&sweep), path);
    }
}
