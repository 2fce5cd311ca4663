//! Regenerates paper Figure 7: execution time of every Table-2
//! configuration on SPEC2017 proxies and constant-time kernels, normalized
//! to UnsafeBaseline, for both attack models.
//!
//! ```text
//! cargo run -p spt-bench --release --bin fig7 -- [--model spectre|futuristic|both]
//!                                                [--budget N] [--jobs N]
//!                                                [--quick] [--verbose]
//!                                                [--seed N] [--stats-json FILE]
//! ```
//!
//! Writes `results/fig7_<model>.csv` next to the console table, and
//! explains every cell's slowdown as a head-of-ROB cycle-stack difference
//! against UnsafeBaseline (`retiring`/`frontend`/`gated`/`memory`/`core`,
//! integers summing exactly to the cycle delta). The sweep fans out over
//! `--jobs` workers (default: one per core); cell ordering and CSV bytes
//! are identical at any job count.

use spt_bench::cli::{exit_sweep_error, model_suffixed, sweep_args, write_stats_json, Flags};
use spt_bench::report::{render_bars, render_fig7, render_stack_deltas, write_fig7_csv};
use spt_bench::runner::{bench_suite, suite_matrix};
use spt_bench::statsdoc::matrix_document;
use std::path::PathBuf;

fn main() {
    let args = sweep_args("fig7", Flags { model: true, quick: true });

    let suite = bench_suite();
    let multi_model = args.models.len() > 1;
    for model in args.models {
        eprintln!(
            "== Figure 7, {model} model (budget {} retired, seed {}, {} jobs) ==",
            args.opts.budget, args.seed, args.opts.jobs
        );
        let m = suite_matrix(model, &suite, args.opts).unwrap_or_else(|e| exit_sweep_error(&e));
        let spec: Vec<usize> = m.spec_indices(&suite);
        let ct: Vec<usize> = m.ct_indices(&suite);
        let all: Vec<usize> = (0..suite.len()).collect();
        println!(
            "\nFigure 7 — execution time normalized to UnsafeBaseline ({model} model, seed {})\n",
            args.seed
        );
        println!("{}", render_fig7(&m, &[("avg(SPEC)", spec), ("avg(CT)", ct), ("avg(all)", all)]));
        println!("{}", render_bars(&m, "SPT{Bwd,ShadowL1}", 40));
        println!(
            "Cycle-stack difference against UnsafeBaseline, cycles by head-of-ROB class \
             (classes sum exactly to delta)\n"
        );
        println!("{}", render_stack_deltas(&m));
        let path = PathBuf::from(format!("results/fig7_{model}.csv"));
        match write_fig7_csv(&m, &path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
        if let Some(json_path) = &args.stats_json {
            write_stats_json(&matrix_document(&m), &model_suffixed(json_path, model, multi_model));
        }
    }
}
