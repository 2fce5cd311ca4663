//! A command-line front-end mirroring the paper artifact's `run_spt.py`
//! interface (appendix A.4): pick a workload and a protection
//! configuration with the same flags the gem5 artifact used, and get a
//! `stats.txt`-style dump.
//!
//! ```text
//! cargo run -p spt-bench --release --bin run_spt -- \
//!     --executable perlbench --enable-spt --threat-model futuristic \
//!     --untaint-method bwd --enable-shadow-l1 [--budget N] [--track-insts]
//! ```
//!
//! | artifact flag | here |
//! |---|---|
//! | `--executable <path>` | `--executable <workload name>` (see `--list`) |
//! | `--enable-spt` | same |
//! | `--threat-model spectre\|futuristic` | same |
//! | `--untaint-method none\|fwd\|bwd\|ideal` | same |
//! | `--enable-shadow-l1` / `--enable-shadow-mem` | same (mutually exclusive; need `--enable-spt`) |
//! | `--track-insts` | prints the untaint-event breakdown |
//! | `--output-dir` | stdout (redirect as needed) |
//!
//! Omitting `--enable-spt` gives the UnsafeBaseline, exactly as in the
//! artifact ("to run InsecureBaseline, simply provide the --executable and
//! nothing else"). `--stt` selects the STT comparison design and cannot be
//! combined with `--enable-spt`. Flags the selected design would ignore are
//! rejected with exit status 2 (see [`spt_bench::cli::parse_run_args`]).

use spt_bench::cli::{exit_sweep_error, exit_usage, parse_run_args, RunArgs, RunCommand};
use spt_bench::runner::{prepare_machine, run_prepared};
use spt_bench::statsdoc::{run_document, write_json};
use spt_util::O3PipeViewSink;
use spt_workloads::{full_suite, Scale};
use std::fs::File;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let RunArgs { executable, config, budget, seed, track_insts, trace, stats_json } =
        match parse_run_args(&args).unwrap_or_else(|e| exit_usage(&e)) {
            RunCommand::Run(run) => run,
            RunCommand::List => {
                println!("available workloads:");
                for w in full_suite(Scale::Bench) {
                    println!("  {:<12} {}", w.name, w.description);
                }
                return;
            }
        };
    spt_workloads::set_input_seed(seed);

    let suite = full_suite(Scale::Bench);
    let Some(w) = suite.iter().find(|w| w.name == executable) else {
        exit_usage(&format!("unknown workload `{executable}`; use --list"));
    };

    eprintln!("running {} under {config} (seed {seed}) ...", w.name);
    let mut m = prepare_machine(w, config);
    if let Some(path) = &trace {
        let file = File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create trace file {}: {e}", path.display());
            std::process::exit(1);
        });
        // Event lines (`SPTEvent:`) make the trace diffable by
        // `tracediff`; Konata ignores them.
        m.set_trace_sink(Box::new(O3PipeViewSink::with_events(file)));
    }
    if stats_json.is_some() {
        m.enable_telemetry();
    }
    let row = run_prepared(&mut m, w, config, budget).unwrap_or_else(|e| exit_sweep_error(&e));
    if let (Some(mut sink), Some(path)) = (m.take_trace_sink(), &trace) {
        if let Err(e) = sink.flush() {
            eprintln!("error writing trace: {e}");
            std::process::exit(1);
        }
        eprintln!("O3PipeView trace written to {}", path.display());
    }
    if let Some(path) = &stats_json {
        let doc = run_document(&m, w.name, config.name(), budget);
        if let Err(e) = write_json(&doc, path) {
            eprintln!("cannot write stats JSON {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("stats JSON written to {}", path.display());
    }

    // stats.txt-style output (the artifact's "the one of most interest will
    // be numCycles").
    println!("inputSeed                 {seed:>14}   # workload input seed (--seed)");
    println!("numCycles                 {:>14}   # cycles to retire the budget", row.cycles);
    println!("numRetired                {:>14}   # instructions retired", row.retired);
    println!(
        "ipc                       {:>14.4}   # retired instructions per cycle",
        row.stats.ipc()
    );
    println!(
        "numFetched                {:>14}   # instructions fetched (incl. wrong path)",
        row.stats.fetched
    );
    println!("numSquashes               {:>14}   # pipeline squashes", row.stats.squashes);
    println!(
        "branchMispredicts         {:>14}   # conditional mispredictions",
        row.stats.branch_mispredicts
    );
    println!(
        "indirectMispredicts       {:>14}   # indirect-target mispredictions",
        row.stats.indirect_mispredicts
    );
    println!(
        "memOrderViolations        {:>14}   # store->load order violations",
        row.stats.mem_violations
    );
    println!("stlForwards               {:>14}   # store-to-load forwards", row.stats.stl_forwards);
    println!(
        "xmitDelayCycles           {:>14}   # transmitter-slot cycles blocked by taint",
        row.stats.transmitter_delay_cycles
    );
    println!(
        "resolutionDelayCycles     {:>14}   # deferred branch-resolution cycles",
        row.stats.resolution_delay_cycles
    );
    println!(
        "untaintEvents             {:>14}   # registers untainted (all mechanisms)",
        row.stats.spt.events.total()
    );
    println!(
        "untaintingCycles          {:>14}   # cycles with >=1 untaint",
        row.stats.spt.untainting_cycles
    );
    println!(
        "untaintDeferred           {:>14}   # broadcasts deferred by the width limit",
        row.stats.spt.broadcasts_deferred
    );
    if track_insts {
        println!("\n# untaint-event breakdown (--track-insts):");
        for (kind, count) in row.stats.spt.events.iter() {
            println!("untaint.{:<16} {:>14}", kind.label(), count);
        }
    }
}
