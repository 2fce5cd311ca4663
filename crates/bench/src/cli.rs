//! Flag parsing for the two experiment binaries.
//!
//! `paper` takes the sweep flags ([`parse_sweep_args`]); `run_spt` takes
//! the paper artifact's single-run flags ([`parse_run_args`]). Both parsers
//! are pure functions returning the message to print on a bad flag, so
//! their rules are unit-tested here; the binaries print it and exit 2.

use crate::runner::{SweepError, SweepOptions, DEFAULT_BUDGET};
use spt_core::{Config, ShadowMode, ThreatModel, UntaintMethod};
use std::path::PathBuf;

/// The sweep flags of `paper`.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// Runner options assembled from `--budget`, `--quick`, `--jobs`,
    /// `--verbose`.
    pub opts: SweepOptions,
    /// Threat models selected with `--model` (both, in paper order, when
    /// the flag is absent).
    pub models: Vec<ThreatModel>,
    /// Workload input seed from `--seed` (0 = historical default streams).
    /// Already applied via [`spt_workloads::set_input_seed`] by the time
    /// [`sweep_args`] returns; the reports print it in their headers.
    pub seed: u64,
    /// Destination for the sweep's `spt-stats-v1` JSON document
    /// (`--stats-json <file>`); `None` leaves JSON emission off.
    pub stats_json: Option<PathBuf>,
}

/// One-line usage string of `paper`.
pub const SWEEP_USAGE: &str = "usage: paper [--model spectre|futuristic|both] [--quick] \
    [--budget N] [--jobs N] [--seed N] [--stats-json FILE] [--verbose]";

/// Parses `std::env::args` with [`parse_sweep_args`], exiting with status 2
/// and a message on a bad flag or value.
pub fn sweep_args() -> SweepArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_sweep_args(&args).unwrap_or_else(|e| exit_usage(&e));
    // Apply before any workload is constructed: the suites sample their
    // input data (arrays, hash keys, pointer graphs) at build time.
    spt_workloads::set_input_seed(parsed.seed);
    parsed
}

/// Prints a flag error and exits with status 2.
pub fn exit_usage(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parses `paper`'s arguments (without the program name).
///
/// # Errors
///
/// Returns the message to print for an unknown flag, a missing or
/// malformed value, or a zero `--budget` (a run that retires nothing has
/// no cycles to normalize by).
pub fn parse_sweep_args(args: &[String]) -> Result<SweepArgs, String> {
    let mut parsed = SweepArgs {
        opts: SweepOptions::new(DEFAULT_BUDGET),
        models: vec![ThreatModel::Futuristic, ThreatModel::Spectre],
        seed: 0,
        stats_json: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("paper: {flag} needs a value"));
        match flag.as_str() {
            "--budget" => parsed.opts.budget = number("paper", flag, value()?)?,
            "--jobs" => parsed.opts = parsed.opts.jobs(number("paper", flag, value()?)? as usize),
            "--seed" => parsed.seed = number("paper", flag, value()?)?,
            "--stats-json" => parsed.stats_json = Some(PathBuf::from(value()?)),
            "--verbose" => parsed.opts.verbose = true,
            "--quick" => parsed.opts.budget = 5_000,
            "--model" => {
                parsed.models = match value()?.as_str() {
                    "spectre" => vec![ThreatModel::Spectre],
                    "futuristic" => vec![ThreatModel::Futuristic],
                    "both" => vec![ThreatModel::Futuristic, ThreatModel::Spectre],
                    other => return Err(format!("paper: unknown model `{other}`")),
                };
            }
            other => return Err(format!("paper: unknown flag `{other}`\n{SWEEP_USAGE}")),
        }
    }
    if parsed.opts.budget == 0 {
        return Err("paper: --budget must be at least 1 retired instruction".into());
    }
    Ok(parsed)
}

/// Parses a flag's numeric value.
fn number(binary: &str, flag: &str, v: &str) -> Result<u64, String> {
    v.parse().map_err(|_| format!("{binary}: {flag} takes a number, got `{v}`"))
}

/// Usage text of `run_spt`.
pub const RUN_USAGE: &str = "usage: run_spt --executable <workload> [--enable-spt] [--stt]\n\
    \x20      [--threat-model spectre|futuristic] [--untaint-method none|fwd|bwd|ideal]\n\
    \x20      [--enable-shadow-l1 | --enable-shadow-mem] [--budget N]\n\
    \x20      [--seed N] [--trace <o3-trace-file>] [--stats-json <json-file>]\n\
    \x20      [--track-insts] [--list]";

/// What `run_spt` was asked to do.
#[derive(Clone, Debug, PartialEq)]
pub enum RunCommand {
    /// `--list`: print the workload roster.
    List,
    /// Simulate one workload under one configuration.
    Run(RunArgs),
}

/// One `run_spt` simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Workload name (`--executable`).
    pub executable: String,
    /// Configuration assembled from the protection flags.
    pub config: Config,
    /// Retired-instruction budget (`--budget`).
    pub budget: u64,
    /// Workload input seed (`--seed`); the caller applies it.
    pub seed: u64,
    /// Print the untaint-event breakdown (`--track-insts`).
    pub track_insts: bool,
    /// O3PipeView trace destination (`--trace`).
    pub trace: Option<PathBuf>,
    /// Stats document destination (`--stats-json`).
    pub stats_json: Option<PathBuf>,
}

/// Parses `run_spt`'s arguments (without the program name).
///
/// Omitting `--enable-spt` gives the UnsafeBaseline, as in the artifact;
/// `--stt` selects STT.
///
/// # Errors
///
/// Returns the message to print for an unknown flag, a missing or
/// malformed value, a zero `--budget`, a missing `--executable`, or a
/// flag the selected design would ignore: `--untaint-method` or a shadow
/// flag without `--enable-spt`, and `--stt` together with `--enable-spt`.
pub fn parse_run_args(args: &[String]) -> Result<RunCommand, String> {
    let mut executable = None;
    let (mut enable_spt, mut stt) = (false, false);
    let mut threat = ThreatModel::Futuristic;
    let mut untaint = None;
    let mut shadow = None;
    let mut budget = DEFAULT_BUDGET;
    let mut seed = 0;
    let mut track_insts = false;
    let (mut trace, mut stats_json) = (None, None);

    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("run_spt: {flag} needs a value"));
        match flag.as_str() {
            "--executable" => executable = Some(value()?.clone()),
            "--enable-spt" => enable_spt = true,
            "--stt" => stt = true,
            "--threat-model" => {
                threat = match value()?.as_str() {
                    "spectre" => ThreatModel::Spectre,
                    "futuristic" => ThreatModel::Futuristic,
                    other => return Err(format!("run_spt: unknown threat model `{other}`")),
                };
            }
            "--untaint-method" => {
                untaint = Some(match value()?.as_str() {
                    "none" => UntaintMethod::None,
                    "fwd" => UntaintMethod::Fwd,
                    "bwd" => UntaintMethod::Bwd,
                    "ideal" => UntaintMethod::Ideal,
                    other => return Err(format!("run_spt: unknown untaint method `{other}`")),
                });
            }
            "--enable-shadow-l1" => shadow = Some(ShadowMode::L1),
            "--enable-shadow-mem" => shadow = Some(ShadowMode::Mem),
            "--budget" => budget = number("run_spt", flag, value()?)?,
            "--seed" => seed = number("run_spt", flag, value()?)?,
            "--trace" => trace = Some(PathBuf::from(value()?)),
            "--stats-json" => stats_json = Some(PathBuf::from(value()?)),
            "--track-insts" => track_insts = true,
            "--list" => return Ok(RunCommand::List),
            other => return Err(format!("run_spt: unknown flag `{other}`\n{RUN_USAGE}")),
        }
    }

    if budget == 0 {
        return Err("run_spt: --budget must be at least 1 retired instruction".into());
    }
    if stt && enable_spt {
        return Err("run_spt: --stt and --enable-spt select different designs".into());
    }
    if !enable_spt && untaint.is_some() {
        return Err("run_spt: --untaint-method requires --enable-spt (as in the artifact)".into());
    }
    if !enable_spt && shadow.is_some() {
        return Err("run_spt: --enable-shadow-l1/--enable-shadow-mem require --enable-spt".into());
    }
    let config = if stt {
        Config::stt(threat)
    } else if enable_spt {
        Config {
            untaint: untaint.unwrap_or(UntaintMethod::None),
            shadow: shadow.unwrap_or(ShadowMode::None),
            ..Config::secure_baseline(threat)
        }
    } else {
        Config::unsafe_baseline(threat)
    };
    let executable = executable.ok_or_else(|| RUN_USAGE.to_string())?;
    Ok(RunCommand::Run(RunArgs {
        executable,
        config,
        budget,
        seed,
        track_insts,
        trace,
        stats_json,
    }))
}

/// Reports a failed sweep cell and exits: the standard way both binaries
/// surfaces a wedged (workload, config, threat) pair.
pub fn exit_sweep_error(e: &SweepError) -> ! {
    eprintln!("sweep failed: {e}");
    std::process::exit(1);
}

/// Writes a `--stats-json` document, exiting on I/O failure (a requested
/// artifact that cannot be produced is an error, not a warning).
pub fn write_stats_json(doc: &spt_util::Json, path: &std::path::Path) {
    match crate::statsdoc::write_json(doc, path) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write stats JSON {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        parse_sweep_args(&strings(args))
    }

    #[test]
    fn usage_mentions_supported_flags() {
        for flag in ["--model", "--quick", "--budget", "--jobs", "--seed", "--stats-json"] {
            assert!(SWEEP_USAGE.contains(flag), "{flag}");
        }
        assert_eq!(parse(&["--quick"]).unwrap().opts.budget, 5_000);
    }

    #[test]
    fn zero_budget_is_rejected() {
        let err = parse(&["--budget", "0"]).unwrap_err();
        assert!(err.contains("--budget"), "unexpected message: {err}");
        let ok = parse(&["--budget", "1", "--model", "spectre", "--jobs", "3"]).unwrap();
        assert_eq!((ok.opts.budget, ok.opts.jobs), (1, 3));
        assert_eq!(ok.models, vec![ThreatModel::Spectre]);
        assert!(parse(&["--budget"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--budget", "x"]).unwrap_err().contains("takes a number"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("usage: paper"));
    }

    fn run(args: &[&str]) -> Result<RunCommand, String> {
        parse_run_args(&strings(args))
    }

    #[test]
    fn run_args_build_the_artifact_configs() {
        let Ok(RunCommand::Run(full)) = run(&[
            "--executable",
            "mcf",
            "--enable-spt",
            "--untaint-method",
            "bwd",
            "--enable-shadow-l1",
            "--threat-model",
            "spectre",
            "--budget",
            "7",
        ]) else {
            panic!("full SPT parses")
        };
        assert_eq!(full.config, Config::spt_full(ThreatModel::Spectre));
        assert_eq!((full.executable.as_str(), full.budget), ("mcf", 7));
        let Ok(RunCommand::Run(base)) = run(&["--executable", "mcf"]) else { panic!() };
        assert_eq!(base.config, Config::unsafe_baseline(ThreatModel::Futuristic));
        let Ok(RunCommand::Run(stt)) = run(&["--stt", "--executable", "mcf"]) else { panic!() };
        assert_eq!(stt.config, Config::stt(ThreatModel::Futuristic));
        assert_eq!(run(&["--list", "--bogus"]), Ok(RunCommand::List));
    }

    #[test]
    fn run_args_reject_flags_the_design_would_ignore() {
        let rejected = [
            (&["--executable", "mcf", "--stt", "--enable-spt"][..], "--stt"),
            (&["--executable", "mcf", "--enable-shadow-l1"][..], "--enable-spt"),
            (&["--executable", "mcf", "--stt", "--enable-shadow-mem"][..], "--enable-spt"),
            (&["--executable", "mcf", "--untaint-method", "bwd"][..], "--enable-spt"),
            (&["--executable", "mcf", "--budget", "0"][..], "--budget"),
            (&["--executable", "mcf", "--jobs", "2"][..], "unknown flag `--jobs`"),
            (&["--enable-spt"][..], "usage: run_spt"),
        ];
        for (args, needle) in rejected {
            let err = run(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
