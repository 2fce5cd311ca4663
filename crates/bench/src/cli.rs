//! Minimal shared flag parsing for the experiment binaries.
//!
//! Every binary accepts `--budget N`, `--jobs N`, and `--verbose`; the
//! Figure-7 driver additionally takes `--model` and `--quick`. Parsing is
//! centralized here so the eight binaries stay flag-compatible and the
//! worker pool is sized identically everywhere.

use crate::runner::{SweepError, SweepOptions, DEFAULT_BUDGET};
use spt_core::ThreatModel;
use std::path::PathBuf;

/// Flags common to the sweep binaries.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// Runner options assembled from `--budget`, `--jobs`, `--verbose`.
    pub opts: SweepOptions,
    /// Threat models selected with `--model` (both, in paper order, when
    /// the flag is absent or unsupported).
    pub models: Vec<ThreatModel>,
    /// Workload input seed from `--seed` (0 = historical default streams).
    /// Already applied via [`spt_workloads::set_input_seed`] by the time
    /// parsing returns; binaries print it in their report headers.
    pub seed: u64,
    /// Destination for the sweep's `spt-stats-v1` JSON document
    /// (`--stats-json <file>`); `None` leaves JSON emission off.
    pub stats_json: Option<PathBuf>,
}

/// Which optional flags a binary supports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flags {
    /// Accept `--model spectre|futuristic|both`.
    pub model: bool,
    /// Accept `--quick` (drops the budget to 5 000).
    pub quick: bool,
}

/// Parses `std::env::args`, exiting with status 2 and a message on a bad
/// flag or value.
pub fn sweep_args(binary: &str, flags: Flags) -> SweepArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_sweep_args(binary, flags, &args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // Apply before any workload is constructed: the suites sample their
    // input data (arrays, hash keys, pointer graphs) at build time.
    spt_workloads::set_input_seed(parsed.seed);
    parsed
}

/// Parses a sweep binary's arguments (without the program name).
///
/// # Errors
///
/// Returns the message to print for an unknown flag, a missing or
/// malformed value, or a zero `--budget` (a run that retires nothing has
/// no cycles to normalize by).
fn parse_sweep_args(binary: &str, flags: Flags, args: &[String]) -> Result<SweepArgs, String> {
    let mut parsed = SweepArgs {
        opts: SweepOptions::new(DEFAULT_BUDGET),
        models: vec![ThreatModel::Futuristic, ThreatModel::Spectre],
        seed: 0,
        stats_json: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{binary}: {flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>().map_err(|_| format!("{binary}: {flag} takes a number, got `{v}`"))
        };
        match flag.as_str() {
            "--budget" => parsed.opts.budget = number(value()?)?,
            "--jobs" => parsed.opts = parsed.opts.jobs(number(value()?)? as usize),
            "--seed" => parsed.seed = number(value()?)?,
            "--stats-json" => parsed.stats_json = Some(PathBuf::from(value()?)),
            "--verbose" => parsed.opts.verbose = true,
            "--quick" if flags.quick => parsed.opts.budget = 5_000,
            "--model" if flags.model => {
                parsed.models = match value()?.as_str() {
                    "spectre" => vec![ThreatModel::Spectre],
                    "futuristic" => vec![ThreatModel::Futuristic],
                    "both" => vec![ThreatModel::Futuristic, ThreatModel::Spectre],
                    other => return Err(format!("{binary}: unknown model `{other}`")),
                };
            }
            other => {
                return Err(format!("{binary}: unknown flag `{other}`\n{}", usage(binary, flags)))
            }
        }
    }
    if parsed.opts.budget == 0 {
        return Err(format!("{binary}: --budget must be at least 1 retired instruction"));
    }
    Ok(parsed)
}

/// One-line usage string for a binary's flag set.
pub fn usage(binary: &str, flags: Flags) -> String {
    let mut s = format!(
        "usage: {binary} [--budget N] [--jobs N] [--seed N] [--stats-json FILE] [--verbose]"
    );
    if flags.model {
        s.push_str(" [--model spectre|futuristic|both]");
    }
    if flags.quick {
        s.push_str(" [--quick]");
    }
    s
}

/// Reports a failed sweep cell and exits: the standard way every binary
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

/// Derives the per-model output path for binaries that loop over threat
/// models: `stats.json` → `stats_futuristic.json` when `multi` is set,
/// unchanged otherwise.
pub fn model_suffixed(path: &std::path::Path, model: ThreatModel, multi: bool) -> PathBuf {
    if !multi {
        return path.to_path_buf();
    }
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("stats");
    let ext = path.extension().and_then(|s| s.to_str()).unwrap_or("json");
    path.with_file_name(format!("{stem}_{model}.{ext}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_mentions_supported_flags() {
        let all = usage("fig7", Flags { model: true, quick: true });
        assert!(all.contains("--jobs"));
        assert!(all.contains("--seed"));
        assert!(all.contains("--model"));
        assert!(all.contains("--quick"));
        let plain = usage("fig8", Flags::default());
        assert!(plain.contains("--jobs"));
        assert!(!plain.contains("--model"));
    }

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_sweep_args("fig7", Flags { model: true, quick: true }, &args)
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
        assert!(parse(&["--bogus"]).unwrap_err().contains("usage: fig7"));
    }
}
