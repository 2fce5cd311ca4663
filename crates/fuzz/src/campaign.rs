//! Campaign driver: fans program seeds out across a worker pool, gathers
//! findings, shrinks them, and renders a deterministic report.
//!
//! Determinism contract: for a fixed `(seed, iters)` the report text and
//! every reproducer are byte-identical at any `--jobs` value. Per-iteration
//! program seeds are derived by a SplitMix-style mix of the base seed and
//! the iteration index, results come back order-preserving from
//! [`run_indexed`], and the report contains no timing.

use std::fmt::Write as _;

use crate::generator::generate;
use crate::harness::{
    acceleration, differential, relational, reproduces, Finding, FindingKind, THREATS,
};
use crate::{repro, shrink};
use spt_core::Config;
use spt_util::{default_jobs, run_indexed};

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Base seed; per-iteration program seeds are derived from it.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub iters: usize,
    /// Worker threads.
    pub jobs: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig { seed: 1, iters: 200, jobs: default_jobs() }
    }
}

/// A shrunk, rendered reproducer ready to be written to `fuzz/corpus/`.
#[derive(Clone, Debug)]
pub struct ReproOut {
    /// Suggested file name (deterministic).
    pub file_name: String,
    /// One-line summary for the report.
    pub summary: String,
    /// Full reproducer file contents.
    pub text: String,
}

/// Everything a campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Deterministic human-readable report.
    pub text: String,
    /// Reproducers for every finding.
    pub repros: Vec<ReproOut>,
    /// `true` when there were no findings and the unsafe-baseline positive
    /// control fired at least once.
    pub ok: bool,
}

struct IterOut {
    insts: usize,
    arch_leak: bool,
    secret_read: bool,
    unsafe_checked: bool,
    unsafe_diverged: bool,
    findings: Vec<(Finding, String)>,
}

/// SplitMix64-style mixer deriving the per-iteration program seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run_iter(seed: u64, iter: usize) -> IterOut {
    let program_seed = mix(seed, iter as u64);
    let tp = generate(program_seed);
    let mut findings = differential(&tp);
    let rel = relational(&tp);
    findings.extend(rel.findings);
    findings.extend(acceleration(&tp));
    let findings = findings
        .into_iter()
        .map(|f| {
            let shrunk = shrink::shrink(&tp, |cand| reproduces(cand, &f));
            let notes = vec![
                format!(
                    "found by spt-fuzz: seed {seed} iter {iter} (program seed {program_seed:#x})"
                ),
                format!("{} at {}", f.kind.label(), f.location()),
                format!("detail: {}", f.detail),
            ];
            let text = repro::to_text(&shrunk, &notes);
            (f, text)
        })
        .collect();
    IterOut {
        insts: tp.program.len(),
        arch_leak: rel.arch_leak,
        secret_read: rel.secret_read,
        unsafe_checked: rel.unsafe_checked,
        unsafe_diverged: rel.unsafe_diverged,
        findings,
    }
}

/// Runs a full campaign.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let seed = cfg.seed;
    let outs = run_indexed(cfg.iters, cfg.jobs, move |i| run_iter(seed, i));

    let mut repros = Vec::new();
    let mut counts = [0usize; 5]; // indexed by FindingKind order below
    let kinds = [
        FindingKind::Differential,
        FindingKind::RelationalLeak,
        FindingKind::Timeout,
        FindingKind::Generator,
        FindingKind::Acceleration,
    ];
    let (mut arch_leaks, mut secret_reads) = (0usize, 0usize);
    let (mut unsafe_checked, mut unsafe_diverged) = (0usize, 0usize);
    let mut total_insts = 0usize;
    for (iter, out) in outs.iter().enumerate() {
        total_insts += out.insts;
        arch_leaks += usize::from(out.arch_leak);
        secret_reads += usize::from(out.secret_read);
        unsafe_checked += usize::from(out.unsafe_checked);
        unsafe_diverged += usize::from(out.unsafe_diverged);
        for (j, (f, text)) in out.findings.iter().enumerate() {
            let k = kinds.iter().position(|&k| k == f.kind).expect("known kind");
            counts[k] += 1;
            repros.push(ReproOut {
                file_name: format!("repro-s{seed}-i{iter:04}-{}-{j}.s", f.kind.label()),
                summary: format!(
                    "iter {iter}: {} at {} -- {}",
                    f.kind.label(),
                    f.location(),
                    f.detail
                ),
                text: text.clone(),
            });
        }
    }

    let findings: usize = counts.iter().sum();
    let control_ok = cfg.iters == 0 || unsafe_diverged >= 1;
    let ok = findings == 0 && control_ok;

    let n_configs = Config::table2(THREATS[0]).len();
    let mut text = String::new();
    let _ = writeln!(text, "== spt-fuzz campaign ==");
    // Deliberately no job count or timing here: the report is byte-identical
    // at any `--jobs` value.
    let _ = writeln!(
        text,
        "seed {} | {} programs | {} configs x {} threat models",
        seed,
        cfg.iters,
        n_configs,
        THREATS.len()
    );
    let mean = total_insts.checked_div(cfg.iters).unwrap_or(0);
    let _ = writeln!(text, "mean program length             : {mean} insts");
    let _ = writeln!(text, "arch-leaking (classified)       : {arch_leaks}");
    let _ = writeln!(text, "secret-reading (STT skip)       : {secret_reads}");
    let _ = writeln!(
        text,
        "unsafe relational divergence    : {unsafe_diverged}/{unsafe_checked} programs (positive control, need >= 1)"
    );
    let _ = writeln!(text, "differential divergences        : {}", counts[0]);
    let _ = writeln!(text, "relational leaks (protected)    : {}", counts[1]);
    let _ = writeln!(text, "timeouts/deadlocks              : {}", counts[2]);
    let _ = writeln!(text, "generator anomalies             : {}", counts[3]);
    let _ = writeln!(text, "run vs step_cycle mismatches    : {}", counts[4]);
    for r in &repros {
        let _ = writeln!(text, "FINDING {}: {}", r.file_name, r.summary);
    }
    if findings == 0 && !control_ok {
        let _ = writeln!(
            text,
            "WARNING: the unsafe baseline never diverged; the observation \
             channel did not demonstrate a leak"
        );
    }
    let _ = writeln!(text, "RESULT: {}", if ok { "PASS" } else { "FAIL" });

    CampaignReport { text, repros, ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_decorrelates_indices() {
        let a = mix(1, 0);
        let b = mix(1, 1);
        let c = mix(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(mix(1, 0), a, "pure function");
    }

    #[test]
    fn report_is_identical_at_any_job_count() {
        let base = CampaignConfig { seed: 9, iters: 2, jobs: 1 };
        let seq = run_campaign(&base);
        let par = run_campaign(&CampaignConfig { jobs: 2, ..base });
        assert_eq!(seq.text, par.text, "report bytes must not depend on --jobs");
        assert_eq!(
            seq.repros.iter().map(|r| &r.text).collect::<Vec<_>>(),
            par.repros.iter().map(|r| &r.text).collect::<Vec<_>>()
        );
    }
}
