//! `spt-fuzz`: differential, relational and acceleration fuzzing campaign
//! driver.
//!
//! ```text
//! spt-fuzz [--seed N] [--iters N] [--jobs N] [--corpus-dir DIR]
//! spt-fuzz --emit-samples [--corpus-dir DIR]
//! ```
//!
//! Exit status 0 means no findings *and* the unsafe-baseline positive
//! control demonstrated a leak. Findings are shrunk and written to the
//! corpus directory as replayable `.s` reproducers.

use std::path::PathBuf;
use std::process::ExitCode;

use spt_fuzz::campaign::{run_campaign, CampaignConfig};
use spt_fuzz::harness::{differential, relational};
use spt_fuzz::{generator, repro};

fn usage() -> ! {
    eprintln!(
        "usage: spt-fuzz [--seed N] [--iters N] [--jobs N] [--corpus-dir DIR]\n\
         \u{20}      spt-fuzz --emit-samples [--corpus-dir DIR]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = CampaignConfig::default();
    let mut corpus_dir = PathBuf::from("fuzz/corpus");
    let mut emit_samples = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage();
            })
        };
        match arg.as_str() {
            "--seed" => match value("--seed").parse() {
                Ok(v) => cfg.seed = v,
                Err(_) => usage(),
            },
            "--iters" => match value("--iters").parse() {
                Ok(v) => cfg.iters = v,
                Err(_) => usage(),
            },
            "--jobs" => match value("--jobs").parse() {
                Ok(v) if v >= 1 => cfg.jobs = v,
                _ => usage(),
            },
            "--corpus-dir" => corpus_dir = PathBuf::from(value("--corpus-dir")),
            "--emit-samples" => emit_samples = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    if emit_samples {
        return emit_corpus_samples(&corpus_dir);
    }

    let report = run_campaign(&cfg);
    print!("{}", report.text);
    if !report.repros.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&corpus_dir) {
            eprintln!("cannot create {}: {e}", corpus_dir.display());
            return ExitCode::from(2);
        }
        for r in &report.repros {
            let path = corpus_dir.join(&r.file_name);
            match std::fs::write(&path, &r.text) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
    }
    if report.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Seeds the corpus with three curated, verified sample programs: a
/// Spectre-gadget positive control, a quiet dataflow program, and an
/// architectural-leak classifier exercise. Deterministic, so re-running
/// regenerates the committed corpus byte-for-byte.
fn emit_corpus_samples(corpus_dir: &PathBuf) -> ExitCode {
    const BASE: u64 = 0x00c0_ffee;
    let mut picks: Vec<(&str, &str, generator::TestProgram)> = Vec::new();
    let (mut want_gadget, mut want_quiet, mut want_leak) = (true, true, true);
    for n in 0..4096u64 {
        if !(want_gadget || want_quiet || want_leak) {
            break;
        }
        let tp = generator::generate(BASE + n);
        if want_gadget && tp.has_gadget && !tp.expect_arch_leak {
            let rel = relational(&tp);
            if differential(&tp).is_empty() && rel.findings.is_empty() && rel.unsafe_diverged {
                picks.push((
                    "spectre_gadget.s",
                    "Spectre-v1 gadget: transient secret-indexed probe load; the \
                     unsafe baseline must leak, every protected config must not",
                    tp,
                ));
                want_gadget = false;
            }
            continue;
        }
        if want_quiet && !tp.has_gadget && !tp.expect_arch_leak {
            let rel = relational(&tp);
            if differential(&tp).is_empty() && rel.findings.is_empty() {
                picks.push((
                    "quiet_dataflow.s",
                    "secret-free control/data flow with loops, store-forwarding and \
                     pointer chases; all configs must agree with the interpreter",
                    tp,
                ));
                want_quiet = false;
            }
            continue;
        }
        if want_leak && tp.expect_arch_leak && !tp.has_gadget {
            let rel = relational(&tp);
            if differential(&tp).is_empty() && rel.arch_leak && rel.findings.is_empty() {
                picks.push((
                    "arch_leak_branch.s",
                    "branches architecturally on a secret bit; the harness must \
                     classify it as an architectural leak, not a protection bug",
                    tp,
                ));
                want_leak = false;
            }
        }
    }
    if want_gadget || want_quiet || want_leak {
        eprintln!("could not find all three sample classes");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(corpus_dir) {
        eprintln!("cannot create {}: {e}", corpus_dir.display());
        return ExitCode::from(2);
    }
    for (name, note, tp) in &picks {
        let text = repro::to_text(tp, &[note.to_string()]);
        let path = corpus_dir.join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
