//! The SPT simulator's benchmark. See README.md.
//!
//! ```text
//! perfbench --workload <sim-stall|sim-dense|fuzz-campaign|trace-diff>
//!           --seed N --seconds S --trace <0|1> [--bless]
//! ```
//!
//! The last line on stdout is the result: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A fuller record of the run, with sample counts and the
//! host, goes to `.bench_out/results/`, and the spans of a traced run to
//! `.bench_out/spans/`. `--bless` prints the cells' digests in the
//! `pinned.txt` format instead of the result.

mod cells;
mod check;
mod reference;
mod report;
mod spans;
mod stats;
mod workloads;

use check::{parse_pinned, Gate, PINNED_SEED};
use report::{result_line, Metrics};
use spans::Spans;
use spt_util::Json;
use std::path::Path;
use std::process::exit;
use std::time::{Duration, Instant};
use workloads::Kind;

/// Digests of every simulated cell at [`PINNED_SEED`].
const PINNED: &str = include_str!("../pinned.txt");
/// Where run records and spans are written, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
    bless: bool,
}

fn usage(why: &str) -> ! {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> [--bless]",
        Kind::ALL.map(Kind::name).join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut traced, mut bless) = (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let v = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num =
            || v.parse::<u64>().unwrap_or_else(|_| usage(&format!("{flag}: not a number: {v}")));
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))))
            }
            "--seed" => seed = Some(num()),
            "--seconds" => seconds = Some(num().max(1)),
            "--trace" => {
                traced = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        kind: kind.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or(PINNED_SEED),
        seconds: seconds.unwrap_or(10),
        traced: traced.unwrap_or(false),
        bless,
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .and_then(|r| r.split_once(':'))
                .map(|r| r.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes `doc` to `dir/name`, warning instead of failing: records are a
/// by-product, the result line is the output.
fn write_out(dir: &str, name: &str, doc: &Json) {
    let dir = Path::new(OUT_DIR).join(dir);
    let r = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), doc.to_string()));
    if let Err(e) = r {
        eprintln!("warning: cannot write {}: {e}", dir.join(name).display());
    }
}

fn main() {
    let t_main = Instant::now();
    let a = parse_args();
    let pinned = if a.seed == PINNED_SEED && !a.bless {
        match parse_pinned(PINNED, PINNED_SEED) {
            Ok(t) => Some(t),
            Err(e) => usage(&e),
        }
    } else {
        None
    };
    let mut gate = Gate::new(pinned);
    let mut spans = Spans::new();
    let budget = Duration::from_secs(a.seconds);

    let (suite, mut setup) = workloads::setup(a.seed, t_main, budget, &mut spans);
    let cells = workloads::cells(a.kind, &suite);
    if a.kind == Kind::TraceDiff {
        workloads::untraced_reference(&cells, &mut gate);
    }
    let mut metrics = if a.traced {
        workloads::traced(a.kind, a.seed, &cells, &mut gate, &mut spans, budget)
    } else {
        match a.kind {
            Kind::SimStall | Kind::SimDense => {
                workloads::sim(&cells, &mut gate, budget, &mut setup)
            }
            Kind::TraceDiff => workloads::trace_diff(&cells, &mut gate, budget, &mut setup),
            Kind::FuzzCampaign => workloads::fuzz(a.seed, &mut gate, budget, &mut setup),
        }
    };
    let setup_s = setup.finish(&mut spans);
    if !a.traced {
        metrics.set("setup_s", stats::median(&setup_s).unwrap_or(0.0), setup_s.len());
        metrics.set("peak_rss_mb", peak_rss_mb(), 1);
    }

    if a.bless {
        for c in &cells {
            if let Some(d) = gate.reference(&c.key) {
                println!("{} {} {d}", a.seed, c.key);
            }
        }
        return;
    }
    finish(&a, &gate, &metrics, &spans);
}

fn finish(a: &Args, gate: &Gate, metrics: &Metrics, spans: &Spans) {
    let tag = format!("trace{}-seed{}-pid{}", u8::from(a.traced), a.seed, std::process::id());
    let table = metrics.table(a.traced);
    let record = Json::obj([
        ("workload", Json::str(a.kind.name())),
        ("seed", Json::U64(a.seed)),
        ("trace", Json::Bool(a.traced)),
        ("seconds", Json::U64(a.seconds)),
        ("attempted", Json::U64(gate.attempted)),
        ("failed", Json::U64(gate.failed)),
        ("failed_frac", Json::F64(gate.failed_frac())),
        (
            "available_parallelism",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", Json::str(cpu_model())),
        (
            "metrics",
            Json::obj(table.iter().map(|&(n, u, v, s)| {
                (
                    n,
                    Json::obj([
                        ("value", Json::F64(v)),
                        ("unit", Json::str(u)),
                        ("samples", Json::U64(s as u64)),
                    ]),
                )
            })),
        ),
        (
            "extra",
            Json::obj(metrics.extras().into_iter().map(|(n, v, s)| {
                (n, Json::obj([("value", Json::F64(v)), ("samples", Json::U64(s as u64))]))
            })),
        ),
    ]);
    write_out(&format!("results/{}", a.kind.name()), &format!("{tag}.json"), &record);
    if a.traced {
        write_out("spans", &format!("{}-{tag}.json", a.kind.name()), &spans.to_json());
    }
    let line = result_line(gate.failed == 0, gate.attempted.max(1), gate.failed, metrics, a.traced);
    println!("{line}");
}
