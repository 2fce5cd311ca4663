//! The four workloads: what each runs, and how its metrics are derived.
//! README.md records why each was chosen.

use crate::cells::{is_spt, is_unsafe, tour, Cell, Image, LayerSums, Timing, TraceBuf};
use crate::check::Gate;
use crate::reference::reference_s;
use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{geomean, median, p90_supported, quantile, ratio};
use spt_attrib::{align_retired, diff_traces};
use spt_core::{Config, ProtectionKind, ThreatModel};
use spt_fuzz::harness::{CYCLE_BUDGET, INTERP_BUDGET, THREATS};
use spt_fuzz::{differential, generate, relational, TestProgram};
use spt_isa::interp::{Interp, SparseMem};
use spt_ooo::RunLimits;
use spt_util::ParsedTrace;
use spt_workloads::{Scale, Workload};
use std::time::{Duration, Instant};

/// Working sets larger than L1/L2, large memory images: mostly idle cycles.
const SIM_STALL: [&str; 4] = ["gcc", "mcf", "parest", "xz"];
/// Tiny images, few idle cycles: per-busy-cycle work dominates.
const SIM_DENSE: [&str; 4] = ["exchange2", "povray", "bitslice", "chacha20"];
/// Retired-instruction budget of every `sim-stall` cell.
const STALL_BUDGET: u64 = 20_000;
/// Retired-instruction budget of every `sim-dense` cell.
const DENSE_BUDGET: u64 = 40_000;
/// The `trace-diff` workload and its retired budget.
const TRACE_WORKLOAD: &str = "mcf";
const TRACE_BUDGET: u64 = 2_000;
/// Programs in a `fuzz-campaign` run (its fixed work).
const FUZZ_PROGRAMS: usize = 100;
/// Passes every end-to-end run makes at least, whatever its time budget.
const MIN_PASSES: usize = 3;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: u32 = 9;
/// Least alignment rate a same-workload trace diff must reach.
const MIN_ALIGNED: f64 = 0.99;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Stall-heavy simulation cells.
    SimStall,
    /// Busy-cycle-heavy simulation cells.
    SimDense,
    /// Secret-swap fuzz campaign.
    FuzzCampaign,
    /// Traced UnsafeBaseline vs SPT runs, parsed, aligned and diffed.
    TraceDiff,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] =
        [Kind::SimStall, Kind::SimDense, Kind::FuzzCampaign, Kind::TraceDiff];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SimStall => "sim-stall",
            Kind::SimDense => "sim-dense",
            Kind::FuzzCampaign => "fuzz-campaign",
            Kind::TraceDiff => "trace-diff",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The four columns every simulated workload runs: UnsafeBaseline,
/// SecureBaseline, SPT{Bwd,ShadowL1} and STT, futuristic threat model.
fn columns() -> [Config; 4] {
    let t = ThreatModel::Futuristic;
    [Config::unsafe_baseline(t), Config::secure_baseline(t), Config::spt_full(t), Config::stt(t)]
}

/// Builds the bench-scale suite for `seed` once, timed from `t_main`
/// (taken first thing in `main`), and returns it with the timer of the
/// further builds `setup_s` is the median of.
pub fn setup(
    seed: u64,
    t_main: Instant,
    budget: Duration,
    spans: &mut Spans,
) -> (Vec<Workload>, SetupReps) {
    let (suite, first) = spans.time("workloads.build", || build_suite(seed, t_main));
    let reps =
        SetupReps { seed, start: Instant::now(), every: budget / SETUP_REPS, secs: vec![first] };
    (suite, reps)
}

fn build_suite(seed: u64, t0: Instant) -> (Vec<Workload>, f64) {
    spt_workloads::set_input_seed(seed);
    let suite = spt_workloads::full_suite(Scale::Bench);
    (suite, t0.elapsed().as_secs_f64())
}

/// Set-up times of one run. Besides the first build, the suite is built
/// again at even intervals over the run ([`SetupReps::tick`]), so the
/// median follows the host's load over the whole run, not over its first
/// second.
pub struct SetupReps {
    seed: u64,
    start: Instant,
    every: Duration,
    secs: Vec<f64>,
}

impl SetupReps {
    /// Times one more build when the next is due; called between
    /// operations, outside their timing.
    fn tick(&mut self) {
        let due = self.every * self.secs.len() as u32;
        if self.secs.len() < SETUP_REPS as usize && self.start.elapsed() >= due {
            self.secs.push(build_suite(self.seed, Instant::now()).1);
        }
    }

    /// Times the builds not yet made and returns every build's seconds.
    pub fn finish(mut self, spans: &mut Spans) -> Vec<f64> {
        while self.secs.len() < SETUP_REPS as usize {
            let (_, secs) =
                spans.time("workloads.build", || build_suite(self.seed, Instant::now()));
            self.secs.push(secs);
        }
        self.secs
    }
}

fn find<'a>(suite: &'a [Workload], name: &str) -> &'a Workload {
    suite.iter().find(|w| w.name == name).unwrap_or_else(|| panic!("suite has no workload {name}"))
}

fn cell<'a>(w: &'a Workload, cfg: Config, budget: u64) -> Cell<'a> {
    Cell {
        key: format!("{}/{}/{}/b{budget}", w.name, cfg.name(), cfg.threat),
        image: Image::Workload(w),
        cfg,
        limits: RunLimits::retired(budget),
        pinned: true,
    }
}

/// The simulation cells of `kind` (sim-* and trace-diff).
pub fn cells(kind: Kind, suite: &[Workload]) -> Vec<Cell<'_>> {
    let (names, budget): (&[&str], u64) = match kind {
        Kind::SimStall => (&SIM_STALL, STALL_BUDGET),
        Kind::SimDense => (&SIM_DENSE, DENSE_BUDGET),
        Kind::TraceDiff => {
            let w = find(suite, TRACE_WORKLOAD);
            let [unsafe_, _, spt, _] = columns();
            return vec![cell(w, unsafe_, TRACE_BUDGET), cell(w, spt, TRACE_BUDGET)];
        }
        Kind::FuzzCampaign => return Vec::new(),
    };
    names
        .iter()
        .flat_map(|n| columns().into_iter().map(move |c| (find(suite, n), c)))
        .map(|(w, c)| cell(w, c, budget))
        .collect()
}

/// One operation's wall seconds and the `Machine::run` timings inside it,
/// each with its column.
struct Sample {
    op_s: f64,
    runs: Vec<(Config, Timing)>,
}

/// One operation's passes on one clock: the summed time of the operation
/// and of each machine run inside it.
#[derive(Clone, Default)]
struct Tally {
    passes: usize,
    op: f64,
    /// `(column, retired, summed run time)` of each machine run.
    runs: Vec<(Config, u64, f64)>,
}

impl Tally {
    /// Adds a pass whose times are divided by `unit` seconds.
    fn add(&mut self, s: &Sample, unit: f64) {
        if self.runs.is_empty() {
            self.runs = s.runs.iter().map(|(c, t)| (*c, t.retired, 0.0)).collect();
        }
        self.passes += 1;
        self.op += s.op_s / unit;
        for (r, (_, t)) in self.runs.iter_mut().zip(&s.runs) {
            r.2 += t.run_s / unit;
        }
    }

    /// Mean time of the operation.
    fn mean_op(&self) -> f64 {
        self.op / self.passes as f64
    }
}

/// Sets the time metric `names[0]` (the sum over operations of their
/// mean time) and the rate metrics `names[1..]` (geomean of retired
/// instructions, in units of `insts`, per unit of mean run time, over all
/// machine runs, the UnsafeBaseline runs and the SPT{Bwd,ShadowL1} runs).
fn set_means(m: &mut Metrics, names: [&'static str; 4], insts: f64, tallies: &[Tally]) {
    let ops = tallies.iter().map(|t| t.passes).sum();
    m.set(names[0], tallies.iter().map(Tally::mean_op).sum(), ops);
    let rates: Vec<(Config, f64)> = tallies
        .iter()
        .flat_map(|t| {
            let n = t.passes as f64;
            t.runs.iter().map(move |&(c, retired, s)| (c, retired as f64 / insts / (s / n)))
        })
        .collect();
    let columns: [fn(&Config) -> bool; 3] = [|_| true, is_unsafe, is_spt];
    for (name, f) in names[1..].iter().zip(columns) {
        let v: Vec<f64> = rates.iter().filter(|(c, _)| f(c)).map(|p| p.1).collect();
        m.set(name, geomean(&v).unwrap_or(0.0), v.len() * ops / tallies.len().max(1));
    }
}

/// Repeats passes over operations `0..n` until `budget` has elapsed (at
/// least [`MIN_PASSES`]), and derives the end-to-end metrics from each
/// operation's mean over its passes. The budget is checked between
/// operations, so a run ends at most one operation late and the last pass
/// may be partial.
///
/// On a shared host the neighbours slow the simulator by up to 2× for
/// minutes at a time, longer than a run, so the gated metrics count time
/// in units of the [`reference_s`] workload, timed just before and just
/// after each operation. The plain wall-clock means go to the run record.
fn measure_passes(
    n: usize,
    budget: Duration,
    setup: &mut SetupReps,
    mut op: impl FnMut(usize) -> Sample,
) -> Metrics {
    let (mut wall, mut rel) = (vec![Tally::default(); n], vec![Tally::default(); n]);
    let mut ops = 0;
    let mut before = reference_s();
    let start = Instant::now();
    while ops < MIN_PASSES * n || start.elapsed() < budget {
        let i = ops % n;
        let s = op(i);
        let after = reference_s();
        wall[i].add(&s, 1.0);
        rel[i].add(&s, (before + after) / 2.0);
        before = after;
        ops += 1;
        setup.tick();
    }
    let mut m = Metrics::default();
    let gated = ["wall_ref", "inst_per_ref", "inst_per_ref.unsafe", "inst_per_ref.spt"];
    set_means(&mut m, gated, 1.0, &rel);
    let plain = ["wall_s", "minstr_per_s", "minstr_per_s.unsafe", "minstr_per_s.spt"];
    set_means(&mut m, plain, 1e6, &wall);
    // Recorded, not gated: operation throughput and latency percentiles
    // over the mean wall times (a percentile needs ten operations beyond
    // it).
    let ms: Vec<f64> = wall.iter().map(|t| t.mean_op() * 1e3).collect();
    m.set("passes", ops as f64 / n as f64, ops);
    m.set("ops_per_s", ratio(n as f64 * 1e3, ms.iter().sum()), n);
    m.set("op_ms.p50", median(&ms).unwrap_or(0.0), n);
    if p90_supported(n) {
        m.set("op_ms.p90", quantile(&ms, 0.9).unwrap_or(0.0), n);
    }
    m
}

/// `sim-*`: an operation is one cell, `prepare_machine` + `Machine::run`.
pub fn sim(
    cells: &[Cell<'_>],
    gate: &mut Gate,
    budget: Duration,
    setup: &mut SetupReps,
) -> Metrics {
    measure_passes(cells.len(), budget, setup, |i| {
        let (t, _) = cells[i].measure(gate, |_| ());
        Sample { op_s: t.build_s + t.run_s, runs: vec![(cells[i].cfg, t)] }
    })
}

/// Counts one trace diff, failing it when the traces align below
/// [`MIN_ALIGNED`].
fn check_alignment(gate: &mut Gate, rate: f64) {
    gate.count(
        (rate < MIN_ALIGNED)
            .then(|| format!("trace diff aligned only {rate:.4} (< {MIN_ALIGNED})")),
    );
}

/// Runs each cell once without tracing, so traced runs are checked
/// against the untraced digests.
pub fn untraced_reference(cells: &[Cell<'_>], gate: &mut Gate) {
    for c in cells {
        c.measure(gate, |_| ());
    }
}

/// `trace-diff`: the one operation is both cells traced, both traces
/// parsed, aligned and diffed.
pub fn trace_diff(
    cells: &[Cell<'_>],
    gate: &mut Gate,
    budget: Duration,
    setup: &mut SetupReps,
) -> Metrics {
    // The benchmark's in-memory stand-in for a trace file is reused, so
    // its growth is not charged to every pass.
    let bufs: Vec<TraceBuf> = cells.iter().map(|_| TraceBuf::new(true)).collect();
    measure_passes(1, budget, setup, |_| {
        let t0 = Instant::now();
        let mut traces = Vec::new();
        let mut runs = Vec::new();
        for (c, buf) in cells.iter().zip(&bufs) {
            runs.push((c.cfg, c.measure_traced(gate, buf, true)));
            traces.extend(c.parse_trace(gate, buf));
        }
        if let [a, b] = &traces[..] {
            let rate = align_retired(a, b).rate();
            std::hint::black_box(diff_traces(a, b));
            check_alignment(gate, rate);
        }
        drop(traces);
        Sample { op_s: t0.elapsed().as_secs_f64(), runs }
    })
}

/// SplitMix64 step deriving the `i`-th program seed of a campaign.
fn program_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The two columns each fuzz program is also run on, directly through
/// `Machine::run`, to measure short-machine throughput.
fn probes(tp: &TestProgram, ps: u64) -> Vec<Cell<'_>> {
    let [unsafe_, _, spt, _] = columns();
    [unsafe_, spt]
        .into_iter()
        .map(|cfg| Cell {
            key: format!("fuzz/{ps:016x}/{}/{}", cfg.name(), cfg.threat),
            image: Image::Fuzz(tp),
            cfg,
            limits: RunLimits { max_cycles: CYCLE_BUDGET, max_retired: u64::MAX },
            pinned: false,
        })
        .collect()
}

/// Counts one fuzz program: any finding fails it.
fn count_findings(gate: &mut Gate, ps: u64, findings: &[spt_fuzz::Finding]) {
    let why = findings.first().map(|f| {
        format!(
            "program {ps:#x}: {} finding(s), first {} at {}: {}",
            findings.len(),
            f.kind.label(),
            f.location(),
            f.detail
        )
    });
    gate.count(why);
}

/// Counts the unsafe positive control of a whole campaign.
fn count_control(gate: &mut Gate, diverged: bool) {
    gate.count(
        (!diverged)
            .then(|| "the unsafe baseline never diverged: the positive control failed".to_string()),
    );
}

/// `fuzz-campaign`: an operation is one program through generate,
/// differential and relational; each program also runs once per probe
/// column through `Machine::run`, timed apart from the operation.
pub fn fuzz(seed: u64, gate: &mut Gate, budget: Duration, setup: &mut SetupReps) -> Metrics {
    let programs: Vec<(u64, TestProgram)> = (0..FUZZ_PROGRAMS as u64)
        .map(|i| program_seed(seed, i))
        .map(|ps| (ps, generate(ps)))
        .collect();
    let mut control = false;
    let m = measure_passes(programs.len(), budget, setup, |i| {
        let ps = programs[i].0;
        let t0 = Instant::now();
        let tp = generate(ps);
        let mut findings = differential(&tp);
        let rel = relational(&tp);
        let op_s = t0.elapsed().as_secs_f64();
        findings.extend(rel.findings);
        control |= rel.unsafe_diverged;
        count_findings(gate, ps, &findings);
        let runs =
            probes(&programs[i].1, ps).iter().map(|c| (c.cfg, c.measure(gate, |_| ()).0)).collect();
        Sample { op_s, runs }
    });
    count_control(gate, control);
    m
}

/// Machines the two oracles build for one program: every Table-2 config
/// under both threat models for the differential oracle, and a pair per
/// checked config for the relational one (none when the program leaks
/// architecturally; STT skipped when it reads the secret).
fn machines_per_program(arch_leak: bool, secret_read: bool) -> usize {
    let all: Vec<Config> = THREATS.iter().flat_map(|&t| Config::table2(t)).collect();
    let checked = all
        .iter()
        .filter(|c| !(secret_read && c.protected() && c.kind == ProtectionKind::Stt))
        .count();
    all.len() + if arch_leak { 0 } else { 2 * checked }
}

/// Traced run: whole tours while another fits in `budget` (at least one),
/// with spans around each layer call; returns the per-layer metrics.
pub fn traced(
    kind: Kind,
    seed: u64,
    cells: &[Cell<'_>],
    gate: &mut Gate,
    spans: &mut Spans,
    budget: Duration,
) -> Metrics {
    let mut sums = LayerSums::default();
    let mut aligned = Vec::new();
    let (mut programs, mut machines) = (0usize, 0usize);
    let mut control = false;
    let seeds: Vec<u64> = match kind {
        Kind::FuzzCampaign => (0..FUZZ_PROGRAMS as u64).map(|i| program_seed(seed, i)).collect(),
        _ => Vec::new(),
    };
    let start = Instant::now();
    let mut tours: u32 = 0;
    while tours == 0 || start.elapsed() * (tours + 1) / tours <= budget {
        tours += 1;
        match kind {
            Kind::SimStall | Kind::SimDense => {
                for c in cells {
                    tour(c, c.key.split('/').next().unwrap_or(""), spans, gate, &mut sums, false);
                }
            }
            Kind::TraceDiff => {
                let pair: Vec<ParsedTrace> = cells
                    .iter()
                    .filter_map(|c| tour(c, "trace", spans, gate, &mut sums, true))
                    .collect();
                spans.set_cell("trace-diff");
                if let [a, b] = &pair[..] {
                    let rate = spans.time("attrib.align", || align_retired(a, b)).rate();
                    std::hint::black_box(spans.time("attrib.diff", || diff_traces(a, b)));
                    aligned.push(rate);
                    check_alignment(gate, rate);
                }
            }
            Kind::FuzzCampaign => {
                for &ps in &seeds {
                    spans.set_cell(&format!("fuzz/{ps:016x}"));
                    let tp = spans.time("fuzz.generate", || generate(ps));
                    let mut findings = spans.time("fuzz.differential", || differential(&tp));
                    let rel = spans.time("fuzz.relational", || relational(&tp));
                    findings.extend(rel.findings);
                    control |= rel.unsafe_diverged;
                    count_findings(gate, ps, &findings);
                    programs += 1;
                    machines += machines_per_program(rel.arch_leak, rel.secret_read);
                    let interp = spans.time("isa.interp", || {
                        let mut mem = SparseMem::new();
                        Image::Fuzz(&tp).apply(&mut mem);
                        Interp::with_memory(&tp.program, mem).run(INTERP_BUDGET)
                    });
                    gate.count(interp.err().map(|e| format!("program {ps:#x}: interpreter: {e}")));
                    for c in probes(&tp, ps) {
                        tour(&c, &format!("{ps:016x}"), spans, gate, &mut sums, false);
                    }
                }
            }
        }
    }
    if kind == Kind::FuzzCampaign {
        count_control(gate, control);
    }
    layer_metrics(spans, &sums, tours.into(), &aligned, programs, machines)
}

fn rates(t: &[Timing]) -> Vec<f64> {
    t.iter().map(Timing::minstr_per_s).collect()
}

/// Geomean over paired runs of `a.run_s / b.run_s`.
fn overhead(a: &[Timing], b: &[Timing]) -> f64 {
    geomean(&a.iter().zip(b).map(|(x, y)| x.run_s / y.run_s.max(1e-9)).collect::<Vec<_>>())
        .unwrap_or(0.0)
}

/// SPT ÷ UnsafeBaseline host ns per simulated cycle, geomean over the
/// groups (workload or program) whose two plain runs took the same
/// number of simulated cycles; `(ratio, pairs)`.
fn spt_host_cost(sums: &LayerSums) -> (f64, usize) {
    let pick = |spt: bool| sums.per_cycle.iter().filter(move |e| if spt { e.2 } else { e.1 });
    let ratios: Vec<f64> = pick(true)
        .zip(pick(false))
        .filter(|(s, u)| s.0 == u.0 && s.3 == u.3)
        .map(|(s, u)| s.4 / u.4)
        .collect();
    (geomean(&ratios).unwrap_or(0.0), ratios.len())
}

/// Per-layer metrics. Simulated counts are per tour (every tour repeats
/// the same cells, so they are exact); times are means per call.
fn layer_metrics(
    spans: &Spans,
    s: &LayerSums,
    tours: u64,
    aligned: &[f64],
    programs: usize,
    machines: usize,
) -> Metrics {
    let mut m = Metrics::default();
    let n_cells = s.plain.len();
    let mut mean = |name: &'static str, span: &str| {
        let (ms, n) = spans.total(span);
        m.set(name, ratio(ms, n as f64), n);
    };
    mean("workloads.build_ms", "workloads.build");
    mean("isa.image_load_ms", "isa.image_load");
    mean("isa.interp_ms", "isa.interp");
    mean("mem.construct_ms", "mem.construct");
    mean("ooo.construct_ms", "ooo.construct");
    mean("util.digest_ms", "util.digest");
    mean("fuzz.generate_ms", "fuzz.generate");
    mean("fuzz.differential_ms", "fuzz.differential");
    mean("fuzz.relational_ms", "fuzz.relational");
    mean("attrib.align_ms", "attrib.align");
    mean("attrib.diff_ms", "attrib.diff");
    let r = |a: u64, b: u64| ratio(a as f64, b as f64);
    let count = |c: u64| (c / tours) as f64;
    m.set("mem.l1d_accesses", count(s.accesses[0]), n_cells);
    m.set("mem.l1d_miss_rate", r(s.misses[0], s.accesses[0]), n_cells);
    m.set("mem.l2_miss_rate", r(s.misses[1], s.accesses[1]), n_cells);
    m.set("mem.l3_miss_rate", r(s.misses[2], s.accesses[2]), n_cells);
    m.set("mem.mshr_rejections", count(s.mshr_rejections), n_cells);
    m.set("frontend.predictions", count(s.predictions), n_cells);
    m.set("frontend.cond_mispredict_rate", r(s.branches.1, s.branches.0), n_cells);
    m.set("core.untaint_events", count(s.untaint_events), n_cells);
    m.set("core.untainting_cycles", count(s.untainting_cycles), n_cells);
    m.set("core.broadcasts_deferred", count(s.broadcasts_deferred), n_cells);
    m.set("core.transmitter_delay_cycles", count(s.transmitter_delay_cycles), n_cells);
    m.set("core.resolution_delay_cycles", count(s.resolution_delay_cycles), n_cells);
    let (cost, pairs) = spt_host_cost(s);
    m.set("core.spt_host_cost", cost, pairs);
    m.set("ooo.cycles", count(s.cycles), n_cells);
    m.set("ooo.idle_cycle_frac", s.idle.idle_frac(), n_cells);
    m.set("ooo.ns_per_idle_cycle", ratio(s.idle.idle_ns, s.idle.idle_cycles as f64), n_cells);
    m.set("ooo.ns_per_busy_cycle", ratio(s.idle.busy_ns, s.idle.busy_cycles as f64), n_cells);
    m.set(
        "ooo.wrong_path_frac",
        ratio(s.fetched.saturating_sub(s.retired) as f64, s.fetched as f64),
        n_cells,
    );
    m.set("ooo.squashes", count(s.squashes), n_cells);
    let sink_retired: u64 = s.sink.iter().map(|t| t.retired).sum();
    m.set("util.trace_bytes_per_inst", r(s.trace_bytes, sink_retired), n_cells);
    m.set("util.trace_emit_overhead", overhead(&s.sink, &s.plain), n_cells);
    m.set("util.telemetry_overhead", overhead(&s.telemetry, &s.plain), n_cells);
    let (parse_ms, parses) = spans.total("util.trace_parse");
    m.set("util.trace_parse_mb_per_s", ratio(s.parse_bytes as f64 / 1e6, parse_ms / 1e3), parses);
    m.set("fuzz.machines_per_program", ratio(machines as f64, programs as f64), programs);
    m.set("attrib.aligned_frac", median(aligned).unwrap_or(0.0), aligned.len());
    let traced = geomean(&rates(&s.stepped)).unwrap_or(0.0);
    let plain = geomean(&rates(&s.plain)).unwrap_or(0.0);
    m.set("tracing.minstr_per_s_delta", traced - plain, n_cells);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn program_seeds_are_distinct_and_pure() {
        assert_ne!(program_seed(1, 0), program_seed(1, 1));
        assert_ne!(program_seed(1, 0), program_seed(2, 0));
        assert_eq!(program_seed(3, 4), program_seed(3, 4));
    }

    #[test]
    fn machine_count_follows_the_oracles() {
        assert_eq!(machines_per_program(true, false), 16);
        assert_eq!(machines_per_program(false, false), 48);
        assert_eq!(machines_per_program(false, true), 44);
    }
}
