//! A cell is one machine the benchmark builds and runs: a program with
//! its memory image, a protection config and run limits.

use crate::check::{Digest, Gate};
use crate::spans::Spans;
use crate::stats::IdleSplit;
use spt_core::{Config, ProtectionKind, ShadowMode, UntaintMethod};
use spt_fuzz::generator::SECRET_BASE;
use spt_fuzz::TestProgram;
use spt_isa::interp::SparseMem;
use spt_isa::Program;
use spt_mem::MemSystem;
use spt_ooo::{CoreConfig, Machine, RunLimits};
use spt_util::{parse_o3_trace, O3PipeViewSink, ParsedTrace};
use spt_workloads::Workload;
use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

/// Deadlock watchdog of `Machine::run`, mirrored by the stepped run.
const WATCHDOG: u64 = 100_000;

/// Where a cell's program and memory image come from.
#[derive(Clone, Copy)]
pub enum Image<'a> {
    /// A suite workload, built the way users build it.
    Workload(&'a Workload),
    /// A generated fuzz program with its secret variant A.
    Fuzz(&'a TestProgram),
}

impl Image<'_> {
    fn program(&self) -> &Program {
        match self {
            Image::Workload(w) => &w.program,
            Image::Fuzz(tp) => &tp.program,
        }
    }

    pub(crate) fn apply(&self, mem: &mut SparseMem) {
        match self {
            Image::Workload(w) => w.apply_memory(mem),
            Image::Fuzz(tp) => {
                for &(addr, word) in &tp.mem_words {
                    mem.write(addr, word, 8);
                }
                mem.write_bytes(SECRET_BASE, &tp.secret);
            }
        }
    }
}

/// One machine to build and run.
pub struct Cell<'a> {
    /// Identity used for digests and spans.
    pub key: String,
    /// Program and memory image.
    pub image: Image<'a>,
    /// Protection configuration.
    pub cfg: Config,
    /// Stop conditions.
    pub limits: RunLimits,
    /// Whether the cell's digest is pinned for the pinned seed; other
    /// cells (generated programs) need only reproduce their first digest.
    pub pinned: bool,
}

/// Host cost of one run.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Seconds building the machine.
    pub build_s: f64,
    /// Seconds in `Machine::run`.
    pub run_s: f64,
    /// Instructions retired.
    pub retired: u64,
}

impl Timing {
    /// Million retired instructions per second of `Machine::run`.
    pub fn minstr_per_s(&self) -> f64 {
        self.retired as f64 / self.run_s.max(1e-9) / 1e6
    }
}

/// Whether `cfg` is the UnsafeBaseline column.
pub fn is_unsafe(cfg: &Config) -> bool {
    cfg.kind == ProtectionKind::Unsafe
}

/// Whether `cfg` is the SPT{Bwd,ShadowL1} column.
pub fn is_spt(cfg: &Config) -> bool {
    cfg.kind == ProtectionKind::Spt
        && cfg.untaint == UntaintMethod::Bwd
        && cfg.shadow == ShadowMode::L1
}

/// Trace bytes written by a sink: counted, and kept in memory when asked
/// for. Clones share the buffer, so the sink can own one while the
/// benchmark reads another; [`TraceBuf::clear`] keeps the allocation for
/// the next run.
#[derive(Clone)]
pub struct TraceBuf(Rc<RefCell<(u64, bool, Vec<u8>)>>);

impl TraceBuf {
    /// A buffer that keeps the text (`keep`) or only counts bytes.
    pub fn new(keep: bool) -> TraceBuf {
        TraceBuf(Rc::new(RefCell::new((0, keep, Vec::new()))))
    }

    /// Bytes written since the last clear.
    pub fn len(&self) -> u64 {
        self.0.borrow().0
    }

    /// Forgets the bytes written, keeping the allocation.
    pub fn clear(&self) {
        let mut t = self.0.borrow_mut();
        t.0 = 0;
        t.2.clear();
    }

    /// Parses the kept text as an O3PipeView trace.
    pub fn parse(&self) -> Result<ParsedTrace, String> {
        let t = self.0.borrow();
        std::str::from_utf8(&t.2).map_err(|e| e.to_string()).and_then(parse_o3_trace)
    }
}

impl Write for TraceBuf {
    fn write(&mut self, b: &[u8]) -> io::Result<usize> {
        let mut t = self.0.borrow_mut();
        t.0 += b.len() as u64;
        if t.1 {
            t.2.extend_from_slice(b);
        }
        Ok(b.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Cell<'_> {
    /// Builds the machine the way its users do: `prepare_machine` for
    /// suite workloads, the fuzz harness's recipe for generated programs.
    pub fn build(&self) -> Machine {
        match self.image {
            Image::Workload(w) => spt_bench::runner::prepare_machine(w, self.cfg),
            Image::Fuzz(_) => {
                let mut mem = MemSystem::default();
                self.image.apply(mem.store());
                Machine::with_memory(
                    self.image.program().clone(),
                    CoreConfig::default(),
                    self.cfg,
                    mem,
                )
            }
        }
    }

    /// Runs `m` to this cell's limits; `Err` on a deadlock, or when a cell
    /// with no retired limit does not halt.
    pub fn run(&self, m: &mut Machine) -> Result<(), String> {
        let out = m.run(self.limits).map_err(|e| format!("{}: {e}", self.key))?;
        if self.limits.max_retired == u64::MAX && !m.halted() {
            return Err(format!("{}: no halt within {} cycles", self.key, out.cycles));
        }
        Ok(())
    }

    /// Builds and runs the cell, `setup` applied to the machine before
    /// the run; the timing covers build and run only.
    pub fn timed(&self, setup: impl FnOnce(&mut Machine)) -> (Timing, Machine, Result<(), String>) {
        let t0 = Instant::now();
        let mut m = self.build();
        setup(&mut m);
        let t1 = Instant::now();
        let r = self.run(&mut m);
        let t2 = Instant::now();
        let t = Timing {
            build_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            retired: m.stats().retired,
        };
        (t, m, r)
    }

    /// Checks the digest of this cell's finished machine.
    pub fn verify(&self, gate: &mut Gate, m: &Machine) -> Result<(), String> {
        let d = Digest::of(m);
        if self.pinned {
            gate.verify(&self.key, d)
        } else {
            gate.verify_stable(&self.key, d)
        }
    }

    /// [`Cell::timed`], then the machine's digest checked by the gate.
    pub fn measure(&self, gate: &mut Gate, setup: impl FnOnce(&mut Machine)) -> (Timing, Machine) {
        let (t, m, r) = self.timed(setup);
        let why = r.and_then(|()| self.verify(gate, &m)).err();
        gate.count(why);
        (t, m)
    }

    /// [`Cell::measure`] with an `O3PipeViewSink::with_events` writing
    /// into `buf`, and telemetry on when `telemetry`.
    pub fn measure_traced(&self, gate: &mut Gate, buf: &TraceBuf, telemetry: bool) -> Timing {
        buf.clear();
        let (t, mut m) = self.measure(gate, |m| {
            m.set_trace_sink(Box::new(O3PipeViewSink::with_events(buf.clone())));
            if telemetry {
                m.enable_telemetry();
            }
        });
        if let Some(Err(e)) = m.take_trace_sink().map(|mut sink| sink.flush()) {
            gate.count(Some(format!("{}: trace flush: {e}", self.key)));
        }
        t
    }

    /// Parses the trace in `buf`, counting a failure when it does not.
    pub fn parse_trace(&self, gate: &mut Gate, buf: &TraceBuf) -> Option<ParsedTrace> {
        buf.parse()
            .map_err(|e| gate.count(Some(format!("{}: trace does not parse: {e}", self.key))))
            .ok()
    }
}

/// Per-layer counters summed over the cells of a traced run.
#[derive(Debug, Default)]
pub struct LayerSums {
    /// Idle/busy split of stepped cycles.
    pub idle: IdleSplit,
    /// Simulated cycles of stepped runs.
    pub cycles: u64,
    /// Retired instructions of stepped runs.
    pub retired: u64,
    /// Fetched instructions of stepped runs.
    pub fetched: u64,
    /// Squashes of stepped runs.
    pub squashes: u64,
    /// Misses per level (L1D, L2, L3).
    pub misses: [u64; 3],
    /// Accesses per level (L1D, L2, L3).
    pub accesses: [u64; 3],
    /// L1D MSHR rejections.
    pub mshr_rejections: u64,
    /// Frontend predictions of every kind.
    pub predictions: u64,
    /// Retired conditional branches and their mispredictions.
    pub branches: (u64, u64),
    /// SPT untaint events.
    pub untaint_events: u64,
    /// Cycles with at least one untaint.
    pub untainting_cycles: u64,
    /// Untaint broadcasts deferred by the bus width.
    pub broadcasts_deferred: u64,
    /// Policy-delayed transmitter cycles.
    pub transmitter_delay_cycles: u64,
    /// Policy-deferred resolution cycles.
    pub resolution_delay_cycles: u64,
    /// Plain runs through the user path.
    pub plain: Vec<Timing>,
    /// Runs with the O3PipeView sink attached.
    pub sink: Vec<Timing>,
    /// Runs with telemetry on.
    pub telemetry: Vec<Timing>,
    /// Stepped runs, timed as a whole.
    pub stepped: Vec<Timing>,
    /// Trace bytes written.
    pub trace_bytes: u64,
    /// Trace bytes parsed.
    pub parse_bytes: u64,
    /// `(key, config is unsafe, config is SPT, cycles, ns per cycle)` of
    /// plain runs, for the SPT host-cost ratio.
    pub per_cycle: Vec<(String, bool, bool, u64, f64)>,
}

/// The traced tour of one cell: split construction, a stepped run with
/// idle classification, then plain, sink-on and telemetry-on runs, each
/// checked against the gate. Returns the parsed trace when `keep_trace`.
pub fn tour(
    cell: &Cell<'_>,
    group: &str,
    spans: &mut Spans,
    gate: &mut Gate,
    sums: &mut LayerSums,
    keep_trace: bool,
) -> Option<ParsedTrace> {
    spans.set_cell(&cell.key);

    // Construction, split into its three layers.
    let mut mem = spans.time("mem.construct", MemSystem::default);
    spans.time("isa.image_load", || cell.image.apply(mem.store()));
    let prog = cell.image.program().clone();
    let mut m = spans
        .time("ooo.construct", || Machine::with_memory(prog, CoreConfig::default(), cell.cfg, mem));

    // Stepped run, mirroring `Machine::run`'s stop conditions.
    spans.enter("ooo.step");
    let mut split = IdleSplit::default();
    let (mut last_retired, mut last_retire_cycle) = (0, 0);
    let t0 = Instant::now();
    let stepped = loop {
        let s = m.stats();
        if m.halted() || s.cycles >= cell.limits.max_cycles || s.retired >= cell.limits.max_retired
        {
            break Ok(());
        }
        let before = (s.retired, s.fetched);
        let t = Instant::now();
        m.step_cycle();
        let ns = t.elapsed().as_nanos() as f64;
        let a = m.stats();
        split.record(before, (a.retired, a.fetched), ns);
        if a.retired != last_retired {
            (last_retired, last_retire_cycle) = (a.retired, a.cycles);
        }
        if a.cycles - last_retire_cycle > WATCHDOG {
            break Err(format!("{}: stepped run deadlocked at cycle {}", cell.key, a.cycles));
        }
    };
    let step_s = t0.elapsed().as_secs_f64();
    spans.exit();
    let why = match stepped {
        Ok(()) if cell.limits.max_retired == u64::MAX && !m.halted() => {
            Some(format!("{}: stepped run did not halt", cell.key))
        }
        Ok(()) => {
            let r = spans.time("util.digest", || cell.verify(gate, &m));
            r.err().map(|e| format!("stepped run: {e}"))
        }
        Err(e) => Some(e),
    };
    gate.count(why);

    let s = m.stats();
    sums.idle.merge(&split);
    sums.cycles += s.cycles;
    sums.retired += s.retired;
    sums.fetched += s.fetched;
    sums.squashes += s.squashes;
    sums.stepped.push(Timing { build_s: 0.0, run_s: step_s, retired: s.retired });
    for (i, c) in [m.mem().l1(), m.mem().l2(), m.mem().l3()].into_iter().enumerate() {
        let cs = c.stats();
        sums.misses[i] += cs.misses;
        sums.accesses[i] += cs.hits + cs.misses;
    }
    sums.mshr_rejections += m.mem().l1().stats().mshr_rejections;
    sums.predictions += m.frontend_stats().total();
    sums.branches.0 += s.retired_branches;
    sums.branches.1 += s.branch_mispredicts;
    sums.untaint_events += s.spt.events.total();
    sums.untainting_cycles += s.spt.untainting_cycles;
    sums.broadcasts_deferred += s.spt.broadcasts_deferred;
    sums.transmitter_delay_cycles += s.transmitter_delay_cycles;
    sums.resolution_delay_cycles += s.resolution_delay_cycles;

    // Plain, sink-on and telemetry-on runs through the user path.
    let (plain, pm) = spans.time("ooo.run", || cell.measure(gate, |_| ()));
    sums.per_cycle.push((
        group.to_string(),
        is_unsafe(&cell.cfg),
        is_spt(&cell.cfg),
        pm.stats().cycles,
        plain.run_s * 1e9 / pm.stats().cycles.max(1) as f64,
    ));
    sums.plain.push(plain);
    drop(pm);

    let buf = TraceBuf::new(keep_trace);
    let traced = spans.time("util.trace_run", || cell.measure_traced(gate, &buf, false));
    sums.trace_bytes += buf.len();
    sums.sink.push(traced);

    let (tele, _) =
        spans.time("util.telemetry_run", || cell.measure(gate, Machine::enable_telemetry));
    sums.telemetry.push(tele);

    if !keep_trace {
        return None;
    }
    sums.parse_bytes += buf.len();
    spans.time("util.trace_parse", || cell.parse_trace(gate, &buf))
}
