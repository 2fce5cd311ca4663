//! Skipping quiet cycles is exact.
//!
//! `Machine::run` jumps over runs of quiet cycles and replays their counter
//! effects; stepping every cycle through `Machine::step_cycle` is the
//! reference. For long runs of stall-heavy and dense workloads, under the
//! four benchmark columns and both threat models, with telemetry on, the
//! two must agree on the stop reason, the final cycle, the stats document,
//! the attacker-observation digest, the cycle stack and the telemetry
//! document. The 2k-retired equivalence goldens are too short for this:
//! an icache-stall horizon off by one cycle passed them and still moved
//! chacha20 at 40k retired.

use spt_bench::runner::{default_jobs, prepare_machine, run_indexed};
use spt_fuzz::harness::run_and_step;
use spt_repro::core::{Config, ThreatModel};
use spt_repro::isa::asm::Assembler;
use spt_repro::isa::Reg;
use spt_repro::ooo::{CoreConfig, Machine, RunLimits, SimError, StopReason};
use spt_repro::workloads::{full_suite, Scale, Workload};

/// `(workload, retired budget)`: the dense kernel at the longer budget,
/// three stall-heavy SPEC proxies at the shorter one.
const CELLS: [(&str, u64); 4] =
    [("chacha20", 40_000), ("gcc", 20_000), ("mcf", 20_000), ("xz", 20_000)];

fn columns(threat: ThreatModel) -> [Config; 4] {
    [
        Config::unsafe_baseline(threat),
        Config::secure_baseline(threat),
        Config::spt_full(threat),
        Config::stt(threat),
    ]
}

#[test]
fn run_matches_stepping_on_long_runs() {
    spt_repro::workloads::set_input_seed(0);
    let suite: Vec<Workload> = full_suite(Scale::Bench);
    let mut cells = Vec::new();
    for threat in [ThreatModel::Futuristic, ThreatModel::Spectre] {
        for cfg in columns(threat) {
            for (name, budget) in CELLS {
                let w = suite.iter().find(|w| w.name == name).expect("workload in the suite");
                cells.push((w, cfg, budget));
            }
        }
    }
    let results = run_indexed(cells.len(), default_jobs(), |i| {
        let (w, cfg, budget) = cells[i];
        run_and_step(|| prepare_machine(w, cfg), RunLimits::retired(budget))
    });
    let mut total_skipped = 0;
    for ((w, cfg, budget), (run, stepped, skipped)) in cells.iter().zip(results) {
        let cell = format!("{} / {cfg} / {budget}", w.name);
        assert_eq!(run.stop, Some(StopReason::RetireBudget), "{cell}");
        if let Some(diff) = run.first_difference(&stepped) {
            panic!("{cell}: {diff}");
        }
        total_skipped += skipped;
    }
    assert!(total_skipped > 0, "no cycle was skipped: the comparison checks nothing");
}

/// Two movs and no `Halt`: fetch runs off the end and the machine stalls
/// for good once the movs retire.
fn wedged() -> Machine {
    let mut a = Assembler::new();
    a.mov_imm(Reg::R1, 7);
    a.mov_imm(Reg::R2, 9);
    let program = a.assemble().expect("assembles");
    Machine::new(program, CoreConfig::default(), Config::spt_full(ThreatModel::Futuristic))
}

#[test]
fn deadlock_is_reported_at_the_stepped_cycle() {
    let (run, stepped, skipped) = run_and_step(wedged, RunLimits::default());
    assert_eq!(run.stop, None, "the wedged program deadlocks");
    assert_eq!(run.first_difference(&stepped), None);
    assert!(skipped > Machine::WATCHDOG / 2, "the stall was skipped, not stepped");
    let err = wedged().run(RunLimits::default()).expect_err("deadlock");
    assert_eq!(err, SimError::Deadlock { cycle: run.cycles, retired: 2, head_pc: None });
}

#[test]
fn cycle_budget_stops_exactly_inside_a_stall() {
    for n in [1_000, 54_321] {
        let (run, stepped, skipped) = run_and_step(wedged, RunLimits::cycles(n));
        assert_eq!(run.stop, Some(StopReason::CycleBudget));
        assert_eq!(run.cycles, n);
        assert!(skipped > 0, "budget {n} fell inside a skip");
        assert_eq!(run.first_difference(&stepped), None, "budget {n}");
    }
    // A budget inside the stalls of a real workload, between events.
    spt_repro::workloads::set_input_seed(0);
    let suite = full_suite(Scale::Bench);
    let mcf = suite.iter().find(|w| w.name == "mcf").expect("mcf in the suite");
    let cfg = Config::spt_full(ThreatModel::Futuristic);
    for n in [3_001, 20_017] {
        let (run, stepped, _) = run_and_step(|| prepare_machine(mcf, cfg), RunLimits::cycles(n));
        assert_eq!(run.stop, Some(StopReason::CycleBudget));
        assert_eq!(run.cycles, n);
        assert_eq!(run.first_difference(&stepped), None, "mcf budget {n}");
    }
}
