//! Property-based end-to-end tests: randomly generated programs must
//! behave identically on the reference interpreter and on the out-of-order
//! pipeline under every protection configuration.
//!
//! Programs are generated to terminate by construction: random ALU
//! operations, loads/stores confined to a scratch region, and only
//! *forward* conditional branches (no cycles), closed by `Halt`.

use proptest::prelude::*;
use spt_repro::core::{Config, ThreatModel};
use spt_repro::isa::asm::Assembler;
use spt_repro::isa::interp::Interp;
use spt_repro::isa::{AluOp, BranchCond, MemSize, Program, Reg};
use spt_repro::ooo::{CoreConfig, Machine, RunLimits};

const SCRATCH: u64 = 0x8000;
const SCRATCH_WORDS: u64 = 64;

#[derive(Clone, Debug)]
enum Op {
    MovImm { rd: u8, imm: i16 },
    Alu { op: u8, rd: u8, rs1: u8, rs2: u8 },
    AluImm { op: u8, rd: u8, rs1: u8, imm: i16 },
    Load { rd: u8, slot: u8, size: u8 },
    LoadIdx { rd: u8, idx: u8 },
    Store { rs: u8, slot: u8, size: u8 },
    SkipIf { cond: u8, rs1: u8, rs2: u8, dist: u8 },
}

fn alu_op(code: u8) -> AluOp {
    match code % 13 {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Shl,
        6 => AluOp::Shr,
        7 => AluOp::Sar,
        8 => AluOp::Mul,
        9 => AluOp::Slt,
        10 => AluOp::Sltu,
        11 => AluOp::Seq,
        _ => AluOp::Sne,
    }
}

fn mem_size(code: u8) -> MemSize {
    match code % 4 {
        0 => MemSize::B1,
        1 => MemSize::B2,
        2 => MemSize::B4,
        _ => MemSize::B8,
    }
}

fn cond(code: u8) -> BranchCond {
    match code % 6 {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        4 => BranchCond::Ltu,
        _ => BranchCond::Geu,
    }
}

// r1..r12 are data registers; r13 holds the scratch base; r14 a masked
// index for indexed loads.
fn reg(code: u8) -> Reg {
    Reg::from_index(1 + (code as usize % 12))
}

fn build(ops: &[Op]) -> Program {
    let base = Reg::R13;
    let idx = Reg::R14;
    let mut a = Assembler::new();
    a.mov_imm(base, SCRATCH as i64);
    a.mov_imm(idx, 0);
    let mut pending_skips: Vec<(usize, usize)> = Vec::new(); // (branch pc, remaining ops)
    for (k, op) in ops.iter().enumerate() {
        // Resolve skip labels that land here.
        pending_skips.retain(|&(pc, until)| {
            if until == k {
                a.label(&format!("skip{pc}"));
                false
            } else {
                true
            }
        });
        match *op {
            Op::MovImm { rd, imm } => {
                a.mov_imm(reg(rd), imm as i64);
            }
            Op::Alu { op, rd, rs1, rs2 } => {
                a.alu(alu_op(op), reg(rd), reg(rs1), reg(rs2));
            }
            Op::AluImm { op, rd, rs1, imm } => {
                a.alu_imm(alu_op(op), reg(rd), reg(rs1), imm as i64);
            }
            Op::Load { rd, slot, size } => {
                let off = (slot as u64 % SCRATCH_WORDS) * 8;
                a.load(reg(rd), base, off as i64, mem_size(size));
            }
            Op::LoadIdx { rd, idx: i } => {
                // Mask a data register into a bounded index and gather.
                a.andi(idx, reg(i), (SCRATCH_WORDS - 1) as i64);
                a.ldx8(reg(rd), base, idx);
            }
            Op::Store { rs, slot, size } => {
                let off = (slot as u64 % SCRATCH_WORDS) * 8;
                a.store(reg(rs), base, off as i64, mem_size(size));
            }
            Op::SkipIf { cond: c, rs1, rs2, dist } => {
                let until = (k + 1 + (dist as usize % 5) + 1).min(ops.len());
                let pc = a.pc() as usize;
                a.branch(cond(c), reg(rs1), reg(rs2), &format!("skip{pc}"));
                pending_skips.push((pc, until));
            }
        }
    }
    for (pc, _) in pending_skips {
        a.label(&format!("skip{pc}"));
    }
    a.halt();
    a.assemble().expect("generated program assembles")
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<i16>()).prop_map(|(rd, imm)| Op::MovImm { rd, imm }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(op, rd, rs1, rs2)| Op::Alu { op, rd, rs1, rs2 }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>())
            .prop_map(|(op, rd, rs1, imm)| Op::AluImm { op, rd, rs1, imm }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(rd, slot, size)| Op::Load {
            rd,
            slot,
            size
        }),
        (any::<u8>(), any::<u8>()).prop_map(|(rd, idx)| Op::LoadIdx { rd, idx }),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(rs, slot, size)| Op::Store {
            rs,
            slot,
            size
        }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(cond, rs1, rs2, dist)| Op::SkipIf { cond, rs1, rs2, dist }),
    ]
}

fn final_state(program: &Program, config: Config) -> (u64, Vec<u64>, Vec<u64>) {
    let mut m = Machine::new(program.clone(), CoreConfig::default(), config);
    let out = m.run(RunLimits::default()).expect("pipeline runs");
    let regs = Reg::all().map(|r| m.reg(r)).collect();
    let mem = (0..SCRATCH_WORDS).map(|i| m.mem().store_ref().read(SCRATCH + 8 * i, 8)).collect();
    (out.retired, regs, mem)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn random_programs_match_interpreter_under_all_protections(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let program = build(&ops);

        let mut interp = Interp::new(&program);
        interp.run(100_000).expect("interp halts");
        let ref_regs: Vec<u64> = Reg::all().map(|r| interp.reg(r)).collect();
        let ref_mem: Vec<u64> =
            (0..SCRATCH_WORDS).map(|i| interp.mem().read(SCRATCH + 8 * i, 8)).collect();

        for config in [
            Config::unsafe_baseline(ThreatModel::Futuristic),
            Config::secure_baseline(ThreatModel::Futuristic),
            Config::spt_full(ThreatModel::Futuristic),
            Config::spt_ideal(ThreatModel::Futuristic),
            Config::stt(ThreatModel::Spectre),
            Config::spt_full(ThreatModel::Spectre),
        ] {
            let (retired, regs, mem) = final_state(&program, config);
            prop_assert_eq!(retired, interp.retired(), "retired under {}", config);
            prop_assert_eq!(&regs, &ref_regs, "registers under {}", config);
            prop_assert_eq!(&mem, &ref_mem, "memory under {}", config);
        }
    }

    #[test]
    fn random_programs_on_tiny_core(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let program = build(&ops);
        let mut interp = Interp::new(&program);
        interp.run(100_000).expect("interp halts");

        let mut m = Machine::new(
            program.clone(),
            CoreConfig::tiny(),
            Config::spt_full(ThreatModel::Futuristic),
        );
        let out = m.run(RunLimits::default()).expect("tiny core runs");
        prop_assert_eq!(out.retired, interp.retired());
        for r in Reg::all() {
            prop_assert_eq!(m.reg(r), interp.reg(r), "register {}", r);
        }
    }

}
