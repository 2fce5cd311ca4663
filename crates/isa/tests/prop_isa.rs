//! Property-based tests for the ISA layer: operand classification over the
//! full instruction space, interpreter algebraic identities, and
//! sparse-memory consistency.

use proptest::prelude::*;
use spt_isa::interp::SparseMem;
use spt_isa::{AluOp, BranchCond, Inst, MemSize, Reg};

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).expect("in range"))
}

fn alu_strategy() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::Sar),
        Just(AluOp::Mul),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Seq),
        Just(AluOp::Sne),
    ]
}

fn cond_strategy() -> impl Strategy<Value = BranchCond> {
    prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Ge),
        Just(BranchCond::Ltu),
        Just(BranchCond::Geu),
    ]
}

fn size_strategy() -> impl Strategy<Value = MemSize> {
    prop_oneof![Just(MemSize::B1), Just(MemSize::B2), Just(MemSize::B4), Just(MemSize::B8)]
}

const IMM_MAX: i64 = (1 << 34) - 1;

fn inst_strategy() -> impl Strategy<Value = Inst> {
    let imm = -(1i64 << 34)..=IMM_MAX;
    prop_oneof![
        Just(Inst::Nop),
        Just(Inst::Halt),
        (reg_strategy(), imm.clone()).prop_map(|(rd, imm)| Inst::MovImm { rd, imm }),
        (reg_strategy(), reg_strategy()).prop_map(|(rd, rs)| Inst::Mov { rd, rs }),
        (alu_strategy(), reg_strategy(), reg_strategy(), reg_strategy())
            .prop_map(|(op, rd, rs1, rs2)| Inst::Alu { op, rd, rs1, rs2 }),
        (alu_strategy(), reg_strategy(), reg_strategy(), imm.clone())
            .prop_map(|(op, rd, rs1, imm)| Inst::AluImm { op, rd, rs1, imm }),
        (reg_strategy(), reg_strategy(), reg_strategy(), 0u8..4, imm.clone(), size_strategy())
            .prop_map(|(rd, base, index, scale, offset, size)| Inst::Load {
                rd,
                base,
                index,
                scale,
                offset,
                size
            }),
        (reg_strategy(), reg_strategy(), reg_strategy(), 0u8..4, imm, size_strategy()).prop_map(
            |(src, base, index, scale, offset, size)| Inst::Store {
                src,
                base,
                index,
                scale,
                offset,
                size
            }
        ),
        (cond_strategy(), reg_strategy(), reg_strategy(), any::<u32>())
            .prop_map(|(cond, rs1, rs2, target)| Inst::Branch { cond, rs1, rs2, target }),
        any::<u32>().prop_map(|target| Inst::Jump { target }),
        reg_strategy().prop_map(|base| Inst::JumpInd { base }),
        (any::<u32>(), reg_strategy()).prop_map(|(target, link)| Inst::Call { target, link }),
        (reg_strategy(), reg_strategy()).prop_map(|(base, link)| Inst::CallInd { base, link }),
        reg_strategy().prop_map(|link| Inst::Ret { link }),
    ]
}

proptest! {
    /// The branch condition and its negation partition every input pair.
    #[test]
    fn branch_negation_partitions(cond in cond_strategy(), a in any::<u64>(), b in any::<u64>()) {
        prop_assert_ne!(cond.eval(a, b), cond.negate().eval(a, b));
    }

    /// ALU identities the backward-untaint rules rely on: invertible ops
    /// really are invertible.
    #[test]
    fn invertible_ops_are_invertible(a in any::<u64>(), b in any::<u64>()) {
        let sum = AluOp::Add.eval(a, b);
        prop_assert_eq!(AluOp::Sub.eval(sum, b), a);
        let diff = AluOp::Sub.eval(a, b);
        prop_assert_eq!(AluOp::Add.eval(diff, b), a);
        let x = AluOp::Xor.eval(a, b);
        prop_assert_eq!(AluOp::Xor.eval(x, b), a);
    }

    /// Memory writes then reads of arbitrary sizes round-trip the written
    /// (truncated) bytes, including across page boundaries.
    #[test]
    fn sparse_mem_write_read(addr in 0u64..100_000, value in any::<u64>(), size_sel in 0usize..4) {
        let size = [1u64, 2, 4, 8][size_sel];
        let mut m = SparseMem::new();
        m.write(addr, value, size);
        let mask = if size == 8 { u64::MAX } else { (1u64 << (8 * size)) - 1 };
        prop_assert_eq!(m.read(addr, size), value & mask);
    }

    /// Writes to disjoint ranges never interfere.
    #[test]
    fn sparse_mem_disjoint_writes(
        a in 0u64..50_000, va in any::<u64>(), vb in any::<u64>()
    ) {
        let b = a + 8;
        let mut m = SparseMem::new();
        m.write(a, va, 8);
        m.write(b, vb, 8);
        prop_assert_eq!(m.read(a, 8), va);
        prop_assert_eq!(m.read(b, 8), vb);
    }

    /// Sources/dest classification is stable: every instruction has at
    /// most 3 sources, and leak-role sources imply the instruction is a
    /// transmitter or control flow.
    #[test]
    fn operand_classification_invariants(inst in inst_strategy()) {
        let srcs = inst.sources();
        prop_assert!(srcs.len() <= 3);
        for (_, role) in srcs.iter() {
            if role.leaks_at_vp() {
                prop_assert!(
                    inst.is_transmitter() || inst.is_control_flow(),
                    "leaking operand on non-transmitter {inst:?}"
                );
            }
        }
        if let Some(d) = inst.dest() {
            prop_assert!(!d.is_zero());
        }
    }
}
