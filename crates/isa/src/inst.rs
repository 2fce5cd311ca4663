//! Instruction definitions and the static classification used by the SPT
//! untaint algebra.

use crate::reg::Reg;
use std::fmt;

/// ALU operation for [`Inst::Alu`] / [`Inst::AluImm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping 64-bit addition.
    Add,
    /// Wrapping 64-bit subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by `rhs & 63`).
    Shl,
    /// Logical shift right (by `rhs & 63`).
    Shr,
    /// Arithmetic shift right (by `rhs & 63`).
    Sar,
    /// Wrapping 64-bit multiplication.
    Mul,
    /// Set if less-than, signed: `(lhs as i64) < (rhs as i64)`.
    Slt,
    /// Set if less-than, unsigned.
    Sltu,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
    /// Unsigned division (`x / 0 = u64::MAX`, RISC-V semantics). This is a
    /// *variable-time* operation: its latency depends on its operand
    /// values, making it a transmitter in the paper's §2.1 taxonomy.
    Div,
    /// Unsigned remainder (`x % 0 = x`, RISC-V semantics). Variable-time,
    /// like [`AluOp::Div`].
    Rem,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit values.
    ///
    /// # Example
    ///
    /// ```
    /// use spt_isa::AluOp;
    /// assert_eq!(AluOp::Add.eval(u64::MAX, 1), 0);
    /// assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1); // -1 < 0 signed
    /// assert_eq!(AluOp::Sltu.eval(u64::MAX, 0), 0);
    /// ```
    pub fn eval(self, lhs: u64, rhs: u64) -> u64 {
        match self {
            AluOp::Add => lhs.wrapping_add(rhs),
            AluOp::Sub => lhs.wrapping_sub(rhs),
            AluOp::And => lhs & rhs,
            AluOp::Or => lhs | rhs,
            AluOp::Xor => lhs ^ rhs,
            AluOp::Shl => lhs << (rhs & 63),
            AluOp::Shr => lhs >> (rhs & 63),
            AluOp::Sar => ((lhs as i64) >> (rhs & 63)) as u64,
            AluOp::Mul => lhs.wrapping_mul(rhs),
            AluOp::Slt => ((lhs as i64) < (rhs as i64)) as u64,
            AluOp::Sltu => (lhs < rhs) as u64,
            AluOp::Seq => (lhs == rhs) as u64,
            AluOp::Sne => (lhs != rhs) as u64,
            AluOp::Div => lhs.checked_div(rhs).unwrap_or(u64::MAX),
            AluOp::Rem => lhs.checked_rem(rhs).unwrap_or(lhs),
        }
    }

    /// Whether the output together with *one* input determines the other
    /// input: `Add`, `Sub` and `Xor` are invertible in this sense, which is
    /// what SPT's backward untaint rule ② (paper §6.6) requires. Rules must
    /// be a function of the instruction type only (no value inspection), so
    /// value-dependent invertibility (e.g. `Mul` by an odd factor) is
    /// deliberately excluded, matching the paper's conservative rule set.
    pub fn is_invertible(self) -> bool {
        matches!(self, AluOp::Add | AluOp::Sub | AluOp::Xor)
    }

    /// Execution latency in cycles on the simulated machine. For
    /// variable-time operations this is the *minimum*; the actual latency
    /// comes from [`AluOp::variable_latency`].
    pub fn latency(self) -> u64 {
        match self {
            AluOp::Mul => 3,
            AluOp::Div | AluOp::Rem => 4,
            _ => 1,
        }
    }

    /// Whether this operation's latency depends on its operand values —
    /// the "variable time instruction" transmitter class of paper §2.1
    /// (cf. early-terminating multipliers and subnormal-operand FPUs).
    pub fn is_variable_time(self) -> bool {
        matches!(self, AluOp::Div | AluOp::Rem)
    }

    /// Operand-dependent latency of a variable-time operation: an
    /// early-terminating divider takes time proportional to the dividend's
    /// significant bits (4–20 cycles). Fixed-time ops return
    /// [`AluOp::latency`].
    pub fn variable_latency(self, lhs: u64, rhs: u64) -> u64 {
        if !self.is_variable_time() {
            return self.latency();
        }
        let _ = rhs;
        4 + (64 - lhs.leading_zeros() as u64) / 4
    }
}

/// Condition for [`Inst::Branch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Taken if `lhs == rhs`.
    Eq,
    /// Taken if `lhs != rhs`.
    Ne,
    /// Taken if `lhs < rhs` (signed).
    Lt,
    /// Taken if `lhs >= rhs` (signed).
    Ge,
    /// Taken if `lhs < rhs` (unsigned).
    Ltu,
    /// Taken if `lhs >= rhs` (unsigned).
    Geu,
}

impl BranchCond {
    /// Evaluates the branch condition.
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            BranchCond::Eq => lhs == rhs,
            BranchCond::Ne => lhs != rhs,
            BranchCond::Lt => (lhs as i64) < (rhs as i64),
            BranchCond::Ge => (lhs as i64) >= (rhs as i64),
            BranchCond::Ltu => lhs < rhs,
            BranchCond::Geu => lhs >= rhs,
        }
    }

    /// The condition that accepts exactly the complementary outcomes.
    pub fn negate(self) -> BranchCond {
        match self {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
            BranchCond::Ltu => BranchCond::Geu,
            BranchCond::Geu => BranchCond::Ltu,
        }
    }
}

/// Width of a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSize {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemSize::B1 => 1,
            MemSize::B2 => 2,
            MemSize::B4 => 4,
            MemSize::B8 => 8,
        }
    }

    /// Truncates `value` to the access width (zero-extension semantics).
    pub fn truncate(self, value: u64) -> u64 {
        match self {
            MemSize::B1 => value & 0xff,
            MemSize::B2 => value & 0xffff,
            MemSize::B4 => value & 0xffff_ffff,
            MemSize::B8 => value,
        }
    }
}

/// The role a source operand plays in its instruction, which determines
/// what its execution leaks (paper §6.1: the microarchitecture must identify,
/// per transmitter, which operands cause operand-dependent resource usage).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperandRole {
    /// Plain data input to an ALU operation; not leaked by execution.
    Data,
    /// Address base of a load or store; fully leaked by the access pattern.
    Address,
    /// Branch predicate input; partially leaked by the control-flow outcome.
    Predicate,
    /// Target of an indirect jump; fully leaked by the fetched PC sequence.
    JumpTarget,
    /// Value stored by a store; not leaked by the store's execution (it flows
    /// into the L1D taint instead, paper §6.8).
    StoreData,
    /// Operand of a variable-time instruction (§2.1): partially leaked by
    /// the instruction's operand-dependent latency.
    VtOperand,
}

impl OperandRole {
    /// Whether an operand in this role is leaked (partially or fully) when
    /// the instruction executes non-speculatively, and hence is declassified
    /// once the instruction reaches the visibility point (paper §6.6).
    pub fn leaks_at_vp(self) -> bool {
        match self {
            OperandRole::Address
            | OperandRole::Predicate
            | OperandRole::JumpTarget
            | OperandRole::VtOperand => true,
            OperandRole::Data | OperandRole::StoreData => false,
        }
    }
}

/// One instruction of the simulated ISA.
///
/// Control-flow targets are in *instruction index* units: the program counter
/// counts instructions, not bytes. [`Inst::Call`] and [`Inst::CallInd`] write
/// the return address (`pc + 1`) to `link`; [`Inst::Ret`] jumps to `link`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// No operation.
    Nop,
    /// Stops the program.
    Halt,
    /// `rd = imm`. The immediate is program text, hence public (§6.5).
    MovImm { rd: Reg, imm: i64 },
    /// `rd = rs` register copy.
    Mov { rd: Reg, rs: Reg },
    /// `rd = op(rs1, rs2)`.
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = op(rs1, imm)`.
    AluImm { op: AluOp, rd: Reg, rs1: Reg, imm: i64 },
    /// `rd = mem[base + (index << scale) + offset]`, zero-extended from
    /// `size` bytes. `index = r0` means no index (plain base+offset). The
    /// scaled-index form mirrors x86 addressing modes, which matter to SPT:
    /// the *index register itself* is a leaked operand of the access and is
    /// declassified when the access reaches the visibility point.
    Load { rd: Reg, base: Reg, index: Reg, scale: u8, offset: i64, size: MemSize },
    /// `mem[base + (index << scale) + offset] = src` truncated to `size`
    /// bytes. `index = r0` means no index.
    Store { src: Reg, base: Reg, index: Reg, scale: u8, offset: i64, size: MemSize },
    /// Conditional branch to instruction index `target`.
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, target: u32 },
    /// Unconditional direct jump.
    Jump { target: u32 },
    /// Indirect jump to the instruction index held in `base`.
    JumpInd { base: Reg },
    /// Direct call: `link = pc + 1; pc = target`.
    Call { target: u32, link: Reg },
    /// Indirect call: `link = pc + 1; pc = base`.
    CallInd { base: Reg, link: Reg },
    /// Return: `pc = link`.
    Ret { link: Reg },
}

/// Classification of an instruction for the SPT untaint algebra (paper §5,
/// §6.5–6.6). The class determines which forward/backward untaint rules apply
/// without inspecting register values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Output is determined by program text alone (`MovImm`, `Call`'s link):
    /// untainted at rename (§6.5).
    Const,
    /// Register copy: forward and backward untaint are both exact (§6.6 ①).
    Copy,
    /// Two-source invertible op (`Add`/`Sub`/`Xor`): backward rule ② applies.
    Invertible2,
    /// One-source invertible op with a public immediate (`AddImm` etc.):
    /// dest untainted ⇒ source untainted.
    InvertibleImm,
    /// Forward-only op: output untaints when all inputs are untainted, but
    /// inputs cannot be recovered from the output (`And`, `Shl`, `Mul`, …).
    Lossy,
    /// Load: output taint is determined by the *data* read, not by the
    /// forward rule (§6.3, §6.7–6.8).
    Load,
    /// Store: a transmitter whose address leaks; data flows to L1D taint.
    Store,
    /// Control flow (branches and jumps, direct or indirect).
    ControlFlow,
    /// No dataflow (Nop, Halt).
    Other,
}

/// A source operand reference: which register, and its role.
pub type Source = (Reg, OperandRole);

/// Fixed-capacity list of an instruction's source operands (at most 3:
/// indexed stores read a base, an index and the stored data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sources {
    items: [Option<Source>; 3],
}

impl Sources {
    /// Maximum number of source operands of any instruction.
    pub const MAX: usize = 3;

    fn none() -> Sources {
        Sources { items: [None, None, None] }
    }

    fn one(s: Source) -> Sources {
        Sources { items: [Some(s), None, None] }
    }

    fn two(a: Source, b: Source) -> Sources {
        Sources { items: [Some(a), Some(b), None] }
    }

    fn three(a: Source, b: Source, c: Source) -> Sources {
        Sources { items: [Some(a), Some(b), Some(c)] }
    }

    /// Iterates over the present source operands.
    pub fn iter(&self) -> impl Iterator<Item = Source> + '_ {
        self.items.iter().flatten().copied()
    }

    /// Number of source operands.
    pub fn len(&self) -> usize {
        self.items.iter().flatten().count()
    }

    /// Whether the instruction has no source operands.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The source in slot `i`, if present.
    pub fn get(&self, i: usize) -> Option<Source> {
        self.items.get(i).copied().flatten()
    }
}

impl Inst {
    /// The destination architectural register written by this instruction,
    /// if any. Writes to `r0` are reported as `None` (discarded).
    pub fn dest(&self) -> Option<Reg> {
        let d = match *self {
            Inst::MovImm { rd, .. }
            | Inst::Mov { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Load { rd, .. } => Some(rd),
            Inst::Call { link, .. } | Inst::CallInd { link, .. } => Some(link),
            _ => None,
        };
        d.filter(|r| !r.is_zero())
    }

    /// The source operands read by this instruction together with their roles.
    pub fn sources(&self) -> Sources {
        use OperandRole::*;
        match *self {
            Inst::Nop
            | Inst::Halt
            | Inst::MovImm { .. }
            | Inst::Jump { .. }
            | Inst::Call { .. } => Sources::none(),
            Inst::Mov { rs, .. } => Sources::one((rs, Data)),
            Inst::Alu { op, rs1, rs2, .. } => {
                let role = if op.is_variable_time() { VtOperand } else { Data };
                Sources::two((rs1, role), (rs2, role))
            }
            Inst::AluImm { op, rs1, .. } => {
                let role = if op.is_variable_time() { VtOperand } else { Data };
                Sources::one((rs1, role))
            }
            Inst::Load { base, index, .. } => {
                if index.is_zero() {
                    Sources::one((base, Address))
                } else {
                    Sources::two((base, Address), (index, Address))
                }
            }
            Inst::Store { src, base, index, .. } => {
                if index.is_zero() {
                    Sources::two((base, Address), (src, StoreData))
                } else {
                    Sources::three((base, Address), (index, Address), (src, StoreData))
                }
            }
            Inst::Branch { rs1, rs2, .. } => Sources::two((rs1, Predicate), (rs2, Predicate)),
            Inst::JumpInd { base } => Sources::one((base, JumpTarget)),
            Inst::CallInd { base, .. } => Sources::one((base, JumpTarget)),
            Inst::Ret { link } => Sources::one((link, JumpTarget)),
        }
    }

    /// The untaint-algebra class of this instruction.
    pub fn class(&self) -> InstClass {
        match *self {
            Inst::Nop | Inst::Halt => InstClass::Other,
            Inst::MovImm { .. } => InstClass::Const,
            Inst::Mov { .. } => InstClass::Copy,
            Inst::Alu { op, .. } => {
                if op.is_invertible() {
                    InstClass::Invertible2
                } else {
                    InstClass::Lossy
                }
            }
            Inst::AluImm { op, .. } => {
                if op.is_invertible() {
                    InstClass::InvertibleImm
                } else {
                    InstClass::Lossy
                }
            }
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Branch { .. }
            | Inst::Jump { .. }
            | Inst::JumpInd { .. }
            | Inst::Call { .. }
            | Inst::CallInd { .. }
            | Inst::Ret { .. } => InstClass::ControlFlow,
        }
    }

    /// Whether this instruction is a *transmit instruction* in the paper's
    /// evaluation sense (§9.1: "transmit instructions are defined as loads
    /// and stores"). Control-flow instructions are protected separately via
    /// the implicit-channel rules (§6.4).
    pub fn is_transmitter(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// For stores: the index (within [`Inst::sources`]) of the stored-data
    /// operand, which varies with the addressing mode.
    pub fn store_data_src(&self) -> Option<usize> {
        match self {
            Inst::Store { index, .. } => Some(if index.is_zero() { 1 } else { 2 }),
            _ => None,
        }
    }

    /// Whether this instruction's latency depends on its operand values
    /// (the variable-time transmitter class of §2.1).
    pub fn is_variable_time(&self) -> bool {
        matches!(self, Inst::Alu { op, .. } | Inst::AluImm { op, .. } if op.is_variable_time())
    }

    /// Whether this instruction is any form of control flow.
    pub fn is_control_flow(&self) -> bool {
        matches!(self.class(), InstClass::ControlFlow)
    }

    /// Whether this control-flow instruction's target comes from a register.
    pub fn is_indirect(&self) -> bool {
        matches!(self, Inst::JumpInd { .. } | Inst::CallInd { .. } | Inst::Ret { .. })
    }

    /// Whether this is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Static direct target, if this is direct control flow.
    pub fn direct_target(&self) -> Option<u32> {
        match *self {
            Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target, .. } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// Execution latency in cycles, excluding memory access time.
    pub fn latency(&self) -> u64 {
        match *self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => op.latency(),
            _ => 1,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Nop => write!(f, "nop"),
            Inst::Halt => write!(f, "halt"),
            Inst::MovImm { rd, imm } => write!(f, "movi {rd}, {imm}"),
            Inst::Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            Inst::Alu { op, rd, rs1, rs2 } => write!(f, "{op:?} {rd}, {rs1}, {rs2}"),
            Inst::AluImm { op, rd, rs1, imm } => write!(f, "{op:?}i {rd}, {rs1}, {imm}"),
            Inst::Load { rd, base, index, scale, offset, size } => {
                if index.is_zero() {
                    write!(f, "ld{} {rd}, [{base}{offset:+}]", size.bytes())
                } else {
                    write!(f, "ld{} {rd}, [{base}+{index}<<{scale}{offset:+}]", size.bytes())
                }
            }
            Inst::Store { src, base, index, scale, offset, size } => {
                if index.is_zero() {
                    write!(f, "st{} {src}, [{base}{offset:+}]", size.bytes())
                } else {
                    write!(f, "st{} {src}, [{base}+{index}<<{scale}{offset:+}]", size.bytes())
                }
            }
            Inst::Branch { cond, rs1, rs2, target } => {
                write!(f, "b{cond:?} {rs1}, {rs2}, @{target}")
            }
            Inst::Jump { target } => write!(f, "j @{target}"),
            Inst::JumpInd { base } => write!(f, "jr {base}"),
            Inst::Call { target, link } => write!(f, "call @{target}, {link}"),
            Inst::CallInd { base, link } => write!(f, "callr {base}, {link}"),
            Inst::Ret { link } => write!(f, "ret {link}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_semantics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX);
        assert_eq!(AluOp::Shl.eval(1, 65), 2, "shift amount is masked to 6 bits");
        assert_eq!(AluOp::Sar.eval(u64::MAX, 8), u64::MAX);
        assert_eq!(AluOp::Shr.eval(u64::MAX, 8), u64::MAX >> 8);
        assert_eq!(AluOp::Seq.eval(7, 7), 1);
        assert_eq!(AluOp::Sne.eval(7, 7), 0);
        assert_eq!(AluOp::Mul.eval(1 << 63, 2), 0);
    }

    #[test]
    fn div_rem_semantics() {
        assert_eq!(AluOp::Div.eval(100, 7), 14);
        assert_eq!(AluOp::Rem.eval(100, 7), 2);
        assert_eq!(AluOp::Div.eval(5, 0), u64::MAX, "RISC-V divide-by-zero");
        assert_eq!(AluOp::Rem.eval(5, 0), 5);
        assert!(AluOp::Div.is_variable_time());
        assert!(AluOp::Div.variable_latency(u64::MAX, 3) > AluOp::Div.variable_latency(1, 3));
    }

    #[test]
    fn branch_cond_negation_partitions() {
        let cases = [
            (BranchCond::Eq, 3u64, 3u64),
            (BranchCond::Lt, u64::MAX, 1),
            (BranchCond::Ltu, u64::MAX, 1),
            (BranchCond::Ge, 5, 5),
        ];
        for (c, a, b) in cases {
            assert_ne!(c.eval(a, b), c.negate().eval(a, b));
        }
    }

    #[test]
    fn zero_register_dest_is_discarded() {
        let i = Inst::MovImm { rd: Reg::ZERO, imm: 4 };
        assert_eq!(i.dest(), None);
        let i = Inst::Load {
            rd: Reg::ZERO,
            base: Reg::R1,
            index: Reg::R0,
            scale: 0,
            offset: 0,
            size: MemSize::B8,
        };
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn store_sources_and_roles() {
        let st = Inst::Store {
            src: Reg::R2,
            base: Reg::R3,
            index: Reg::R0,
            scale: 0,
            offset: 8,
            size: MemSize::B8,
        };
        let srcs: Vec<_> = st.sources().iter().collect();
        assert_eq!(srcs.len(), 2);
        assert_eq!(srcs[0], (Reg::R3, OperandRole::Address));
        assert_eq!(srcs[1], (Reg::R2, OperandRole::StoreData));
        assert!(srcs[0].1.leaks_at_vp());
        assert!(!srcs[1].1.leaks_at_vp());
    }

    #[test]
    fn classes() {
        assert_eq!(Inst::MovImm { rd: Reg::R1, imm: 0 }.class(), InstClass::Const);
        assert_eq!(Inst::Mov { rd: Reg::R1, rs: Reg::R2 }.class(), InstClass::Copy);
        assert_eq!(
            Inst::Alu { op: AluOp::Add, rd: Reg::R1, rs1: Reg::R2, rs2: Reg::R3 }.class(),
            InstClass::Invertible2
        );
        assert_eq!(
            Inst::Alu { op: AluOp::And, rd: Reg::R1, rs1: Reg::R2, rs2: Reg::R3 }.class(),
            InstClass::Lossy
        );
        assert_eq!(
            Inst::AluImm { op: AluOp::Xor, rd: Reg::R1, rs1: Reg::R2, imm: -1 }.class(),
            InstClass::InvertibleImm
        );
    }

    #[test]
    fn transmitters_are_loads_and_stores_only() {
        assert!(Inst::Load {
            rd: Reg::R1,
            base: Reg::R2,
            index: Reg::R0,
            scale: 0,
            offset: 0,
            size: MemSize::B8
        }
        .is_transmitter());
        assert!(Inst::Store {
            src: Reg::R1,
            base: Reg::R2,
            index: Reg::R0,
            scale: 0,
            offset: 0,
            size: MemSize::B8
        }
        .is_transmitter());
        assert!(!Inst::Branch { cond: BranchCond::Eq, rs1: Reg::R1, rs2: Reg::R2, target: 0 }
            .is_transmitter());
        assert!(!Inst::Nop.is_transmitter());
    }

    #[test]
    fn memsize_truncate() {
        assert_eq!(MemSize::B1.truncate(0x1ff), 0xff);
        assert_eq!(MemSize::B2.truncate(0xabcd_ef01), 0xef01);
        assert_eq!(MemSize::B4.truncate(u64::MAX), 0xffff_ffff);
        assert_eq!(MemSize::B8.truncate(u64::MAX), u64::MAX);
    }

    #[test]
    fn indirect_classification() {
        assert!(Inst::Ret { link: Reg::R31 }.is_indirect());
        assert!(Inst::JumpInd { base: Reg::R4 }.is_indirect());
        assert!(!Inst::Jump { target: 3 }.is_indirect());
        assert_eq!(Inst::Jump { target: 3 }.direct_target(), Some(3));
        assert_eq!(Inst::Ret { link: Reg::R31 }.direct_target(), None);
    }
}
