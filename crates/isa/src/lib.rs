//! RISC-style 64-bit ISA for the SPT reproduction.
//!
//! This crate defines the instruction set simulated by `spt-ooo`, together
//! with an assembler ([`asm::Assembler`]), a text-assembly parser
//! ([`parse`]), and a reference functional interpreter ([`interp`]) used to
//! validate the out-of-order pipeline: every workload must produce identical
//! architectural results on the interpreter and on the pipeline under every
//! protection configuration.
//!
//! The ISA is deliberately simple — 32 general-purpose 64-bit registers
//! (`r0` hardwired to zero), register+offset addressing with 1/2/4/8-byte
//! accesses, compare-and-branch, direct and indirect jumps — but rich enough
//! to express the paper's workloads: pointer chasing, interpreters with
//! indirect dispatch, constant-time ciphers, and Spectre gadgets.
//!
//! # Example
//!
//! ```
//! use spt_isa::asm::Assembler;
//! use spt_isa::interp::Interp;
//! use spt_isa::Reg;
//!
//! let mut a = Assembler::new();
//! a.mov_imm(Reg::R1, 5);
//! a.mov_imm(Reg::R2, 7);
//! a.add(Reg::R3, Reg::R1, Reg::R2);
//! a.halt();
//! let program = a.assemble().unwrap();
//!
//! let mut interp = Interp::new(&program);
//! interp.run(1_000).unwrap();
//! assert_eq!(interp.reg(Reg::R3), 12);
//! ```

pub mod asm;
pub mod inst;
pub mod interp;
pub mod parse;
pub mod program;
pub mod reg;

pub use inst::{AluOp, BranchCond, Inst, InstClass, MemSize, OperandRole};
pub use program::Program;
pub use reg::Reg;
