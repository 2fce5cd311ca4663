//! Speculative Taint Tracking (STT, MICRO'19) — the narrower-scope
//! comparison scheme (paper §2.2).
//!
//! STT s-taints the output of every speculative *access instruction*
//! (load) and propagates s-taint to dependents. A register s-untaints —
//! instantly, for all dependents — once the youngest load it depends on
//! reaches the visibility point. We implement this with the YRoT
//! ("youngest root of taint") technique from the STT paper: each physical
//! register records the sequence number of the youngest load in its
//! dataflow history; a register is s-tainted iff that load has not yet
//! reached the VP. Advancing the VP frontier therefore untaints an entire
//! dependence tree in a single step, matching STT's single-cycle untaint
//! hardware.

use crate::engine::{PhysReg, Seq};
use spt_isa::Inst;

/// The STT s-taint tracker.
///
/// # Example
///
/// ```
/// use spt_core::stt::SttTracker;
///
/// let mut stt = SttTracker::new(8);
/// // seq 5: load writes phys 1.
/// stt.rename_load(5, 1);
/// // seq 6: ALU phys 2 = f(phys 1).
/// stt.rename_alu(&[Some(1)], Some(2));
/// assert!(stt.tainted(2));
/// // The load reaches the VP: the whole tree untaints at once.
/// stt.advance_vp_frontier(5);
/// assert!(!stt.tainted(1));
/// assert!(!stt.tainted(2));
/// ```
#[derive(Clone, Debug)]
pub struct SttTracker {
    /// Per physical register: seq of the youngest root load, `None` if the
    /// value has no speculative-load ancestry.
    yrot: Vec<Option<Seq>>,
    /// All instructions with `seq <= frontier` have reached the VP.
    frontier: Seq,
}

impl SttTracker {
    /// Creates a tracker for `num_phys` registers, all initially public
    /// (STT does not protect non-speculatively-accessed data — that is
    /// precisely its limitation relative to SPT, paper §3).
    pub fn new(num_phys: usize) -> SttTracker {
        SttTracker { yrot: vec![None; num_phys], frontier: 0 }
    }

    /// Registers a load's destination at rename: its output is s-tainted
    /// until the load itself (seq) reaches the VP.
    pub fn rename_load(&mut self, seq: Seq, dest: PhysReg) {
        self.yrot[dest as usize] = Some(seq);
    }

    /// Registers a non-load instruction at rename: the destination inherits
    /// the youngest root among the sources.
    pub fn rename_alu(&mut self, srcs: &[Option<PhysReg>], dest: Option<PhysReg>) {
        let y = srcs.iter().flatten().filter_map(|&p| self.yrot[p as usize]).max();
        if let Some(d) = dest {
            self.yrot[d as usize] = y;
        }
    }

    /// Whether `phys` is currently s-tainted.
    pub fn tainted(&self, phys: PhysReg) -> bool {
        self.yrot[phys as usize].is_some_and(|root| root > self.frontier)
    }

    /// Whether every operand of `inst` that leaks at the VP (addresses,
    /// predicates, jump targets) is free of s-taint — STT's counterpart of
    /// `TaintEngine::leak_operands_clear`. `srcs` holds the renamed source
    /// registers in [`Inst::sources`] order.
    pub fn leak_operands_clear(&self, inst: &Inst, srcs: &[Option<PhysReg>; 3]) -> bool {
        inst.sources()
            .iter()
            .zip(srcs)
            .all(|((_, role), p)| !role.leaks_at_vp() || p.is_none_or(|p| !self.tainted(p)))
    }

    /// Advances the VP frontier: every instruction with `seq <= frontier`
    /// is now non-speculative, so every register rooted at such a load
    /// untaints simultaneously (STT's single-cycle untaint).
    pub fn advance_vp_frontier(&mut self, frontier: Seq) {
        self.frontier = self.frontier.max(frontier);
    }

    /// Current VP frontier.
    pub fn frontier(&self) -> Seq {
        self.frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_registers_are_public() {
        let stt = SttTracker::new(4);
        for p in 0..4 {
            assert!(!stt.tainted(p));
        }
    }

    #[test]
    fn yrot_takes_youngest_root() {
        let mut stt = SttTracker::new(8);
        stt.rename_load(3, 1);
        stt.rename_load(7, 2);
        stt.rename_alu(&[Some(1), Some(2)], Some(3));
        // Frontier passes the older load only: dest still rooted at seq 7.
        stt.advance_vp_frontier(3);
        assert!(!stt.tainted(1));
        assert!(stt.tainted(2));
        assert!(stt.tainted(3));
        stt.advance_vp_frontier(7);
        assert!(!stt.tainted(3));
    }

    #[test]
    fn alu_of_public_sources_is_public() {
        let mut stt = SttTracker::new(8);
        stt.rename_alu(&[Some(1), Some(2)], Some(3));
        assert!(!stt.tainted(3));
    }

    #[test]
    fn overwriting_a_register_clears_old_root() {
        let mut stt = SttTracker::new(8);
        stt.rename_load(5, 1);
        assert!(stt.tainted(1));
        // Physical register 1 is recycled for a non-speculative value.
        stt.rename_alu(&[None, None], Some(1));
        assert!(!stt.tainted(1));
    }

    #[test]
    fn leak_operands_ignore_data_operands() {
        use spt_isa::{MemSize, Reg};
        let mut stt = SttTracker::new(8);
        stt.rename_load(4, 1);
        // Store: base (address) in phys 2, data in phys 1 (s-tainted).
        let st = Inst::Store {
            src: Reg::R1,
            base: Reg::R2,
            index: Reg::R0,
            scale: 0,
            offset: 0,
            size: MemSize::B8,
        };
        assert!(stt.leak_operands_clear(&st, &[Some(2), Some(1), None]));
        // The same s-tainted register as the base address blocks it.
        assert!(!stt.leak_operands_clear(&st, &[Some(1), Some(2), None]));
        stt.advance_vp_frontier(4);
        assert!(stt.leak_operands_clear(&st, &[Some(1), Some(2), None]));
    }

    #[test]
    fn frontier_is_monotone() {
        let mut stt = SttTracker::new(4);
        stt.advance_vp_frontier(10);
        stt.advance_vp_frontier(5);
        assert_eq!(stt.frontier(), 10);
    }
}
