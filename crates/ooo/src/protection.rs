//! The machine's defence state: one [`Protection`] value per [`Machine`]
//! holds everything a protection scheme tracks, and its methods are the
//! hooks the pipeline calls.
//!
//! SPT (paper §6) and STT (§2.2, §9.2) differ only in how an operand's
//! taint is tracked and therefore when a transmitter or branch may leak
//! it; both share the leak gate [`Protection::may_leak`]. SecureBaseline is
//! SPT with [`spt_core::UntaintMethod::None`]: nothing ever untaints, so
//! every gated instruction waits for the VP.
//!
//! [`Machine`]: crate::Machine

use crate::rob::RobEntry;
use spt_core::{
    Config, PhysReg, ProtectionKind, RenameInfo, Seq, ShadowTaint, SttTracker, TaintEngine,
    TaintMask,
};
use spt_isa::{Inst, InstClass};
use spt_mem::LineEvent;

/// A protection scheme and its taint state.
#[derive(Clone, Debug)]
pub enum Protection {
    /// No protection: everything may leak.
    Unsafe,
    /// SPT: register taint with untaint propagation, plus memory taint.
    Spt {
        /// Rename-time tainting, VP declassification and untaint
        /// propagation.
        engine: Box<TaintEngine>,
        /// Memory taint (shadow L1, whole memory, or none).
        shadow: ShadowTaint,
    },
    /// STT: s-taint rooted at speculative loads.
    Stt {
        /// Youngest-root-of-taint per physical register.
        tracker: SttTracker,
    },
}

impl Protection {
    /// Builds the defence state for `cfg` over `num_phys` physical
    /// registers.
    pub fn new(cfg: &Config, num_phys: usize) -> Protection {
        match cfg.kind {
            ProtectionKind::Unsafe => Protection::Unsafe,
            ProtectionKind::Stt => Protection::Stt { tracker: SttTracker::new(num_phys) },
            ProtectionKind::Spt => {
                let mut engine = TaintEngine::new(*cfg, num_phys);
                // The pinned zero register is architecturally the constant
                // 0, i.e. program text: public under any SPT variant that
                // tracks taint (a synthetic `Const` rename, immediately
                // retired). SecureBaseline tracks nothing, so there it
                // stays tainted.
                if cfg.untaint.forward() {
                    engine.rename(RenameInfo {
                        seq: 0,
                        class: InstClass::Const,
                        srcs: [None, None, None],
                        dest: Some(0),
                        load_bytes: None,
                    });
                    engine.retire(0);
                }
                Protection::Spt { engine: Box::new(engine), shadow: ShadowTaint::new(cfg.shadow) }
            }
        }
    }

    /// The SPT taint engine, if this is SPT.
    pub fn engine(&self) -> Option<&TaintEngine> {
        match self {
            Protection::Spt { engine, .. } => Some(engine),
            _ => None,
        }
    }

    /// The leak gate shared by transmitters, branch resolution and
    /// memory-order violation squashes: `e` may leak its operands once it
    /// reached the VP or every operand it leaks is public.
    pub fn may_leak(&self, e: &RobEntry) -> bool {
        e.vp || match self {
            Protection::Unsafe => true,
            Protection::Spt { engine, .. } => engine.leak_operands_clear(e.seq),
            Protection::Stt { tracker } => tracker.leak_operands_clear(&e.inst, &e.srcs),
        }
    }

    /// Registers a renamed instruction. Under SPT, returns the taint
    /// assigned to its destination.
    pub fn rename(
        &mut self,
        seq: Seq,
        inst: &Inst,
        srcs: &[Option<PhysReg>; 3],
        dest: Option<PhysReg>,
    ) -> Option<TaintMask> {
        match self {
            Protection::Unsafe => None,
            Protection::Spt { engine, .. } => {
                let mut roles = [None; 3];
                for (k, (_, role)) in inst.sources().iter().enumerate() {
                    roles[k] = srcs[k].map(|p| (p, role));
                }
                let load_bytes = match inst {
                    Inst::Load { size, .. } => Some(size.bytes()),
                    _ => None,
                };
                Some(engine.rename(RenameInfo {
                    seq,
                    class: inst.class(),
                    srcs: roles,
                    dest,
                    load_bytes,
                }))
            }
            Protection::Stt { tracker } => {
                match (inst, dest) {
                    (Inst::Load { .. }, Some(d)) => tracker.rename_load(seq, d),
                    (Inst::Load { .. }, None) => {}
                    _ => tracker.rename_alu(srcs, dest),
                }
                None
            }
        }
    }

    /// VP advance: declassifies the operands of the entries that newly
    /// reached the VP (SPT, §6.6), then moves the STT frontier to the
    /// youngest self-ok entry.
    pub fn advance_vp(&mut self, newly_vp: &[Seq], frontier: Option<Seq>) {
        match self {
            Protection::Unsafe => {}
            Protection::Spt { engine, .. } => {
                for &seq in newly_vp {
                    engine.declassify_vp(seq);
                }
            }
            Protection::Stt { tracker } => {
                if let Some(f) = frontier {
                    tracker.advance_vp_frontier(f);
                }
            }
        }
    }

    /// Mirrors L1D fills and evictions into the shadow L1.
    pub fn on_l1_events(&mut self, events: Vec<LineEvent>) {
        if let Protection::Spt { shadow, .. } = self {
            for ev in events {
                shadow.on_l1_event(ev);
            }
        }
    }

    /// A store of `bytes` bytes at `addr` drained to memory: §6.8 store
    /// rule ① gives the written bytes the taint of the store's data
    /// operand `data_idx`, which is returned (all-tainted when unknown or
    /// untracked).
    pub fn drain_store(&mut self, seq: Seq, data_idx: usize, addr: u64, bytes: u64) -> TaintMask {
        match self {
            Protection::Spt { engine, shadow } => {
                let mask = engine.operand_mask(seq, data_idx).unwrap_or(TaintMask::ALL);
                shadow.store(addr, bytes, mask);
                mask
            }
            _ => TaintMask::ALL,
        }
    }

    /// `seq` retired.
    pub fn retire(&mut self, seq: Seq) {
        if let Protection::Spt { engine, .. } = self {
            engine.retire(seq);
        }
    }

    /// Every instruction with a seq at or above `from` was squashed.
    pub fn squash_from(&mut self, from: Seq) {
        if let Protection::Spt { engine, .. } = self {
            engine.squash_from(from);
        }
    }

    /// Whether a cycle in which the pipeline makes no progress leaves the
    /// defence state as it is: under SPT the taint engine must be
    /// quiescent; Unsafe and STT change only on pipeline events.
    pub fn quiescent(&self) -> bool {
        match self {
            Protection::Spt { engine, .. } => engine.quiescent(),
            _ => true,
        }
    }

    /// The first cycle at or after `now` (the next cycle to simulate) in
    /// which the defence state changes on its own: the taint engine, which
    /// steps once per cycle, expires its oldest retire-grace entry.
    pub fn next_deadline(&self, now: u64) -> Option<u64> {
        self.engine()?.steps_to_grace_expiry().map(|d| now + d - 1)
    }

    /// Accounts for `k` quiet cycles before [`Self::next_deadline`].
    pub fn skip_quiet_cycles(&mut self, k: u64) {
        if let Protection::Spt { engine, .. } = self {
            engine.skip_quiet_steps(k);
        }
    }

    /// Whether the byte at `addr` is tainted in memory. Always true when
    /// no memory taint is tracked.
    pub fn shadow_byte_tainted(&self, addr: u64) -> bool {
        match self {
            Protection::Spt { shadow, .. } => shadow.probe_byte(addr),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spt_core::{ShadowMode, ThreatModel};
    use spt_frontend::Frontend;
    use spt_isa::{MemSize, Reg};

    /// The variant's name and, under SPT, the shadow mode it holds.
    fn variant(p: &Protection) -> (&'static str, Option<ShadowMode>) {
        match p {
            Protection::Unsafe => ("Unsafe", None),
            Protection::Stt { .. } => ("Stt", None),
            Protection::Spt { shadow, .. } => (
                "Spt",
                Some(match shadow {
                    ShadowTaint::Off => ShadowMode::None,
                    ShadowTaint::L1(_) => ShadowMode::L1,
                    ShadowTaint::Mem(_) => ShadowMode::Mem,
                }),
            ),
        }
    }

    #[test]
    fn table2_configs_map_to_their_variant() {
        let expected = [
            ("UnsafeBaseline", ("Unsafe", None)),
            ("SecureBaseline", ("Spt", Some(ShadowMode::None))),
            ("SPT{Fwd,NoShadowL1}", ("Spt", Some(ShadowMode::None))),
            ("SPT{Bwd,NoShadowL1}", ("Spt", Some(ShadowMode::None))),
            ("SPT{Bwd,ShadowL1}", ("Spt", Some(ShadowMode::L1))),
            ("SPT{Bwd,ShadowMem}", ("Spt", Some(ShadowMode::Mem))),
            ("SPT{Ideal,ShadowMem}", ("Spt", Some(ShadowMode::Mem))),
            ("STT", ("Stt", None)),
        ];
        for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
            let table = Config::table2(threat);
            assert_eq!(table.len(), expected.len());
            for (cfg, (name, want)) in table.iter().zip(expected) {
                assert_eq!(cfg.name(), name);
                let p = Protection::new(cfg, 16);
                assert_eq!(variant(&p), want, "{cfg}");
                if let Some(engine) = p.engine() {
                    assert_eq!(engine.config(), cfg);
                }
            }
        }
    }

    /// `ld r3 <- (r1)`.
    const LOAD: Inst = Inst::Load {
        rd: Reg::R3,
        base: Reg::R1,
        index: Reg::R0,
        scale: 0,
        offset: 0,
        size: MemSize::B8,
    };

    /// A ROB entry for [`LOAD`] with its base in physical register `base`.
    fn load_entry(seq: Seq, base: PhysReg, vp: bool) -> RobEntry {
        let cp = Frontend::new().checkpoint();
        let mut e = RobEntry::new(seq, 0, LOAD, [Some(base), None, None], None, cp, 1, false, None);
        e.vp = vp;
        e
    }

    #[test]
    fn stt_gate_admits_vp_and_refuses_speculative_roots() {
        let mut p = Protection::new(&Config::stt(ThreatModel::Futuristic), 16);
        // seq 5 loads into phys 4; seq 6 uses phys 4 as its address.
        assert_eq!(p.rename(5, &LOAD, &[Some(1), None, None], Some(4)), None);
        p.advance_vp(&[], Some(4));
        assert!(!p.may_leak(&load_entry(6, 4, false)), "root load 5 is beyond the frontier");
        assert!(p.may_leak(&load_entry(6, 4, true)), "an entry at the VP may always leak");
        assert!(p.may_leak(&load_entry(6, 1, false)), "phys 1 has no speculative root");
        p.advance_vp(&[], Some(5));
        assert!(p.may_leak(&load_entry(6, 4, false)), "the frontier passed the root load");
    }

    #[test]
    fn deadline_is_the_grace_expiry_in_cycles() {
        for threat in [ThreatModel::Spectre, ThreatModel::Futuristic] {
            for cfg in Config::table2(threat) {
                let mut p = Protection::new(&cfg, 16);
                assert!(p.quiescent(), "{cfg}");
                // Forward-untainting SPT retires the zero register's
                // synthetic rename at construction; its grace entry
                // expires on the fifth step, i.e. in cycle now + 4.
                let forward = p.engine().is_some_and(|e| e.config().untaint.forward());
                let want = forward.then_some(14);
                assert_eq!(p.next_deadline(10), want, "{cfg}");
                p.skip_quiet_cycles(3);
                assert_eq!(p.next_deadline(13), want, "{cfg}: skipping keeps the deadline");
            }
        }
    }

    #[test]
    fn unsafe_gate_always_admits() {
        let p = Protection::new(&Config::unsafe_baseline(ThreatModel::Spectre), 16);
        assert!(p.may_leak(&load_entry(1, 4, false)));
    }

    #[test]
    fn memory_stays_tainted_without_spt() {
        for cfg in
            [Config::unsafe_baseline(ThreatModel::Spectre), Config::stt(ThreatModel::Spectre)]
        {
            let mut p = Protection::new(&cfg, 16);
            p.on_l1_events(vec![LineEvent::Fill { line_addr: 0x1000 }]);
            assert_eq!(p.drain_store(1, 1, 0x1000, 8), TaintMask::ALL);
            assert!(p.shadow_byte_tainted(0x1000), "{}", cfg.name());
        }
        // Under SPT with a memory shadow, public store data (the zero
        // register) does untaint the written bytes.
        let mut p = Protection::new(&Config::spt_shadow_mem(ThreatModel::Spectre), 16);
        let store = Inst::Store {
            src: Reg::R0,
            base: Reg::R1,
            index: Reg::R0,
            scale: 0,
            offset: 0,
            size: MemSize::B8,
        };
        p.rename(1, &store, &[Some(1), Some(0), None], None);
        assert_eq!(p.drain_store(1, 1, 0x1000, 8), TaintMask::NONE);
        assert!(!p.shadow_byte_tainted(0x1000));
    }
}
