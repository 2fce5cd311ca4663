//! Memory taint storage: the shadow L1 (paper §6.8, §7.5) and the
//! idealized whole-memory shadow.

use crate::config::ShadowMode;
use crate::stats::UntaintKind;
use crate::taint::TaintMask;
use spt_mem::LineEvent;
use std::collections::HashMap;

/// Byte-granular taint for L1D-resident lines (paper §7.5).
///
/// The real hardware structure mirrors the L1D's set-associative geometry
/// and needs no tags because fills and evictions are driven by the L1D's
/// own decisions. We model it as a map keyed by line address whose entries
/// exist exactly for resident lines — observably identical, since entries
/// are created on `Fill` and destroyed on `Evict`, both reported by the
/// L1D ([`spt_mem::LineEvent`]).
///
/// Invariant (paper): a line is all-tainted when filled; bytes untaint via
/// the store rule ① (untainted store data clears the written range) and
/// the load rule ② (a load whose output is already public clears the read
/// range).
#[derive(Clone, Debug, Default)]
pub struct ShadowL1 {
    line_bytes: u64,
    /// line address → per-byte taint bits (bit i = byte i tainted).
    lines: HashMap<u64, u64>,
}

impl ShadowL1 {
    /// Creates a shadow for an L1D with `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes == 64` (one `u64` of byte-taint per line).
    pub fn new(line_bytes: u64) -> ShadowL1 {
        assert_eq!(line_bytes, 64, "shadow L1 models 64-byte lines");
        ShadowL1 { line_bytes, lines: HashMap::new() }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Mirrors an L1D fill/eviction decision.
    pub fn on_event(&mut self, ev: LineEvent) {
        match ev {
            LineEvent::Fill { line_addr } => {
                self.lines.insert(line_addr, u64::MAX);
            }
            LineEvent::Evict { line_addr } => {
                self.lines.remove(&line_addr);
            }
        }
    }

    /// Whether the byte at `addr` is tainted (bytes not resident in L1 are
    /// conservatively tainted).
    pub fn byte_tainted(&self, addr: u64) -> bool {
        match self.lines.get(&self.line_of(addr)) {
            Some(bits) => (bits >> (addr & (self.line_bytes - 1))) & 1 == 1,
            None => true,
        }
    }

    fn set_byte(&mut self, addr: u64, tainted: bool) {
        let line = self.line_of(addr);
        if let Some(bits) = self.lines.get_mut(&line) {
            let bit = 1u64 << (addr & (self.line_bytes - 1));
            if tainted {
                *bits |= bit;
            } else {
                *bits &= !bit;
            }
        }
        // Writes to non-resident lines are dropped: below-L1 data is
        // conservatively tainted in this mode.
    }
}

/// Idealized byte-granular taint for all of memory (SPT {*, ShadowMem}).
///
/// All bytes start tainted (paper §6.3: all program data starts tainted);
/// we therefore store *untaint* bits sparsely.
#[derive(Clone, Debug, Default)]
pub struct ShadowMem {
    /// page base → per-byte "public" bits (64 words × 64 bits = 4096 bytes).
    pages: HashMap<u64, Box<[u64; 64]>>,
}

impl ShadowMem {
    const PAGE: u64 = 4096;

    /// Creates an all-tainted shadow memory.
    pub fn new() -> ShadowMem {
        ShadowMem::default()
    }

    /// Whether the byte at `addr` is tainted.
    pub fn byte_tainted(&self, addr: u64) -> bool {
        match self.pages.get(&(addr / Self::PAGE)) {
            Some(words) => {
                let off = addr % Self::PAGE;
                (words[(off / 64) as usize] >> (off % 64)) & 1 == 0
            }
            None => true,
        }
    }

    fn set_byte(&mut self, addr: u64, tainted: bool) {
        let page = addr / Self::PAGE;
        let off = addr % Self::PAGE;
        let words = self.pages.entry(page).or_insert_with(|| Box::new([0; 64]));
        let bit = 1u64 << (off % 64);
        if tainted {
            words[(off / 64) as usize] &= !bit;
        } else {
            words[(off / 64) as usize] |= bit;
        }
    }
}

/// Unified memory-taint view dispatching on [`ShadowMode`].
///
/// # Example
///
/// ```
/// use spt_core::shadow::ShadowTaint;
/// use spt_core::{ShadowMode, TaintMask};
///
/// let mut s = ShadowTaint::new(ShadowMode::Mem);
/// assert!(s.read_mask(0x100, 8).any(), "memory starts tainted");
/// s.store(0x100, 8, TaintMask::NONE); // public store data
/// assert!(s.read_mask(0x100, 8).is_clear());
/// ```
#[derive(Clone, Debug)]
pub enum ShadowTaint {
    /// No memory taint tracking: loads are conservatively tainted.
    Off,
    /// Shadow L1 (§7.5).
    L1(ShadowL1),
    /// Whole-memory shadow.
    Mem(ShadowMem),
}

impl ShadowTaint {
    /// Creates the shadow for a configuration (64-byte L1 lines).
    pub fn new(mode: ShadowMode) -> ShadowTaint {
        match mode {
            ShadowMode::None => ShadowTaint::Off,
            ShadowMode::L1 => ShadowTaint::L1(ShadowL1::new(64)),
            ShadowMode::Mem => ShadowTaint::Mem(ShadowMem::new()),
        }
    }

    /// The mechanism credited when this shadow's byte taint untaints a
    /// load's output, or `None` when no memory taint is tracked.
    pub fn untaint_kind(&self) -> Option<UntaintKind> {
        match self {
            ShadowTaint::Off => None,
            ShadowTaint::L1(_) => Some(UntaintKind::ShadowL1),
            ShadowTaint::Mem(_) => Some(UntaintKind::ShadowMem),
        }
    }

    /// Mirrors an L1D line event (no-op for other modes: the whole-memory
    /// shadow is persistent and `Off` tracks nothing).
    pub fn on_l1_event(&mut self, ev: LineEvent) {
        if let ShadowTaint::L1(l1) = self {
            l1.on_event(ev);
        }
    }

    fn byte_tainted(&self, addr: u64) -> bool {
        match self {
            ShadowTaint::Off => true,
            ShadowTaint::L1(s) => s.byte_tainted(addr),
            ShadowTaint::Mem(s) => s.byte_tainted(addr),
        }
    }

    fn set_byte(&mut self, addr: u64, tainted: bool) {
        match self {
            ShadowTaint::Off => {}
            ShadowTaint::L1(s) => s.set_byte(addr, tainted),
            ShadowTaint::Mem(s) => s.set_byte(addr, tainted),
        }
    }

    /// The register [`TaintMask`] a `size`-byte load at `addr` receives
    /// from memory taint: register byte `i` carries the taint of memory
    /// byte `addr + i`; upper (zero-extended) bytes are public.
    pub fn read_mask(&self, addr: u64, size: u64) -> TaintMask {
        let mut mask = TaintMask::NONE;
        for i in 0..size.min(8) {
            if self.byte_tainted(addr + i) {
                mask = mask.union(TaintMask::for_bytes(i..i + 1));
            }
        }
        mask
    }

    /// Store rule ① (§6.8): writing `size` bytes whose data-operand taint
    /// is `data_mask` overwrites the written bytes' taint.
    pub fn store(&mut self, addr: u64, size: u64, data_mask: TaintMask) {
        for i in 0..size.min(8) {
            self.set_byte(addr + i, data_mask.byte_tainted(i));
        }
    }

    /// Load rule ② (§6.8): a load whose output register is already public
    /// proves the read bytes public.
    pub fn clear_range(&mut self, addr: u64, size: u64) {
        for i in 0..size.min(8) {
            self.set_byte(addr + i, false);
        }
    }

    /// Test/diagnostic access: taint of one byte.
    pub fn probe_byte(&self, addr: u64) -> bool {
        self.byte_tainted(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_l1_fill_taints_whole_line() {
        let mut s = ShadowL1::new(64);
        assert!(s.byte_tainted(0x100), "non-resident is tainted");
        s.on_event(LineEvent::Fill { line_addr: 0x100 });
        for b in 0x100..0x140 {
            assert!(s.byte_tainted(b));
        }
    }

    #[test]
    fn shadow_l1_store_and_load_rules() {
        let mut s = ShadowTaint::new(ShadowMode::L1);
        s.on_l1_event(LineEvent::Fill { line_addr: 0x1000 });
        // Public store clears 8 bytes.
        s.store(0x1008, 8, TaintMask::NONE);
        assert!(s.read_mask(0x1008, 8).is_clear());
        assert!(s.read_mask(0x1000, 8).any(), "neighbouring bytes stay tainted");
        // Tainted store re-taints.
        s.store(0x1008, 4, TaintMask::ALL);
        assert!(s.read_mask(0x1008, 4).any());
        assert!(s.read_mask(0x100c, 4).is_clear());
        // Load rule: public output clears the read range.
        s.clear_range(0x1008, 4);
        assert!(s.read_mask(0x1008, 8).is_clear());
    }

    #[test]
    fn shadow_l1_eviction_loses_public_bits() {
        let mut s = ShadowTaint::new(ShadowMode::L1);
        s.on_l1_event(LineEvent::Fill { line_addr: 0x0 });
        s.store(0x0, 8, TaintMask::NONE);
        assert!(s.read_mask(0x0, 8).is_clear());
        s.on_l1_event(LineEvent::Evict { line_addr: 0x0 });
        assert!(s.read_mask(0x0, 8).any(), "below-L1 data is conservatively tainted");
        // Refill: all tainted again.
        s.on_l1_event(LineEvent::Fill { line_addr: 0x0 });
        assert!(s.read_mask(0x0, 8).any());
    }

    #[test]
    fn shadow_mem_persists_across_l1_events() {
        let mut s = ShadowTaint::new(ShadowMode::Mem);
        s.store(0x2000, 8, TaintMask::NONE);
        s.on_l1_event(LineEvent::Evict { line_addr: 0x2000 });
        s.on_l1_event(LineEvent::Fill { line_addr: 0x2000 });
        assert!(s.read_mask(0x2000, 8).is_clear());
    }

    #[test]
    fn shadow_mem_crosses_page_boundaries() {
        let mut s = ShadowTaint::new(ShadowMode::Mem);
        s.clear_range(4093, 8);
        for a in 4093..4101 {
            assert!(!s.probe_byte(a));
        }
        assert!(s.probe_byte(4092));
        assert!(s.probe_byte(4101));
    }

    #[test]
    fn off_mode_is_always_tainted() {
        let mut s = ShadowTaint::new(ShadowMode::None);
        s.store(0x0, 8, TaintMask::NONE);
        s.clear_range(0x0, 8);
        assert!(s.read_mask(0x0, 1).any());
    }

    #[test]
    fn partial_store_data_mask_maps_bytes() {
        let mut s = ShadowTaint::new(ShadowMode::Mem);
        // Store 8 bytes whose register has only field 0 (byte 0) tainted.
        s.store(0x3000, 8, TaintMask::from_bits(0b0001));
        assert!(s.probe_byte(0x3000));
        for a in 0x3001..0x3008 {
            assert!(!s.probe_byte(a), "byte {a:#x}");
        }
        let m = s.read_mask(0x3000, 8);
        assert_eq!(m, TaintMask::from_bits(0b0001));
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    /// Store rule ① then load after eviction+refill: conservatism restores.
    #[test]
    fn l1_conservatism_cycle() {
        let mut s = ShadowTaint::new(ShadowMode::L1);
        for round in 0..3 {
            s.on_l1_event(LineEvent::Fill { line_addr: 0x40 });
            assert!(s.read_mask(0x40, 8).any(), "round {round}: fill re-taints");
            s.store(0x40, 8, TaintMask::NONE);
            assert!(s.read_mask(0x40, 8).is_clear());
            s.on_l1_event(LineEvent::Evict { line_addr: 0x40 });
        }
    }

    /// Byte-level independence within a line.
    #[test]
    fn per_byte_granularity_within_a_line() {
        let mut s = ShadowTaint::new(ShadowMode::L1);
        s.on_l1_event(LineEvent::Fill { line_addr: 0x0 });
        // Clear alternating 8-byte words.
        for w in (0..8u64).step_by(2) {
            s.clear_range(8 * w, 8);
        }
        for w in 0..8u64 {
            let clear = w % 2 == 0;
            assert_eq!(s.read_mask(8 * w, 8).is_clear(), clear, "word {w}");
        }
    }

    /// Unaligned clears straddling a line boundary only affect resident
    /// lines.
    #[test]
    fn straddling_clear_respects_residency() {
        let mut s = ShadowTaint::new(ShadowMode::L1);
        s.on_l1_event(LineEvent::Fill { line_addr: 0x0 });
        // Line 0x40 is NOT resident. Clear 0x3c..0x44.
        s.clear_range(0x3c, 8);
        assert!(!s.probe_byte(0x3c));
        assert!(!s.probe_byte(0x3f));
        assert!(s.probe_byte(0x40), "non-resident line stays tainted");
    }

    /// ShadowMem taint survives arbitrary interleavings of loads/stores.
    #[test]
    fn shadow_mem_store_overwrite_semantics() {
        let mut s = ShadowTaint::new(ShadowMode::Mem);
        s.store(0x100, 8, TaintMask::NONE); // public
        s.store(0x104, 4, TaintMask::ALL); // re-taint the top half
        let m = s.read_mask(0x100, 8);
        assert!(!m.field(0) && !m.field(1) && !m.field(2), "low bytes public");
        assert!(m.field(3), "bytes 4..8 tainted");
    }
}
