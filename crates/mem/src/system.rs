//! The full memory system: L1D → L2 → L3 → DRAM timing over a functional
//! backing store.

use crate::cache::{Cache, CacheConfig, CacheGeometry, LineEvent};
use spt_isa::interp::SparseMem;
use std::error::Error;
use std::fmt;

/// Which level of the hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory.
    Dram,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::L3 => "L3",
            Level::Dram => "DRAM",
        };
        f.write_str(s)
    }
}

/// Latency/geometry parameters for the whole hierarchy (defaults = paper
/// Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 cache.
    pub l2: CacheConfig,
    /// L3 cache.
    pub l3: CacheConfig,
    /// DRAM access latency (applied after the L3 lookup misses).
    pub dram_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                geometry: CacheGeometry { size_bytes: 32 * 1024, assoc: 8, line_bytes: 64 },
                hit_latency: 2,
                mshrs: 16,
            },
            l2: CacheConfig {
                geometry: CacheGeometry { size_bytes: 256 * 1024, assoc: 16, line_bytes: 64 },
                hit_latency: 20,
                mshrs: 16,
            },
            l3: CacheConfig {
                geometry: CacheGeometry { size_bytes: 2 * 1024 * 1024, assoc: 16, line_bytes: 64 },
                hit_latency: 40,
                mshrs: 16,
            },
            // 50ns at 2GHz.
            dram_latency: 100,
        }
    }
}

/// Successful access: when the data is available and what happened to L1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the access completes.
    pub done_at: u64,
    /// The level that had the line.
    pub served_by: Level,
    /// L1 line fills/evictions caused by this access, in order. SPT's
    /// shadow L1 consumes these to mirror the L1D (paper §7.5).
    pub l1_events: Vec<LineEvent>,
}

/// The access could not start because L1 MSHRs are exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Busy {
    /// Earliest cycle at which retrying can succeed.
    pub retry_at: u64,
}

impl fmt::Display for Busy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all MSHRs busy; retry at cycle {}", self.retry_at)
    }
}

impl Error for Busy {}

/// The complete memory system: three timing caches over functional memory.
///
/// # Example
///
/// ```
/// use spt_mem::{MemSystem, Level};
///
/// let mut m = MemSystem::default();
/// m.store().write(0x1000, 42, 8);
/// let (v, out) = m.read_timed(0x1000, 8, 0).unwrap();
/// assert_eq!(v, 42);
/// assert_eq!(out.served_by, Level::Dram); // cold miss
/// let (_, out) = m.read_timed(0x1000, 8, out.done_at).unwrap();
/// assert_eq!(out.served_by, Level::L1);
/// ```
#[derive(Clone, Debug)]
pub struct MemSystem {
    cfg: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    store: SparseMem,
}

impl Default for MemSystem {
    fn default() -> MemSystem {
        MemSystem::new(HierarchyConfig::default())
    }
}

impl MemSystem {
    /// Creates an empty memory system.
    pub fn new(cfg: HierarchyConfig) -> MemSystem {
        MemSystem {
            cfg,
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            store: SparseMem::new(),
        }
    }

    /// The functional backing store (for initialization and inspection).
    pub fn store(&mut self) -> &mut SparseMem {
        &mut self.store
    }

    /// Read-only view of the backing store.
    pub fn store_ref(&self) -> &SparseMem {
        &self.store
    }

    /// The hierarchy configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// The L1 data cache (stats, probing).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The L3 cache.
    pub fn l3(&self) -> &Cache {
        &self.l3
    }

    /// Digest of the attacker-observable tag state of all three data-side
    /// cache levels (see `Cache::fold_state`). Two runs with identical
    /// digests present an identical probe surface to a cache-timing
    /// receiver at every level.
    pub fn cache_digest(&self) -> u64 {
        let mut h = spt_util::Fnv64::new();
        for (level, cache) in [(1u64, &self.l1), (2, &self.l2), (3, &self.l3)] {
            h.write_u64(level);
            cache.fold_state(&mut h);
        }
        h.finish()
    }

    /// The innermost level currently holding `addr`'s line, without
    /// disturbing any state. This is the cache-timing attacker's receiver:
    /// a real attacker measures probe latency; the level is the same
    /// information.
    pub fn probe(&self, addr: u64) -> Level {
        if self.l1.probe(addr) {
            Level::L1
        } else if self.l2.probe(addr) {
            Level::L2
        } else if self.l3.probe(addr) {
            Level::L3
        } else {
            Level::Dram
        }
    }

    /// Computes the timing of an access beginning at `now` and updates the
    /// cache state, *without* touching data.
    ///
    /// # Errors
    ///
    /// Returns [`Busy`] if the access misses L1 and no L1 MSHR is free.
    pub fn access_timed(
        &mut self,
        addr: u64,
        now: u64,
        write: bool,
    ) -> Result<AccessOutcome, Busy> {
        // Coalesce with an in-flight miss on the same line: the access
        // completes when the outstanding fill does.
        if let Some(ready_at) = self.l1.outstanding_miss(addr) {
            if ready_at > now {
                // The fill already installed the line's future state; treat
                // as served by whichever level the original miss went to —
                // report L2 to approximate "partial hit under miss".
                return Ok(AccessOutcome {
                    done_at: ready_at,
                    served_by: Level::L2,
                    l1_events: Vec::new(),
                });
            }
        }

        let mut latency = self.l1.hit_latency();
        if self.l1.lookup(addr, write) {
            return Ok(AccessOutcome {
                done_at: now + latency,
                served_by: Level::L1,
                l1_events: Vec::new(),
            });
        }

        // L1 miss: need an MSHR.
        if !self.l1.mshr_available(addr, now) {
            self.l1.reject_mshr();
            let retry_at = self.l1.earliest_mshr_free().unwrap_or(now + 1).max(now + 1);
            return Err(Busy { retry_at });
        }

        let served_by;
        if self.l2.lookup(addr, write) {
            latency += self.l2.hit_latency();
            served_by = Level::L2;
        } else if self.l3.lookup(addr, write) {
            latency += self.l2.hit_latency() + self.l3.hit_latency();
            served_by = Level::L3;
            self.l2.fill(addr, write);
        } else {
            latency += self.l2.hit_latency() + self.l3.hit_latency() + self.cfg.dram_latency;
            served_by = Level::Dram;
            self.l3.fill(addr, write);
            self.l2.fill(addr, write);
        }

        let done_at = now + latency;
        self.l1.allocate_mshr(addr, now, done_at);
        let l1_events = self.l1.fill(addr, write);
        Ok(AccessOutcome { done_at, served_by, l1_events })
    }

    /// Timed read: returns the value and the access outcome.
    ///
    /// # Errors
    ///
    /// Returns [`Busy`] if no L1 MSHR is free.
    ///
    /// # Panics
    ///
    /// Panics if `size > 8`.
    pub fn read_timed(
        &mut self,
        addr: u64,
        size: u64,
        now: u64,
    ) -> Result<(u64, AccessOutcome), Busy> {
        let outcome = self.access_timed(addr, now, false)?;
        Ok((self.store.read(addr, size), outcome))
    }

    /// Timed write: updates the backing store and returns the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`Busy`] if no L1 MSHR is free.
    ///
    /// # Panics
    ///
    /// Panics if `size > 8`.
    pub fn write_timed(
        &mut self,
        addr: u64,
        value: u64,
        size: u64,
        now: u64,
    ) -> Result<AccessOutcome, Busy> {
        let outcome = self.access_timed(addr, now, true)?;
        self.store.write(addr, value, size);
        Ok(outcome)
    }

    /// Evicts `addr`'s line from every level (a `clflush` equivalent, used
    /// by the attack programs' receiver phases). Returns L1 events.
    pub fn flush_line(&mut self, addr: u64) -> Vec<LineEvent> {
        let mut events = Vec::new();
        if let Some(e) = self.l1.invalidate(addr) {
            events.push(e);
        }
        self.l2.invalidate(addr);
        self.l3.invalidate(addr);
        events
    }

    /// Flushes all caches (between pen-test phases). Returns L1 events.
    pub fn flush_all(&mut self) -> Vec<LineEvent> {
        let events = self.l1.flush();
        self.l2.flush();
        self.l3.flush();
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_accumulates_by_level() {
        let mut m = MemSystem::default();
        let cfg = *m.config();
        // Cold: DRAM.
        let (_, out) = m.read_timed(0x4000, 8, 0).unwrap();
        assert_eq!(out.served_by, Level::Dram);
        assert_eq!(
            out.done_at,
            cfg.l1.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency + cfg.dram_latency
        );
        // Warm: L1.
        let t = out.done_at;
        let (_, out) = m.read_timed(0x4000, 8, t).unwrap();
        assert_eq!(out.served_by, Level::L1);
        assert_eq!(out.done_at, t + cfg.l1.hit_latency);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = MemSystem::default();
        m.read_timed(0x0, 8, 0).unwrap();
        // Evict from L1 only.
        m.l1.invalidate(0x0);
        let (_, out) = m.read_timed(0x0, 8, 1000).unwrap();
        assert_eq!(out.served_by, Level::L2);
    }

    #[test]
    fn probe_reports_innermost_level() {
        let mut m = MemSystem::default();
        assert_eq!(m.probe(0x40), Level::Dram);
        m.read_timed(0x40, 8, 0).unwrap();
        assert_eq!(m.probe(0x40), Level::L1);
        m.l1.invalidate(0x40);
        assert_eq!(m.probe(0x40), Level::L2);
        m.flush_line(0x40);
        assert_eq!(m.probe(0x40), Level::Dram);
    }

    #[test]
    fn fill_events_reported_for_l1() {
        let mut m = MemSystem::default();
        let (_, out) = m.read_timed(0x1234, 8, 0).unwrap();
        assert_eq!(out.l1_events, vec![LineEvent::Fill { line_addr: 0x1200 }]);
    }

    #[test]
    fn writes_update_backing_store() {
        let mut m = MemSystem::default();
        m.write_timed(0x100, 0xabcd, 8, 0).unwrap();
        let (v, _) = m.read_timed(0x100, 8, 50).unwrap();
        assert_eq!(v, 0xabcd);
        assert_eq!(m.store_ref().read(0x100, 8), 0xabcd);
    }

    #[test]
    fn mshr_exhaustion_returns_busy() {
        let mut cfg = HierarchyConfig::default();
        cfg.l1.mshrs = 1;
        let mut m = MemSystem::new(cfg);
        m.read_timed(0x0, 8, 0).unwrap();
        // Second distinct-line miss at the same time: L1 MSHR busy.
        let err = m.read_timed(0x10000, 8, 0).unwrap_err();
        assert!(err.retry_at > 0);
        // After the first completes, it succeeds.
        assert!(m.read_timed(0x10000, 8, err.retry_at).is_ok());
    }

    #[test]
    fn busy_accesses_count_as_mshr_rejections() {
        let mut cfg = HierarchyConfig::default();
        cfg.l1.mshrs = 1;
        let mut m = MemSystem::new(cfg);
        m.read_timed(0x0, 8, 0).unwrap();
        assert_eq!(m.l1().stats().mshr_rejections, 0);
        // Two retries of a second miss, a read and a write, both turned away.
        assert!(m.read_timed(0x10000, 8, 1).is_err());
        assert!(m.write_timed(0x20000, 7, 8, 2).is_err());
        assert_eq!(m.l1().stats().mshr_rejections, 2);
        // A hit and a coalescing access need no MSHR and are not counted.
        let (_, out) = m.read_timed(0x8, 8, 3).unwrap();
        assert!(m.read_timed(0x0, 8, out.done_at).is_ok());
        assert_eq!(m.l1().stats().mshr_rejections, 2);
    }

    #[test]
    fn coalesced_miss_completes_with_outstanding_fill() {
        let mut m = MemSystem::default();
        let (_, first) = m.read_timed(0x2000, 8, 0).unwrap();
        // Another access to the same line while the miss is in flight.
        let (_, second) = m.read_timed(0x2010, 8, 1).unwrap();
        assert_eq!(second.done_at, first.done_at);
    }
}
