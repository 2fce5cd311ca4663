//! The correctness gate: every simulated cell is reduced to a digest and
//! compared with a pinned or previously seen one, and every failure is
//! counted, never dropped and never fatal.

use spt_ooo::Machine;
use spt_util::Fnv64;
use std::collections::BTreeMap;
use std::fmt;

/// The workload seed whose digests are pinned in `pinned.txt`.
pub const PINNED_SEED: u64 = 0;

/// What a finished cell must reproduce exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// FNV-1a of the `MachineStats::to_json` text.
    pub stats: u64,
    /// `Machine::observation_digest`.
    pub obs: u64,
}

impl Digest {
    /// Digest of a machine after its run.
    pub fn of(m: &Machine) -> Digest {
        let s = m.stats();
        let mut h = Fnv64::new();
        h.write_bytes(s.to_json().to_string().as_bytes());
        Digest {
            cycles: s.cycles,
            retired: s.retired,
            stats: h.finish(),
            obs: m.observation_digest(),
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {:016x} {:016x}", self.cycles, self.retired, self.stats, self.obs)
    }
}

/// Reference digests for one run of the benchmark, keyed by cell.
///
/// For the pinned seed every key must be in the pinned table. For any
/// other seed the first digest seen for a key becomes its reference (and
/// is printed, so it can be compared or pinned later); every later run of
/// the same cell, traced or not, must reproduce it.
#[derive(Debug, Default)]
pub struct Gate {
    pinned: Option<BTreeMap<String, Digest>>,
    seen: BTreeMap<String, Digest>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed (mismatch, deadlock, finding).
    pub failed: u64,
}

impl Gate {
    /// A gate checking against `pinned` (the pinned seed) or against the
    /// first digest seen per key (`None`, any other seed).
    pub fn new(pinned: Option<BTreeMap<String, Digest>>) -> Gate {
        Gate { pinned, ..Gate::default() }
    }

    /// Counts one operation, failing it with `why` if given.
    pub fn count(&mut self, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            eprintln!("FAIL: {why}");
        }
    }

    /// Checks `got` for cell `key` without counting it; `Err` describes a
    /// mismatch.
    pub fn verify(&mut self, key: &str, got: Digest) -> Result<(), String> {
        let want = match &self.pinned {
            Some(table) => match table.get(key) {
                Some(&d) => d,
                None => return Err(format!("{key}: no pinned digest (got {got})")),
            },
            None => *self.seen.entry(key.to_string()).or_insert_with(|| {
                eprintln!("digest {key} {got}");
                got
            }),
        };
        if got == want {
            Ok(())
        } else {
            Err(format!("{key}: digest {got} differs from reference {want}"))
        }
    }

    /// Checks that `got` reproduces the first digest seen for `key`,
    /// whatever the seed; for cells that are not pinned.
    pub fn verify_stable(&mut self, key: &str, got: Digest) -> Result<(), String> {
        let want = *self.seen.entry(key.to_string()).or_insert(got);
        if got == want {
            Ok(())
        } else {
            Err(format!("{key}: digest {got} differs from its first run {want}"))
        }
    }

    /// The digest `key` is checked against, if there is one yet.
    pub fn reference(&self, key: &str) -> Option<Digest> {
        self.pinned.as_ref().unwrap_or(&self.seen).get(key).copied()
    }

    /// Share of attempted operations that failed.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Parses the pinned table: `<seed> <key> <cycles> <retired> <stats-hex>
/// <obs-hex>` per line, keeping only lines for `seed`.
pub fn parse_pinned(text: &str, seed: u64) -> Result<BTreeMap<String, Digest>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("pinned.txt line {}: malformed: {line}", n + 1);
        if f.len() != 6 {
            return Err(bad());
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad());
        if num(f[0])? != seed {
            continue;
        }
        let d =
            Digest { cycles: num(f[2])?, retired: num(f[3])?, stats: hex(f[4])?, obs: hex(f[5])? };
        out.insert(f[1].to_string(), d);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Digest = Digest { cycles: 100, retired: 50, stats: 0xabc, obs: 0xdef };

    impl Gate {
        fn check(&mut self, key: &str, got: Digest) {
            let r = self.verify(key, got).err();
            self.count(r);
        }
    }

    #[test]
    fn a_mismatched_reference_digest_counts_as_a_failure_not_a_panic() {
        let table = parse_pinned("0 sim/x/Unsafe 100 50 abc def\n", 0).unwrap();
        let mut g = Gate::new(Some(table));
        g.check("sim/x/Unsafe", D);
        g.check("sim/x/Unsafe", Digest { obs: 0xdee, ..D });
        g.check("sim/unknown", D);
        assert_eq!((g.attempted, g.failed), (3, 2));
        assert!((g.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unpinned_seeds_check_reproduction_of_the_first_digest() {
        let mut g = Gate::new(None);
        g.check("k", D);
        g.check("k", D);
        g.check("k", Digest { cycles: 101, ..D });
        assert_eq!((g.attempted, g.failed), (3, 1));
    }

    #[test]
    fn pinned_table_keeps_only_the_requested_seed_and_rejects_garbage() {
        let t = parse_pinned("# c\n0 a 1 2 3 4\n7 a 9 9 9 9\n", 0).unwrap();
        assert_eq!(t["a"], Digest { cycles: 1, retired: 2, stats: 3, obs: 4 });
        assert!(parse_pinned("0 a 1 2 zz 4\n", 0).is_err());
        assert!(parse_pinned("0 a 1\n", 0).is_err());
    }

    #[test]
    fn digest_display_round_trips_through_the_pinned_format() {
        let line = format!("0 k {D}");
        assert_eq!(parse_pinned(&line, 0).unwrap()["k"], D);
    }
}
