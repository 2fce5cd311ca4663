//! The host-speed reference the end-to-end times are divided by.
//!
//! On a shared host the simulator slows by up to 2× for minutes at a time
//! when other tenants load the machine, longer than any run. Tight loops
//! (a multiply chain, a pointer chase) hardly notice. What does slow the
//! same way is code of the same kind: hashing, tree inserts and sorting
//! over a few hundred kilobytes, with branchy, allocation-heavy control
//! flow. The reference is such a workload, built from the Rust standard
//! library alone with fixed inputs, so no change to the simulator can
//! change it. Timed just before and just after each operation, its time
//! tracks the operation's (correlation 0.6–0.9 per cell on the shared VM
//! the benchmark was written on), and their ratio keeps what the
//! simulator costs while dropping most of what the neighbours cost.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Xorshift64 step: the reference's fixed input stream.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the reference workload once (about 5 ms on an idle core) and
/// returns its wall seconds.
pub fn reference_s() -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15;
    let t0 = Instant::now();
    let mut map = HashMap::new();
    for i in 0..20_000u64 {
        map.insert(next(&mut x) % 100_000, i);
    }
    let hits: u64 = (0..20_000).filter_map(|_| map.get(&(next(&mut x) % 100_000))).sum();
    let mut tree = BTreeMap::new();
    for i in 0..15_000u64 {
        tree.insert(next(&mut x), i);
    }
    let mut v: Vec<u64> = (0..30_000).map(|_| next(&mut x)).collect();
    v.sort_unstable();
    black_box((hits, &tree, &v));
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_takes_measurable_time() {
        let s = reference_s();
        assert!(s > 0.0 && s < 10.0, "reference took {s} s");
    }
}
