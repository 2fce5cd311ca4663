//! Order statistics and the idle-cycle classifier.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// `None` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples; `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Whether `n` samples put at least ten beyond the 90th percentile, the
/// least the benchmark accepts for reporting it.
pub fn p90_supported(n: usize) -> bool {
    n >= 100
}

/// Geometric mean of positive samples; `None` for an empty slice.
pub fn geomean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some((samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp())
}

/// Host time split between idle and busy simulated cycles.
///
/// A cycle is idle when neither the retired nor the fetched count moved
/// across it: the machine only waited (on memory, a fill, a gate).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IdleSplit {
    /// Cycles with no retire and no fetch.
    pub idle_cycles: u64,
    /// All other cycles.
    pub busy_cycles: u64,
    /// Host nanoseconds spent stepping idle cycles.
    pub idle_ns: f64,
    /// Host nanoseconds spent stepping busy cycles.
    pub busy_ns: f64,
}

impl IdleSplit {
    /// Classifies one `step_cycle` call from the `(retired, fetched)`
    /// counters before and after it, and charges its host time.
    pub fn record(&mut self, before: (u64, u64), after: (u64, u64), ns: f64) {
        if before == after {
            self.idle_cycles += 1;
            self.idle_ns += ns;
        } else {
            self.busy_cycles += 1;
            self.busy_ns += ns;
        }
    }

    /// Adds another split into this one.
    pub fn merge(&mut self, o: &IdleSplit) {
        self.idle_cycles += o.idle_cycles;
        self.busy_cycles += o.busy_cycles;
        self.idle_ns += o.idle_ns;
        self.busy_ns += o.busy_ns;
    }

    /// Idle share of all classified cycles (0 when none were).
    pub fn idle_frac(&self) -> f64 {
        let n = self.idle_cycles + self.busy_cycles;
        if n == 0 {
            0.0
        } else {
            self.idle_cycles as f64 / n as f64
        }
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.25), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), Some(91.0));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert!(!p90_supported(99));
        assert!(p90_supported(100));
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[3.0, 3.0, 3.0]).unwrap() - 3.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn idle_classifier_on_a_hand_built_counter_sequence() {
        // (retired, fetched) after each cycle, starting from (0, 0).
        let seq = [(0, 4), (0, 4), (0, 4), (2, 4), (2, 4), (2, 8), (3, 8)];
        let mut s = IdleSplit::default();
        let mut prev = (0, 0);
        for (i, &c) in seq.iter().enumerate() {
            s.record(prev, c, (i + 1) as f64);
            prev = c;
        }
        // Idle: cycles 2, 3 (nothing moved) and 5.
        assert_eq!((s.idle_cycles, s.busy_cycles), (3, 4));
        assert_eq!(s.idle_ns, 2.0 + 3.0 + 5.0);
        assert_eq!(s.busy_ns, 1.0 + 4.0 + 6.0 + 7.0);
        assert!((s.idle_frac() - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_over_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
