//! Estimators.
//!
//! On the shared host the benchmark was written on, op times are bimodal:
//! a fast mode, and a slow mode that comes and goes for seconds as the
//! neighbour runs. Means and medians track the neighbour; fast quantiles
//! (the 10th-percentile latency, the 90th-percentile equal-op segment
//! rate) track the program. The gated metrics use the latter; the tests at
//! the bottom pin that behaviour on synthetic bimodal samples.

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation between
/// order statistics (the "type 7" definition). Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of no samples");
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Share of segments running more than 15 % below `reference` — how
/// disturbed a run was.
pub fn slow_share(rates: &[f64], reference: f64) -> f64 {
    if rates.is_empty() {
        return 0.0;
    }
    rates.iter().filter(|&&r| r < 0.85 * reference).count() as f64 / rates.len() as f64
}

/// FNV-1a over the bit patterns of every answer a workload produced: equal
/// checksums mean bit-equal answers in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn push_u32(&mut self, bits: u32) {
        for b in bits.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn push_f32(&mut self, v: f32) {
        self.push_u32(v.to_bits());
    }
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method) —
/// the rule the driver applies to a set of runs, so `compare` agrees with
/// it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, clamped to the data.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Op times drawn from a fast mode (1.0 ± 2 %) and, for `slow_share` of
    /// contiguous stretches, a slow mode (1.6 ± 10 %).
    fn bimodal(seed: u64, n: usize, slow: f64) -> Vec<f64> {
        let mut rng = SplitMix64::stream(seed, 0);
        let mut out = Vec::with_capacity(n);
        let mut in_slow = false;
        for i in 0..n {
            if i % 50 == 0 {
                in_slow = rng.next_f64() < slow;
            }
            let jitter = rng.next_f64() - 0.5;
            out.push(if in_slow {
                1.6 + 0.32 * jitter
            } else {
                1.0 + 0.04 * jitter
            });
        }
        out
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert!((quantile(&xs, 0.1) - 1.3).abs() < 1e-12);
    }

    #[test]
    fn p10_recovers_the_fast_mode_and_the_mean_does_not() {
        // The neighbour is busy for 20 % of one run and 60 % of the next.
        let quiet = bimodal(1, 4000, 0.2);
        let busy = bimodal(2, 4000, 0.6);
        let p10_shift = quantile(&busy, 0.1) / quantile(&quiet, 0.1) - 1.0;
        let mean_shift = mean(&busy) / mean(&quiet) - 1.0;
        let p50_shift = quantile(&busy, 0.5) / quantile(&quiet, 0.5) - 1.0;
        assert!(p10_shift.abs() < 0.02, "p10 moved {p10_shift}");
        assert!(mean_shift > 0.10, "mean moved only {mean_shift}");
        assert!(p50_shift > 0.10, "median moved only {p50_shift}");
    }

    #[test]
    fn p90_segment_recovers_the_fast_rate_and_the_mean_rate_does_not() {
        let rates = |seed, slow| {
            let times = bimodal(seed, 4000, slow);
            // 100 consecutive segments of 40 ops each.
            let segments: Vec<f64> = times
                .chunks(40)
                .map(|c| 40.0 / c.iter().sum::<f64>())
                .collect();
            let whole = 4000.0 / times.iter().sum::<f64>();
            (segments, whole)
        };
        let (quiet, quiet_mean) = rates(3, 0.2);
        let (busy, busy_mean) = rates(4, 0.6);
        assert_eq!(quiet.len(), 100);
        let p90_shift = quantile(&busy, 0.9) / quantile(&quiet, 0.9) - 1.0;
        let mean_shift = busy_mean / quiet_mean - 1.0;
        assert!(p90_shift.abs() < 0.03, "p90 segment moved {p90_shift}");
        assert!(mean_shift < -0.10, "mean rate moved only {mean_shift}");
        // The disturbance shows up in the ungated diagnostic instead.
        let share = |r: &[f64]| slow_share(r, quantile(r, 0.9));
        assert!(share(&busy) > share(&quiet) + 0.2);
    }

    #[test]
    fn fnv_depends_on_value_and_order() {
        let sum = |xs: &[f32]| {
            let mut f = Fnv::default();
            xs.iter().for_each(|&x| f.push_f32(x));
            f
        };
        assert_eq!(sum(&[1.0, 2.0]), sum(&[1.0, 2.0]));
        assert_ne!(sum(&[1.0, 2.0]), sum(&[2.0, 1.0]));
        assert_ne!(sum(&[0.0]), sum(&[-0.0]));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), (1.5, 3.0, 8.5));
    }
}
