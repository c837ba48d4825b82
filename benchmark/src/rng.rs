//! The benchmark's own input generators.
//!
//! Workload inputs (query pairs, zipf ranks, Poisson arrival times) come
//! from this file only, never from `vendor/rand` or `crates/bench`, so a
//! change to product code cannot change what the benchmark asks of it.
//! (`rand::StdRng` is still handed to product functions that take an RNG —
//! dataset generation, model init, training — because their signatures
//! require it.)

/// SplitMix64: tiny, seedable, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent generator for sub-stream `stream` of `seed`, so that
    /// adding a draw to one phase never shifts the inputs of another.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so there is no modulo bias.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let n = n as u64;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n) as usize;
            }
        }
    }
}

/// Zipf ranks over `0..n` with exponent `s`: `P(rank) ∝ 1/(rank+1)^s`.
/// (A copy of the idea in `crates/bench`'s `QueryLog`, kept here on
/// purpose — see the module docs.)
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty set");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 0..n {
            total += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(total);
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cdf.last().expect("non-empty cdf");
        let target = rng.next_f64() * total;
        self.cdf
            .partition_point(|&c| c < target)
            .min(self.cdf.len() - 1)
    }
}

/// Intended send times, in seconds from the phase start, of `count` Poisson
/// arrivals at `rate` per second (exponential gaps).
pub fn poisson_arrivals(rng: &mut SplitMix64, rate: f64, count: usize) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            // 1 - u is in (0, 1], so the log is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_a_pure_function_of_the_seed() {
        let draw = |seed: u64| {
            let mut rng = SplitMix64::stream(seed, 3);
            let zipf = Zipf::new(64, 1.1);
            let ranks: Vec<usize> = (0..500).map(|_| zipf.sample(&mut rng)).collect();
            let arrivals = poisson_arrivals(&mut rng, 1000.0, 500);
            (ranks, arrivals)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(64, 1.1);
        let mut rng = SplitMix64::stream(1, 0);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[7] && counts[7] > counts[63]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn poisson_arrivals_increase_at_about_the_asked_rate() {
        let mut rng = SplitMix64::stream(9, 0);
        let at = poisson_arrivals(&mut rng, 100.0, 10_000);
        assert!(at.windows(2).all(|w| w[1] > w[0]));
        let rate = at.len() as f64 / at.last().unwrap();
        assert!((rate - 100.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn below_covers_the_range() {
        let mut rng = SplitMix64::stream(4, 0);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
