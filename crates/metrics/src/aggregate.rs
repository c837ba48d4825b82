//! Mean ± std aggregation across ranking units and random seeds, matching
//! the paper's `mean(std)` table entries.

/// Streaming mean/std accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    count: usize,
    mean: f64,
    m2: f64,
}

impl Accumulator {
    /// Adds one observation.
    pub fn push(&mut self, x: f32) {
        self.count += 1;
        let delta = x as f64 - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x as f64 - self.mean);
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f32 {
        self.mean as f32
    }

    /// Population standard deviation (0 with fewer than 2 observations).
    pub fn std(&self) -> f32 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt() as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn welford(values: &[f32]) -> (f32, f32) {
        let mut acc = Accumulator::default();
        for &v in values {
            acc.push(v);
        }
        (acc.mean(), acc.std())
    }

    #[test]
    fn welford_matches_direct() {
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        let (mean, std) = welford(&xs);
        assert!((mean - 2.5).abs() < 1e-6);
        // population std of 1..4 = sqrt(1.25)
        assert!((std - 1.25f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn empty_and_single() {
        let (m, s) = welford(&[]);
        assert_eq!((m, s), (0.0, 0.0));
        let (m, s) = welford(&[7.0]);
        assert_eq!((m, s), (7.0, 0.0));
    }
}
