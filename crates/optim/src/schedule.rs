//! Learning-rate schedules.

/// A learning-rate schedule mapping a step index to a multiplier-free LR.
pub trait LrSchedule {
    /// Learning rate at `step` (0-based).
    fn lr(&self, step: usize) -> f32;
}

/// Constant learning rate.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLr(pub f32);

impl LrSchedule for ConstantLr {
    fn lr(&self, _step: usize) -> f32 {
        self.0
    }
}

/// The paper's schedule: flat at `base_lr` for `flat_frac` of the run, then
/// cosine-anneals to zero by `total_steps`.
#[derive(Debug, Clone, Copy)]
pub struct FlatThenAnneal {
    /// Base learning rate (paper: 1e-3).
    pub base_lr: f32,
    /// Total optimization steps.
    pub total_steps: usize,
    /// Fraction of steps held flat (paper: 0.7).
    pub flat_frac: f32,
}

impl FlatThenAnneal {
    /// Schedule with the paper's defaults for a given run length.
    pub fn paper_default(total_steps: usize) -> Self {
        FlatThenAnneal {
            base_lr: 1e-3,
            total_steps,
            flat_frac: 0.7,
        }
    }
}

impl LrSchedule for FlatThenAnneal {
    fn lr(&self, step: usize) -> f32 {
        let flat_steps = (self.total_steps as f32 * self.flat_frac) as usize;
        if step < flat_steps {
            return self.base_lr;
        }
        let anneal_steps = self.total_steps.saturating_sub(flat_steps).max(1);
        let progress = ((step - flat_steps) as f32 / anneal_steps as f32).min(1.0);
        self.base_lr * 0.5 * (1.0 + (std::f32::consts::PI * progress).cos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_then_anneal_profile() {
        let s = FlatThenAnneal::paper_default(100);
        assert_eq!(s.lr(0), 1e-3);
        assert_eq!(s.lr(69), 1e-3);
        // annealing phase decreases monotonically
        assert!(s.lr(75) < 1e-3);
        assert!(s.lr(90) < s.lr(75));
        assert!(s.lr(99) < 1e-4);
        // past the end stays ~0
        assert!(s.lr(200) < 1e-9);
    }
}
