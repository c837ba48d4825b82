//! Numerical-health guard for the training loop.
//!
//! Watches the per-step loss and gradient statistics for NaN/Inf values and
//! EMA-based loss explosions, keeps periodic in-memory parameter
//! checkpoints, and drives the recovery policy: roll back to the last good
//! snapshot, scale the learning rate down, and retry — a bounded number of
//! times before the run is declared aborted.

use hire_tensor::{NdArray, Tensor};

// Divergence detection and recovery settings. Each is part of a durable
// training snapshot's config fingerprint (`crate::trainer`).

/// EMA smoothing factor for the loss baseline (closer to 1 = slower).
pub(crate) const EMA_BETA: f32 = 0.9;
/// A finite loss above `DIVERGENCE_FACTOR * ema` counts as suspicious.
pub(crate) const DIVERGENCE_FACTOR: f32 = 4.0;
/// Consecutive suspicious steps before a loss explosion triggers recovery.
/// Non-finite losses/gradients trigger immediately.
pub(crate) const PATIENCE: usize = 3;
/// Steps between in-memory parameter checkpoints.
pub(crate) const CHECKPOINT_EVERY: usize = 10;
/// Recoveries allowed before the run is aborted (weights stay at the last
/// good snapshot).
pub(crate) const MAX_RECOVERIES: usize = 4;
/// Learning-rate multiplier applied at each recovery (paper-style halving).
pub(crate) const LR_BACKOFF: f32 = 0.5;
/// Steps before the EMA baseline is trusted for explosion detection.
pub(crate) const WARMUP_STEPS: usize = 5;

/// Why the guard declared a step divergent.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DivergenceReason {
    /// The mini-batch loss was NaN or infinite.
    NonFiniteLoss,
    /// Gradient entries were NaN or infinite (count of zeroed entries).
    NonFiniteGradient {
        /// Number of non-finite gradient entries that were zeroed.
        entries: usize,
    },
    /// The loss exploded relative to its EMA baseline for `patience`
    /// consecutive steps.
    LossExplosion {
        /// The offending loss value.
        loss: f32,
        /// The EMA baseline at the time.
        ema: f32,
    },
}

/// Record of one rollback performed during training.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Learning-rate scale in effect *after* the rollback.
    pub lr_scale: f32,
}

/// How a training run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainOutcome {
    /// All steps ran (possibly after recoveries).
    Completed,
    /// The recovery budget was exhausted; weights are at the last good
    /// checkpoint.
    Aborted {
        /// Step at which the run gave up.
        step: usize,
    },
    /// The run stopped early because [`crate::TrainConfig::halt_after_steps`]
    /// was reached. Training state was checkpointed and can be resumed by
    /// [`crate::train`] with [`crate::TrainConfig::resume`] set.
    Interrupted {
        /// Last step executed before the halt.
        step: usize,
    },
}

/// Everything a training run produced: per-step statistics, the recoveries
/// performed, and how the run ended.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-step statistics (steps consumed by failed attempts included, so
    /// the trace shows what the guard saw).
    pub steps: Vec<crate::trainer::StepStats>,
    /// Rollbacks performed, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// Terminal state of the run.
    pub outcome: TrainOutcome,
}

/// In-memory snapshot of parameter values.
#[derive(Debug, Clone)]
pub(crate) struct ParameterCheckpoint {
    step: usize,
    values: Vec<NdArray>,
}

impl ParameterCheckpoint {
    /// Copies the current value of every parameter.
    pub(crate) fn capture(step: usize, params: &[Tensor]) -> Self {
        ParameterCheckpoint {
            step,
            values: params.iter().map(|p| p.value()).collect(),
        }
    }

    /// Rebuilds a checkpoint from raw values (e.g. loaded from a durable
    /// snapshot on resume).
    pub(crate) fn from_values(step: usize, values: Vec<NdArray>) -> Self {
        ParameterCheckpoint { step, values }
    }

    /// Writes the snapshot back into the parameters.
    pub(crate) fn restore(&self, params: &[Tensor]) {
        for (p, v) in params.iter().zip(&self.values) {
            p.set_value(v.clone());
        }
    }

    /// Step at which the snapshot was taken.
    pub(crate) fn step(&self) -> usize {
        self.step
    }

    /// The checkpointed parameter values.
    pub(crate) fn values(&self) -> &[NdArray] {
        &self.values
    }
}

/// Stateful health monitor fed once per training step.
#[derive(Debug)]
pub(crate) struct NumericalGuard {
    ema: Option<f32>,
    healthy_steps: usize,
    suspicious_streak: usize,
}

impl NumericalGuard {
    /// Creates a guard with no baseline yet.
    pub(crate) fn new() -> Self {
        NumericalGuard {
            ema: None,
            healthy_steps: 0,
            suspicious_streak: 0,
        }
    }

    /// Feeds one step's loss and the count of non-finite gradient entries;
    /// returns the divergence reason if recovery should run now.
    pub(crate) fn observe(
        &mut self,
        loss: f32,
        nonfinite_grad_entries: usize,
    ) -> Option<DivergenceReason> {
        if !loss.is_finite() {
            return Some(DivergenceReason::NonFiniteLoss);
        }
        if nonfinite_grad_entries > 0 {
            return Some(DivergenceReason::NonFiniteGradient {
                entries: nonfinite_grad_entries,
            });
        }
        let warmed_up = self.healthy_steps >= WARMUP_STEPS;
        if let (true, Some(ema)) = (warmed_up, self.ema) {
            if loss > DIVERGENCE_FACTOR * (ema + 1e-3) {
                self.suspicious_streak += 1;
                if self.suspicious_streak >= PATIENCE {
                    return Some(DivergenceReason::LossExplosion { loss, ema });
                }
                // Suspicious but within patience: do not fold the spike into
                // the baseline.
                return None;
            }
        }
        self.suspicious_streak = 0;
        self.healthy_steps += 1;
        self.ema = Some(match self.ema {
            None => loss,
            Some(e) => EMA_BETA * e + (1.0 - EMA_BETA) * loss,
        });
        None
    }

    /// Clears the baseline after a rollback (the restored weights produce
    /// different losses than the diverged ones).
    pub(crate) fn reset(&mut self) {
        self.ema = None;
        self.healthy_steps = 0;
        self.suspicious_streak = 0;
    }

    /// Copies out `(ema, healthy_steps, suspicious_streak)` for durable
    /// checkpointing.
    pub(crate) fn export_state(&self) -> (Option<f32>, usize, usize) {
        (self.ema, self.healthy_steps, self.suspicious_streak)
    }

    /// Restores state captured by [`NumericalGuard::export_state`] so a
    /// resumed run sees the same baseline as the uninterrupted one.
    pub(crate) fn import_state(
        &mut self,
        ema: Option<f32>,
        healthy_steps: usize,
        suspicious_streak: usize,
    ) {
        self.ema = ema;
        self.healthy_steps = healthy_steps;
        self.suspicious_streak = suspicious_streak;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_loss_triggers_immediately() {
        let mut g = NumericalGuard::new();
        assert_eq!(
            g.observe(f32::NAN, 0),
            Some(DivergenceReason::NonFiniteLoss)
        );
        assert_eq!(
            g.observe(f32::INFINITY, 0),
            Some(DivergenceReason::NonFiniteLoss)
        );
    }

    #[test]
    fn nonfinite_gradients_trigger_immediately() {
        let mut g = NumericalGuard::new();
        assert_eq!(
            g.observe(1.0, 3),
            Some(DivergenceReason::NonFiniteGradient { entries: 3 })
        );
    }

    #[test]
    fn loss_explosion_requires_patience() {
        assert_eq!((PATIENCE, WARMUP_STEPS), (3, 5));
        let mut g = NumericalGuard::new();
        for _ in 0..WARMUP_STEPS + 2 {
            assert_eq!(g.observe(1.0, 0), None);
        }
        // spikes within patience: suspicious, not yet divergent
        for _ in 1..PATIENCE {
            assert_eq!(g.observe(100.0, 0), None);
        }
        // the PATIENCE-th consecutive spike: divergent
        match g.observe(100.0, 0) {
            Some(DivergenceReason::LossExplosion { loss, .. }) => assert_eq!(loss, 100.0),
            other => panic!("expected LossExplosion, got {other:?}"),
        }
    }

    #[test]
    fn spikes_within_patience_do_not_poison_the_baseline() {
        let mut g = NumericalGuard::new();
        for _ in 0..WARMUP_STEPS + 1 {
            g.observe(1.0, 0);
        }
        let before = g.ema;
        g.observe(500.0, 0); // suspicious
        assert_eq!(g.ema, before, "spike folded into EMA");
        g.observe(1.0, 0); // healthy again resets the streak
        assert_eq!(g.suspicious_streak, 0);
    }

    #[test]
    fn guard_state_export_import_round_trips() {
        let mut g = NumericalGuard::new();
        for _ in 0..7 {
            g.observe(2.0, 0);
        }
        let (ema, healthy, streak) = g.export_state();
        assert_eq!(healthy, 7);
        let mut fresh = NumericalGuard::new();
        fresh.import_state(ema, healthy, streak);
        assert_eq!(fresh.export_state(), (ema, healthy, streak));
    }

    #[test]
    fn checkpoint_from_values_round_trips() {
        let p = Tensor::parameter(NdArray::from_vec([2], vec![5.0, 6.0]));
        let original = ParameterCheckpoint::capture(3, std::slice::from_ref(&p));
        let rebuilt = ParameterCheckpoint::from_values(3, original.values().to_vec());
        p.set_value(NdArray::from_vec([2], vec![0.0, 0.0]));
        rebuilt.restore(std::slice::from_ref(&p));
        assert_eq!(p.value().as_slice(), &[5.0, 6.0]);
        assert_eq!(rebuilt.step(), 3);
    }

    #[test]
    fn checkpoint_round_trip() {
        let p = Tensor::parameter(NdArray::from_vec([2], vec![1.0, 2.0]));
        let ckpt = ParameterCheckpoint::capture(7, std::slice::from_ref(&p));
        p.set_value(NdArray::from_vec([2], vec![9.0, 9.0]));
        ckpt.restore(std::slice::from_ref(&p));
        assert_eq!(p.value().as_slice(), &[1.0, 2.0]);
        assert_eq!(ckpt.step(), 7);
    }
}
