//! Numerical-health guard for the training loop.
//!
//! Watches the per-step loss and gradient statistics for NaN/Inf values and
//! EMA-based loss explosions, keeps periodic in-memory parameter
//! checkpoints, and drives the recovery policy: roll back to the last good
//! snapshot, scale the learning rate down, and retry — a bounded number of
//! times before the run is declared aborted.

use hire_tensor::{NdArray, Tensor};

/// Settings for divergence detection and recovery.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// EMA smoothing factor for the loss baseline (closer to 1 = slower).
    pub ema_beta: f32,
    /// A finite loss above `divergence_factor * ema` counts as suspicious.
    pub divergence_factor: f32,
    /// Consecutive suspicious steps before a loss explosion triggers
    /// recovery. Non-finite losses/gradients trigger immediately.
    pub patience: usize,
    /// Steps between parameter checkpoints.
    pub checkpoint_every: usize,
    /// Recoveries allowed before the run is aborted (weights stay at the
    /// last good snapshot).
    pub max_recoveries: usize,
    /// Learning-rate multiplier applied at each recovery (paper-style
    /// halving by default).
    pub lr_backoff: f32,
    /// Steps before the EMA baseline is trusted for explosion detection.
    pub warmup_steps: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            ema_beta: 0.9,
            divergence_factor: 4.0,
            patience: 3,
            checkpoint_every: 10,
            max_recoveries: 4,
            lr_backoff: 0.5,
            warmup_steps: 5,
        }
    }
}

/// Why the guard declared a step divergent.
#[derive(Debug, Clone, PartialEq)]
pub enum DivergenceReason {
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

impl std::fmt::Display for DivergenceReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceReason::NonFiniteLoss => write!(f, "non-finite loss"),
            DivergenceReason::NonFiniteGradient { entries } => {
                write!(f, "{entries} non-finite gradient entries")
            }
            DivergenceReason::LossExplosion { loss, ema } => {
                write!(f, "loss {loss:.4} exploded above EMA baseline {ema:.4}")
            }
        }
    }
}

/// Record of one rollback performed during training.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// Step at which divergence was detected.
    pub step: usize,
    /// What triggered the rollback.
    pub reason: DivergenceReason,
    /// Step of the checkpoint that was restored (0 = initial weights).
    pub restored_step: usize,
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
    /// was reached. Training state was checkpointed and can be resumed with
    /// [`crate::resume_from`].
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

impl TrainReport {
    /// Loss of the last recorded healthy step, if any step ran.
    pub fn final_loss(&self) -> Option<f32> {
        self.steps
            .iter()
            .rev()
            .map(|s| s.loss)
            .find(|l| l.is_finite())
    }
}

/// In-memory snapshot of parameter values.
#[derive(Debug, Clone)]
pub struct ParameterCheckpoint {
    step: usize,
    values: Vec<NdArray>,
}

impl ParameterCheckpoint {
    /// Copies the current value of every parameter.
    pub fn capture(step: usize, params: &[Tensor]) -> Self {
        ParameterCheckpoint {
            step,
            values: params.iter().map(|p| p.value()).collect(),
        }
    }

    /// Rebuilds a checkpoint from raw values (e.g. loaded from a durable
    /// snapshot on resume).
    pub fn from_values(step: usize, values: Vec<NdArray>) -> Self {
        ParameterCheckpoint { step, values }
    }

    /// Writes the snapshot back into the parameters.
    pub fn restore(&self, params: &[Tensor]) {
        for (p, v) in params.iter().zip(&self.values) {
            p.set_value(v.clone());
        }
    }

    /// Step at which the snapshot was taken.
    pub fn step(&self) -> usize {
        self.step
    }

    /// The checkpointed parameter values.
    pub fn values(&self) -> &[NdArray] {
        &self.values
    }
}

/// Stateful health monitor fed once per training step.
#[derive(Debug)]
pub struct NumericalGuard {
    cfg: GuardConfig,
    ema: Option<f32>,
    healthy_steps: usize,
    suspicious_streak: usize,
}

impl NumericalGuard {
    /// Creates a guard with the given settings.
    pub fn new(cfg: GuardConfig) -> Self {
        NumericalGuard {
            cfg,
            ema: None,
            healthy_steps: 0,
            suspicious_streak: 0,
        }
    }

    /// Feeds one step's loss and the count of non-finite gradient entries;
    /// returns the divergence reason if recovery should run now.
    pub fn observe(
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
        let warmed_up = self.healthy_steps >= self.cfg.warmup_steps;
        if let (true, Some(ema)) = (warmed_up, self.ema) {
            if loss > self.cfg.divergence_factor * (ema + 1e-3) {
                self.suspicious_streak += 1;
                if self.suspicious_streak >= self.cfg.patience {
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
            Some(e) => self.cfg.ema_beta * e + (1.0 - self.cfg.ema_beta) * loss,
        });
        None
    }

    /// Clears the baseline after a rollback (the restored weights produce
    /// different losses than the diverged ones).
    pub fn reset(&mut self) {
        self.ema = None;
        self.healthy_steps = 0;
        self.suspicious_streak = 0;
    }

    /// Copies out `(ema, healthy_steps, suspicious_streak)` for durable
    /// checkpointing.
    pub fn export_state(&self) -> (Option<f32>, usize, usize) {
        (self.ema, self.healthy_steps, self.suspicious_streak)
    }

    /// Restores state captured by [`NumericalGuard::export_state`] so a
    /// resumed run sees the same baseline as the uninterrupted one.
    pub fn import_state(
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
        let mut g = NumericalGuard::new(GuardConfig::default());
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
        let mut g = NumericalGuard::new(GuardConfig::default());
        assert_eq!(
            g.observe(1.0, 3),
            Some(DivergenceReason::NonFiniteGradient { entries: 3 })
        );
    }

    #[test]
    fn loss_explosion_requires_patience() {
        let cfg = GuardConfig {
            patience: 2,
            warmup_steps: 3,
            ..GuardConfig::default()
        };
        let mut g = NumericalGuard::new(cfg);
        for _ in 0..5 {
            assert_eq!(g.observe(1.0, 0), None);
        }
        // one spike: suspicious, not yet divergent
        assert_eq!(g.observe(100.0, 0), None);
        // second consecutive spike: divergent
        match g.observe(100.0, 0) {
            Some(DivergenceReason::LossExplosion { loss, .. }) => assert_eq!(loss, 100.0),
            other => panic!("expected LossExplosion, got {other:?}"),
        }
    }

    #[test]
    fn spikes_within_patience_do_not_poison_the_baseline() {
        let cfg = GuardConfig {
            patience: 3,
            warmup_steps: 2,
            ..GuardConfig::default()
        };
        let mut g = NumericalGuard::new(cfg);
        for _ in 0..4 {
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
        let mut g = NumericalGuard::new(GuardConfig::default());
        for _ in 0..7 {
            g.observe(2.0, 0);
        }
        let (ema, healthy, streak) = g.export_state();
        assert_eq!(healthy, 7);
        let mut fresh = NumericalGuard::new(GuardConfig::default());
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
