//! Circuit breaker around the model tier.
//!
//! A poisoned frozen model (panicking forward, persistent injected fault)
//! would otherwise burn a full forward attempt on every batch while the
//! fallback tier sits idle. The breaker watches a sliding window of
//! model-tier outcomes and, past a failure-rate threshold, **opens**:
//! model attempts are skipped outright and callers are degraded down the
//! ladder.
//! After a cooldown the breaker goes **half-open** and admits a limited
//! number of probe attempts; enough successes close it, any failure
//! re-opens it.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Breaker tuning.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Sliding window length (model-tier outcomes considered).
    pub window: usize,
    /// Open when `failures / window_len ≥ failure_threshold` (only once
    /// `min_samples` outcomes are in the window).
    pub failure_threshold: f64,
    /// Outcomes required before the breaker may trip.
    pub min_samples: usize,
    /// How long an open breaker rejects before probing (half-open).
    pub cooldown: Duration,
    /// Probe attempts admitted while half-open; that many consecutive
    /// successes close the breaker, any failure re-opens it.
    pub half_open_trials: usize,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window: 32,
            failure_threshold: 0.5,
            min_samples: 8,
            cooldown: Duration::from_millis(250),
            half_open_trials: 2,
        }
    }
}

/// The breaker's position in its state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; outcomes are being recorded.
    Closed,
    /// Model tier disabled; admissions rejected until the cooldown ends.
    Open,
    /// Probing: a bounded number of trial admissions are allowed.
    HalfOpen,
}

/// Monotonic transition and outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed/HalfOpen → Open transitions.
    pub opened: u64,
    /// Open → HalfOpen transitions (cooldown expiry).
    pub half_opened: u64,
    /// HalfOpen → Closed transitions (probes succeeded).
    pub closed: u64,
    /// Admissions rejected because the breaker was open.
    pub rejected: u64,
    /// Successful model-tier outcomes recorded.
    pub successes: u64,
    /// Failed model-tier outcomes recorded.
    pub failures: u64,
}

struct Inner {
    state: BreakerState,
    /// Sliding outcome window; `true` = failure.
    window: VecDeque<bool>,
    failures_in_window: usize,
    opened_at: Instant,
    /// Probes admitted since entering half-open.
    trials_admitted: usize,
    /// Probe successes since entering half-open.
    trial_successes: usize,
    stats: BreakerStats,
}

/// See the module docs. Thread-safe; outcome recording and admission are
/// short critical sections on one internal mutex.
pub(crate) struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
}

fn lock(m: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub(crate) fn new(config: BreakerConfig) -> Self {
        let config = BreakerConfig {
            window: config.window.max(1),
            min_samples: config.min_samples.max(1),
            half_open_trials: config.half_open_trials.max(1),
            ..config
        };
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                window: VecDeque::new(),
                failures_in_window: 0,
                opened_at: Instant::now(),
                trials_admitted: 0,
                trial_successes: 0,
                stats: BreakerStats::default(),
            }),
        }
    }

    /// Asks to attempt the model tier. `true` admits the attempt (the
    /// caller must then record exactly one outcome); `false` means the
    /// breaker is open and the attempt must be skipped.
    pub(crate) fn admit(&self) -> bool {
        let mut inner = lock(&self.inner);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if inner.opened_at.elapsed() >= self.config.cooldown {
                    inner.state = BreakerState::HalfOpen;
                    inner.trials_admitted = 1; // this admission is the first probe
                    inner.trial_successes = 0;
                    inner.stats.half_opened += 1;
                    true
                } else {
                    inner.stats.rejected += 1;
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.trials_admitted < self.config.half_open_trials {
                    inner.trials_admitted += 1;
                    true
                } else {
                    inner.stats.rejected += 1;
                    false
                }
            }
        }
    }

    /// Records the outcome of an admitted model-tier attempt.
    pub(crate) fn record(&self, success: bool) {
        let mut inner = lock(&self.inner);
        if success {
            inner.stats.successes += 1;
        } else {
            inner.stats.failures += 1;
        }
        match inner.state {
            BreakerState::Closed => {
                inner.window.push_back(!success);
                if !success {
                    inner.failures_in_window += 1;
                }
                if inner.window.len() > self.config.window && inner.window.pop_front() == Some(true)
                {
                    inner.failures_in_window -= 1;
                }
                let len = inner.window.len();
                if len >= self.config.min_samples
                    && inner.failures_in_window as f64 >= self.config.failure_threshold * len as f64
                {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Instant::now();
                    inner.stats.opened += 1;
                }
            }
            BreakerState::HalfOpen => {
                if success {
                    inner.trial_successes += 1;
                    if inner.trial_successes >= self.config.half_open_trials {
                        inner.state = BreakerState::Closed;
                        inner.window.clear();
                        inner.failures_in_window = 0;
                        inner.stats.closed += 1;
                    }
                } else {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Instant::now();
                    inner.stats.opened += 1;
                }
            }
            // A late outcome from an attempt admitted before the breaker
            // opened: counted above, but it must not perturb the open
            // cooldown.
            BreakerState::Open => {}
        }
    }

    /// Releases an admission whose attempt was abandoned without an
    /// outcome (e.g. the deadline budget ran out before the forward
    /// finished). Returns a half-open probe slot so abandoned probes
    /// cannot wedge the breaker in half-open forever.
    pub(crate) fn forfeit(&self) {
        let mut inner = lock(&self.inner);
        if inner.state == BreakerState::HalfOpen && inner.trials_admitted > inner.trial_successes {
            inner.trials_admitted -= 1;
        }
    }

    /// Current state.
    pub(crate) fn state(&self) -> BreakerState {
        lock(&self.inner).state
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> BreakerStats {
        lock(&self.inner).stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown: Duration::ZERO,
            half_open_trials: 2,
        }
    }

    #[test]
    fn opens_on_failure_rate_and_rejects() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            cooldown: Duration::from_secs(3600),
            ..fast_config()
        });
        for _ in 0..4 {
            assert!(breaker.admit());
            breaker.record(false);
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.admit(), "open breaker must reject");
        let stats = breaker.stats();
        assert_eq!(stats.opened, 1);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn stays_closed_below_threshold() {
        let breaker = CircuitBreaker::new(fast_config());
        for k in 0..32 {
            assert!(breaker.admit());
            breaker.record(k % 4 == 0); // 75% failures? no: success when k%4==0 → 25% success
        }
        // 75% failures ≥ 50% threshold → must have opened at some point.
        assert!(breaker.stats().opened >= 1);
        let healthy = CircuitBreaker::new(fast_config());
        for k in 0..32 {
            assert!(healthy.admit());
            healthy.record(k % 4 != 0); // 25% failures < 50% threshold
        }
        assert_eq!(healthy.state(), BreakerState::Closed);
        assert_eq!(healthy.stats().opened, 0);
    }

    #[test]
    fn half_open_probes_then_closes_on_success() {
        let breaker = CircuitBreaker::new(fast_config()); // cooldown 0
        for _ in 0..4 {
            assert!(breaker.admit());
            breaker.record(false);
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        // Cooldown 0: next admit flips to half-open and admits the probe.
        assert!(breaker.admit());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(breaker.admit(), "second probe within half_open_trials");
        assert!(!breaker.admit(), "probe budget exhausted until outcomes");
        breaker.record(true);
        breaker.record(true);
        assert_eq!(breaker.state(), BreakerState::Closed);
        let stats = breaker.stats();
        assert_eq!((stats.half_opened, stats.closed), (1, 1));
    }

    #[test]
    fn half_open_failure_reopens() {
        let breaker = CircuitBreaker::new(fast_config());
        for _ in 0..4 {
            assert!(breaker.admit());
            breaker.record(false);
        }
        assert!(breaker.admit()); // half-open probe
        breaker.record(false);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.stats().opened, 2);
    }
}
