//! Property tests for the shared backoff utility: the one schedule used by
//! both training recovery (`hire_core::trainer`) and serving retries (the
//! engine's model-tier retry loop).

use hire_core::{Backoff, BackoffConfig};
use proptest::prelude::*;
use std::time::Duration;

fn config(base_ms: u64, factor: f64, max_ms: u64, jitter: f64) -> BackoffConfig {
    BackoffConfig {
        base: Duration::from_millis(base_ms),
        factor,
        max_delay: Duration::from_millis(max_ms),
        jitter,
    }
}

fn schedule(cfg: &BackoffConfig, seed: u64, len: usize) -> Vec<Duration> {
    let mut backoff = Backoff::new(cfg.clone(), seed);
    (0..len).map(|_| backoff.next_delay()).collect()
}

proptest! {
    #[test]
    fn same_seed_and_config_replay_the_same_schedule(
        seed in 0u64..u64::MAX,
        base in 1u64..20u64,
        factor in 1.0f64..4.0,
        max_ms in 1u64..200u64,
        jitter in 0.0f64..1.0,
    ) {
        let cfg = config(base, factor, max_ms, jitter);
        prop_assert_eq!(schedule(&cfg, seed, 16), schedule(&cfg, seed, 16));
    }

    #[test]
    fn every_delay_is_bounded_by_max_delay(
        seed in 0u64..u64::MAX,
        base in 1u64..50u64,
        factor in 1.0f64..8.0,
        max_ms in 1u64..100u64,
        jitter in 0.0f64..1.0,
    ) {
        let cfg = config(base, factor, max_ms, jitter);
        for (k, d) in schedule(&cfg, seed, 24).iter().enumerate() {
            prop_assert!(
                *d <= cfg.max_delay,
                "attempt {k}: delay {d:?} exceeds cap {:?}",
                cfg.max_delay
            );
        }
    }

    #[test]
    fn reset_restarts_the_attempt_ladder_not_the_jitter_stream(
        seed in 0u64..u64::MAX,
        base in 1u64..20u64,
        factor in 1.5f64..4.0,
    ) {
        // With jitter off, delays are a pure function of the attempt
        // index, so reset() must reproduce the ladder exactly.
        let cfg = config(base, factor, 10_000, 0.0);
        let mut backoff = Backoff::new(cfg.clone(), seed);
        let first: Vec<Duration> = (0..6).map(|_| backoff.next_delay()).collect();
        backoff.reset();
        let second: Vec<Duration> = (0..6).map(|_| backoff.next_delay()).collect();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn train_recovery_and_serve_retry_call_sites_share_one_schedule(
        seed in 0u64..u64::MAX,
        base in 1u64..20u64,
        factor in 1.0f64..4.0,
        max_ms in 1u64..200u64,
        jitter in 0.0f64..1.0,
    ) {
        // Both call sites construct `Backoff::new(config, seed)` and pull
        // `next_delay()` — there is exactly one implementation, so two
        // independently constructed instances must agree delay-for-delay.
        // (This is the regression guard for the dedup: if either site ever
        // grows its own arithmetic again, its schedule will drift.)
        let cfg = config(base, factor, max_ms, jitter);
        let as_serve_does = schedule(&cfg, seed, 12);
        let as_trainer_does = {
            let mut b = Backoff::new(cfg.clone(), seed);
            let mut out = Vec::new();
            for _ in 0..12 {
                out.push(b.next_delay());
            }
            out
        };
        prop_assert_eq!(as_serve_does, as_trainer_does);
    }

    #[test]
    fn geometric_scale_is_bit_identical_to_incremental_multiply(
        factor in 0.05f32..1.0,
        attempts in 0usize..64,
    ) {
        // The trainer historically tracked `lr_scale *= lr_backoff` across
        // recoveries; checkpoint resume recomputes it as
        // `Backoff::geometric(lr_backoff, total_recoveries)`. Bit equality
        // keeps resumed runs byte-identical to uninterrupted ones.
        let mut incremental = 1.0f32;
        for _ in 0..attempts {
            incremental *= factor;
        }
        prop_assert_eq!(
            Backoff::geometric(factor, attempts).to_bits(),
            incremental.to_bits()
        );
    }
}
