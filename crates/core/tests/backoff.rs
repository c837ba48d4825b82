//! Property test for the trainer's learning-rate backoff: the scale a
//! divergence recovery sets (`hire_core::trainer::geometric`).

use hire_core::trainer::geometric;
use proptest::prelude::*;

proptest! {
    #[test]
    fn geometric_scale_is_bit_identical_to_incremental_multiply(
        factor in 0.05f32..1.0,
        attempts in 0usize..64,
    ) {
        // The trainer historically tracked `lr_scale *= lr_backoff` across
        // recoveries; checkpoint resume recomputes it as
        // `geometric(lr_backoff, total_recoveries)`. Bit equality keeps
        // resumed runs byte-identical to uninterrupted ones.
        let mut incremental = 1.0f32;
        for _ in 0..attempts {
            incremental *= factor;
        }
        prop_assert_eq!(
            geometric(factor, attempts).to_bits(),
            incremental.to_bits()
        );
    }
}
