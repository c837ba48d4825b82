//! Types every workload shares: the error a run stops on, the per-answer
//! checker, how many ops a run does, and what one round hands back.

use crate::host::Span2;
use crate::stats::Fnv;

/// Why a run stopped. A `Failure` travels up to `main`, which cleans up
/// (the scratch guard drops on the way) and exits non-zero.
#[derive(Debug)]
pub struct Failure(pub String);

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

macro_rules! failure_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Failure {
            fn from(e: $t) -> Self {
                Failure(e.to_string())
            }
        }
    )*};
}
failure_from!(
    std::io::Error,
    hire_serve::ServeError,
    hire_wal::WalError,
    String
);

impl From<hire_error::HireError> for Failure {
    fn from(e: hire_error::HireError) -> Self {
        Failure(e.to_string())
    }
}

/// Fails the run unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure(format!("check failed: {}", what())))
    }
}

/// Checks every answer of a round (typed `Ok`, finite, inside the rating
/// range) and folds it into the round's checksum. A failed or refused op is
/// counted against `attempted` and never contributes a latency.
#[derive(Debug, Clone)]
pub struct Checker {
    lo: f32,
    hi: f32,
    pub attempted: u64,
    pub failed: u64,
    pub fnv: Fnv,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
}

impl Checker {
    /// Accepts the answers a HIRE model can give on `dataset`:
    /// `α · sigmoid(·)` with `α` the top rating, so `(0, max_rating]`.
    /// (Not `[min_rating, max_rating]`: the product does not clamp
    /// model-tier answers to the bottom of the scale, and on a 1–5 scale a
    /// few per thousand `write_mix` answers come out between 0.8 and 1.0.
    /// Only the graph-statistics fallback clamps.)
    pub fn for_dataset(dataset: &hire_data::Dataset) -> Self {
        Checker::new(0.0, dataset.max_rating())
    }

    pub fn new(lo: f32, hi: f32) -> Self {
        Checker {
            lo,
            hi,
            attempted: 0,
            failed: 0,
            fnv: Fnv::default(),
            first_failure: None,
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Records one op's answer; `true` if it counts as a success.
    pub fn answer<E: std::fmt::Display>(&mut self, answer: Result<f32, E>) -> bool {
        self.record(answer, self.lo, self.hi)
    }

    /// Records an op that has no rating to range-check (a write, a training
    /// step): any finite value is folded into the checksum as it is.
    pub fn op<E: std::fmt::Display>(&mut self, outcome: Result<f32, E>) -> bool {
        self.record(outcome, f32::MIN, f32::MAX)
    }

    fn record<E: std::fmt::Display>(&mut self, outcome: Result<f32, E>, lo: f32, hi: f32) -> bool {
        self.attempted += 1;
        match outcome {
            // (A NaN fails both comparisons.)
            Ok(v) if v >= lo && v <= hi => {
                self.fnv.push_f32(v);
                true
            }
            Ok(v) => {
                self.fail(format!("answer {v} outside [{lo}, {hi}]"));
                false
            }
            Err(e) => {
                self.fail(format!("op failed: {e}"));
                false
            }
        }
    }
}

/// How much work a run does. Measured work is a fixed op count, never a
/// fixed duration: the counts are a pure function of `--seconds` (and
/// `--smoke`), sized so that the measured phases of a run take about
/// `--seconds` on the host the benchmark was written on.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rounds per run; each is a fresh set-up plus the measured phases.
    pub rounds: usize,
    /// Measurement budget of one round, in seconds of nominal work.
    pub round_budget_s: f64,
    pub smoke: bool,
}

/// Rounds of a full run.
pub const ROUNDS: usize = 4;
/// Equal-op segments per round of a full run (so ≥ 100 per run).
pub const SEGMENTS_PER_ROUND: usize = 25;

impl Scale {
    pub fn new(seconds: u64, smoke: bool) -> Self {
        if smoke {
            // One round with about 1/20 of a full run's ops.
            Scale {
                rounds: 1,
                round_budget_s: seconds as f64 / 20.0,
                smoke,
            }
        } else {
            Scale {
                rounds: ROUNDS,
                round_budget_s: seconds as f64 / ROUNDS as f64,
                smoke,
            }
        }
    }

    /// Segments in one round's throughput phase.
    pub fn segments(&self) -> usize {
        if self.smoke {
            5
        } else {
            SEGMENTS_PER_ROUND
        }
    }

    /// Op count for a phase that should take `share` of the round's budget
    /// at `nominal_ops_per_s`, at least `min`.
    pub fn ops(&self, share: f64, nominal_ops_per_s: f64, min: usize) -> usize {
        ((self.round_budget_s * share * nominal_ops_per_s).round() as usize).max(min)
    }
}

/// What one round's measured phases produced. Times are raw (wall clock and
/// process CPU clock); the runner brings them to reference speed.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// One entry per successful latency op.
    pub lat: Vec<Span2>,
    /// One entry per equal-op segment of the throughput phase, in order.
    pub segs: Vec<Span2>,
    /// Work units in each segment.
    pub seg_work: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checksum: u64,
    /// Why the first failed op failed, if any did.
    pub first_failure: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_counts_failures_against_attempts() {
        let mut c = Checker::new(1.0, 5.0);
        assert!(c.answer::<String>(Ok(3.5)));
        assert!(!c.answer::<String>(Ok(5.5)));
        assert!(!c.answer::<String>(Ok(f32::NAN)));
        assert!(!c.answer(Err("refused")));
        assert!(c.op::<String>(Ok(123.0)));
        assert_eq!((c.attempted, c.failed), (5, 3));
        assert!(c.first_failure.as_deref().unwrap().contains("5.5"));
    }

    #[test]
    fn op_counts_are_a_function_of_seconds_only() {
        let full = Scale::new(16, false);
        assert_eq!((full.rounds, full.segments()), (4, 25));
        assert_eq!(full.ops(0.5, 100.0, 1), 200);
        let smoke = Scale::new(16, true);
        assert_eq!(smoke.rounds, 1);
        // One twentieth of the four rounds' 800 ops.
        assert_eq!(smoke.ops(0.5, 100.0, 1), 40);
        assert_eq!(smoke.ops(0.5, 0.1, 7), 7);
    }
}
