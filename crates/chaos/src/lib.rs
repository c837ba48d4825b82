//! # hire-chaos
//!
//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a seeded schedule of faults attached to **named
//! sites** — fixed strings compiled into the code under test (see
//! [`sites`]). Each time execution passes a site, the code asks the plan
//! whether a fault fires there; the answer for the k-th arrival at a site
//! is a pure function of `(seed, site, k)` (SplitMix64), so a fault
//! schedule replays exactly under a fixed seed no matter how threads
//! interleave, and two seeds explore different schedules.
//!
//! The hook is **zero-cost when disabled**: production code holds an
//! `Option<Arc<FaultPlan>>` that is `None` outside chaos tests, so the
//! entire mechanism compiles down to one branch on a null check per site.
//!
//! Fault kinds cover the failure modes the resilience layer must survive:
//! injected latency ([`FaultKind::Delay`]), worker panics
//! ([`FaultKind::Panic`]), typed transient errors ([`FaultKind::Error`]),
//! a model returning the wrong number of predictions
//! ([`FaultKind::WrongShape`]), and checkpoint byte corruption
//! ([`FaultKind::CorruptByte`], applied with [`FaultPlan::corrupt`]).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The registry of named fault sites. Sites are compiled-in constants so a
/// typo in a test is a compile error, and plans can enumerate coverage.
pub mod sites {
    /// Worker loop, immediately before the batched predictor call.
    /// Supports `Delay` and `Panic` (exercises the `WorkerLost` path).
    pub const SERVER_BATCH: &str = "server.batch";
    /// Engine context resolution (cache lookup + sampling). Supports
    /// `Delay` and `Error` (a query whose context cannot be built).
    pub const ENGINE_RESOLVE: &str = "engine.resolve";
    /// Engine model-tier forward. Supports `Delay`, `Panic`, `Error`, and
    /// `WrongShape` (the frozen model "returns" a short batch).
    pub const ENGINE_FORWARD: &str = "engine.forward";
    /// Snapshot decode. Supports `CorruptByte` (a flipped bit in the
    /// checkpoint image, which must surface as a typed corruption error).
    pub const CKPT_DECODE: &str = "ckpt.decode";
    /// Background fine-tuning round, immediately before the training step
    /// loop. Supports `Delay`, `Panic` (the trainer thread dies mid-round),
    /// and `Error` (a typed training failure) — none of which may perturb
    /// serving.
    pub const TRAINER_STEP: &str = "trainer.step";
    /// Shadow evaluation of a candidate model against the incumbent.
    /// Supports `Delay`, `Panic`, and `Error`; a failed eval must reject
    /// the candidate, never promote it blind.
    pub const SHADOW_EVAL: &str = "online.shadow_eval";
    /// The versioned model swap itself. Supports `Delay` (widens the race
    /// window against in-flight batches), `Panic`, and `Error` (the swap is
    /// abandoned and the incumbent keeps serving).
    pub const ONLINE_SWAP: &str = "online.swap";
    /// Hybrid-tier forward (bias + content predictor). Supports `Delay`,
    /// `Panic`, and `Error`; a failure here must fall through to the
    /// statistics fallback.
    pub const HYBRID_FORWARD: &str = "hybrid.forward";
    /// Write-ahead-log frame append. Supports `Delay`, `Panic`, `Error`
    /// (the write is refused before any byte lands — the caller must not
    /// ack), and `TornWrite` (a crash mid-`write(2)`: only a prefix of the
    /// frame plus deterministic garbage reaches the file, and the log
    /// poisons itself as a dead process would).
    pub const WAL_APPEND: &str = "wal.append";
    /// Write-ahead-log commit fsync. Supports `Delay` (a slow device:
    /// committers that arrive meanwhile share the next fsync), `Panic` (the
    /// leader dies; the next committer takes over), and `Error` (the commit
    /// fails typed; buffered frames stay unacked).
    pub const WAL_FSYNC: &str = "wal.fsync";
    /// Write-ahead-log segment rotation. Supports `Delay`, `Panic`, and
    /// `Error` (the rotation is abandoned; the current segment keeps
    /// accepting frames past its size target).
    pub const WAL_ROTATE: &str = "wal.rotate";

    /// Every registered site, for coverage sweeps.
    pub(crate) const ALL: &[&str] = &[
        SERVER_BATCH,
        ENGINE_RESOLVE,
        ENGINE_FORWARD,
        CKPT_DECODE,
        TRAINER_STEP,
        SHADOW_EVAL,
        ONLINE_SWAP,
        HYBRID_FORWARD,
        WAL_APPEND,
        WAL_FSYNC,
        WAL_ROTATE,
    ];
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep for the given duration before proceeding (injected latency —
    /// drives deadline and backpressure behavior).
    Delay(Duration),
    /// Panic at the site (drives panic isolation / `WorkerLost`).
    Panic,
    /// Fail the operation with a typed [`InjectedFault`] (drives the
    /// ladder's degradation, and typed errors where nothing degrades).
    Error,
    /// The operation "succeeds" with an output of the wrong shape (drives
    /// the scheduler's output validation).
    WrongShape,
    /// Flip one deterministic bit of a byte buffer (drives checkpoint
    /// corruption handling). Only meaningful via [`FaultPlan::corrupt`].
    CorruptByte,
    /// Tear a buffered write: only a deterministic prefix of the buffer
    /// (plus trailing garbage) reaches the file, simulating a crash
    /// mid-`write(2)`. Only meaningful via [`FaultPlan::torn_image`]; drives the
    /// WAL's torn-tail recovery.
    TornWrite,
}

/// A typed transient failure produced by [`FaultKind::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site that fired.
    pub site: &'static str,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at `{}`", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// One scheduled fault: `kind` fires at `site` with probability `rate`
/// per arrival.
#[derive(Debug, Clone)]
struct FaultSpec {
    site: &'static str,
    kind: FaultKind,
    rate: f64,
}

/// Per-site observability: how often a site was passed and what fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Times execution passed the site.
    pub arrivals: u64,
    /// Faults that fired there.
    pub injected: u64,
}

/// SplitMix64 mix (same mixer as `hire_core::backoff::splitmix64`,
/// duplicated so this crate stays a leaf with no dependencies).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so distinct sites draw from distinct
/// SplitMix64 streams under one seed.
fn site_hash(site: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in site.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A seeded, deterministic fault schedule.
///
/// Thread-safe and shared behind an `Arc`: the per-site arrival counters
/// are atomic, and the decision for the k-th arrival depends only on
/// `(seed, site, spec index, k)` — the *schedule* of fired faults is
/// identical across runs with the same seed, even though a multi-threaded
/// server may distribute the arrivals differently over queries.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    specs: Vec<FaultSpec>,
    /// Arrival counter per registered site (indexed like `sites::ALL`).
    arrivals: Vec<AtomicU64>,
    /// Fired counter per spec.
    injected: Vec<AtomicU64>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: Vec::new(),
            arrivals: sites::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
            injected: Vec::new(),
        }
    }

    /// Adds a fault: `kind` fires at `site` with probability `rate` (in
    /// `[0, 1]`) per arrival. Specs are consulted in insertion order; the
    /// first that fires wins. Panics on an unregistered site — chaos
    /// tests must target real hooks.
    pub fn with_fault(mut self, site: &'static str, kind: FaultKind, rate: f64) -> Self {
        assert!(
            sites::ALL.contains(&site),
            "unknown fault site `{site}` (see hire_chaos::sites)"
        );
        self.specs.push(FaultSpec {
            site,
            kind,
            rate: rate.clamp(0.0, 1.0),
        });
        self.injected.push(AtomicU64::new(0));
        self
    }

    /// A representative mixed plan for smoke runs: delays, transient
    /// errors, panics, and wrong-shape outputs across the serving sites,
    /// each at `rate` (panics at a quarter of it — they cost a whole
    /// batch).
    pub fn mixed(seed: u64, rate: f64) -> Self {
        Self::new(seed)
            .with_fault(
                sites::SERVER_BATCH,
                FaultKind::Delay(Duration::from_millis(2)),
                rate,
            )
            .with_fault(sites::SERVER_BATCH, FaultKind::Panic, rate * 0.25)
            .with_fault(sites::ENGINE_RESOLVE, FaultKind::Error, rate * 0.5)
            .with_fault(sites::ENGINE_FORWARD, FaultKind::Error, rate)
            .with_fault(sites::ENGINE_FORWARD, FaultKind::WrongShape, rate * 0.5)
            .with_fault(sites::ENGINE_FORWARD, FaultKind::Panic, rate * 0.25)
            .with_fault(sites::HYBRID_FORWARD, FaultKind::Error, rate * 0.5)
            .with_fault(sites::HYBRID_FORWARD, FaultKind::Panic, rate * 0.25)
    }

    /// Decides whether a fault fires for this arrival at `site`. Counts
    /// the arrival; at most one spec fires. `Delay`/`Panic`/`Error` are
    /// usually applied through [`FaultPlan::fire`]; `WrongShape` and
    /// `CorruptByte` need site-specific handling by the caller.
    pub fn decide(&self, site: &'static str) -> Option<FaultKind> {
        let site_idx = sites::ALL.iter().position(|s| *s == site)?;
        let k = self.arrivals[site_idx].fetch_add(1, Ordering::Relaxed);
        for (idx, spec) in self.specs.iter().enumerate() {
            if spec.site != site {
                continue;
            }
            let word = splitmix64(
                self.seed
                    ^ site_hash(site)
                    ^ (idx as u64).wrapping_mul(0xA076_1D64_78BD_642F)
                    ^ k.wrapping_mul(0xE703_7ED1_A0B4_28DB),
            );
            let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if u < spec.rate {
                self.injected[idx].fetch_add(1, Ordering::Relaxed);
                return Some(spec.kind);
            }
        }
        None
    }

    /// The standard hook: decide, then apply `Delay` (sleep) and `Panic`
    /// (panic) inline, and surface `Error` as `Err(InjectedFault)`.
    /// `WrongShape`/`CorruptByte` decisions are returned to the caller via
    /// `Ok(Some(_))` for site-specific handling.
    pub fn fire(&self, site: &'static str) -> Result<Option<FaultKind>, InjectedFault> {
        match self.decide(site) {
            None => Ok(None),
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                Ok(Some(FaultKind::Delay(d)))
            }
            Some(FaultKind::Panic) => panic!("chaos: injected panic at `{site}`"),
            Some(FaultKind::Error) => Err(InjectedFault { site }),
            Some(other) => Ok(Some(other)),
        }
    }

    /// Applies a scheduled [`FaultKind::CorruptByte`] to a byte buffer:
    /// when the fault fires, one deterministic bit (chosen from the same
    /// SplitMix64 stream) is flipped. Returns whether corruption happened.
    pub fn corrupt(&self, site: &'static str, bytes: &mut [u8]) -> bool {
        if bytes.is_empty() || !matches!(self.decide(site), Some(FaultKind::CorruptByte)) {
            return false;
        }
        let word = splitmix64(self.seed ^ site_hash(site) ^ bytes.len() as u64);
        let bit = word as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        true
    }

    /// The torn image of `bytes` at `site`: the bytes that reach the file
    /// instead of `bytes` when a [`FaultKind::TornWrite`] fires — a
    /// deterministic prefix (at least one byte short of complete, so the
    /// frame can never validate) followed by a few garbage bytes, chosen
    /// from the same SplitMix64 stream. It does not consult the schedule:
    /// the caller already holds the `TornWrite` decision from
    /// [`FaultPlan::fire`] or [`FaultPlan::decide`].
    pub fn torn_image(&self, site: &'static str, bytes: &[u8]) -> Vec<u8> {
        if bytes.is_empty() {
            return Vec::new();
        }
        let word = splitmix64(self.seed ^ site_hash(site) ^ bytes.len() as u64);
        let keep = (word as usize) % bytes.len(); // 0..len-1: always short
        let mut torn = bytes[..keep].to_vec();
        let garbage = 1 + (word >> 32) as usize % 4;
        for g in 0..garbage {
            torn.push((splitmix64(word ^ g as u64) & 0xFF) as u8);
        }
        torn
    }

    /// Arrival/injection counters for one site.
    pub fn site_stats(&self, site: &str) -> SiteStats {
        let arrivals = sites::ALL
            .iter()
            .position(|s| *s == site)
            .map(|i| self.arrivals[i].load(Ordering::Relaxed))
            .unwrap_or(0);
        let injected = self
            .specs
            .iter()
            .zip(&self.injected)
            .filter(|(spec, _)| spec.site == site)
            .map(|(_, n)| n.load(Ordering::Relaxed))
            .sum();
        SiteStats { arrivals, injected }
    }

    /// Total faults fired across every site.
    pub fn total_injected(&self) -> u64 {
        self.injected
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed)
                .with_fault(sites::ENGINE_FORWARD, FaultKind::Error, 0.3)
                .with_fault(sites::ENGINE_FORWARD, FaultKind::WrongShape, 0.2);
            (0..200)
                .map(|_| plan.decide(sites::ENGINE_FORWARD))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7),
            run(8),
            "different seeds explore different schedules"
        );
    }

    #[test]
    fn rate_zero_never_fires_and_rate_one_always_fires() {
        let never = FaultPlan::new(1).with_fault(sites::SERVER_BATCH, FaultKind::Error, 0.0);
        let always = FaultPlan::new(1).with_fault(sites::SERVER_BATCH, FaultKind::Error, 1.0);
        for _ in 0..100 {
            assert_eq!(never.decide(sites::SERVER_BATCH), None);
            assert_eq!(always.decide(sites::SERVER_BATCH), Some(FaultKind::Error));
        }
        assert_eq!(never.total_injected(), 0);
        assert_eq!(always.total_injected(), 100);
        assert_eq!(always.site_stats(sites::SERVER_BATCH).arrivals, 100);
    }

    #[test]
    fn sites_are_independent_streams() {
        let plan = FaultPlan::new(3)
            .with_fault(sites::SERVER_BATCH, FaultKind::Error, 0.5)
            .with_fault(sites::ENGINE_FORWARD, FaultKind::Error, 0.5);
        let a: Vec<_> = (0..64).map(|_| plan.decide(sites::SERVER_BATCH)).collect();
        let b: Vec<_> = (0..64)
            .map(|_| plan.decide(sites::ENGINE_FORWARD))
            .collect();
        assert_ne!(a, b, "sites must not share one fault stream");
    }

    #[test]
    fn corrupt_flips_exactly_one_bit_when_scheduled() {
        let plan = FaultPlan::new(9).with_fault(sites::CKPT_DECODE, FaultKind::CorruptByte, 1.0);
        let original = vec![0xABu8; 64];
        let mut bytes = original.clone();
        assert!(plan.corrupt(sites::CKPT_DECODE, &mut bytes));
        let flipped: u32 = original
            .iter()
            .zip(&bytes)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit must flip");
        // Deterministic: the same plan state flips the same bit.
        let plan2 = FaultPlan::new(9).with_fault(sites::CKPT_DECODE, FaultKind::CorruptByte, 1.0);
        let mut bytes2 = original.clone();
        assert!(plan2.corrupt(sites::CKPT_DECODE, &mut bytes2));
        assert_eq!(bytes, bytes2);
        // Unscheduled corruption is a no-op.
        let none = FaultPlan::new(9);
        let mut untouched = original.clone();
        assert!(!none.corrupt(sites::CKPT_DECODE, &mut untouched));
        assert_eq!(untouched, original);
    }

    #[test]
    fn fire_applies_error_as_typed_fault() {
        let plan = FaultPlan::new(2).with_fault(sites::ENGINE_RESOLVE, FaultKind::Error, 1.0);
        let err = plan.fire(sites::ENGINE_RESOLVE).expect_err("must inject");
        assert_eq!(err.site, sites::ENGINE_RESOLVE);
        assert!(err.to_string().contains("engine.resolve"));
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic")]
    fn fire_applies_panic() {
        let plan = FaultPlan::new(2).with_fault(sites::SERVER_BATCH, FaultKind::Panic, 1.0);
        let _ = plan.fire(sites::SERVER_BATCH);
    }

    #[test]
    fn tear_is_deterministic_short_and_garbage_tailed() {
        let torn = |seed: u64| FaultPlan::new(seed).torn_image(sites::WAL_APPEND, &[0x11u8; 40]);
        let a = torn(5);
        assert_eq!(a, torn(5), "tear point must replay per seed");
        // The intact prefix is strictly shorter than the frame (plus at
        // most 4 garbage bytes), so a torn frame can never validate whole.
        assert!(a.len() <= 39 + 4);
        assert_ne!(a, vec![0x11u8; 40]);
        // An empty write tears to nothing.
        assert!(FaultPlan::new(5)
            .torn_image(sites::WAL_APPEND, &[])
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown fault site")]
    fn unregistered_sites_are_rejected() {
        let _ = FaultPlan::new(0).with_fault("no.such.site", FaultKind::Error, 1.0);
    }
}
