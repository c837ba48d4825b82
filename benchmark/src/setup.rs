//! The set-up every workload shares: dataset → graph → train a HIRE model
//! for a fixed step count → freeze → int8 quantize → train the hybrid
//! model. The workloads add their own engine/WAL build and cache warm-up.
//! Each stage is timed; the sum is the round's `setup_s`.
//!
//! Every stage is deterministic work on seeded inputs — no sleeps, no
//! padding — and together they take well over a second on every workload,
//! so `setup_s` is never a 0.03 s number that scheduler noise dominates.

use crate::common::Failure;
use hire_core::{
    train, train_hybrid, HireConfig, HireModel, HybridConfig, HybridModel, TrainConfig,
};
use hire_data::Dataset;
use hire_graph::{BipartiteGraph, NeighborhoodSampler};
use hire_serve::{FrozenModel, QuantizedModel};
use hire_tensor::QuantMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Wall seconds of each set-up stage of one round.
#[derive(Debug, Clone, Default)]
pub struct Stages {
    pub gen_s: f64,
    pub graph_s: f64,
    /// Model initialisation plus every warm-start step.
    pub train_s: f64,
    /// The warm-start steps one by one (they are separate `train` calls).
    pub train_steps: Vec<f64>,
    pub freeze_s: f64,
    pub quant_s: f64,
    pub hybrid_s: f64,
    pub engine_s: f64,
    pub warm_s: f64,
}

impl Stages {
    pub fn total(&self) -> f64 {
        self.gen_s
            + self.graph_s
            + self.train_s
            + self.freeze_s
            + self.quant_s
            + self.hybrid_s
            + self.engine_s
            + self.warm_s
    }

    /// The set-up cut into its separately timed pieces, in a fixed order:
    /// the stages, with training split into initialisation and single
    /// steps. `fastest` sums each piece's fastest round.
    pub fn pieces(&self) -> Vec<f64> {
        let steps: f64 = self.train_steps.iter().sum();
        let mut pieces = vec![self.gen_s, self.graph_s, self.train_s - steps];
        pieces.extend(&self.train_steps);
        pieces.extend([
            self.freeze_s,
            self.quant_s,
            self.hybrid_s,
            self.engine_s,
            self.warm_s,
        ]);
        pieces
    }

    /// Set-up time with every piece taken from the round that ran it
    /// fastest. The host's slow bursts last tens of milliseconds and a
    /// round's set-up computes for well over a second, so no whole round
    /// escapes them — but each ~0.1 s piece does in at least one round.
    pub fn fastest(rounds: &[&Stages]) -> f64 {
        let all: Vec<Vec<f64>> = rounds.iter().map(|s| s.pieces()).collect();
        let Some(first) = all.first() else {
            return 0.0;
        };
        (0..first.len())
            .map(|j| {
                all.iter()
                    .map(|pieces| pieces.get(j).copied().unwrap_or(f64::INFINITY))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    pub fn named(&self) -> [(&'static str, f64); 8] {
        [
            ("setup.gen_s", self.gen_s),
            ("setup.graph_s", self.graph_s),
            ("setup.train_s", self.train_s),
            ("setup.freeze_s", self.freeze_s),
            ("setup.quant_s", self.quant_s),
            ("setup.hybrid_s", self.hybrid_s),
            ("setup.engine_s", self.engine_s),
            ("setup.warm_s", self.warm_s),
        ]
    }
}

/// Runs `f` and adds its wall time to `slot`.
pub fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// Sub-seeds, so that the dataset, the split, the model initialisation and
/// the training stream are independent functions of `--seed`.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    crate::rng::SplitMix64::stream(seed, stream).next_u64()
}

pub const SEED_DATASET: u64 = 1;
pub const SEED_SPLIT: u64 = 2;
pub const SEED_MODEL: u64 = 3;
pub const SEED_TRAIN: u64 = 4;
pub const SEED_QUERIES: u64 = 5;
pub const SEED_ARRIVALS: u64 = 6;
pub const SEED_PROBES: u64 = 7;

/// The trained models of one round.
pub struct Models {
    pub config: HireConfig,
    /// The live (tape) model; `train_eval` keeps training it.
    pub model: HireModel,
    pub frozen: FrozenModel,
    pub quant: QuantizedModel,
    pub hybrid: HybridModel,
}

/// Training steps of the warm start every set-up does (batch 4, so 64
/// contexts forward and backward): the bulk of every workload's set-up.
pub const WARM_START_STEPS: usize = 16;

/// `TrainConfig::fast()` (batch 4, lr 3e-3, clip 1.0) for `steps` steps.
pub fn train_config(steps: usize) -> TrainConfig {
    TrainConfig {
        steps,
        ..TrainConfig::fast()
    }
}

/// Trains, freezes, quantizes and fits the hybrid model on `train_graph`.
/// `dataset.ratings` feeds the hybrid model, so callers whose dataset was
/// generated without a rating list fill it first.
pub fn build_models(
    dataset: &Dataset,
    train_graph: &BipartiteGraph,
    seed: u64,
    stages: &mut Stages,
) -> Result<Models, Failure> {
    let config = HireConfig::fast();
    let model = timed(&mut stages.train_s, || {
        let mut init = StdRng::seed_from_u64(sub_seed(seed, SEED_MODEL));
        HireModel::new(dataset, &config, &mut init)
    });
    // One `train` call per step (the same slices `train_eval` times), so
    // that every step is a separately timed piece of the set-up.
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, SEED_TRAIN));
    for _ in 0..WARM_START_STEPS {
        let mut step_s = 0.0;
        let report = timed(&mut step_s, || {
            train(
                &model,
                dataset,
                train_graph,
                &NeighborhoodSampler,
                &train_config(1),
                &mut rng,
            )
        })?;
        crate::common::ensure(
            report.steps.len() == 1 && report.recoveries.is_empty(),
            || "a warm-start training step did not complete cleanly".to_string(),
        )?;
        stages.train_s += step_s;
        stages.train_steps.push(step_s);
    }
    let frozen = timed(&mut stages.freeze_s, || {
        FrozenModel::from_model(&model, dataset)
    })?;
    let quant = timed(&mut stages.quant_s, || {
        QuantizedModel::from_frozen(&frozen, QuantMode::Int8)
    });
    let hybrid = timed(&mut stages.hybrid_s, || {
        train_hybrid(
            dataset,
            &HybridConfig {
                epochs: 2,
                ..HybridConfig::default()
            },
        )
    });
    Ok(Models {
        config,
        model,
        frozen,
        quant,
        hybrid,
    })
}
