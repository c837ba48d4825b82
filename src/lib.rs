//! # HIRE — Heterogeneous Interaction Modeling for Cold-Start Rating Prediction
//!
//! A from-scratch Rust reproduction of the ICDE 2025 paper *"All-in-One:
//! Heterogeneous Interaction Modeling for Cold-Start Rating Prediction"*.
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `hire-tensor` | dense `f32` tensors + reverse-mode autograd |
//! | [`nn`] | `hire-nn` | Linear/Embedding/MHSA/LayerNorm/MLP layers |
//! | [`optim`] | `hire-optim` | SGD/Adam/LAMB/Lookahead, LR schedules, clipping |
//! | [`graph`] | `hire-graph` | bipartite rating graph + context samplers |
//! | [`data`] | `hire-data` | datasets, synthetic generators, cold-start splits |
//! | [`core`] | `hire-core` | the HIRE model (HIM blocks) and trainer |
//! | [`baselines`] | `hire-baselines` | NeuMF, Wide&Deep, DeepFM, AFN, GraphRec, HIN, MeLU, MAMO, TaNP |
//! | [`metrics`] | `hire-metrics` | Precision/NDCG/MAP @ k |
//! | [`eval`] | `hire-eval` | the comparison harness used by the benches |
//! | [`serve`] | `hire-serve` | online inference: frozen models, context cache, worker pool, degradation ladder |
//! | [`wal`] | `hire-wal` | write-ahead log: group commit, segment rotation, crash recovery |
//! | [`chaos`] | `hire-chaos` | deterministic fault injection for resilience testing |
//!
//! ```
//! use hire::prelude::*;
//! use rand::SeedableRng;
//!
//! // 1. generate a small MovieLens-like dataset
//! let dataset = SyntheticConfig::movielens_like().scaled(40, 30, (8, 16)).generate(7);
//! // 2. make a user cold-start split and train HIRE
//! let split = ColdStartSplit::new(&dataset, ColdStartScenario::UserCold, 0.25, 0.1, 7);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let config = HireConfig::fast().with_blocks(1).with_context_size(6, 6);
//! let model = HireModel::new(&dataset, &config, &mut rng);
//! let report = hire::core::train(
//!     &model, &dataset, &split.train_graph(&dataset), &NeighborhoodSampler,
//!     &TrainConfig { steps: 5, batch_size: 2, base_lr: 1e-3, grad_clip: 1.0,
//!                    ..TrainConfig::paper_default() },
//!     &mut rng)
//!     .expect("training");
//! assert_eq!(report.steps.len(), 5);
//! assert!(report.recoveries.is_empty());
//! ```

pub use hire_baselines as baselines;
pub use hire_chaos as chaos;
pub use hire_core as core;
pub use hire_data as data;
pub use hire_error as error;
pub use hire_eval as eval;
pub use hire_graph as graph;
pub use hire_metrics as metrics;
pub use hire_nn as nn;
pub use hire_optim as optim;
pub use hire_serve as serve;
pub use hire_tensor as tensor;
pub use hire_wal as wal;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use hire_core::{
        fine_tune, train, train_guarded, GuardConfig, HireConfig, HireModel, TrainConfig,
        TrainOutcome, TrainReport,
    };
    pub use hire_data::{
        test_context, training_context, ColdStartScenario, ColdStartSplit, Dataset,
        PredictionContext, SyntheticConfig,
    };
    pub use hire_eval::{evaluate_model, EvalConfig, HireRatingModel, SpeedTier};
    pub use hire_graph::{
        BipartiteGraph, ContextSampler, FeatureSimilaritySampler, NeighborhoodSampler,
        RandomSampler, Rating,
    };
    pub use hire_metrics::{map_at_k, ndcg_at_k, precision_at_k, ranking_metrics, ScoredPair};
    pub use hire_nn::Module;
    pub use hire_serve::{
        BreakerConfig, BreakerState, ColdScenario, EngineConfig, EvalReport, FrozenModel,
        ModelVersion, OnlineConfig, OnlineLoop, OnlineTrainer, RatingQuery, ResilienceConfig,
        RoundOutcome, ServeEngine, ServeError, ServedBy, Server, ServerConfig, TierStats,
    };
    pub use hire_tensor::{NdArray, Shape, Tensor};
    pub use hire_wal::{Wal, WalOptions};
}
