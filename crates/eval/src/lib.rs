//! # hire-eval
//!
//! Experiment harness for the HIRE reproduction: the [`RatingModel`]
//! adapter for HIRE ([`HireRatingModel`]), the per-scenario evaluation
//! runner ([`evaluate_model`]) producing the paper's Precision/NDCG/MAP @
//! {5, 7, 10} tables, the panic/timeout-isolated variant
//! ([`evaluate_model_isolated`]), the model zoo (`zoo`) that
//! instantiates every method applicable to a dataset, and the evidence
//! probes ([`support_level`], [`support_transfer`],
//! [`attention_evidence`]): what a model does with the ratings a cold
//! entity reveals. The ranking metrics and their aggregation are
//! [`metrics`].

mod fault;
mod hire_adapter;
pub mod metrics;
mod probes;
mod runner;
mod zoo;

pub use fault::{evaluate_model_isolated, EvalStatus, ModelSpec};
pub use hire_adapter::HireRatingModel;
pub use hire_baselines::RatingModel;
pub use probes::{
    attention_evidence, cell_shares, support_level, support_transfer, AttentionEvidence, CellShare,
    Layer, Transfer,
};
pub use runner::{
    evaluate_model, format_metric, format_table, format_timing, EvalConfig, MetricsAtK,
    ModelResult, RANDOM_ROW,
};
pub use zoo::{baseline_specs, baselines, hire, hire_spec, hire_spec_with_train_config, SpeedTier};
