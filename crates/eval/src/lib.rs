//! # hire-eval
//!
//! The HIRE reproduction's evaluation: the paper's protocol at a compute
//! tier, written once ([`SpeedTier`], [`dataset_for`], [`paper_split`]),
//! the [`RatingModel`] adapter for HIRE ([`HireRatingModel`]), the
//! per-scenario evaluation runner ([`evaluate_model`]) producing the
//! paper's Precision/NDCG/MAP @ {5, 7, 10} tables, run panic/timeout-
//! isolated per [`ModelSpec`] by the harness, the model zoo
//! ([`baseline_specs`], [`hire_spec`]) that instantiates every method
//! applicable to a dataset, the evidence probes ([`support_level`],
//! [`support_transfer`], [`attention_evidence`]): what a model does with
//! the ratings a cold entity reveals, and the crash-safe sweep the table
//! and figure binaries of `src/bin/` share ([`HarnessArgs`],
//! [`run_sweep`]). The ranking metrics and their aggregation are
//! [`metrics`].

mod fault;
mod harness;
mod hire_adapter;
pub mod metrics;
mod probes;
mod runner;
mod tier;
mod zoo;

pub use fault::{EvalStatus, ModelSpec};
pub use harness::{
    maybe_write_json, mean_std, rank, run_overall_table, run_overall_table_with,
    run_scenario_with_specs, run_standard_sweep, run_sweep, write_json_atomic, HarnessArgs,
    ScenarioReport, Verdict,
};
pub use hire_adapter::HireRatingModel;
pub use hire_baselines::RatingModel;
pub use probes::{
    attention_evidence, cell_shares, support_level, support_transfer, AttentionEvidence, CellShare,
    Layer, Transfer,
};
pub use runner::{
    evaluate_model, format_metric, format_table, format_timing, EvalConfig, MetricsAtK, ModelResult,
};
pub use tier::{dataset_for, paper_split, DatasetKind, SpeedTier};
pub use zoo::{baseline_specs, baselines, hire_spec};
