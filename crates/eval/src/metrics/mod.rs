//! Evaluation metrics: the ranking metrics used throughout the paper's
//! tables ([`precision_at_k`], [`ndcg_at_k`], [`map_at_k`] at
//! k ∈ {5, 7, 10}), and the `mean(std)` aggregation the runner keeps to
//! itself.

mod aggregate;
mod ranking;

pub(crate) use aggregate::Accumulator;
pub(crate) use ranking::RankedList;
pub use ranking::{
    map_at_k, ndcg_at_k, precision_at_k, ranking_metrics, RankingMetrics, ScoredPair,
};
