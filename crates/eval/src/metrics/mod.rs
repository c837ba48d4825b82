//! Evaluation metrics: the ranking metrics used throughout the paper's
//! tables ([`precision_at_k`], [`ndcg_at_k`], [`map_at_k`] at
//! k ∈ {5, 7, 10}) and `mean(std)` aggregation ([`Accumulator`]).

mod aggregate;
mod ranking;

pub use aggregate::Accumulator;
pub use ranking::{
    map_at_k, ndcg_at_k, precision_at_k, ranking_metrics, RankedList, RankingMetrics, ScoredPair,
};
