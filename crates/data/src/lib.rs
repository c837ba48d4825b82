//! # hire-data
//!
//! Dataset substrate of the HIRE reproduction:
//!
//! - [`EntitySchema`] / [`Attribute`] — categorical side information
//! - [`Dataset`] — entities, attributes, ratings, optional social graph
//! - [`SyntheticConfig`] — generators standing in for MovieLens-1M, Douban
//!   and Bookcrossing (see DESIGN.md for the substitution rationale)
//! - [`ColdStartSplit`] — the three cold-start scenarios of § III-A
//! - [`PredictionContext`] — the `n x m` rating blocks of § IV-B with
//!   input/target masks ([`training_context`], [`test_context`], and
//!   [`pair_context`], the one query pair's test context)

mod context;
mod dataset;
mod schema;
mod split;
mod synthetic;

pub use context::{
    context_seed, pair_context, test_context, test_context_with_ratio, training_context,
    PredictionContext, PAIR_CONTEXT_SEED,
};
pub use dataset::{Dataset, DatasetProfile};
pub use schema::{Attribute, EntitySchema};
pub use split::{ColdStartScenario, ColdStartSplit};
pub use synthetic::{SocialConfig, SyntheticConfig};
