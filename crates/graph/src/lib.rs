//! # hire-graph
//!
//! Graph substrate of the HIRE reproduction: the user-item bipartite rating
//! graph ([`BipartiteGraph`]), the user-user social graph ([`SocialGraph`],
//! for the GraphRec baseline), and the three prediction-context sampling
//! strategies of § IV-B / § VI-E:
//!
//! - [`NeighborhoodSampler`] — BFS from the seed pair (the paper's default)
//! - [`RandomSampler`] — uniform sampling ablation
//! - [`FeatureSimilaritySampler`] — cosine-similarity ablation

//!
//! Serving-side concurrency lives in [`epoch`]: epoch-pinned snapshots
//! ([`EpochedGraph`] / [`PinnedGraph`]), copy-on-write by row chunk (see
//! [`bipartite`]), and the shared [`EpochSource`] guard abstraction
//! (DESIGN.md §14).

pub mod bipartite;
pub mod epoch;
pub mod sampler;

// The legacy samplers `tests/sampler_regression.rs` compares against are
// written against the public API; the unit tests of `sampler`, which can
// reach its private scratch, compile the same file under the crate's name.
#[cfg(test)]
extern crate self as hire_graph;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

pub use bipartite::{BipartiteGraph, ChunkSharing, Rating, SocialGraph};
pub use epoch::{EpochSource, EpochedGraph, PinnedGraph};
pub use sampler::{
    ContextSampler, ContextSelection, FeatureSimilaritySampler, NeighborhoodSampler, RandomSampler,
};
