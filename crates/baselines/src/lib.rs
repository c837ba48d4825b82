//! # hire-baselines
//!
//! The comparison methods of the paper's evaluation (§ VI-A), implemented
//! on the same tensor/NN substrate as HIRE:
//!
//! - CF-based: [`NeuMF`], [`WideDeep`], [`DeepFM`],
//!   [`Afn`]
//! - Social recommendation: [`GraphRec`] (datasets with a social graph)
//! - HIN-based: [`HinNeighbor`] (GraphHINGE/MetaHIN-lite; attribute-rich
//!   datasets)
//! - Meta-learning: [`MeLU`], [`Mamo`], [`Tanp`]
//! - Naive references: [`GlobalMean`], [`EntityMean`], and [`Random`],
//!   the row every method's ranking is read against
//!
//! All models implement [`RatingModel`]; the evaluation harness treats them
//! uniformly. Simplifications relative to the authors' released code are
//! documented per-module and in DESIGN.md §2.

mod afn;
mod common;
mod deepfm;
mod graphrec;
mod hin;
mod mamo;
mod melu;
mod meta;
mod naive;
mod neumf;
mod tanp;
mod wide_deep;

pub use afn::Afn;
pub use common::{EdgeTrainConfig, RatingModel};
pub use deepfm::DeepFM;
pub use graphrec::GraphRec;
pub use hin::HinNeighbor;
pub use mamo::Mamo;
pub use melu::{MeLU, MetaTrainConfig};
pub use naive::{EntityMean, GlobalMean, Random};
pub use neumf::NeuMF;
pub use tanp::{Tanp, TanpConfig};
pub use wide_deep::WideDeep;
