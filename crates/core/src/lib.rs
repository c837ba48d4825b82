//! # hire-core
//!
//! The paper's primary contribution: the **Heterogeneous Interaction Rating
//! nEtwork (HIRE)** for cold-start rating prediction.
//!
//! - [`HireConfig`] — hyper-parameters (paper defaults in
//!   [`HireConfig::paper_default`])
//! - [`ContextEncoder`] — Eq. (6)-(9): per-attribute embeddings assembled
//!   into the context tensor `H ∈ R^{n×m×e}`
//! - [`HimStack`] — § IV-C: K blocks of the three stacked MHSA layers
//!   (MBU, MBI, MBA), trained as one autograd node whose forward is the
//!   serving forward's body
//! - [`HireModel`] — encoder → K HIMs → `α · sigmoid(g(H))` decoder; its
//!   autograd forward trains, [`HireModel::predict`] runs the no-grad one
//! - [`FrozenModel`] — a model's weights as plain arrays, `Send + Sync`,
//!   with the one tape-free forward (one context at a time, f32) that
//!   serving and evaluation share, asked for every cell or only for the
//!   cells a caller reads; bit-identical to the autograd forward.
//!   [`QuantizedModel`] is one whose weights were rounded through int8 when
//!   it was built
//! - [`train`] — Algorithm 1 with LAMB + Lookahead + flat-then-anneal LR
//!   — and, with [`TrainConfig::resume`], bit-exact crash resume from
//!   durable snapshots (see `hire-ckpt`)
//! - [`HybridModel::fit`] — the lightweight bias + content [`HybridModel`]
//!   served as a degradation mid-tier by `hire-serve` (DESIGN.md §13)
//!
//! The model is permutation equivariant over context users and items
//! (Property 5.1) — enforced by tests in `him.rs`/`model.rs` and the
//! property suite under `tests/`.

mod config;
mod encoder;
mod frozen;
mod guard;
mod him;
mod hybrid;
mod model;
mod nograd;
pub mod trainer;

pub use config::HireConfig;
pub use encoder::ContextEncoder;
pub use frozen::{FrozenModel, QuantizedModel};
pub use guard::{RecoveryEvent, TrainOutcome, TrainReport};
pub use him::{HimAttention, HimStack};
pub use hybrid::{train_hybrid, HybridConfig, HybridModel};
pub use model::HireModel;
pub use trainer::{fine_tune, train, TrainConfig};
