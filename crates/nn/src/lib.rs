//! # hire-nn
//!
//! Neural-network layers for the HIRE reproduction, built on
//! [`hire_tensor`]'s autograd engine:
//!
//! - [`Linear`], [`Embedding`], [`Mlp`], [`LayerNorm`], [`Dropout`]
//! - [`MultiHeadSelfAttention`] — the batched, parameter-sharing MHSA that
//!   powers the paper's Heterogeneous Interaction Module
//! - [`Module`] — the trainable-parameter trait consumed by `hire-optim`
//! - [`mhsa_forward`] over [`MhsaWeights`] — the one tape-free MHSA
//!   mirror used by serving (`hire-serve`), generic over the weight
//!   storage format (`hire_tensor::WeightMatrix`: f32 or int8)
//! - loss functions ([`loss`])

pub mod activation;
pub mod attention;
pub mod dropout;
pub mod embedding;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod module;
pub mod nograd;
pub mod norm;

pub use activation::Activation;
pub use attention::{AttentionOutput, MultiHeadSelfAttention};
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use linear::Linear;
pub use loss::{bce_loss, mae, masked_mse_loss, mse_loss, rmse};
pub use mlp::Mlp;
pub use module::Module;
pub use nograd::{
    mhsa_forward, mhsa_forward_into, mhsa_forward_with_isa, mhsa_workspace_len, MhsaWeights,
};
pub use norm::LayerNorm;
