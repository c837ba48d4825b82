//! # hire-nn
//!
//! Neural-network layers for the HIRE reproduction, built on
//! [`hire_tensor`]'s autograd engine:
//!
//! - [`Linear`], [`Embedding`], [`Mlp`], [`LayerNorm`]
//! - [`MultiHeadSelfAttention`] — the batched, parameter-sharing MHSA that
//!   powers the paper's Heterogeneous Interaction Module
//! - [`Module`] — the trainable-parameter trait consumed by `hire-optim`
//! - [`mhsa_forward`] over [`MhsaWeights`] — the one tape-free MHSA
//!   mirror used by serving (`hire-serve`), over owned or borrowed f32
//!   weights; [`mhsa_train_forward`] and [`mhsa_backward`], the same
//!   forward keeping what its backward reads ([`MhsaKept`]), which the tape
//!   layer and `hire-core`'s HIM node train through
//! - loss functions (`loss`)

mod activation;
mod attention;
mod embedding;
mod linear;
mod loss;
mod mlp;
mod module;
mod nograd;
mod norm;

pub use activation::Activation;
pub use attention::{
    mhsa_backward, mhsa_train_forward, AttentionOutput, MhsaKept, MultiHeadSelfAttention,
};
pub use embedding::Embedding;
pub use linear::Linear;
pub use loss::{mse_loss, rmse};
pub use mlp::Mlp;
pub use module::Module;
pub use nograd::{
    mhsa_forward, mhsa_forward_into, mhsa_forward_with_isa, mhsa_queries_into,
    mhsa_queries_workspace_len, mhsa_workspace_len, MhsaWeights,
};
pub use norm::LayerNorm;
