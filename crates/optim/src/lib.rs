//! # hire-optim
//!
//! Optimizers and learning-rate schedules used to train the HIRE model and
//! the baselines, matching the paper's implementation details:
//!
//! - [`Lamb`] with β = (0.9, 0.999), ε = 1e-6 ([`Lamb::paper_default`])
//! - [`Lookahead`] wrapper with α = 0.5, k = 6 ([`Lookahead::paper_default`])
//! - [`FlatThenAnneal`] schedule: flat at 1e-3 for 70 % of steps, then
//!   cosine to zero
//! - global-norm gradient clipping at 1.0 ([`clip_grad_norm`])
//! - plus [`Sgd`] and [`Adam`] for the baseline models

mod clip;
mod optimizer;
mod schedule;

pub use clip::{clip_grad_norm, GradClipStats};
pub use optimizer::{Adam, Lamb, Lookahead, Optimizer, Sgd};
pub use schedule::{ConstantLr, FlatThenAnneal, LrSchedule};
