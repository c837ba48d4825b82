//! The paper's evaluation protocol at a compute tier, written once: what
//! a tier means for every model's budget and for the smoke cap, which
//! dataset stand-in each table runs on, and the § VI-A split every method
//! is scored on — 20 % of MovieLens entities, 30 % of Douban and
//! Bookcrossing held out cold, 10 % of each cold entity's ratings revealed.

use hire_baselines::{EdgeTrainConfig, MetaTrainConfig, TanpConfig};
use hire_core::{HireConfig, TrainConfig};
use hire_data::{ColdStartScenario, ColdStartSplit, Dataset, SyntheticConfig};

/// Cold entities a scenario scores at most at [`SpeedTier::Smoke`].
const SMOKE_ENTITIES: usize = 8;

/// Share of each cold entity's ratings revealed as its support (§ VI-A).
const SUPPORT_FRAC: f32 = 0.1;

/// Compute budget for a comparison run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedTier {
    /// Seconds per model — CI smoke runs.
    Smoke,
    /// A few minutes per table — the default for the benchmark harness.
    Fast,
    /// Closest to the paper's configuration (32x32 contexts, 3 HIMs).
    Full,
}

impl SpeedTier {
    pub(crate) fn edge_config(self) -> EdgeTrainConfig {
        match self {
            SpeedTier::Smoke => EdgeTrainConfig {
                epochs: 2,
                batch_size: 128,
                lr: 1e-2,
            },
            SpeedTier::Fast => EdgeTrainConfig {
                epochs: 8,
                batch_size: 128,
                lr: 1e-2,
            },
            SpeedTier::Full => EdgeTrainConfig {
                epochs: 20,
                batch_size: 128,
                lr: 5e-3,
            },
        }
    }

    pub(crate) fn meta_config(self) -> MetaTrainConfig {
        match self {
            SpeedTier::Smoke => MetaTrainConfig {
                outer_steps: 5,
                ..Default::default()
            },
            SpeedTier::Fast => MetaTrainConfig {
                outer_steps: 40,
                ..Default::default()
            },
            SpeedTier::Full => MetaTrainConfig {
                outer_steps: 150,
                ..Default::default()
            },
        }
    }

    pub(crate) fn tanp_config(self) -> TanpConfig {
        match self {
            SpeedTier::Smoke => TanpConfig {
                steps: 8,
                ..Default::default()
            },
            SpeedTier::Fast => TanpConfig {
                steps: 60,
                ..Default::default()
            },
            SpeedTier::Full => TanpConfig {
                steps: 200,
                ..Default::default()
            },
        }
    }

    /// The HIRE model configuration at this tier.
    pub fn hire_config(self) -> HireConfig {
        match self {
            SpeedTier::Smoke => HireConfig::fast().with_blocks(1).with_context_size(8, 8),
            SpeedTier::Fast => HireConfig::fast(),
            SpeedTier::Full => HireConfig::paper_default(),
        }
    }

    /// The HIRE training configuration at this tier.
    pub fn hire_train_config(self) -> TrainConfig {
        match self {
            SpeedTier::Smoke => TrainConfig {
                steps: 20,
                batch_size: 2,
                base_lr: 3e-3,
                grad_clip: 1.0,
                ..TrainConfig::paper_default()
            },
            SpeedTier::Fast => TrainConfig {
                steps: 150,
                batch_size: 4,
                base_lr: 3e-3,
                grad_clip: 1.0,
                ..TrainConfig::paper_default()
            },
            SpeedTier::Full => TrainConfig::paper_default(),
        }
    }

    pub(crate) fn field_dim(self) -> usize {
        match self {
            SpeedTier::Smoke => 4,
            SpeedTier::Fast | SpeedTier::Full => 8,
        }
    }

    /// The cold entities a scenario scores when `requested` were asked
    /// for: all of them, but at most 8 at `Smoke`.
    pub(crate) fn max_entities(self, requested: usize) -> usize {
        match self {
            SpeedTier::Smoke => requested.min(SMOKE_ENTITIES),
            _ => requested,
        }
    }
}

/// The three dataset stand-ins, scaled per tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// MovieLens-1M stand-in (rich attributes).
    MovieLens,
    /// Douban stand-in (ID-only + social).
    Douban,
    /// Bookcrossing stand-in (sparse attributes, 1-10 scale).
    Bookcrossing,
}

/// Generates a dataset stand-in at the tier's scale.
pub fn dataset_for(kind: DatasetKind, tier: SpeedTier, seed: u64) -> Dataset {
    let base = match kind {
        DatasetKind::MovieLens => SyntheticConfig::movielens_like(),
        DatasetKind::Douban => SyntheticConfig::douban_like(),
        DatasetKind::Bookcrossing => SyntheticConfig::bookcrossing_like(),
    };
    let cfg = match tier {
        SpeedTier::Smoke => base.scaled(60, 50, (10, 20)),
        SpeedTier::Fast => base.scaled(150, 120, (20, 45)),
        SpeedTier::Full => base,
    };
    cfg.generate(seed)
}

/// Cold fraction per dataset, following § VI-A (20 % of MovieLens users,
/// 30 % for Douban/Bookcrossing).
fn cold_frac(kind: DatasetKind) -> f32 {
    match kind {
        DatasetKind::MovieLens => 0.2,
        _ => 0.3,
    }
}

/// The paper's split of `dataset`, a `kind` stand-in, for `scenario` at
/// `seed`: what every table, figure and probe scores a method on.
pub fn paper_split(
    dataset: &Dataset,
    kind: DatasetKind,
    scenario: ColdStartScenario,
    seed: u64,
) -> ColdStartSplit {
    ColdStartSplit::new(dataset, scenario, cold_frac(kind), SUPPORT_FRAC, seed)
}
